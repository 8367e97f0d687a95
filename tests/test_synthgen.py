"""Scenario generator: determinism, planted geometry, corpus plumbing."""

import numpy as np
import pytest

from qxg.builder import build
from qxg.calculi import Motion
from qxg.explainer import EncodingSpec, extract_features
from qxg.scene import NO_CAUSE, serialize_scene
from qxg.synthgen import (
    ACTION_FOR_KIND,
    CLEAR_CRUISE,
    EGO_ID,
    GAP_ACCELERATE,
    KINDS,
    LEAD_VEHICLE_BRAKING,
    STOPPING_FOR_CROSSER,
    ScenarioSpec,
    generate_corpus,
    generate_dataset,
    generate_scene,
    split_scenes,
)

SPEC5 = EncodingSpec()


def _window_chain(scene, annotation, other):
    graph = build(scene)
    start = annotation.frame_index - 4
    return [
        rel
        for f, rel in graph.edge_chain(EGO_ID, other, annotation.frame_index, 5)
        if f >= start
    ]


def _vectors(scene, annotation):
    graph = build(scene)
    return {
        s.other: s.vector
        for s in extract_features(graph, EGO_ID, annotation.frame_index, SPEC5)
    }


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_spec_same_bytes(self, kind):
        spec = ScenarioSpec(kind, seed=123)
        scene_a, ann_a, gt_a = generate_scene(spec)
        scene_b, ann_b, gt_b = generate_scene(spec)
        assert serialize_scene(scene_a) == serialize_scene(scene_b)
        assert ann_a == ann_b
        assert gt_a == gt_b

    def test_seed_changes_the_dressing(self):
        a, _, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=1))
        b, _, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=2))
        assert serialize_scene(a) != serialize_scene(b)
        assert a.scene_id != b.scene_id


class TestSceneShape:
    @pytest.mark.parametrize("kind", KINDS)
    def test_annotation_and_validity(self, kind):
        scene, ann, gt = generate_scene(ScenarioSpec(kind, seed=5))
        assert ann.actor_id == EGO_ID
        assert ann.action == ACTION_FOR_KIND[kind]
        assert ann.scene_id == scene.scene_id == gt.scene_id
        assert gt.annotation == ann
        assert len(scene.frames) == 12

    def test_stopping_scene_layout(self):
        scene, ann, gt = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=9))
        assert ann.frame_index == 8
        assert gt.cause_id == "ped"
        # the ego really is stationary from the annotated frame on
        ys = [scene.frame_at(f).get(EGO_ID).bbox.y.mid for f in range(12)]
        assert ys[8] == ys[9] == ys[10] == ys[11]
        assert ys[7] != ys[6]
        # three distractors leave before the window, one flickers inside it
        for oid in ("d0", "d1", "d2"):
            present = [f.index for f in scene.frames if f.get(oid)]
            assert max(present) < 4
        linger = [f.index for f in scene.frames if f.get("d3")]
        assert linger == [5, 6]

    def test_accelerating_scene_layout(self):
        scene, ann, gt = generate_scene(ScenarioSpec(GAP_ACCELERATE, seed=11))
        assert ann.frame_index == 11
        assert gt.cause_id == "lead"
        ys = [scene.frame_at(f).get(EGO_ID).bbox.y.mid for f in range(12)]
        assert ys[0] == ys[8]  # parked through frame 8
        assert ys[11] > ys[10] > ys[9] > ys[8]
        linger = [f.index for f in scene.frames if f.get("d3")]
        assert linger == [10, 11]

    def test_cruise_has_no_cause(self):
        scene, ann, gt = generate_scene(ScenarioSpec(CLEAR_CRUISE, seed=13))
        assert gt.cause_id == NO_CAUSE
        assert gt.nearest_id is not None

    def test_cause_is_nearest_at_annotation(self):
        for kind in (STOPPING_FOR_CROSSER, LEAD_VEHICLE_BRAKING, GAP_ACCELERATE):
            _, _, gt = generate_scene(ScenarioSpec(kind, seed=21))
            assert gt.nearest_id == gt.cause_id

    def test_no_distractors(self):
        scene, _, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=3, n_distractors=0))
        assert {s.object_id for frame in scene.frames for s in frame.objects} == {EGO_ID, "ped"}


class TestPlantedChains:
    def test_crosser_approach_signature(self):
        scene, ann, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=31))
        chain = _window_chain(scene, ann, "ped")
        assert len(chain) == 5
        bands = [rel.qdc.band_index for rel in chain]
        assert bands == sorted(bands, reverse=True) and bands[0] > bands[-1]
        assert [rel.qtcb.a for rel in chain] == [Motion.TOWARDS] * 4 + [Motion.STABLE]
        assert all(rel.qtcb.b is Motion.TOWARDS for rel in chain)
        assert {rel.star4.label for rel in chain} == {"NW"}

    def test_lead_braking_signature(self):
        scene, ann, _ = generate_scene(ScenarioSpec(LEAD_VEHICLE_BRAKING, seed=32))
        chain = _window_chain(scene, ann, "lead")
        assert [r.ra.x.label for r in chain] == ["Overlaps"] * 5
        assert [(r.qtcb.a.label[0], r.qtcb.b.label[0]) for r in chain] == [
            ("T", "A"), ("T", "S"), ("T", "S"), ("T", "S"), ("S", "S"),
        ]

    def test_gap_accelerate_signature(self):
        scene, ann, _ = generate_scene(ScenarioSpec(GAP_ACCELERATE, seed=33))
        chain = _window_chain(scene, ann, "lead")
        assert [(r.qtcb.a.label[0], r.qtcb.b.label[0]) for r in chain] == [
            ("S", "S"), ("S", "A"), ("T", "A"), ("T", "A"), ("T", "A"),
        ]
        bands = [r.qdc.band_name for r in chain]
        assert bands[0] == "medium" and bands[-1] == "far"

    def test_cause_vector_identical_across_scenes(self):
        specs = [ScenarioSpec(LEAD_VEHICLE_BRAKING, seed=s) for s in (41, 42, 43)]
        vectors = []
        for spec in specs:
            scene, ann, _ = generate_scene(spec)
            vectors.append(_vectors(scene, ann)["lead"])
        assert np.array_equal(vectors[0], vectors[1])
        assert np.array_equal(vectors[0], vectors[2])

    def test_lingerer_appears_mid_window_as_unknown(self):
        scene, ann, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=51))
        chain = _window_chain(scene, ann, "d3")
        assert len(chain) == 2
        assert chain[0].qtcb.a is Motion.UNKNOWN and chain[0].qtcb.b is Motion.UNKNOWN
        assert chain[1].qtcb.a is not Motion.UNKNOWN


class TestTwinChains:
    """The cruise scenes that host another kind's lingering-object chain
    must reproduce it bit for bit -- this is what keeps the classifier
    honestly uncertain about lingerers."""

    def test_l12_twin_matches_stopping(self):
        stop_scene, stop_ann, _ = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=61))
        host_scene, host_ann, _ = generate_scene(
            ScenarioSpec(CLEAR_CRUISE, seed=62, cruise_twin="l12")
        )
        assert np.array_equal(
            _vectors(stop_scene, stop_ann)["d3"], _vectors(host_scene, host_ann)["d3"]
        )

    def test_l45_twin_matches_accelerating(self):
        accel_scene, accel_ann, _ = generate_scene(ScenarioSpec(GAP_ACCELERATE, seed=63))
        host_scene, host_ann, _ = generate_scene(
            ScenarioSpec(CLEAR_CRUISE, seed=64, cruise_twin="l45")
        )
        assert np.array_equal(
            _vectors(accel_scene, accel_ann)["d3"], _vectors(host_scene, host_ann)["d3"]
        )

    def test_twin_occupies_the_last_distractor_slot(self):
        scene, ann, _ = generate_scene(ScenarioSpec(CLEAR_CRUISE, seed=65, cruise_twin="l12"))
        present = [f.index for f in scene.frames if f.get("d3")]
        assert present == [8, 9]
        # the other three distractors span the whole window
        vectors = _vectors(scene, ann)
        assert set(vectors) == {"d0", "d1", "d2", "d3"}


class TestJitter:
    def test_jitter_moves_coordinates_but_not_relations(self):
        plain, ann, _ = generate_scene(ScenarioSpec(LEAD_VEHICLE_BRAKING, seed=71, jitter_sigma=0.0))
        noisy, _, _ = generate_scene(ScenarioSpec(LEAD_VEHICLE_BRAKING, seed=71, jitter_sigma=0.1))
        assert serialize_scene(plain) != serialize_scene(noisy)
        for other in ("lead", "d3"):
            assert _window_chain(plain, ann, other) == _window_chain(noisy, ann, other)

    def test_jitter_is_constant_per_object(self):
        scene, _, _ = generate_scene(ScenarioSpec(GAP_ACCELERATE, seed=72))
        # the ego is parked through frame 8; jitter must not wiggle it
        positions = {
            f: scene.frame_at(f).get(EGO_ID).bbox.center for f in range(9)
        }
        assert len({(p.x, p.y) for p in positions.values()}) == 1


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="Teleporting"),
            dict(kind=CLEAR_CRUISE, n_distractors=-1),
            dict(kind=CLEAR_CRUISE, jitter_sigma=-0.5),
            dict(kind=CLEAR_CRUISE, cruise_twin="l99"),
            dict(kind=GAP_ACCELERATE, cruise_twin="l12"),
            dict(kind=CLEAR_CRUISE, jitter_sigma=float("nan")),
            dict(kind=CLEAR_CRUISE, jitter_sigma=float("inf")),
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)


class TestCorpusPlumbing:
    def test_round_robin_counts(self):
        items = generate_dataset(3, master_seed=7)
        assert len(items) == 12
        kinds = [scene.scene_id.split("-")[0] for scene, _, _ in items]
        assert kinds[:4] == list(KINDS)
        assert all(kinds.count(k) == 3 for k in KINDS)

    def test_dataset_is_deterministic(self):
        a = generate_dataset(2, master_seed=9)
        b = generate_dataset(2, master_seed=9)
        assert [s.scene_id for s, _, _ in a] == [s.scene_id for s, _, _ in b]
        assert all(serialize_scene(x) == serialize_scene(y) for (x, _, _), (y, _, _) in zip(a, b))

    def test_cruise_twin_rotation(self):
        items = generate_dataset(7, master_seed=11)
        cruise = [scene for scene, _, _ in items if scene.scene_id.startswith(CLEAR_CRUISE)]
        presences = []
        for scene in cruise:
            frames = [f.index for f in scene.frames if f.get("d3")]
            presences.append(len(frames))
        # ordinals 0..6: l12 host, l45 host, three full scenes, then repeat
        assert presences == [2, 2, 12, 12, 12, 2, 2]

    def test_corpus_counts_and_disjointness(self):
        train, test = generate_corpus(2, 1, master_seed=5)
        assert len(train) == 8 and len(test) == 4
        train_ids = {s.scene_id for s, _, _ in train}
        test_ids = {s.scene_id for s, _, _ in test}
        assert len(train_ids) == 8 and len(test_ids) == 4
        assert train_ids.isdisjoint(test_ids)

    def test_split_is_stable_and_partitions(self):
        items = generate_dataset(5, master_seed=13)
        train_a, test_a = split_scenes(items)
        train_b, test_b = split_scenes(list(reversed(items)))
        key = lambda trio: trio[0].scene_id
        assert sorted(map(key, train_a)) == sorted(map(key, train_b))
        assert sorted(map(key, test_a)) == sorted(map(key, test_b))
        assert len(train_a) + len(test_a) == len(items)

    def test_split_fraction_checked(self):
        with pytest.raises(ValueError):
            split_scenes([], train_fraction=1.5)

    def test_split_roughly_honours_fraction(self):
        items = generate_dataset(25, master_seed=17)  # 100 scenes
        train, test = split_scenes(items, train_fraction=0.7)
        assert 55 <= len(train) <= 85
