"""Scenario generator: determinism, planted geometry, corpus plumbing."""

import random

import numpy as np
import pytest

from qxg import synthgen
from qxg.builder import build
from qxg.calculi import BBox2D, Motion
from qxg.explainer import EncodingSpec, extract_features
from qxg.scene import NO_CAUSE, ActionAnnotation, Frame, ObjectState, Scene, serialize_scene
from qxg.synthgen import (
    ACTION_FOR_KIND,
    CLEAR_CRUISE,
    EGO_ID,
    GAP_ACCELERATE,
    KINDS,
    LEAD_VEHICLE_BRAKING,
    STOPPING_FOR_CROSSER,
    GenerationFailed,
    GroundTruth,
    ScenarioSpec,
    generate_corpus,
    generate_dataset,
    generate_scene,
    generate_scenes,
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_distractors", 2.5),
            ("n_distractors", True),
            ("seed", 1.5),
            ("seed", True),
            ("seed", -1),
            ("jitter_sigma", "a"),
            ("jitter_sigma", True),
            pytest.param("jitter_sigma", 10**400, id="jitter_sigma-huge-int"),
        ],
    )
    def test_unusable_values_are_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a"):
            ScenarioSpec(CLEAR_CRUISE, **{field: value})

    @pytest.mark.parametrize("value", [2.5, True, -1, "a", None])
    @pytest.mark.parametrize(
        "generate, name",
        [
            (lambda v: generate_scenes(v), "n_scenes"),
            (lambda v: generate_scenes(1, master_seed=v), "master_seed"),
            (lambda v: generate_dataset(v), "n_per_kind"),
            (lambda v: generate_dataset(1, master_seed=v), "master_seed"),
            (lambda v: generate_corpus(v, 0), "n_train_per_kind"),
            (lambda v: generate_corpus(0, v), "n_test_per_kind"),
            (lambda v: generate_corpus(0, 0, master_seed=v), "master_seed"),
        ],
        ids=[
            "scenes-count", "scenes-seed", "dataset-count", "dataset-seed",
            "corpus-train", "corpus-test", "corpus-seed",
        ],
    )
    def test_generators_refuse_unusable_counts_and_seeds(self, generate, name, value):
        # True would count as 1, and -1 reached numpy as a negative shape
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 0, got "):
            generate(value)

    def test_zero_scenes_is_empty(self):
        assert generate_scenes(0, master_seed=0) == []
        assert generate_corpus(0, 0) == ([], [])

    def test_int_jitter_is_accepted(self):
        assert ScenarioSpec(CLEAR_CRUISE, jitter_sigma=0).jitter_sigma == 0


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

    @pytest.mark.parametrize(
        "fraction, shown",
        [(True, "True"), (False, "False"), ("a", "'a'"), (None, "None"), (float("nan"), "nan"),
         (-0.1, "-0.1"), ([0.5], "[0.5]")],
    )
    def test_split_refuses_what_is_not_a_fraction(self, fraction, shown):
        message = f"train_fraction must be a number within [0, 1], got {shown}"
        for items in ([], generate_dataset(1, master_seed=13)):
            with pytest.raises(ValueError) as refused:
                split_scenes(items, fraction)
            assert str(refused.value) == message

    def test_split_roughly_honours_fraction(self):
        items = generate_dataset(25, master_seed=17)  # 100 scenes
        train, test = split_scenes(items, train_fraction=0.7)
        assert 55 <= len(train) <= 85


def _whole_scene_reference(spec):
    """``generate_scene`` as first written: every box an ``ObjectState``,
    and each jitter check graph built from the whole scene.  The generator
    must give the same bytes, truth and errors (its ``GenerationFailed``
    was a ``RuntimeError`` here)."""
    rng = random.Random(spec.seed)
    tracks, cause, ann_frame = synthgen._build_tracks(spec, rng)
    scene_id = f"{spec.kind}-{spec.seed:x}"

    def assemble(offsets):
        frames = []
        for f in range(12):
            states = []
            for oid, track in tracks.items():
                if f not in track.pos:
                    continue
                cx, cy = track.pos[f]
                off = offsets.get(oid)
                if off is not None:
                    cx += off[0]
                    cy += off[1]
                hx, hy = track.half
                bbox = BBox2D.from_bounds(cx - hx, cx + hx, cy - hy, cy + hy)
                states.append(ObjectState(oid, track.obj_class, bbox))
            frames.append(Frame(f, f * 0.5, tuple(states)))
        return Scene(scene_id, tuple(frames))

    scene = assemble({})
    if spec.jitter_sigma != 0.0:
        reference = build(scene).window_chains(EGO_ID, ann_frame, 5)
        for _ in range(50):
            offsets = {
                oid: (rng.gauss(0.0, spec.jitter_sigma), rng.gauss(0.0, spec.jitter_sigma))
                for oid in tracks
            }
            scene = assemble(offsets)
            if build(scene).window_chains(EGO_ID, ann_frame, 5) == reference:
                break
        else:
            raise RuntimeError(
                f"jitter sigma {spec.jitter_sigma} keeps flipping windowed relations; "
                "the margins assume something closer to 0.1"
            )
    annotation = ActionAnnotation(scene_id, ann_frame, EGO_ID, ACTION_FOR_KIND[spec.kind])
    frame = scene.frame_at(ann_frame)
    ego_state = frame.get(EGO_ID)
    nearest = None
    best = None
    for state in frame.objects:
        if state.object_id == EGO_ID:
            continue
        d = ego_state.center.distance_to(state.center)
        if best is None or (d, state.object_id) < best:
            best = (d, state.object_id)
            nearest = state.object_id
    truth = GroundTruth(scene_id, annotation, cause, nearest, spec.kind)
    return scene, annotation, truth


def _outcome(generate, spec):
    """What ``generate(spec)`` gives: the trace bytes and the truth, or the
    error's type and message."""
    try:
        scene, annotation, truth = generate(spec)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return serialize_scene(scene, [annotation]), truth


_KIND_TWINS = [(kind, None) for kind in KINDS] + [(CLEAR_CRUISE, "l12"), (CLEAR_CRUISE, "l45")]


class TestMatchesWholeSceneReference:
    """The window-only jitter check and the column frames change no output:
    every spec gives the reference's bytes and truth, or its error."""

    @staticmethod
    def _check(spec):
        """Compare one spec; return the error type it raised, if any."""
        expected = _outcome(_whole_scene_reference, spec)
        got = _outcome(generate_scene, spec)
        if expected[0] is RuntimeError:
            expected = (GenerationFailed, expected[1])
        assert got == expected, spec
        return got[0] if isinstance(got[0], type) else None

    @pytest.mark.parametrize("kind, twin", _KIND_TWINS, ids=lambda v: str(v))
    def test_sweep(self, kind, twin):
        for n_distractors in (0, 1, 2, 5, 10):
            for sigma in (0.0, 0.1, 0.3):
                for seed in (*range(12), 2**32 + 5, 2**63 + 11):
                    spec = ScenarioSpec(kind, n_distractors, sigma, seed, twin)
                    assert self._check(spec) is None

    @pytest.mark.parametrize(
        "sigma, error",
        [(5.0, GenerationFailed), (1e300, GenerationFailed), (1e308, ValueError)],
    )
    def test_failing_draws(self, sigma, error):
        outcomes = [
            self._check(ScenarioSpec(kind, n_distractors, sigma, seed, twin))
            for kind, twin in _KIND_TWINS
            for n_distractors in (0, 5)
            for seed in (3, 4)
        ]
        assert error in outcomes


class TestWindowOnlyCheck:
    @pytest.mark.parametrize("kind, twin", _KIND_TWINS, ids=lambda v: str(v))
    def test_chains_match_the_whole_scene(self, kind, twin):
        """The window build's chains, which the jitter check compares, equal
        the whole scene's, for any offsets and with a track that leaves and
        comes back inside the window."""
        for seed in range(10):
            rng = random.Random(seed)
            spec = ScenarioSpec(kind, 5, seed=seed, cruise_twin=twin)
            tracks, _, ann = synthgen._build_tracks(spec, rng)
            gap = synthgen._Track("cyclist", (0.4, 0.9))
            gap.pos = {1: (6.0, 3.0), 2: (6.5, 3.5), ann - 2: (4.0, 9.0), ann: (4.0, 12.0)}
            tracks["gap"] = gap
            offsets = {oid: (rng.gauss(0.0, 2.0), rng.gauss(0.0, 2.0)) for oid in tracks}
            scene = synthgen._assemble("s", tracks, offsets)
            whole = build(scene).window_chains(EGO_ID, ann, 5)
            assert build(scene, window=(ann, 5)).window_chains(EGO_ID, ann, 5) == whole


class TestGenerationFailed:
    def test_unplaceable_distractor(self, monkeypatch):
        monkeypatch.setattr(synthgen, "_margins_ok", lambda ego, other, window: False)
        message = "^could not place a distractor clear of relation boundaries$"
        with pytest.raises(GenerationFailed, match=message):
            generate_scene(ScenarioSpec(CLEAR_CRUISE, n_distractors=1))

    def test_lost_margins_stay_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(synthgen, "_margins_ok", lambda ego, other, window: False)
        with pytest.raises(RuntimeError, match="lost its safety margins") as caught:
            generate_scene(ScenarioSpec(LEAD_VEHICLE_BRAKING, n_distractors=1))
        assert not isinstance(caught.value, ValueError)
