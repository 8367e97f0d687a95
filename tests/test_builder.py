"""Graph builder: incremental updates, chains, serialization."""

import itertools
import json
import random

import pytest

from qxg.calculi import (
    Allen,
    BBox2D,
    CalculiConfig,
    DEFAULT_CONFIG,
    Motion,
    converse_tuple,
    relation_tuple,
)
from qxg.builder import (
    Builder,
    BuilderStats,
    OutOfOrderFrame,
    QXG,
    build,
    converse_code,
    export_graph,
    import_graph,
    relation_code,
    relation_to_dict,
)
from qxg.scene import Frame, ObjectState, Scene


def _state(oid, cx, cy, w=2.0, h=2.0, cls="car"):
    return ObjectState(
        oid, cls, BBox2D.from_bounds(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2)
    )


def _frame(index, *states):
    return Frame(index, index * 0.5, tuple(states))


def _random_scene(seed, n_objects=6, n_frames=10, presence=0.8):
    """Objects drifting on random walks, each present in a random subset of
    frames, ids deliberately unsorted relative to insertion."""
    rng = random.Random(seed)
    ids = [f"obj{i}" for i in rng.sample(range(20), n_objects)]
    pos = {oid: (rng.uniform(-25, 25), rng.uniform(-25, 25)) for oid in ids}
    frames = []
    for f in range(n_frames):
        states = []
        for oid in ids:
            x, y = pos[oid]
            pos[oid] = (x + rng.uniform(-2, 2), y + rng.uniform(-2, 2))
            if rng.random() < presence:
                w, h = rng.uniform(0.5, 4), rng.uniform(0.5, 4)
                states.append(_state(oid, *pos[oid], w=w, h=h))
        frames.append(_frame(f, *states))
    return Scene(f"walk{seed}", tuple(frames))


def _expected_histories(scene, cfg=DEFAULT_CONFIG):
    """Reference bookkeeping done the slow way with the pure relation
    functions: the builder must reproduce this exactly."""
    last_box = {}
    expected = {}
    for frame in scene.frames:
        present = sorted(frame.objects, key=lambda s: s.object_id)
        for a, b in itertools.combinations(present, 2):
            rel = relation_tuple(
                last_box.get(a.object_id), a.bbox, last_box.get(b.object_id), b.bbox, cfg
            )
            expected.setdefault((a.object_id, b.object_id), []).append((frame.index, rel))
        for s in frame.objects:
            last_box[s.object_id] = s.bbox
    return expected


class TestAgainstPureFunctions:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_bookkeeping(self, seed):
        scene = _random_scene(seed)
        graph = build(scene)
        expected = _expected_histories(scene)
        assert set(graph.edges) == set(expected)
        for (a, b), want in expected.items():
            assert graph.relations(a, b) == want

    def test_matches_reference_with_custom_config(self):
        cfg = CalculiConfig(
            qdc_band_edges=(2.0, 8.0), qdc_band_names=("close", "mid", "far"), qtc_epsilon=0.3
        )
        scene = _random_scene(99, n_objects=5)
        graph = build(scene, cfg)
        for (a, b), want in _expected_histories(scene, cfg).items():
            assert graph.relations(a, b) == want


class TestIncremental:
    def test_push_equals_batch(self):
        scene = _random_scene(3)
        builder = Builder(scene.scene_id)
        for frame in scene.frames:
            builder.push_frame(frame)
        assert builder.graph == build(scene)

    def test_stats_counts(self):
        builder = Builder("s")
        stats = builder.push_frame(
            _frame(0, _state("a", 0, 0), _state("b", 5, 0), _state("c", 0, 5))
        )
        assert stats == BuilderStats(0, 3, 3, stats.elapsed_ns)
        assert stats.elapsed_ns >= 0

    def test_rejects_out_of_order_frames(self):
        builder = Builder("s")
        builder.push_frame(_frame(4, _state("a", 0, 0)))
        with pytest.raises(OutOfOrderFrame):
            builder.push_frame(_frame(4, _state("a", 0, 0)))
        with pytest.raises(OutOfOrderFrame):
            builder.push_frame(_frame(1, _state("a", 0, 0)))

    def test_rejects_duplicate_ids(self):
        builder = Builder("s")
        with pytest.raises(ValueError, match="'a' twice"):
            builder.push_frame(_frame(0, _state("a", 0, 0), _state("b", 4, 0), _state("a", 1, 0)))
        assert builder.graph.edges == {} and builder.graph.node_classes == {}
        builder.push_frame(_frame(0, _state("a", 0, 0), _state("b", 4, 0)))
        assert list(builder.graph.edges) == [("a", "b")]

    def test_frame_gaps_are_allowed(self):
        builder = Builder("s")
        builder.push_frame(_frame(0, _state("a", 0, 0), _state("b", 4, 0)))
        builder.push_frame(_frame(9, _state("a", 0, 0), _state("b", 3, 0)))
        history = builder.graph.edges[("a", "b")]
        assert history.frames == [0, 9]

    def test_first_cooccurrence_motion_is_unknown(self):
        graph = build(
            Scene(
                "s",
                (
                    _frame(0, _state("a", 0, 0)),
                    _frame(1, _state("a", 0, 1), _state("c", 10, 0)),
                    _frame(2, _state("a", 0, 2), _state("c", 8, 0)),
                ),
            )
        )
        (f1, rel1), (f2, rel2) = graph.relations("a", "c")
        assert (f1, rel1.qtcb.a, rel1.qtcb.b) == (1, Motion.UNKNOWN, Motion.UNKNOWN)
        # one step later both sides have history: c is closing in on a
        assert rel2.qtcb.b == Motion.TOWARDS

    def test_motion_survives_detection_gap(self):
        # b drops out for a frame; on return it is judged against where it
        # was last seen, not treated as brand new.
        graph = build(
            Scene(
                "s",
                (
                    _frame(0, _state("a", 0, 0), _state("b", 0, 10)),
                    _frame(1, _state("a", 0, 0)),
                    _frame(2, _state("a", 0, 0), _state("b", 0, 7)),
                ),
            )
        )
        history = graph.relations("a", "b")
        assert [f for f, _ in history] == [0, 2]
        assert history[1][1].qtcb == history[1][1].qtcb.__class__(Motion.STABLE, Motion.TOWARDS)


class TestOrientation:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_reversed_query_gives_converses(self, seed):
        scene = _random_scene(seed, n_objects=4)
        graph = build(scene)
        for a, b in list(graph.edges):
            forward = graph.relations(a, b)
            backward = graph.relations(b, a)
            assert [(f, converse_tuple(r)) for f, r in forward] == backward

    def test_keys_are_canonical(self):
        graph = build(Scene("s", (_frame(0, _state("zed", 0, 0), _state("abe", 3, 0)),)))
        assert list(graph.edges) == [("abe", "zed")]

    def test_same_object_twice_rejected(self):
        graph = build(Scene("s", (_frame(0, _state("a", 0, 0)),)))
        with pytest.raises(ValueError, match="distinct"):
            graph.relations("a", "a")
        with pytest.raises(ValueError, match="distinct"):
            graph.edge_chain("a", "a", 0, 5)


class TestEdgeChain:
    @pytest.fixture()
    def gappy(self):
        frames = []
        for f in (0, 1, 2, 5, 6):
            frames.append(_frame(f, _state("a", 0, 0), _state("b", 6.0 + f, 0)))
        for f in (3, 4):
            frames.append(_frame(f, _state("a", 0, 0)))
        frames.sort(key=lambda fr: fr.index)
        return build(Scene("gappy", tuple(frames)))

    def test_takes_last_t_entries(self, gappy):
        chain = gappy.edge_chain("a", "b", at_frame=6, t=3)
        assert [f for f, _ in chain] == [2, 5, 6]

    def test_cutoff_frame_is_inclusive(self, gappy):
        assert [f for f, _ in gappy.edge_chain("a", "b", at_frame=5, t=2)] == [2, 5]

    def test_cutoff_may_fall_in_a_gap(self, gappy):
        assert [f for f, _ in gappy.edge_chain("a", "b", at_frame=4, t=10)] == [0, 1, 2]

    def test_short_history_returned_whole(self, gappy):
        assert [f for f, _ in gappy.edge_chain("a", "b", at_frame=1, t=5)] == [0, 1]

    def test_unknown_pair_and_zero_t(self, gappy):
        assert gappy.edge_chain("a", "nobody", 6, 5) == []
        assert gappy.edge_chain("a", "b", 6, 0) == []

    def test_orientation_applies(self, gappy):
        fwd = gappy.edge_chain("a", "b", 6, 2)
        rev = gappy.edge_chain("b", "a", 6, 2)
        assert [(f, converse_tuple(r)) for f, r in fwd] == rev

    @pytest.mark.parametrize("actor, other", [("a", "b"), ("b", "a")])
    def test_window_keeps_only_frames_inside_it(self, gappy, actor, other):
        # the window of frames 2..6 holds 2, 5 and 6; 3..4 is a gap
        assert gappy.window_chains(actor, 6, 5) == [(other, gappy.code_chain(actor, other, 6, 3))]
        assert gappy.window_chains(actor, 4, 2) == []  # last shared frame 2 precedes 3..4
        assert [f for f, _ in gappy.window_chains(actor, 5, 3)[0][1]] == [5]


class TestPacking:
    def test_every_code_decodes_and_repacks(self):
        graph = QXG("s", DEFAULT_CONFIG.qdc_band_names)
        n_bands = len(graph.band_names)
        for code in range(13 * 13 * 4 * 4 * n_bands * 4):
            rel = graph.decode(code)
            repacked = rel.ra.x + 13 * (
                rel.ra.y
                + 13 * (rel.qtcb.a + 4 * (rel.qtcb.b + 4 * (rel.qdc.band_index + n_bands * rel.star4)))
            )
            assert repacked == code

    def test_code_converse_matches_the_oracle(self):
        graph = QXG("s", DEFAULT_CONFIG.qdc_band_names)
        n_bands = len(graph.band_names)
        for code in range(13 * 13 * 4 * 4 * n_bands * 4):
            assert graph.decode(converse_code(code, n_bands)) == converse_tuple(graph.decode(code))

    def test_relation_json_round_trips_every_code(self):
        graph = QXG("s", DEFAULT_CONFIG.qdc_band_names)
        band_index = {name: i for i, name in enumerate(graph.band_names)}
        for code in range(13 * 13 * 4 * 4 * len(band_index) * 4):
            assert relation_code(relation_to_dict(graph.decode(code)), band_index) == code

    def test_decode_components(self):
        graph = QXG("s", DEFAULT_CONFIG.qdc_band_names)
        rel = graph.decode(0)
        assert rel.ra.x is Allen.BEFORE and rel.qdc.band_name == "adjacent"


class TestPartners:
    def test_partner_listing(self):
        scene = Scene(
            "s",
            (
                _frame(0, _state("a", 0, 0), _state("b", 3, 0)),
                _frame(1, _state("a", 0, 0), _state("c", 0, 3)),
                _frame(2, _state("b", 3, 0), _state("c", 0, 3)),
            ),
        )
        graph = build(scene)
        assert graph.partners("a") == ["b", "c"]
        assert graph.partners("ghost") == []


class TestPruning:
    def test_distant_pairs_skipped(self):
        scene = Scene("s", (_frame(0, _state("a", 0, 0), _state("b", 4, 0), _state("c", 80, 0)),))
        graph = build(scene, max_pair_distance=30.0)
        assert set(graph.edges) == {("a", "b")}
        # nodes are still registered even when all their pairs are pruned
        assert "c" in graph.node_classes


class TestSerialization:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_json_round_trip(self, seed):
        graph = build(_random_scene(seed, n_objects=5, n_frames=6))
        assert import_graph(export_graph(graph)) == graph

    def test_json_round_trip_custom_bands(self):
        cfg = CalculiConfig(qdc_band_edges=(3.0,), qdc_band_names=("in", "out"))
        graph = build(_random_scene(7, n_objects=4), cfg)
        restored = import_graph(export_graph(graph))
        assert restored == graph
        assert restored.band_names == ("in", "out")

    def test_export_bytes_are_stable(self):
        graph = build(_random_scene(5))
        assert export_graph(graph) == export_graph(graph)

    def test_json_shape(self):
        graph = build(Scene("shape", (_frame(0, _state("ego", 0, 0), _state("ped", 0, 7, cls="pedestrian")),)))
        payload = json.loads(export_graph(graph))
        assert payload["scene_id"] == "shape"
        assert payload["nodes"] == [
            {"id": "ego", "class": "car"},
            {"id": "ped", "class": "pedestrian"},
        ]
        (edge,) = payload["edges"]
        assert edge["a"] == "ego" and edge["b"] == "ped"
        (rel,) = edge["relations"]
        assert set(rel) == {"frame", "ra", "qtcb", "qdc", "star4"}
        assert rel["frame"] == 0 and rel["qtcb"] == ["Unknown", "Unknown"]

    def test_dot_export(self):
        graph = build(
            Scene(
                "dotty",
                (
                    _frame(0, _state("ego", 0, 0), _state("ped", 0, 7, cls="pedestrian")),
                    _frame(1, _state("ego", 0, 1), _state("ped", 0, 6.5, cls="pedestrian")),
                ),
            )
        )
        text = export_graph(graph, fmt="dot").decode()
        assert text.startswith('graph "dotty" {')
        assert '"ego" [label="ego\\n(car)"];' in text
        assert '"ego" -- "ped"' in text
        # the edge label is the latest tuple, all four components in order
        final = graph.decode(graph.edges[("ego", "ped")].codes[-1])
        assert f'label="{final.ra.x.label},{final.ra.y.label}|' in text
        label = (
            f"{final.ra.x.label},{final.ra.y.label}|{final.qtcb.a.label},{final.qtcb.b.label}|"
            f"{final.qdc.band_name}|{final.star4.label}"
        )
        assert f'"ego" -- "ped" [label="{label}"];' in text
        assert text.rstrip().endswith("}")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown export format"):
            export_graph(QXG("s", DEFAULT_CONFIG.qdc_band_names), fmt="yaml")

    @pytest.mark.parametrize(
        "payload",
        [
            "12",
            "[]",
            "not json",
            '{"scene_id": "x"}',
            '{"scene_id":"x","qdc_bands":["a"],"nodes":[],"edges":[{"a":"p"}]}',
        ],
    )
    def test_bad_imports_rejected(self, payload):
        with pytest.raises(ValueError, match="not a serialized scene graph"):
            import_graph(payload)

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("reversed", r"not stored as \(smaller id, larger id\)"),
            ("self-edge", r"not stored as \(smaller id, larger id\)"),
            ("unknown-end", "not a node"),
            ("repeated-edge", "appears twice"),
            ("unsorted-frames", "strictly increasing"),
            ("repeated-frame", "strictly increasing"),
            ("float-frame", "strictly increasing"),
            ("repeated-band", "band names .* repeat"),
        ],
        ids=[
            "reversed", "self-edge", "unknown-end", "repeated-edge",
            "unsorted-frames", "repeated-frame", "float-frame", "repeated-band",
        ],
    )
    def test_graph_invariants_checked(self, damage, match):
        graph = build(Scene("s", tuple(_frame(f, _state("a", 0, 0), _state("b", 3, f)) for f in range(3))))
        payload = json.loads(export_graph(graph))
        edge = payload["edges"][0]
        relations = edge["relations"]
        if damage == "reversed":
            edge["a"], edge["b"] = edge["b"], edge["a"]
        elif damage == "self-edge":
            edge["b"] = edge["a"]
        elif damage == "unknown-end":
            payload["nodes"].pop()
        elif damage == "repeated-edge":
            payload["edges"].append(edge)
        elif damage == "unsorted-frames":
            relations[0], relations[1] = relations[1], relations[0]
        elif damage == "repeated-frame":
            relations[1]["frame"] = relations[0]["frame"]
        elif damage == "repeated-band":
            payload["qdc_bands"][1] = payload["qdc_bands"][0]
        else:
            relations[2]["frame"] = 2.0
        with pytest.raises(ValueError, match=match):
            import_graph(payload)


def test_empty_frames_are_harmless():
    builder = Builder("s")
    builder.push_frame(Frame(0, 0.0, ()))
    stats = builder.push_frame(_frame(1, _state("a", 0, 0)))
    assert stats.pairs_updated == 0
    assert builder.graph.edges == {}
    assert builder.graph.node_classes == {"a": "car"}
