"""Graph builder: incremental updates, chains, serialization."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxg.calculi import (
    Allen,
    BBox2D,
    Interval,
    Point2D,
    CalculiConfig,
    DEFAULT_CONFIG,
    MAX_BANDS,
    Motion,
    RARelation,
    converse_tuple,
    relation_tuple,
)
from qxg.builder import (
    Builder,
    BuilderStats,
    EdgeHistory,
    OutOfOrderFrame,
    QXG,
    build,
    converse_code,
    export_graph,
    import_graph,
    pack_code,
    relation_code,
    relation_to_dict,
    _Codes,
)
from qxg.scene import Frame, ObjectState, Scene, SchemaViolation, load_trace, serialize_scene


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
            assert graph.edge_chain(a, b, math.inf, math.inf) == want

    def test_matches_reference_with_custom_config(self):
        cfg = CalculiConfig(
            qdc_band_edges=(2.0, 8.0), qdc_band_names=("close", "mid", "far"), qtc_epsilon=0.3
        )
        scene = _random_scene(99, n_objects=5)
        graph = build(scene, cfg)
        for (a, b), want in _expected_histories(scene, cfg).items():
            assert graph.edge_chain(a, b, math.inf, math.inf) == want


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
        # a frame that holds an id twice cannot be built, so never reaches push_frame
        with pytest.raises(SchemaViolation, match="'a' appears twice in frame 0"):
            _frame(0, _state("a", 0, 0), _state("b", 4, 0), _state("a", 1, 0))
        builder = Builder("s")
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
        (f1, rel1), (f2, rel2) = graph.edge_chain("a", "c", math.inf, math.inf)
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
        history = graph.edge_chain("a", "b", math.inf, math.inf)
        assert [f for f, _ in history] == [0, 2]
        assert history[1][1].qtcb == history[1][1].qtcb.__class__(Motion.STABLE, Motion.TOWARDS)


class TestOrientation:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_reversed_query_gives_converses(self, seed):
        scene = _random_scene(seed, n_objects=4)
        graph = build(scene)
        for a, b in list(graph.edges):
            forward = graph.edge_chain(a, b, math.inf, math.inf)
            backward = graph.edge_chain(b, a, math.inf, math.inf)
            assert [(f, converse_tuple(r)) for f, r in forward] == backward

    def test_keys_are_canonical(self):
        graph = build(Scene("s", (_frame(0, _state("zed", 0, 0), _state("abe", 3, 0)),)))
        assert list(graph.edges) == [("abe", "zed")]

    def test_same_object_twice_rejected(self):
        graph = build(Scene("s", (_frame(0, _state("a", 0, 0)),)))
        with pytest.raises(ValueError, match="distinct"):
            graph.code_chain("a", "a", 0, 5)
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


def _flicker_scene(seed, n_objects=6, n_frames=30):
    """Objects entering, leaving and coming back, frame indices that skip
    (some negative), and some frames holding a single object."""
    rng = random.Random(seed)
    ids = [f"f{i}" for i in range(n_objects)]
    frames, index = [], rng.randrange(-4, 4)
    for _ in range(n_frames):
        if rng.random() < 0.15:
            present = [rng.choice(ids)]
        else:
            present = [oid for oid in ids if rng.random() < 0.7]
        states = [_state(oid, rng.uniform(-20, 20), rng.uniform(-20, 20)) for oid in present]
        rng.shuffle(states)
        frames.append(_frame(index, *states))
        index += rng.choice((1, 1, 1, 2, 3))
    return Scene(f"flicker{seed}", tuple(frames))


def _model_chain(relations, at_frame, t):
    """code_chain on a plain list of (frame, code)."""
    kept = [(f, code) for f, code in relations if f <= at_frame]
    return kept[max(0, len(kept) - t):]


class TestRunLengthHistories:
    """Frames stored as runs read back as the plain per-relation lists."""

    @pytest.mark.parametrize("seed", range(6))
    def test_histories_match_a_list_model(self, seed):
        scene = _flicker_scene(seed)
        graph = build(scene)
        n_bands = len(graph.band_names)
        band_index = {name: i for i, name in enumerate(graph.band_names)}
        expected = _expected_histories(scene)
        assert set(graph.edges) == set(expected)
        runs = 0
        for (a, b), want in expected.items():
            model = [(f, relation_code(relation_to_dict(rel), band_index)) for f, rel in want]
            history = graph.edges[(a, b)]
            assert history.frames == [f for f, _ in model]
            assert len(history) == len(model)
            runs += len(history.runs) // 2
            first, last = model[0][0], model[-1][0]
            for at_frame in range(first - 2, last + 3):
                for t in range(1, len(model) + 2):
                    chain = _model_chain(model, at_frame, t)
                    assert graph.code_chain(a, b, at_frame, t) == chain
                    assert graph.code_chain(b, a, at_frame, t) == [
                        (f, converse_code(code, n_bands)) for f, code in chain
                    ]
        assert runs > 2 * len(expected)  # the stream really splits histories

    @pytest.mark.parametrize("seed", range(3))
    def test_windows_match_a_list_model(self, seed):
        scene = _flicker_scene(seed)
        graph = build(scene)
        chains = {}
        for (a, b) in graph.edges:
            chains[(a, b)] = graph.code_chain(a, b, math.inf, math.inf)
            chains[(b, a)] = graph.code_chain(b, a, math.inf, math.inf)
        ids = sorted(graph.node_classes)
        for actor in ids:
            for at_frame in range(scene.frames[0].index - 1, scene.frames[-1].index + 2):
                for t in (1, 2, 5):
                    want = []
                    for other in ids:
                        inside = [
                            (f, code) for f, code in chains.get((actor, other), ())
                            if at_frame - t < f <= at_frame
                        ]
                        if inside:
                            want.append((other, inside))
                    assert graph.window_chains(actor, at_frame, t) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_json_round_trip_is_byte_identical(self, seed):
        graph = build(_flicker_scene(seed))
        blob = export_graph(graph)
        restored = import_graph(blob)
        assert restored == graph  # the loader rebuilds the same maximal runs
        assert export_graph(restored) == blob

    @pytest.mark.parametrize(
        "frames, bad, message",
        [
            ([0, 1, 2, 5, 6], (3, 2), "got 2 after [2]"),
            ([0, 1, 2, 5, 6], (4, 4), "got 4 after [5]"),
            ([3, 4], (0, True), "got True after []"),
        ],
        ids=["into-earlier-run", "backwards-in-run", "first-not-int"],
    )
    def test_import_refuses_frames_that_do_not_increase(self, frames, bad, message):
        graph = build(Scene("s", tuple(_frame(f, _state("a", 0, 0), _state("b", 3, f)) for f in frames)))
        payload = json.loads(export_graph(graph))
        position, frame = bad
        payload["edges"][0]["relations"][position]["frame"] = frame
        with pytest.raises(ValueError) as refused:
            import_graph(json.dumps(payload))
        assert str(refused.value) == (
            "not a serialized scene graph: edge ('a', 'b') frames must be strictly "
            f"increasing integers, {message}"
        )


@given(st.integers(-5, 5), st.lists(st.integers(1, 3), max_size=25))
@settings(max_examples=60)
def test_edge_history_appends_match_a_list_model(first, steps):
    frames = list(itertools.accumulate(steps, initial=first))
    relations = [(f, 1000 + i) for i, f in enumerate(frames)]
    history = EdgeHistory()
    for f, code in relations:
        history.append(f, code)
    assert history.frames == frames and len(history) == len(frames)
    runs = history.runs
    # each run's first frame and first position; runs are maximal
    assert list(runs[1::2]) == [i for i, f in enumerate(frames) if i == 0 or f != frames[i - 1] + 1]
    assert list(runs[::2]) == [frames[i] for i in runs[1::2]]
    for at_frame in range(first - 2, frames[-1] + 3):
        for t in range(0, len(frames) + 2):
            got_frames, got_codes = history.tail(at_frame, t)
            assert list(zip(got_frames, got_codes)) == _model_chain(relations, at_frame, t)


def _frames_through_tail(history):
    """``EdgeHistory.frames`` as first written: the frames of a tail as
    long as the whole history."""
    runs = history.runs
    last = runs[-2] + len(history.codes) - 1 - runs[-1] if runs else 0
    return list(history.tail(last, len(history))[0])


def _history(frames):
    history = EdgeHistory()
    for i, f in enumerate(frames):
        history.append(f, i)
    return history


@pytest.mark.parametrize(
    "histories",
    [
        lambda: [EdgeHistory()],
        lambda: [_history(range(5, 205))],
        lambda: [_history(range(-7, 993, 2)), _history([0, 1, 2, 10, 11, 40, 41, 42, 43])],
        lambda: [h for seed in range(3) for h in build(_flicker_scene(seed)).edges.values()],
    ],
    ids=["empty", "one-run", "many-runs", "flicker"],
)
def test_frames_read_from_runs_match_the_tail_definition(histories):
    for history in histories():
        assert history.frames == _frames_through_tail(history)
        assert len(history.frames) == len(history)


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

    def test_a_repeated_code_decodes_to_an_equal_tuple(self):
        names = DEFAULT_CONFIG.qdc_band_names
        code = pack_code(2, 9, 0, 2, 1, 3, len(names))
        first = QXG("s", names).decode(code)
        assert QXG("s", names).decode(code) == first == QXG("t", names).decode(code)
        assert first.ra == RARelation(Allen(2), Allen(9)) and first.qdc.band_name == names[1]
        # equal codes under other band names keep their own names
        renamed = tuple(f"band{i}" for i in range(len(names)))
        assert QXG("s", renamed).decode(code).qdc.band_name == "band1"
        assert converse_code(code, len(names)) == converse_code(code, len(names))

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
        assert [other for other, _ in graph.window_chains("a", 2, 3)] == ["b", "c"]
        assert graph.window_chains("ghost", 2, 3) == []


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
            import_graph(json.dumps(payload))

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda p: p.update(scene_id=1), "scene_id 1 is not a string"),
            (lambda p: p["nodes"].append({"id": 1, "class": "car"}), "node id 1 is not a string"),
            (lambda p: p["nodes"][0].update({"class": None}), "node 'a' class None is not a string"),
            (lambda p: p.update(qdc_bands="abc", edges=[]), "qdc_bands must be a non-empty list"),
            (lambda p: p.update(qdc_bands=[], edges=[]), "qdc_bands must be a non-empty list"),
            (lambda p: p.update(qdc_bands=[1, 2], edges=[]), "qdc_bands must be a non-empty list"),
            (lambda p: p["nodes"].append({"id": "a", "class": "truck"}), "node 'a' is listed twice"),
            (
                lambda p: p["edges"][0]["relations"][-1].update(frame=2**63),
                f"edge ('a', 'b') frame {2**63} is outside signed 64 bits",
            ),
            (
                lambda p: p["edges"][0]["relations"][0].update(frame=-(2**63) - 1),
                f"edge ('a', 'b') frame {-(2**63) - 1} is outside signed 64 bits",
            ),
            (
                lambda p: p["edges"][0]["relations"][0]["ra"].append("Before"),
                "ra and qtcb must each hold two labels, got [",
            ),
            (
                lambda p: p["edges"][0]["relations"][1]["qtcb"].append("Away"),
                "ra and qtcb must each hold two labels, got [",
            ),
            # the dot export reads each edge's last relation
            (lambda p: p["edges"][0].update(relations=[]), "edge ('a', 'b') has no relations"),
        ],
        ids=[
            "int-scene-id", "int-node-id", "null-class", "bands-string", "bands-empty",
            "bands-not-strings", "repeated-node", "frame-past-int64", "frame-before-int64",
            "three-ra-labels", "three-qtcb-labels", "no-relations",
        ],
    )
    def test_import_refuses_what_the_accessors_cannot_read(self, damage, problem):
        graph = build(Scene("s", tuple(_frame(f, _state("a", 0, 0), _state("b", 3, f)) for f in range(3))))
        payload = json.loads(export_graph(graph))
        damage(payload)
        with pytest.raises(ValueError) as refused:
            import_graph(json.dumps(payload))
        assert str(refused.value).startswith(f"not a serialized scene graph: {problem}")


class TestOnePairStore:
    """``QXG.pairs`` is the one store; ``QXG.edges`` is a read-only view."""

    def test_the_program_never_reads_the_edges_view(self, monkeypatch):
        from qxg.explainer import Hyperparams, build_dataset, explain, train
        from qxg.synthgen import STOPPING_FOR_CROSSER, ScenarioSpec, generate_corpus, generate_scene

        train_items, test_items = generate_corpus(4, 2, master_seed=5)
        model = train(
            build_dataset([(s, a) for s, a, _ in train_items], t=3),
            seed=1,
            hyperparams=Hyperparams(n_trees=4, max_depth=4),
        )

        def refuse(self):
            raise AssertionError("QXG.edges was read")

        monkeypatch.setattr(QXG, "edges", property(refuse))
        scene = _flicker_scene(0)
        graph = build(scene)
        ids = sorted(graph.node_classes)
        found = 0
        for actor in ids:
            for frame in scene.frames:
                found += len(graph.window_chains(actor, frame.index, 4))
            for other in ids:
                if other != actor:
                    assert graph.code_chain(actor, other, math.inf, 3)
        assert found > len(scene.frames)
        blob = export_graph(graph)
        assert export_graph(graph, fmt="dot").count(b" -- ") == sum(map(len, graph.pairs.values()))
        assert import_graph(blob) == graph
        for scene, annotation, _ in test_items:
            explained = explain(
                model, build(scene), annotation.actor_id, annotation.frame_index, annotation.action
            )
            assert explained.candidates
        generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, jitter_sigma=0.3, seed=3))

    def test_edges_is_a_read_only_view_of_the_stored_histories(self):
        graph = build(_flicker_scene(1))
        view = graph.edges
        assert view == {(a, b): h for a, row in graph.pairs.items() for b, h in row.items()}
        assert all(view[(a, b)] is graph.pairs[a][b] for a, b in view)
        with pytest.raises(TypeError):
            view[("f0", "f1")] = EdgeHistory()
        for history in graph.edges.values():
            history.codes[:] = [0] * len(history.codes)
        assert {code for row in graph.pairs.values() for h in row.values() for code in h.codes} == {0}


def test_empty_frames_are_harmless():
    builder = Builder("s")
    builder.push_frame(Frame(0, 0.0, ()))
    stats = builder.push_frame(_frame(1, _state("a", 0, 0)))
    assert stats.pairs_updated == 0
    assert builder.graph.edges == {}
    assert builder.graph.node_classes == {"a": "car"}


def _turnover_scene(seed, n_steps=60):
    """Objects that stay for a stretch of frames and come back 13 to 20
    frames after it ends, longer than any chain here, flickering inside
    their stretches; frame indices that skip; and a class drawn anew at
    each sighting, so that the first class seen is the one kept."""
    rng = random.Random(seed)
    stretches = {}
    for i in range(8):
        first = rng.randrange(n_steps // 2)
        end = first + rng.randrange(2, 12)
        back = end + rng.randrange(13, 21)
        stretches[f"t{i}"] = ((first, end), (back, back + rng.randrange(2, 12)))
    frames, index = [], rng.randrange(-3, 3)
    for step in range(n_steps):
        states = [
            _state(oid, rng.uniform(-20, 20), rng.uniform(-20, 20), cls=rng.choice(("car", "cyclist")))
            for oid, spans in stretches.items()
            if any(lo <= step <= hi for lo, hi in spans) and rng.random() < 0.8
        ]
        frames.append(_frame(index, *states))
        index += rng.choice((1, 1, 1, 2, 3))
    return Scene(f"turnover{seed}", tuple(frames))


def _relations(graph):
    return sum(len(history) for row in graph.pairs.values() for history in row.values())


class TestWindowBuild:
    def test_window_chains_match_a_whole_build(self, capsys):
        """For every query frame and chain length, a window build gives every
        actor the chains and partner classes of a build of the whole scene.
        Queries are the generated corpora's annotations, with every object
        as the actor, and every frame of turnover streams, including missing
        frames and frames before the first."""
        from qxg.synthgen import CLEAR_CRUISE, ScenarioSpec, generate_scenes

        queries = []
        for distractors in (0, 4, 20, 50):
            base = ScenarioSpec(CLEAR_CRUISE, n_distractors=distractors)
            for scene, annotation, _ in generate_scenes(8, base, master_seed=distractors):
                queries.append((scene, [annotation.frame_index]))
        for seed in range(4):
            scene = _turnover_scene(seed)
            first, last = scene.frames[0].index, scene.frames[-1].index
            assert len(scene.frames) < last - first + 1  # some indices are missing
            queries.append((scene, range(first - 2, last + 3)))
        related = whole_related = 0
        for scene, at_frames in queries:
            whole = build(scene)
            for at_frame, t in itertools.product(at_frames, (1, 5, 12)):
                windowed = build(scene, window=(at_frame, t))
                related += _relations(windowed)
                whole_related += _relations(whole)
                for actor in whole.node_classes:
                    chains = windowed.window_chains(actor, at_frame, t)
                    assert chains == whole.window_chains(actor, at_frame, t)
                    for other, _ in chains:
                        assert windowed.node_classes[other] == whole.node_classes[other]
                    if chains:
                        assert windowed.node_classes[actor] == whole.node_classes[actor]
        with capsys.disabled():
            print(f"\n[window] related {related} of {whole_related} relations a full build relates")
        assert related < whole_related

    @pytest.mark.parametrize(
        "window",
        [
            (11, 0), (11, -3), (True, 5), (11.0, 5), (11, 5.5), ("11", 5), (11, True),
            (11,), (11, 5, 1), [11, 5], 11,
        ],
        ids=[
            "t 0", "t negative", "bool frame", "float frame", "float t", "str frame", "bool t",
            "one item", "three items", "list", "int",
        ],
    )
    def test_a_malformed_window_is_refused(self, window):
        with pytest.raises(ValueError) as refused:
            build(_flicker_scene(4), window=window)
        assert str(refused.value) == (
            f"window must be (at_frame, t), two integers with t >= 1, got {window!r}"
        )


def _box_walk(seed, n_objects, n_frames):
    """Every object in every frame, each box drifting on a seeded walk."""
    rng = random.Random(seed)
    pos = [(rng.uniform(-40, 40), rng.uniform(-40, 40)) for _ in range(n_objects)]
    frames = []
    for f in range(n_frames):
        states = []
        for i, (x, y) in enumerate(pos):
            x, y = x + rng.uniform(-1.5, 1.5), y + rng.uniform(-1.5, 1.5)
            pos[i] = (x, y)
            states.append(_state(f"o{i:03d}", x, y, w=rng.uniform(0.5, 4), h=rng.uniform(0.5, 4)))
        frames.append(_frame(f, *states))
    return frames


def _flicker_stream(seed, n_objects=20, n_frames=600):
    """:func:`_box_walk` with object ``i`` kept only in frames ``f`` where
    ``f + i`` is even, so every pair that meets meets every other frame and
    each of its relations opens a run of its own."""
    return [
        _frame(frame.index, *(s for i, s in enumerate(frame.objects) if (frame.index + i) % 2 == 0))
        for frame in _box_walk(seed, n_objects, n_frames)
    ]


def _bytes_per_relation(frames, cfg=DEFAULT_CONFIG):
    """Memory a fresh builder holds after the frames, per stored relation,
    as ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        builder = Builder("walk", cfg)
        before = tracemalloc.get_traced_memory()[0]
        for frame in frames:
            builder.push_frame(frame)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stored = sum(len(history) for history in builder.graph.edges.values())
    return used / stored, stored


def _bands(n):
    """A config with ``n`` distance bands."""
    return CalculiConfig(tuple(float(i) for i in range(1, n)), tuple(f"band{i}" for i in range(n)))


SEVEN_BANDS = _bands(7)


def _assert_typed(history, n_bands=len(DEFAULT_CONFIG.qdc_band_names)):
    """Codes in 2 bytes up to 6 bands (10,816 codes a band, 64,896 at 6),
    in 4 beyond; frames' runs in 8."""
    typecode, itemsize = ("H", 2) if n_bands <= 6 else ("I", 4)
    assert history.codes.typecode == typecode and history.codes.itemsize == itemsize
    assert history.runs.typecode == "q" and history.runs.itemsize == 8


class TestStorage:
    def test_a_stored_relation_costs_one_array_item(self, capsys):
        per_relation, stored = _bytes_per_relation(_box_walk(0, 60, 40))
        assert stored == 40 * 60 * 59 // 2
        # a 2-byte code, array over-allocation and the per-edge objects,
        # the one run included (about 6 B); a 4-byte code would add 2 bytes,
        # an 8-byte list slot per relation 6, a boxed int per relation 28
        wide, _ = _bytes_per_relation(_box_walk(0, 60, 40), SEVEN_BANDS)
        flicker, flicker_stored = _bytes_per_relation(_flicker_stream(0))
        assert flicker_stored == 2 * 45 * 300
        # every relation opens a run: its code and two 8-byte run entries
        with capsys.disabled():
            print(
                f"\n[storage] consecutive: {per_relation:.1f} B/relation (bound 10), "
                f"7 bands {wide:.1f} (bound 12); flicker: {flicker:.1f} B/relation (bound 22)"
            )
        assert per_relation <= 10
        assert wide <= 12
        assert flicker <= 22

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SEVEN_BANDS], ids=["5 bands", "7 bands"])
    def test_histories_hold_typed_arrays(self, cfg):
        n_bands = len(cfg.qdc_band_names)
        builder = Builder("walk", cfg)
        for frame in _flicker_stream(1, 6, 12):
            builder.push_frame(frame)
        graph = builder.graph
        loaded = import_graph(export_graph(graph))
        assert loaded == graph
        for g in (graph, loaded):
            for history in g.edges.values():
                _assert_typed(history, n_bands)
        built = EdgeHistory([700, 701, 700], [4, 0, 9, 2])
        _assert_typed(built, MAX_BANDS)  # a hand-built history holds any code
        assert list(built.codes) == [700, 701, 700] and list(built.runs) == [4, 0, 9, 2]
        # the fault the benchmark's harness test injects: a list into codes[:]
        for (a, b), history in graph.edges.items():
            history.codes[:] = [code ^ 1 for code in history.codes]
            _assert_typed(history, n_bands)
            assert list(history.codes) == [code ^ 1 for code in loaded.pairs[a][b].codes]
        # and an array of the 4-byte width or of the history's own
        for (a, b), history in graph.edges.items():
            for typecode in ("I", history.codes.typecode):
                history.codes[:] = array(typecode, loaded.pairs[a][b].codes)
                _assert_typed(history, n_bands)
        assert graph == loaded

    @pytest.mark.parametrize("n_bands, top", [(6, 64_895), (7, 75_711), (MAX_BANDS, 692_223)])
    def test_edge_values_survive_every_path(self, n_bands, top):
        """The top code at 6 bands (the last that fits 2 bytes), 7 and
        MAX_BANDS bands, and frames at both signed 64-bit limits, through
        append, tail, code_chain, export and import."""
        bands = tuple(f"band{i}" for i in range(n_bands))
        assert top == 13 * 13 * 4 * 4 * n_bands * 4 - 1 == pack_code(12, 12, 3, 3, n_bands - 1, 3, n_bands)
        low, high = -(2**63), 2**63 - 1
        relations = [(low, top), (low + 1, 0), (high - 1, 5), (high, top)]
        graph = QXG("edges", bands, {"a": "car", "b": "car"})
        # a hand-built history (4 bytes) and one as the builder makes it
        narrow = EdgeHistory(_Codes("H" if n_bands <= 6 else "I"))
        for history, width in ((EdgeHistory(), MAX_BANDS), (narrow, n_bands)):
            for frame, code in relations:
                history.append(frame, code)
            _assert_typed(history, width)
            assert list(history.runs) == [low, 0, high - 1, 2]
            assert history.frames == [f for f, _ in relations]
            assert list(history.codes) == [c for _, c in relations]
            for at_frame in (low, low + 1, 0, high - 1, high):
                for t in range(6):
                    frames, codes = history.tail(at_frame, t)
                    assert list(zip(frames, codes)) == _model_chain(relations, at_frame, t)
            graph.pairs = {"a": {"b": history}, "b": {}}
            assert graph.code_chain("a", "b", high, 4) == relations
            back = [(f, converse_code(c, n_bands)) for f, c in relations]
            assert graph.code_chain("b", "a", high, 4) == back
            assert graph.decode(top).qdc.band_name == bands[-1]
            blob = export_graph(graph)
            assert f'"frame":{low},'.encode() in blob and f'"frame":{high},'.encode() in blob
            loaded = import_graph(blob)
            assert loaded == graph and export_graph(loaded) == blob
            _assert_typed(loaded.pairs["a"]["b"], n_bands)
            assert loaded.code_chain("b", "a", high, 4) == back

    def test_graph_json_refuses_more_bands_than_a_code_holds(self):
        payload = json.loads(export_graph(build(_flicker_scene(2))))
        payload["qdc_bands"] = [f"band{i}" for i in range(MAX_BANDS + 1)]
        with pytest.raises(ValueError) as refused:
            import_graph(json.dumps(payload))
        assert str(refused.value) == (
            f"not a serialized scene graph: at most {MAX_BANDS} distance bands, got {MAX_BANDS + 1}"
        )

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SEVEN_BANDS], ids=["5 bands", "7 bands"])
    def test_pickled_and_deep_copied_graphs_equal_the_original(self, cfg):
        graph = build(_flicker_scene(3), cfg)
        assert sum(map(len, graph.pairs.values())) > 5
        for copied in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert copied == graph and copied is not graph
            assert export_graph(copied) == export_graph(graph)
            for a, row in copied.pairs.items():
                for b, history in row.items():
                    assert history.codes is not graph.pairs[a][b].codes
                    assert type(history.codes) is _Codes
                    _assert_typed(history, len(cfg.qdc_band_names))
                    history.codes[:] = list(history.codes)  # a list slice, as on the original
                    assert history == graph.pairs[a][b]

    @pytest.mark.parametrize(
        "make, field, other",
        [
            (lambda: Interval(0.0, 1.0), "lo", -1.0),
            (lambda: Point2D(1.0, 2.0), "x", 5.0),
            (lambda: BBox2D.from_bounds(0.0, 1.0, 2.0, 3.0), "y", Interval(4.0, 5.0)),
            (lambda: _state("a", 1.0, 2.0), "obj_class", "truck"),
            (lambda: _frame(3, _state("a", 1.0, 2.0)), "objects", ()),
        ],
        ids=["Interval", "Point2D", "BBox2D", "ObjectState", "Frame"],
    )
    def test_frozen_value_types_are_slotted(self, make, field, other):
        value = make()
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, other)
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        assert value == make() and hash(value) == hash(make()) == hash(fields)
        changed = dataclasses.replace(value, **{field: other})
        assert getattr(changed, field) == other and changed != value
        assert dataclasses.replace(changed, **{field: getattr(value, field)}) == value

    def test_edge_history_is_slotted(self):
        history = EdgeHistory()
        assert not hasattr(history, "__dict__")
        history.append(4, 700)
        history.append(5, 701)
        history.append(9, 700)
        assert history == EdgeHistory([700, 701, 700], [4, 0, 9, 2]) and len(history) == 3
        assert history.frames == [4, 5, 9]
        with pytest.raises(AttributeError):
            history.extra = 1
        with pytest.raises(AttributeError):
            history.frames = [1, 2, 3]  # a view of the runs, not a field


# near coordinates, half of them whole, so boxes overlap and endpoints tie
_near = st.one_of(st.integers(-6, 6).map(float), st.floats(-20, 20, allow_nan=False))


@st.composite
def _near_scenes(draw):
    frames = []
    for index in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
        states = []
        for oid in ids:
            (x1, x2), (y1, y2) = sorted((draw(_near), draw(_near))), sorted((draw(_near), draw(_near)))
            states.append(ObjectState(oid, draw(st.sampled_from(["car", "pedestrian"])), BBox2D.from_bounds(x1, x2, y1, y2)))
        frames.append(Frame(index, index * 0.5, tuple(states)))
    return Scene("near", tuple(frames))


@given(_near_scenes(), st.data())
@settings(max_examples=80)
def test_parsed_and_constructed_frames_build_equal_graphs(scene, data):
    """push_frame gives the same graph from a parsed frame's box rows as
    from the frame's ObjectStates, and from a parsed frame whose objects
    have already been read."""
    blob = serialize_scene(scene)
    want = export_graph(build(scene))
    assert export_graph(build(load_trace(blob)[0])) == want
    touched, _, _ = load_trace(blob)
    for got, built in zip(touched.frames, scene.frames):
        if data.draw(st.booleans()):  # this first read builds the ObjectStates
            assert got.objects == built.objects
    assert export_graph(build(touched)) == want


@st.composite
def _grid_streams(draw):
    """Frames on an integer grid, so box endpoints and centres tie exactly.
    The core ids are in every frame, so from the second frame on every pair
    of them has its motion judged; ``c`` leaves for a frame or more and comes
    back; and one new id, sorting first, in the middle or last, first
    appears mid-stream."""
    n_frames = draw(st.integers(3, 7))
    away = draw(st.integers(1, n_frames - 2))
    back = draw(st.integers(away + 1, n_frames - 1))
    newcomer = draw(st.sampled_from("aeg"))
    arrives = draw(st.integers(1, n_frames - 1))
    grid = st.integers(-4, 4)
    frames, index = [], 0
    for f in range(n_frames):
        ids = ["b", "d", "f"]
        if not away <= f < back:
            ids.append("c")
        if f >= arrives:
            ids.append(newcomer)
        states = []
        for oid in draw(st.permutations(ids)):  # any frame order
            (x1, x2), (y1, y2) = sorted((draw(grid), draw(grid))), sorted((draw(grid), draw(grid)))
            states.append(ObjectState(oid, "car", BBox2D.from_bounds(x1, x2, y1, y2)))
        frames.append(Frame(index, index * 0.5, tuple(states)))
        index += draw(st.integers(1, 3))
    return Scene("grid", tuple(frames))


@given(_grid_streams())
@settings(max_examples=120)
def test_pair_loop_matches_the_pure_functions_on_ties(scene):
    """push_frame against the oracle's bookkeeping on exact ties, judged
    motion, an id that leaves and returns, and an id first seen mid-stream."""
    builder = Builder(scene.scene_id)
    for frame in scene.frames:
        n = len(frame.objects)
        assert builder.push_frame(frame).pairs_updated == n * (n - 1) // 2
    expected = _expected_histories(scene)
    assert set(builder.graph.edges) == set(expected)
    for (a, b), want in expected.items():
        assert builder.graph.edge_chain(a, b, math.inf, math.inf) == want
