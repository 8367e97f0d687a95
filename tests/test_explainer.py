"""Feature encoding, forest training, explanation ranking, model files."""

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxg import explainer
from qxg.builder import QXG, build, pack_code
from qxg.calculi import (
    Allen,
    BBox2D,
    CalculiConfig,
    DEFAULT_CONFIG,
    Motion,
    QDCRelation,
    QTCBRelation,
    RARelation,
    RelationTuple,
    Sector,
)
from qxg.defs import MAX_CHAIN_LENGTH, MAX_TREES
from qxg.explainer import (
    CorruptModel,
    Dataset,
    EmptyTestSet,
    EncodingSpec,
    Hyperparams,
    InsufficientData,
    LengthMismatch,
    Model,
    Tree,
    UnknownAction,
    VersionMismatch,
    _fit_tree,
    _walk_forest,
    build_dataset,
    evaluate,
    explain,
    explanation_to_dict,
    extract_features,
    load_model,
    model_from_json,
    model_to_json,
    predict_scores,
    save_model,
    score,
    train,
)
from qxg.scene import ActionAnnotation, Frame, ObjectState, Scene
from qxg.synthgen import generate_corpus

SPEC = EncodingSpec()


def _encode(spec, chain, at_frame):
    """Reference encoder: one-hot a decoded chain (as produced by
    ``QXG.edge_chain``) into a float vector.  Entries outside the window are
    ignored; empty slots get their missing flag."""
    n_bands = len(spec.band_names)
    codes = [
        (frame, pack_code(rel.ra.x, rel.ra.y, rel.qtcb.a, rel.qtcb.b,
                          rel.qdc.band_index, rel.star4, n_bands))
        for frame, rel in chain
    ]
    return spec.densify([spec.hot_bits(codes, at_frame)])[0]


def _bits(X):
    """Each row of a dense matrix as its hot bits."""
    return [tuple(np.flatnonzero(row).tolist()) for row in X]


def _names(spec, vector):
    """``describe_feature`` of every set bit, in index order."""
    return [spec.describe_feature(i) for i in np.flatnonzero(vector)]


def _missing(spec, vector):
    """The slots, as ``frame-4`` ... ``frame+0``, whose missing flag is set."""
    return [name.split()[0] for name in _names(spec, vector) if name.endswith(" missing")]


def _tuple(x=Allen.BEFORE, y=Allen.BEFORE, am=Motion.STABLE, bm=Motion.STABLE, band=2, sector=Sector.NE):
    return RelationTuple(
        RARelation(x, y),
        QTCBRelation(am, bm),
        QDCRelation(band, DEFAULT_CONFIG.qdc_band_names[band]),
        sector,
    )


class TestEncodingSpec:
    def test_default_sizes(self):
        assert SPEC.slot_width == 44
        assert SPEC.feature_len == 220

    def test_sizes_follow_band_count(self):
        spec = EncodingSpec(t=3, band_names=("a", "b"))
        assert spec.slot_width == 41
        assert spec.feature_len == 123

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            EncodingSpec(t=0)
        with pytest.raises(ValueError):
            EncodingSpec(band_names=())

    def test_full_chain_sets_six_bits_per_slot(self):
        chain = [(f, _tuple()) for f in range(3, 8)]
        vec = _encode(SPEC, chain, at_frame=7)
        assert vec.sum() == 5 * 6
        assert _missing(SPEC, vec) == []

    def test_right_alignment_and_missing_flags(self):
        # seen only in the last two frames of the window
        chain = [(6, _tuple()), (7, _tuple(am=Motion.TOWARDS))]
        vec = _encode(SPEC, chain, at_frame=7)
        assert _missing(SPEC, vec) == ["frame-4", "frame-3", "frame-2"]
        names = _names(SPEC, vec)
        assert "frame-1 actor=Stable" in names
        assert "frame+0 actor=Towards" in names

    def test_pre_window_entries_are_ignored(self):
        chain = [(0, _tuple()), (7, _tuple())]
        assert _missing(SPEC, _encode(SPEC, chain, at_frame=7)) == ["frame-4", "frame-3", "frame-2", "frame-1"]

    def test_encode_known_positions(self):
        rel = _tuple(x=Allen.MEETS, y=Allen.DURING, am=Motion.AWAY, bm=Motion.TOWARDS, band=4, sector=Sector.SW)
        vec = _encode(SPEC, [(7, rel)], at_frame=7)
        base = 4 * 44
        assert vec[base + Allen.MEETS] == 1
        assert vec[base + 13 + Allen.DURING] == 1
        assert vec[base + 26 + Motion.AWAY] == 1
        assert vec[base + 30 + Motion.TOWARDS] == 1
        assert vec[base + 34 + 4] == 1
        assert vec[base + 39 + Sector.SW] == 1
        # the four empty slots contribute one missing flag each
        assert vec.sum() == 6 + 4

    @pytest.mark.parametrize(
        "index,expected",
        [
            (0, "frame-4 x=Before"),
            (13 + Allen.OVERLAPS_INV, "frame-4 y=OverlapsInv"),
            (44 + 26 + Motion.UNKNOWN, "frame-3 actor=Unknown"),
            (2 * 44 + 30 + Motion.AWAY, "frame-2 other=Away"),
            (3 * 44 + 34 + 1, "frame-1 dist=near"),
            (4 * 44 + 39 + Sector.SE, "frame+0 sector=SE"),
            (219, "frame+0 missing"),
        ],
    )
    def test_describe_feature(self, index, expected):
        assert SPEC.describe_feature(index) == expected

    def test_describe_feature_bounds(self):
        with pytest.raises(IndexError):
            SPEC.describe_feature(220)
        with pytest.raises(IndexError):
            SPEC.describe_feature(-1)

    def test_describe_feature_keeps_only_the_names_asked_for(self):
        spec = EncodingSpec(t=3, band_names=("a", "b"))
        first = spec.describe_feature(40)
        assert spec.describe_feature(40) is first
        with pytest.raises(IndexError, match=r"^feature index 999 out of range 0\.\.122$"):
            spec.describe_feature(999)
        assert spec._feature_names == {40: first}

    @pytest.mark.parametrize(
        "spec", [SPEC, EncodingSpec(t=3, band_names=("a", "b"))], ids=["default", "two-band-t3"]
    )
    def test_describe_names_bits_in_slot_block_order(self, spec):
        slot_names = [f"{name}={label}" for name, labels in spec.blocks for label in labels]
        expected = [
            f"frame{slot - (spec.t - 1):+d} {name}"
            for slot in range(spec.t)
            for name in slot_names + ["missing"]
        ]
        assert [spec.describe_feature(i) for i in range(spec.feature_len)] == expected

    def test_chain_length_is_bounded(self):
        assert EncodingSpec(t=MAX_CHAIN_LENGTH).feature_len == MAX_CHAIN_LENGTH * 44
        with pytest.raises(ValueError, match=f"1..{MAX_CHAIN_LENGTH}, got {MAX_CHAIN_LENGTH + 1}"):
            EncodingSpec(t=MAX_CHAIN_LENGTH + 1)

    @pytest.mark.parametrize("t", [5.0, True, "5"])
    def test_rejects_a_chain_length_that_is_no_integer(self, t):
        with pytest.raises(ValueError, match="integer"):
            EncodingSpec(t=t)

    @given(st.data())
    @settings(max_examples=40)
    def test_encoding_invariants(self, data):
        frames = data.draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
        chain = []
        for f in sorted(frames):
            chain.append(
                (
                    f,
                    _tuple(
                        x=data.draw(st.sampled_from(list(Allen))),
                        y=data.draw(st.sampled_from(list(Allen))),
                        am=data.draw(st.sampled_from(list(Motion))),
                        bm=data.draw(st.sampled_from(list(Motion))),
                        band=data.draw(st.integers(0, 4)),
                        sector=data.draw(st.sampled_from(list(Sector))),
                    ),
                )
            )
        vec = _encode(SPEC, chain, at_frame=9)
        assert set(np.unique(vec)) <= {0.0, 1.0}
        for slot in range(5):
            block = vec[slot * 44 : (slot + 1) * 44]
            if block[-1] == 1.0:  # missing slots carry no relation bits
                assert block.sum() == 1.0
            else:
                assert block.sum() == 6.0


def _state(oid, cx, cy, w=2.0, h=2.0, cls="car"):
    return ObjectState(oid, cls, BBox2D.from_bounds(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2))


class TestExtraction:
    def _graph(self):
        frames = []
        for f in range(8):
            states = [_state("ego", 0, 0)]
            if f <= 2:
                states.append(_state("early", 15, 0))  # gone before the window
            if f >= 6:
                states.append(_state("late", -10, 2))
            states.append(_state("steady", 4, 4))
            frames.append(Frame(f, f * 0.5, tuple(states)))
        return build(Scene("extract", tuple(frames)))

    def test_window_eligibility(self):
        samples = extract_features(self._graph(), "ego", 7, SPEC)
        assert [s.other for s in samples] == ["late", "steady"]

    def test_vectors_align_with_presence(self):
        samples = {s.other: s for s in extract_features(self._graph(), "ego", 7, SPEC)}
        assert _missing(SPEC, samples["late"].vector) == ["frame-4", "frame-3", "frame-2"]
        assert _missing(SPEC, samples["steady"].vector) == []

    def test_band_mismatch_rejected(self):
        cfg = CalculiConfig(qdc_band_edges=(4.0,), qdc_band_names=("in", "out"))
        graph = build(Scene("s", (Frame(0, 0.0, (_state("a", 0, 0), _state("b", 2, 0))),)), cfg)
        with pytest.raises(ValueError, match="do not match"):
            extract_features(graph, "a", 0, SPEC)

    def test_actor_without_pairs(self):
        graph = build(Scene("s", (Frame(0, 0.0, (_state("solo", 0, 0),)),)))
        assert extract_features(graph, "solo", 0, SPEC) == []


def _gappy_graph(seed, n_frames=12):
    """Five objects on random walks, each seen in about 60% of the frames,
    so chains have gaps and both orientations of a pair get queried."""
    rng = random.Random(seed)
    ids = [f"o{i}" for i in rng.sample(range(10), 5)]
    pos = {oid: [rng.uniform(-20, 20), rng.uniform(-20, 20)] for oid in ids}
    frames = []
    for f in range(n_frames):
        states = []
        for oid in ids:
            pos[oid][0] += rng.uniform(-2, 2)
            pos[oid][1] += rng.uniform(-2, 2)
            if rng.random() < 0.6:
                states.append(_state(oid, *pos[oid], w=rng.uniform(0.5, 4), h=rng.uniform(0.5, 4)))
        frames.append(Frame(f, f * 0.5, tuple(states)))
    return build(Scene(f"gappy{seed}", tuple(frames)))


class TestCodeReadPath:
    """``extract_features`` one-hots stored codes; ``_encode`` over the
    decoded ``edge_chain`` is the reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_extract_equals_encode_of_edge_chains(self, seed):
        graph = _gappy_graph(seed)
        spec = EncodingSpec(t=4)
        orientations = set()
        for actor in sorted(graph.node_classes):
            for frame in range(12):
                samples = extract_features(graph, actor, frame, spec)
                expected = [
                    other
                    for other in sorted(graph.node_classes)
                    if other != actor
                    and any(f > frame - spec.t for f, _ in graph.edge_chain(actor, other, frame, spec.t))
                ]
                assert [s.other for s in samples] == expected
                for sample in samples:
                    chain = graph.edge_chain(actor, sample.other, frame, spec.t)
                    assert np.array_equal(sample.vector, _encode(spec, chain, frame))
                    orientations.add(actor < sample.other)
        assert orientations == {True, False}

    def test_extract_never_decodes(self, monkeypatch):
        graph = _gappy_graph(0)
        queries = [(actor, frame) for actor in sorted(graph.node_classes) for frame in range(12)]
        want = [extract_features(graph, actor, frame, SPEC) for actor, frame in queries]

        def refuse(self, code):
            raise AssertionError("extract_features decoded a relation code")

        monkeypatch.setattr(QXG, "decode", refuse)
        assert [extract_features(graph, actor, frame, SPEC) for actor, frame in queries] == want
        assert any(want)

    def test_candidate_chains_equal_windowed_edge_chains(self):
        """Every explanation candidate on the criterion-5 corpus carries the
        window part of its pair's decoded ``edge_chain``."""
        train_items, test_items = generate_corpus(100, 25, master_seed=42)
        model = train(build_dataset([(s, a) for s, a, _ in train_items], t=5), seed=42)
        t = model.spec.t
        checked = 0
        for scene, annotation, _ in test_items:
            graph = build(scene)
            actor, frame = annotation.actor_id, annotation.frame_index
            result = explain(model, graph, actor, frame, annotation.action)
            for candidate in result.candidates:
                reference = graph.edge_chain(actor, candidate.other, frame, t)
                assert list(candidate.chain) == [(f, rel) for f, rel in reference if f > frame - t]
                checked += 1
        assert checked > len(test_items)


# -- a tiny hand-rolled corpus: "Chase" scenes end with one object bearing
#    down on the actor, "Idle" scenes are frozen tableaux ---------------------


def _mini_scene(seed, action):
    rng = random.Random(f"{seed}:{action}")
    sid = f"{action.lower()}{seed}"
    mover_y0 = 20.0 + rng.uniform(0, 3)
    bystander_x = rng.uniform(6, 12)
    frames = []
    for f in range(6):
        mover_y = mover_y0 - (2.5 * f if action == "Chase" else 0.0)
        frames.append(
            Frame(
                f,
                f * 0.5,
                (
                    _state("ego", 0, 0),
                    _state("mover", 0.5, mover_y),
                    _state("walker", bystander_x, -3, cls="pedestrian"),
                ),
            )
        )
    return Scene(sid, tuple(frames)), ActionAnnotation(sid, 5, "ego", action)


def _mini_corpus(n=12):
    return [_mini_scene(i, action) for i in range(n) for action in ("Chase", "Idle")]


MINI_HP = Hyperparams(n_trees=16, max_depth=6, min_samples_leaf=2)


@pytest.fixture(scope="module")
def mini_model():
    dataset = build_dataset(_mini_corpus(), t=4)
    return train(dataset, seed=7, hyperparams=MINI_HP), dataset


class TestBuildDataset:
    def test_shapes_and_labels(self):
        dataset = build_dataset(_mini_corpus(4), t=4)
        spec = EncodingSpec(4, DEFAULT_CONFIG.qdc_band_names)
        # 8 scenes x 2 pairs for the ego, each row its ascending hot bits
        assert spec.densify(dataset.rows).shape == (16, spec.feature_len)
        assert all(list(row) == sorted(set(row)) for row in dataset.rows)
        assert sorted(set(dataset.labels)) == ["Chase", "Idle"]
        assert len(dataset.keys) == 16
        assert dataset.warnings == []
        key = dataset.keys[0]
        assert (key.actor, key.frame) == ("ego", 5)

    def test_warns_on_pairless_annotation(self):
        scene = Scene("lonely", (Frame(0, 0.0, (_state("ego", 0, 0),)),))
        ann = ActionAnnotation("lonely", 0, "ego", "Idle")
        dataset = build_dataset([(scene, ann)])
        assert len(dataset) == 0
        assert dataset.warnings and "lonely" in dataset.warnings[0]

    def test_empty_input(self):
        dataset = build_dataset([])
        assert dataset.rows == []
        assert SPEC.densify(dataset.rows).shape == (0, SPEC.feature_len)


class TestTraining:
    def test_separates_the_mini_corpus(self, mini_model):
        model, dataset = mini_model
        assert model.actions == ["Chase", "Idle"]
        chase = np.asarray(predict_scores(model, dataset.rows)["Chase"])
        labels = np.asarray(dataset.labels)
        movers = np.asarray([k.other == "mover" for k in dataset.keys])
        assert chase[(labels == "Chase") & movers].min() > 0.8
        assert chase[(labels == "Idle") & movers].max() < 0.2

    def test_training_is_deterministic(self):
        dataset = build_dataset(_mini_corpus(6), t=4)
        a = train(dataset, seed=3, hyperparams=MINI_HP)
        b = train(dataset, seed=3, hyperparams=MINI_HP)
        assert model_to_json(a) == model_to_json(b)

    def test_seed_changes_the_forest(self):
        dataset = build_dataset(_mini_corpus(6), t=4)
        a = train(dataset, seed=3, hyperparams=MINI_HP)
        b = train(dataset, seed=4, hyperparams=MINI_HP)
        assert model_to_json(a) != model_to_json(b)

    def test_single_score_matches_batch(self, mini_model):
        model, dataset = mini_model
        rng = np.random.default_rng(11)
        X = np.vstack([dataset.spec.densify(dataset.rows), rng.random((2000, model.spec.feature_len)) < 0.15])
        batch = predict_scores(model, _bits(X))
        for action in model.actions:
            for i, row in enumerate(X):
                assert score(model, action, row) == batch[action][i]

    def test_walk_keeps_the_first_most_confident_leaf(self, mini_model):
        """On random rows, the walk's tree, leaf and path against every
        tree's leaf found on the dense row."""
        model, _ = mini_model
        rng = np.random.default_rng(11)
        X = rng.random((2000, model.spec.feature_len)) < 0.15
        ties = 0
        for action in model.actions:
            trees = model.forests[action]
            for row in X:
                _, best_tree, leaf, path = _walk_forest(trees, frozenset(np.flatnonzero(row).tolist()))
                reached = []
                for tree in trees:
                    node = 0
                    while tree.feature[node] >= 0:
                        node = tree.right[node] if row[tree.feature[node]] else tree.left[node]
                    reached.append(node)
                fractions = [tree.fraction[node] for tree, node in zip(trees, reached)]
                assert best_tree == fractions.index(max(fractions))  # first tree on ties
                ties += fractions.count(max(fractions)) > 1
                assert leaf == reached[best_tree]
                tree, node = trees[best_tree], 0
                for step in path:
                    assert step == node and tree.feature[node] >= 0
                    node = tree.right[node] if row[tree.feature[node]] else tree.left[node]
                assert node == leaf
        assert ties, "expected a tie to exercise the first-tree rule"

    def test_scores_sum_leaf_fractions_in_tree_order(self, mini_model):
        model, _ = mini_model
        rng = np.random.default_rng(7)
        X = (rng.random((2000, model.spec.feature_len)) < 0.15).astype(np.float64)
        got = predict_scores(model, _bits(X))
        pairwise_differs = 0
        for action in model.actions:
            trees = model.forests[action]
            fractions = np.empty((len(X), len(trees)))
            for i, row in enumerate(X):
                total = 0.0
                for j, tree in enumerate(trees):
                    node = 0
                    while tree.feature[node] >= 0:
                        hit = row[tree.feature[node]] > 0.5
                        node = tree.right[node] if hit else tree.left[node]
                    fractions[i, j] = tree.fraction[node]
                    total += tree.fraction[node]
                assert got[action][i] == total / len(trees)
            pairwise_differs += int(np.sum(fractions.mean(axis=1) != got[action]))
        assert pairwise_differs, "a pairwise mean never differs here, so the test cannot tell"

    def test_empty_dataset_rejected(self):
        with pytest.raises(InsufficientData):
            train(build_dataset([]))

    def test_single_label_corpus_warns_and_saturates(self):
        # nothing to contrast against: legal, but the forest is a constant
        items = [_mini_scene(i, "Idle") for i in range(4)]
        dataset = build_dataset(items, t=4)
        with pytest.warns(RuntimeWarning, match="no negative examples"):
            model = train(dataset, seed=3, hyperparams=Hyperparams(n_trees=8, max_depth=4))
        assert model.actions == ["Idle"]
        assert all(s == 1.0 for s in predict_scores(model, dataset.rows)["Idle"])

    def test_hyperparam_validation(self):
        for fields in (
            {"n_trees": 0},
            {"n_trees": True},
            {"max_depth": 10.0},
            {"min_samples_leaf": "5"},
            {"balance": 1},
            {"balance": "false"},
        ):
            with pytest.raises(ValueError):
                Hyperparams(**fields)

    def test_score_error_paths(self, mini_model):
        model, dataset = mini_model
        with pytest.raises(UnknownAction):
            score(model, "Swerving", dataset.spec.densify(dataset.rows[:1])[0])
        with pytest.raises(LengthMismatch):
            score(model, "Chase", np.zeros(7))
        with pytest.raises(LengthMismatch):
            predict_scores(model, np.zeros((2, 7)))
        with pytest.raises(LengthMismatch):
            predict_scores(model, [(model.spec.feature_len,)])

    @pytest.mark.parametrize("bit", [-1, 2**70, True, 1.0, "1", None, np.int64(3)])
    def test_predict_scores_refuses_bits_outside_the_encoding(self, mini_model, bit):
        model, dataset = mini_model
        with pytest.raises(LengthMismatch, match="feature bits"):
            predict_scores(model, [dataset.rows[0], (0, bit)])


class TestTreeFitting:
    def _xy(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(40, 2)).astype(float)
        X[:, 1] = X[:, 0]  # identical twin columns
        y = X[:, 0] > 0.5
        return X, y

    def test_tied_gain_prefers_smaller_feature(self):
        X, y = self._xy()
        tree = _fit_tree(
            X > 0.5, y, np.arange(len(y)), Hyperparams(n_trees=1, max_depth=3, min_samples_leaf=1), np.random.default_rng(5)
        )
        assert tree.feature[0] == 0

    def test_pure_node_becomes_leaf(self):
        X = np.zeros((10, 3))
        y = np.ones(10, dtype=bool)
        tree = _fit_tree(X > 0.5, y, np.arange(10), Hyperparams(), np.random.default_rng(0))
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1
        assert tree.fraction[0] == 1.0 and tree.count[0] == 10

    def test_max_depth_limits_the_tree(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(200, 6)).astype(float)
        y = (X[:, 0] + X[:, 1] + X[:, 2]) >= 2
        hp = Hyperparams(n_trees=1, max_depth=1, min_samples_leaf=1)
        tree = _fit_tree(X > 0.5, y, np.arange(200), hp, rng)
        assert len(tree.feature) <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(60, 5)).astype(float)
        y = X[:, 2] > 0.5
        hp = Hyperparams(n_trees=1, max_depth=8, min_samples_leaf=7)
        tree = _fit_tree(X > 0.5, y, np.arange(60), hp, rng)
        leaf_counts = [c for f, c in zip(tree.feature, tree.count) if f < 0]
        assert min(leaf_counts) >= 7


def _reference_fit_tree(X, y, rows, hp, rng):
    """The per-candidate split search that ``_fit_tree`` replaced: for every
    candidate, mask the node's bootstrap rows on ``X > 0.5`` and count them,
    then recurse on the masked rows."""
    n_features = X.shape[1]
    subset_size = math.ceil(math.sqrt(n_features))
    feature, left, right, fraction, count = [], [], [], [], []

    def gini(pos, n):
        p = pos / n
        return 2.0 * p * (1.0 - p)

    def grow(node_rows, depth):
        node = len(feature)
        feature.append(-1)
        left.append(-1)
        right.append(-1)
        fraction.append(0.0)
        count.append(0)
        n = node_rows.size
        pos = int(y[node_rows].sum())
        if depth >= hp.max_depth or pos == 0 or pos == n or n < 2 * hp.min_samples_leaf:
            fraction[node] = pos / n
            count[node] = n
            return node
        candidates = np.sort(rng.choice(n_features, size=subset_size, replace=False))
        parent = gini(pos, n)
        best_gain, best_feat, best_mask = 0.0, -1, None
        for f in candidates:
            mask = X[node_rows, f] > 0.5
            n_hi = int(mask.sum())
            n_lo = n - n_hi
            if n_hi < hp.min_samples_leaf or n_lo < hp.min_samples_leaf:
                continue
            pos_hi = int(y[node_rows[mask]].sum())
            pos_lo = pos - pos_hi
            gain = parent - (n_lo * gini(pos_lo, n_lo) + n_hi * gini(pos_hi, n_hi)) / n
            if gain > best_gain:
                best_gain, best_feat, best_mask = gain, int(f), mask
        if best_feat < 0:
            fraction[node] = pos / n
            count[node] = n
            return node
        feature[node] = best_feat
        left[node] = grow(node_rows[~best_mask], depth + 1)
        right[node] = grow(node_rows[best_mask], depth + 1)
        return node

    grow(rows, 0)
    return Tree(tuple(feature), tuple(left), tuple(right), tuple(fraction), tuple(count))


@pytest.fixture(scope="module")
def synth_dataset():
    train_items, _ = generate_corpus(30, 0, master_seed=5)
    return build_dataset([(s, a) for s, a, _ in train_items])


def _repeated_columns(dataset):
    """Each block of eight features repeats the block's first column, so
    most nodes draw tied candidates and the lowest index must win."""
    X = dataset.spec.densify(dataset.rows)
    for j in range(X.shape[1]):
        X[:, j] = X[:, j - j % 8]
    return Dataset(_bits(X), dataset.labels, dataset.keys, dataset.spec, dataset.cfg)


def _train_both(dataset, hp, monkeypatch):
    """``train`` as it is, then with the reference loop as ``_fit_tree``."""
    model = train(dataset, seed=13, hyperparams=hp)
    X = dataset.spec.densify(dataset.rows)
    monkeypatch.setattr(
        explainer, "_fit_tree", lambda hi, y, rows, hp, rng: _reference_fit_tree(X, y, rows, hp, rng)
    )
    return model, train(dataset, seed=13, hyperparams=hp)


class TestSplitSearchMatchesReference:
    """``train`` grows the same trees as the per-candidate loop it replaced:
    same node ids, features, leaf fractions and integer counts."""

    @pytest.mark.parametrize(
        "hp, variant",
        [
            (Hyperparams(), None),
            (Hyperparams(min_samples_leaf=1, max_depth=25), None),
            (Hyperparams(balance=False, n_trees=30), None),
            (Hyperparams(n_trees=40, min_samples_leaf=1), _repeated_columns),
        ],
        ids=["defaults", "deep-leaf-1", "unbalanced", "repeated-columns"],
    )
    def test_equal_trees(self, synth_dataset, hp, variant, monkeypatch):
        dataset = variant(synth_dataset) if variant else synth_dataset
        model, reference = _train_both(dataset, hp, monkeypatch)
        assert model.forests == reference.forests
        assert model_to_json(model) == model_to_json(reference)
        assert all(type(c) is int for trees in model.forests.values() for t in trees for c in t.count)
        assert sum(len(t.feature) for trees in model.forests.values() for t in trees) > 10 * hp.n_trees

    def test_single_action_corpus(self, synth_dataset, monkeypatch):
        d = synth_dataset
        dataset = Dataset(d.rows, ["Cruising"] * len(d), d.keys, d.spec, d.cfg)
        with pytest.warns(RuntimeWarning, match="no negative examples"):
            model, reference = _train_both(dataset, Hyperparams(n_trees=8), monkeypatch)
        assert model.forests == reference.forests
        assert model_to_json(model) == model_to_json(reference)


class TestExplain:
    def test_ranks_the_approaching_object_first(self, mini_model):
        model, _ = mini_model
        scene, ann = _mini_scene(999, "Chase")
        graph = build(scene)
        result = explain(model, graph, ann.actor_id, ann.frame_index, "Chase")
        assert result.candidates[0].other == "mover"
        assert result.candidates[0].score > 0.8
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_and_k(self, mini_model):
        model, _ = mini_model
        scene, ann = _mini_scene(998, "Chase")
        graph = build(scene)
        everyone = explain(model, graph, "ego", 5, "Chase")
        assert len(everyone.candidates) == 2
        top = explain(model, graph, "ego", 5, "Chase", k=1)
        assert [c.other for c in top.candidates] == ["mover"]
        confident = explain(model, graph, "ego", 5, "Chase", threshold=0.8)
        assert all(c.score >= 0.8 for c in confident.candidates)

    def test_paths_walk_real_features(self, mini_model):
        model, _ = mini_model
        scene, ann = _mini_scene(997, "Chase")
        result = explain(model, build(scene), "ego", 5, "Chase", k=1)
        (candidate,) = result.candidates
        assert candidate.path, "expected a non-trivial decision path"
        for step in candidate.path:
            assert step.description == model.spec.describe_feature(step.feature)
            assert step.value in (0, 1)
        assert 0.0 <= candidate.leaf_fraction <= 1.0
        assert candidate.leaf_count >= 1

    def test_path_replays_to_the_most_confident_leaf(self, mini_model):
        model, _ = mini_model
        graph = build(_mini_scene(994, "Chase")[0])
        vectors = {s.other: s.vector for s in extract_features(graph, "ego", 5, model.spec)}
        trees = model.forests["Chase"]
        ties = 0
        for candidate in explain(model, graph, "ego", 5, "Chase").candidates:
            vector = vectors[candidate.other]
            reached = []
            for tree in trees:
                node = 0
                while tree.feature[node] >= 0:
                    hit = vector[tree.feature[node]] > 0.5
                    node = tree.right[node] if hit else tree.left[node]
                reached.append(tree.fraction[node])
            total = 0.0
            for fraction in reached:  # in tree order, as the forest sums them
                total += fraction
            assert candidate.score == total / len(trees)
            best = max(reached)
            assert candidate.leaf_fraction == best
            assert candidate.best_tree == reached.index(best)  # first tree on ties
            ties += reached.count(best) > 1

            tree, node = trees[candidate.best_tree], 0
            for step in candidate.path:
                assert step.feature == tree.feature[node]
                assert step.value == int(vector[step.feature] > 0.5)
                node = tree.right[node] if step.value else tree.left[node]
            assert tree.feature[node] < 0
            assert tree.fraction[node] == candidate.leaf_fraction
            assert tree.count[node] == candidate.leaf_count
        assert ties, "expected a tie to exercise the lowest-index rule"

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, mini_model, threshold):
        model, _ = mini_model
        scene, ann = _mini_scene(996, "Chase")
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            explain(model, build(scene), ann.actor_id, ann.frame_index, "Chase", threshold=threshold)

    @pytest.mark.parametrize("threshold", ["x", True, 10**400], ids=["str", "bool", "huge-int"])
    def test_threshold_must_be_a_number(self, mini_model, threshold):
        # True would cut at 1.0; an int past float range would overflow
        model, _ = mini_model
        scene, ann = _mini_scene(996, "Chase")
        with pytest.raises(ValueError, match=r"^threshold must be a finite number, got "):
            explain(model, build(scene), ann.actor_id, ann.frame_index, "Chase", threshold=threshold)

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, False, "2"])
    def test_k_must_be_a_positive_integer(self, mini_model, k):
        # a negative k would drop the last candidates, and True would act as 1
        model, _ = mini_model
        scene, ann = _mini_scene(996, "Chase")
        with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got "):
            explain(model, build(scene), ann.actor_id, ann.frame_index, "Chase", k=k)

    @pytest.mark.parametrize("frame", [True, 5.0, "5", None, math.inf])
    def test_frame_must_be_an_integer(self, mini_model, frame):
        # True would answer for frame 1 and write "frame": true
        model, _ = mini_model
        scene, ann = _mini_scene(996, "Chase")
        with pytest.raises(ValueError, match=r"^frame must be an integer, got "):
            explain(model, build(scene), ann.actor_id, frame, "Chase")

    @pytest.mark.parametrize("actor", [None, 1, b"ego"])
    def test_actor_must_be_a_string(self, mini_model, actor):
        # None would match no node and return an empty explanation
        model, _ = mini_model
        scene, ann = _mini_scene(996, "Chase")
        with pytest.raises(ValueError, match=r"^actor must be a string, got "):
            explain(model, build(scene), actor, ann.frame_index, "Chase")

    def test_unknown_action(self, mini_model):
        model, _ = mini_model
        scene, _ = _mini_scene(996, "Idle")
        with pytest.raises(UnknownAction):
            explain(model, build(scene), "ego", 5, "Swerving")

    def test_unknown_action_is_a_value_error_and_a_key_error(self):
        error = UnknownAction("x")
        assert isinstance(error, KeyError) and isinstance(error, ValueError)
        assert str(error) == "unknown action 'x'"

    def test_dict_form_is_json_ready(self, mini_model):
        model, _ = mini_model
        scene, _ = _mini_scene(995, "Chase")
        result = explain(model, build(scene), "ego", 5, "Chase", k=2)
        payload = explanation_to_dict(result)
        blob = json.dumps(payload)
        restored = json.loads(blob)
        assert restored["actor"] == "ego"
        assert restored["action"] == "Chase"
        assert restored["candidates"][0]["object"] == "mover"
        assert {"feature", "description", "value"} <= set(restored["candidates"][0]["path"][0])
        chain = restored["candidates"][0]["chain"]
        assert 1 <= len(chain) <= 4
        # relation components appear in their canonical order in every entry
        assert all(list(entry)[1:] == ["ra", "qtcb", "qdc", "star4"] for entry in chain)
        assert all(entry["frame"] in range(2, 6) for entry in chain)
        assert chain[-1]["qtcb"][1] == "Towards"  # the mover was bearing down


class TestEvaluate:
    def test_report_structure(self, mini_model):
        model, _ = mini_model
        test_set = build_dataset([_mini_scene(s, a) for s in (101, 102, 103) for a in ("Chase", "Idle")], t=4)
        report = evaluate(model, test_set)
        assert set(report.per_action) == {"Chase", "Idle"}
        for metrics in report.per_action.values():
            assert 0.0 <= metrics.precision <= 1.0
            assert 0.0 <= metrics.recall <= 1.0
            assert metrics.tp + metrics.fn == metrics.support
        assert report.n_rows == len(test_set)
        assert 0.0 <= report.macro_precision <= 1.0

    def test_impossible_threshold_zeroes_precision(self, mini_model):
        model, _ = mini_model
        test_set = build_dataset([_mini_scene(200, "Chase")], t=4)
        report = evaluate(model, test_set, threshold=1.1)
        assert report.per_action["Chase"].precision == 0.0
        assert report.per_action["Chase"].recall == 0.0

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, mini_model, threshold):
        model, _ = mini_model
        test_set = build_dataset([_mini_scene(201, "Chase")], t=4)
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            evaluate(model, test_set, threshold=threshold)

    @pytest.mark.parametrize("threshold", ["x", True, 10**400], ids=["str", "bool", "huge-int"])
    def test_threshold_must_be_a_number(self, mini_model, threshold):
        model, _ = mini_model
        test_set = build_dataset([_mini_scene(201, "Chase")], t=4)
        with pytest.raises(ValueError, match=r"^threshold must be a finite number, got "):
            evaluate(model, test_set, threshold=threshold)

    def test_cause_recovery_matches_explain(self):
        train_items, test_items = generate_corpus(8, 6, master_seed=11)
        model = train(
            build_dataset([(s, a) for s, a, _ in train_items]),
            seed=11,
            hyperparams=Hyperparams(n_trees=12, max_depth=6, min_samples_leaf=2),
        )
        test_set = build_dataset([(s, a) for s, a, _ in test_items])
        truth, top = {}, {}
        for scene, annotation, planted in test_items:
            key = (scene.scene_id, annotation.actor_id, annotation.frame_index)
            truth[key] = planted.cause_id
            result = explain(model, build(scene), *key[1:], annotation.action)
            top[key] = result.candidates[0].other if result.candidates else "no candidate"
        caused = [key for key, cause in truth.items() if cause != "none"]
        hits = sum(top[key] == truth[key] for key in caused)
        assert 0 < hits < len(caused)
        assert evaluate(model, test_set, causes=truth).cause_recovery == (hits, len(caused))
        # naming explain's own top pick as the cause recovers every annotation
        assert evaluate(model, test_set, causes=top).cause_recovery == (len(top), len(top))
        assert evaluate(model, test_set).cause_recovery is None

    def test_empty_test_set(self, mini_model):
        model, _ = mini_model
        with pytest.raises(EmptyTestSet):
            evaluate(model, build_dataset([]))

    def test_spec_mismatch(self, mini_model):
        model, _ = mini_model
        other = build_dataset([_mini_scene(300, "Chase")], t=2)
        with pytest.raises(LengthMismatch):
            evaluate(model, other)


class TestPersistence:
    def test_round_trip_preserves_everything(self, mini_model):
        model, _ = mini_model
        restored = model_from_json(model_to_json(model))
        assert restored == model
        assert model_to_json(restored) == model_to_json(model)

    def test_round_trip_scores_identically(self, mini_model):
        model, _ = mini_model
        restored = model_from_json(model_to_json(model))
        rng = np.random.default_rng(123)
        rows = _bits(rng.integers(0, 2, size=(50, model.spec.feature_len)))
        before = predict_scores(model, rows)
        after = predict_scores(restored, rows)
        for action in model.actions:
            assert np.array_equal(before[action], after[action])

    def test_save_and_load_files(self, mini_model, tmp_path):
        model, _ = mini_model
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_version_gate(self, mini_model):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        payload["version"] = 2
        with pytest.raises(VersionMismatch):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "blob",
        [
            "not json",
            "[]",
            '{"version": 1}',
        ],
    )
    def test_corrupt_files(self, blob):
        with pytest.raises(CorruptModel):
            model_from_json(blob)

    @pytest.mark.parametrize(
        "root, match",
        [
            ({"feature": 0, "left": 5_000, "right": 5_001}, "links outside"),
            ({"feature": 0, "left": 0, "right": 0}, "links outside"),  # a cycle
            ({"feature": 10**6, "left": 1, "right": 2}, "tests feature"),
            ({"fraction": float("nan"), "count": 3}, "fraction nan"),
            ("no nodes", "no nodes"),
            ("no trees", "no trees"),
            ({"feature": 160.7, "left": 1, "right": 2}, "feature 160.7 is not an integer"),
            ({"feature": True, "left": 1, "right": 2}, "feature True is not an integer"),
            ({"feature": 0, "left": 1.0, "right": 2}, "left 1.0 is not an integer"),
            ({"feature": 0, "left": 1, "right": "2"}, "right '2' is not an integer"),
            ({"fraction": 0.5, "count": 2.5}, "count 2.5 is not an integer"),
            ({"fraction": "0.5", "count": 3}, "fraction '0.5' is not a number"),
            ({"fraction": False, "count": 3}, "fraction False is not a number"),
            ({"fraction": 0.5, "count": 2**31}, "2147483648"),
        ],
        ids=[
            "dangling", "cycle", "feature", "nan-fraction", "no-nodes", "no-trees",
            "float-feature", "bool-feature", "float-left", "str-right", "float-count",
            "str-fraction", "bool-fraction", "int32-count",
        ],
    )
    def test_corrupt_tree_links(self, mini_model, root, match):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        first_action = next(iter(payload["actions"]))
        trees = payload["actions"][first_action]["trees"]
        if root == "no trees":
            trees.clear()
        elif root == "no nodes":
            trees[0]["nodes"].clear()
        else:
            trees[0]["nodes"][0] = root
        with pytest.raises(CorruptModel, match=match):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "leaf",
        [{"fraction": 0.5, "count": 2**31 - 1}, {"fraction": 1, "count": 3}],
        ids=["largest-count", "int-fraction"],
    )
    def test_edge_leaves_load_and_resave_as_floats(self, mini_model, leaf):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        first_action = next(iter(payload["actions"]))
        nodes = payload["actions"][first_action]["trees"][0]["nodes"]
        nodes[0] = leaf
        resaved = model_to_json(model_from_json(json.dumps(payload)))
        nodes[0] = {**leaf, "fraction": float(leaf["fraction"])}
        assert resaved == model_to_json(model_from_json(json.dumps(payload)))
        assert json.loads(resaved)["actions"][first_action]["trees"][0]["nodes"][0] == leaf

    def test_model_without_actions_rejected(self, mini_model):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        payload["actions"] = {}
        with pytest.raises(CorruptModel, match="no actions"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "changes",
        [
            {"calculi.qdc_band_edges": [1.0, 5.0, 15.0, float("nan")]},
            {"calculi.qdc_band_edges": [1.0, 5.0, 15.0, float("inf")]},
            {"calculi.qdc_band_edges": [True, 5.0, 15.0, 50.0]},
            {"calculi.qtc_epsilon": float("nan")},
            {"calculi.qdc_band_names": [0, 1, 2, 3, 4]},
            {"calculi.qdc_band_names": ["a", "a", "b", "c", "d"]},
            {"t": 4.0, "encoding.feature_len": 176.0},
            {"hyperparams.n_trees": True},
            {"hyperparams.max_depth": 6.0},
            {"hyperparams.balance": 1},
            {"seed": 7.0},
            {"seed": True},
            {"calculi.qdc_band_names": "abcde"},
            # "" would pass as an empty tuple of edges, with the rest made to fit one band
            {
                "calculi.qdc_band_edges": "",
                "calculi.qdc_band_names": ["all"],
                "t": 1,
                "encoding.feature_len": EncodingSpec(1, ("all",)).feature_len,
                "actions": {"Chase": {"trees": [{"nodes": [{"fraction": 0.5, "count": 2}]}]}},
            },
            {"calculi.qdc_band_count": 5},
            {"hyperparams.max_features": 3},
        ],
        ids=[
            "nan-edge", "inf-edge", "bool-edge", "nan-epsilon", "int-names", "repeated-names",
            "float-t", "bool-n-trees", "float-depth", "int-balance", "float-seed", "bool-seed",
            "str-names", "str-edges", "unknown-calculi-key", "unknown-hyperparams-key",
        ],
    )
    def test_mistyped_config_fields(self, mini_model, changes):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        for path, value in changes.items():
            *sections, key = path.split(".")
            target = payload
            for section in sections:
                target = target[section]
            target[key] = value
        with pytest.raises(CorruptModel):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            (None, "seed", -1, "seed -1 is not a non-negative integer"),
            ("hyperparams", "n_trees", MAX_TREES + 1, f"n_trees must be in 1..{MAX_TREES}, got {MAX_TREES + 1}"),
        ],
        ids=["negative-seed", "too-many-trees"],
    )
    def test_out_of_range_settings(self, mini_model, section, key, value, match):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        (payload[section] if section else payload)[key] = value
        with pytest.raises(CorruptModel, match=match):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "section, key",
        [("calculi", "qdc_band_edges"), ("calculi", "qtc_epsilon"), ("hyperparams", "balance")],
    )
    def test_missing_config_field(self, mini_model, section, key):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        del payload[section][key]
        with pytest.raises(CorruptModel, match="missing keys"):
            model_from_json(json.dumps(payload))

    def test_integer_epsilon_loads_as_float(self, mini_model):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        payload["calculi"]["qtc_epsilon"] = 0
        loaded = model_from_json(json.dumps(payload))
        assert type(loaded.cfg.qtc_epsilon) is float and loaded.cfg.qtc_epsilon == 0.0

    def test_feature_len_consistency_checked(self, mini_model):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        payload["encoding"]["feature_len"] = 17
        with pytest.raises(CorruptModel):
            model_from_json(json.dumps(payload))

    def test_slot_width_consistency_checked(self, mini_model):
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        payload["encoding"]["slot_width"] = 999
        message = f"stored slot_width 999 does not match the stored encoding parameters ({model.spec.slot_width})"
        with pytest.raises(CorruptModel, match=f"^{re.escape(message)}$"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize("section", [None, "encoding"], ids=["top-level", "encoding"])
    def test_unknown_keys_refused(self, mini_model, section):
        # re-saving would drop them, so loading must not keep them silently
        model, _ = mini_model
        payload = json.loads(model_to_json(model))
        (payload[section] if section else payload).update(junk=1, extra=2)
        where = '"encoding"' if section else "the model file"
        message = f"unknown keys ['extra', 'junk'] in {where}"
        with pytest.raises(CorruptModel, match=f"^{re.escape(message)}$"):
            model_from_json(json.dumps(payload))
