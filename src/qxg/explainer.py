"""Action explanation: which object made the actor do that?

The classifier never sees raw coordinates.  For an annotated action we take
the actor's relation chain against each co-occurring object over the last
``t`` frames, one-hot encode it, and train one small forest of depth-limited
decision trees per action label (one-vs-all).  A trained forest scores a
pair chain with the mean positive fraction of the leaves it lands in, so
every score is readable as "how often did training chains that looked like
this belong to the action".  Explaining an action means scoring every
candidate pair and returning them ranked, each with the literal decision
path of its most confident tree.

Trees are grown with Gini impurity on a random feature subset per node, the
classic recipe; all randomness flows from one master seed through
``numpy.random.SeedSequence`` spawns, so training is reproducible and could
be parallelized per tree without changing results.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .builder import (
    ALLEN_LABELS,
    MOTION_LABELS,
    QXG,
    SECTOR_LABELS,
    build,
    pack_code,
    relation_to_dict,
    unpack_code,
)
from .calculi import DEFAULT_CONFIG, CalculiConfig, RelationTuple
from .defs import Hyperparams, UnknownAction, replace_from_json
from .scene import NO_CAUSE, ActionAnnotation, Scene

__all__ = [
    "EncodingSpec",
    "PairSample",
    "Dataset",
    "Hyperparams",
    "Tree",
    "Model",
    "EmptyAction",
    "InsufficientData",
    "UnknownAction",
    "LengthMismatch",
    "EmptyTestSet",
    "VersionMismatch",
    "CorruptModel",
    "extract_features",
    "build_dataset",
    "train",
    "score",
    "predict_scores",
    "explain",
    "Explanation",
    "Candidate",
    "explanation_to_dict",
    "evaluate",
    "EvalReport",
    "ActionMetrics",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

MODEL_VERSION = 1


class EmptyAction(ValueError):
    """A requested action label has no positive examples in the dataset."""


class InsufficientData(ValueError):
    """Not enough rows (or no negatives) to train a one-vs-all forest."""


class LengthMismatch(ValueError):
    """A feature vector does not match the model's encoding length."""


class EmptyTestSet(ValueError):
    """Evaluation needs at least one labelled row."""


class VersionMismatch(ValueError):
    """The model file comes from an incompatible format version."""


class CorruptModel(ValueError):
    """The model file is not structurally valid."""


# -- encoding -----------------------------------------------------------------


@dataclass(frozen=True)
class EncodingSpec:
    """Fixed layout of one encoded chain.

    A chain covers the ``t`` frames ending at the annotation frame.  Each
    frame slot holds one-hot blocks for the x and y interval relations, both
    motion signs, the distance band and the sector, plus a trailing flag set
    when the pair was not observed in that slot.  Slots are right-aligned:
    the last slot is the annotation frame itself.
    """

    t: int = 5
    band_names: tuple[str, ...] = DEFAULT_CONFIG.qdc_band_names

    def __post_init__(self) -> None:
        if type(self.t) is not int:
            raise ValueError(f"chain length must be an integer, got {self.t!r}")
        if self.t < 1:
            raise ValueError(f"chain length must be at least 1, got {self.t}")
        if not self.band_names:
            raise ValueError("need at least one distance band")

    @property
    def blocks(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The one-hot blocks of a slot as ``(name, labels)``, in
        ``unpack_code`` order; the missing flag follows the last block."""
        return (
            ("x", ALLEN_LABELS),
            ("y", ALLEN_LABELS),
            ("actor", MOTION_LABELS),
            ("other", MOTION_LABELS),
            ("dist", self.band_names),
            ("sector", SECTOR_LABELS),
        )

    @property
    def slot_width(self) -> int:
        return sum(len(labels) for _, labels in self.blocks) + 1

    @property
    def feature_len(self) -> int:
        return self.t * self.slot_width

    def encode(self, chain: Sequence[tuple[int, RelationTuple]], at_frame: int) -> np.ndarray:
        """One-hot a chain (as produced by ``QXG.edge_chain``) into a float
        vector.  Entries outside the window are ignored; empty slots get
        their missing flag."""
        n_bands = len(self.band_names)
        codes = [
            (frame, pack_code(rel.ra.x, rel.ra.y, rel.qtcb.a, rel.qtcb.b,
                              rel.qdc.band_index, rel.star4, n_bands))
            for frame, rel in chain
        ]
        return self.encode_codes([codes], at_frame)[0]

    def encode_codes(
        self, chains: Sequence[Sequence[tuple[int, int]]], at_frame: int
    ) -> np.ndarray:
        """One row per chain of ``(frame, code)`` pairs (as produced by
        ``QXG.window_chains``), laid out as :meth:`encode` describes."""
        last = self.t - 1  # the annotation frame's slot
        hits = [
            (row, last - (at_frame - frame), code)
            for row, chain in enumerate(chains)
            for frame, code in chain
            if 0 <= at_frame - frame <= last
        ]
        X = np.zeros((len(chains), self.t, self.slot_width), dtype=np.float64)
        X[:, :, -1] = 1.0
        if hits:
            rows, slots, codes = np.array(hits).T
            offset = 0
            for (_, labels), component in zip(self.blocks, unpack_code(codes, len(self.band_names))):
                X[rows, slots, offset + component] = 1.0
                offset += len(labels)
            X[rows, slots, -1] = 0.0
        return X.reshape(len(chains), self.feature_len)

    def describe_feature(self, index: int) -> str:
        """Human name of one feature, e.g. ``frame-2 x=Before`` (two frames
        before the annotation, x intervals related by Before)."""
        if not 0 <= index < self.feature_len:
            raise IndexError(f"feature index {index} out of range 0..{self.feature_len - 1}")
        slot, within = divmod(index, self.slot_width)
        frame = f"frame{slot - (self.t - 1):+d}"
        for name, labels in self.blocks:
            if within < len(labels):
                return f"{frame} {name}={labels[within]}"
            within -= len(labels)
        return f"{frame} missing"

    def decode(self, vector: np.ndarray) -> list[dict]:
        """Inverse of ``encode`` for inspection: per-slot labels (None where
        a one-hot block is all zero)."""
        if len(vector) != self.feature_len:
            raise LengthMismatch(f"expected {self.feature_len} features, got {len(vector)}")
        out = []
        for slot in range(self.t):
            bits = iter(vector[slot * self.slot_width : (slot + 1) * self.slot_width] > 0.5)
            entry = {}
            for name, labels in self.blocks:
                # labels go first, so zip takes exactly len(labels) bits
                hits = [label for label, hit in zip(labels, bits) if hit]
                entry[name] = hits[0] if hits else None
            entry["missing"] = bool(next(bits))
            out.append(entry)
        return out


@dataclass(frozen=True)
class PairSample:
    """One encoded actor/other chain at one frame, with the window's
    ``(frame, code)`` pairs it encodes."""

    actor: str
    other: str
    frame: int
    vector: np.ndarray
    chain: list[tuple[int, int]]

    def __eq__(self, other_obj: object) -> bool:  # ndarray needs help
        if not isinstance(other_obj, PairSample):
            return NotImplemented
        return (
            self.actor == other_obj.actor
            and self.other == other_obj.other
            and self.frame == other_obj.frame
            and np.array_equal(self.vector, other_obj.vector)
            and self.chain == other_obj.chain
        )


def extract_features(
    graph: QXG, actor: str, at_frame: int, spec: EncodingSpec
) -> list[PairSample]:
    """Encode the actor's chain against every object observed with it inside
    the window, sorted by the other object's id.  Pairs whose joint history
    ended before the window contribute nothing."""
    if graph.band_names != spec.band_names:
        raise ValueError(
            f"graph bands {graph.band_names!r} do not match encoding bands {spec.band_names!r}"
        )
    pairs = graph.window_chains(actor, at_frame, spec.t)
    X = spec.encode_codes([chain for _, chain in pairs], at_frame)
    return [PairSample(actor, other, at_frame, row, chain) for (other, chain), row in zip(pairs, X)]


# -- datasets -----------------------------------------------------------------


@dataclass(frozen=True)
class RowKey:
    scene_id: str
    actor: str
    other: str
    frame: int


@dataclass
class Dataset:
    X: np.ndarray
    labels: list[str]
    keys: list[RowKey]
    spec: EncodingSpec
    cfg: CalculiConfig
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)


def build_dataset(
    items: Iterable[tuple[Scene, ActionAnnotation]],
    t: int = 5,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> Dataset:
    """Turn annotated scenes into a labelled pair-vector matrix.

    Every pair chain extracted at an annotation frame becomes one row
    labelled with that annotation's action.  Annotations with no extractable
    pair are recorded as warnings rather than silently dropped."""
    spec = EncodingSpec(t, cfg.qdc_band_names)
    vectors: list[np.ndarray] = []
    labels: list[str] = []
    keys: list[RowKey] = []
    warnings: list[str] = []
    for scene, annotation in items:
        graph = build(scene, cfg)
        samples = extract_features(graph, annotation.actor_id, annotation.frame_index, spec)
        if not samples:
            warnings.append(
                f"scene {scene.scene_id!r}: no pair chains for actor "
                f"{annotation.actor_id!r} at frame {annotation.frame_index}"
            )
            continue
        for sample in samples:
            vectors.append(sample.vector)
            labels.append(annotation.action)
            keys.append(RowKey(scene.scene_id, sample.actor, sample.other, sample.frame))
    X = (
        np.stack(vectors)
        if vectors
        else np.zeros((0, spec.feature_len), dtype=np.float64)
    )
    return Dataset(X, labels, keys, spec, cfg, warnings)


# -- forests ------------------------------------------------------------------


@dataclass
class Tree:
    """Flat array form: ``feature[i] < 0`` marks node i as a leaf carrying
    ``fraction``/``count``; otherwise ``left``/``right`` index the children
    for vector[feature] == 0 / == 1."""

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fraction: np.ndarray
    count: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("feature", "left", "right", "fraction", "count")
        )


def _gini(pos: int, n: int) -> float:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _fit_tree(X: np.ndarray, y: np.ndarray, rows: np.ndarray, hp: Hyperparams, rng) -> Tree:
    n_features = X.shape[1]
    subset_size = math.ceil(math.sqrt(n_features))
    feature: list[int] = []
    left: list[int] = []
    right: list[int] = []
    fraction: list[float] = []
    count: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        left.append(-1)
        right.append(-1)
        fraction.append(0.0)
        count.append(0)
        return len(feature) - 1

    def grow(node_rows: np.ndarray, depth: int) -> int:
        node = new_node()
        n = node_rows.size
        pos = int(y[node_rows].sum())
        if depth >= hp.max_depth or pos == 0 or pos == n or n < 2 * hp.min_samples_leaf:
            fraction[node] = pos / n
            count[node] = n
            return node

        # Candidate features in ascending order so that on tied gain the
        # smallest feature index wins.
        candidates = np.sort(rng.choice(n_features, size=subset_size, replace=False))
        parent = _gini(pos, n)
        best_gain = 0.0
        best_feat = -1
        best_mask = None
        for f in candidates:
            mask = X[node_rows, f] > 0.5
            n_hi = int(mask.sum())
            n_lo = n - n_hi
            if n_hi < hp.min_samples_leaf or n_lo < hp.min_samples_leaf:
                continue
            pos_hi = int(y[node_rows[mask]].sum())
            pos_lo = pos - pos_hi
            gain = parent - (n_lo * _gini(pos_lo, n_lo) + n_hi * _gini(pos_hi, n_hi)) / n
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
    return Tree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(fraction, dtype=np.float64),
        np.asarray(count, dtype=np.int32),
    )


@dataclass(frozen=True)
class _PackedForest:
    """One action's trees as a single node array.  ``children[2 * i]`` and
    ``children[2 * i + 1]`` are node i's left and right child, offset by
    their tree's root; leaves link to themselves, so a walk that reached a
    leaf stays there while deeper walks go on."""

    roots: np.ndarray
    feature: np.ndarray
    children: np.ndarray
    fraction: np.ndarray
    count: np.ndarray

    @classmethod
    def pack(cls, trees: list[Tree]) -> "_PackedForest":
        sizes = np.array([tree.feature.size for tree in trees])
        roots = np.cumsum(sizes) - sizes
        shift = np.repeat(roots, sizes)
        feature = np.concatenate([tree.feature for tree in trees])
        own = np.arange(feature.size)
        left = np.where(feature < 0, own, np.concatenate([tree.left for tree in trees]) + shift)
        right = np.where(feature < 0, own, np.concatenate([tree.right for tree in trees]) + shift)
        return cls(
            roots,
            feature,
            np.stack([left, right], axis=1).ravel(),
            np.concatenate([tree.fraction for tree in trees]),
            np.concatenate([tree.count for tree in trees]),
        )


def _forest_scores(
    forest: _PackedForest, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every row of ``X`` down every tree at once, one level per step.

    Returns the forest score per row, and per row and tree the packed id of
    the leaf reached and that leaf's fraction.  The fractions are summed in
    tree order (a running ``cumsum``): a pairwise ``sum`` or ``mean``
    differs in the last bits and would change explanation JSON."""
    hot = (X > 0.5).ravel()
    row_start = np.arange(X.shape[0])[:, None] * X.shape[1]
    node = np.tile(forest.roots, (X.shape[0], 1))
    f = forest.feature[node]
    while (f >= 0).any():
        # a leaf (f == -1) reads some other bit, but both its links are itself
        node = forest.children[2 * node + hot[row_start + f]]
        f = forest.feature[node]
    fracs = forest.fraction[node]
    scores = np.cumsum(fracs, axis=1)[:, -1] / forest.roots.size
    return scores, node, fracs


@dataclass
class Model:
    """Trained forests, one per action.  Each forest is packed for scoring
    when the model is built, so the trees must not change afterwards."""

    seed: int
    spec: EncodingSpec
    cfg: CalculiConfig
    hyperparams: Hyperparams
    forests: dict[str, list[Tree]]
    packed: dict[str, _PackedForest] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.packed = {action: _PackedForest.pack(trees) for action, trees in self.forests.items()}

    @property
    def actions(self) -> list[str]:
        return sorted(self.forests)


def train(
    dataset: Dataset,
    seed: int = 42,
    hyperparams: Hyperparams = Hyperparams(),
    actions: Sequence[str] | None = None,
) -> Model:
    """Fit one forest per action.

    Per tree (with ``balance``): draw as many negatives as there are
    positives (with replacement only when negatives are scarce), pool with
    all positives, then bootstrap the pool.  Seeds come from per-action and
    per-tree spawns of the master seed, in sorted action order, so results
    do not depend on dict ordering or on training actions one at a time.
    """
    n = len(dataset)
    if n == 0:
        raise InsufficientData("dataset has no rows")
    if actions is None:
        actions = sorted(set(dataset.labels))
    else:
        actions = list(actions)
        missing = [a for a in actions if a not in set(dataset.labels)]
        if missing:
            raise EmptyAction(f"no positive examples for {missing}")

    y_all = np.asarray(dataset.labels)
    X = dataset.X
    forests: dict[str, list[Tree]] = {}
    action_seeds = np.random.SeedSequence(seed).spawn(len(actions))
    for action, action_seed in zip(sorted(actions), action_seeds):
        y = y_all == action
        pos_rows = np.flatnonzero(y)
        neg_rows = np.flatnonzero(~y)
        if pos_rows.size == 0:
            raise EmptyAction(f"no positive examples for {action!r}")
        if neg_rows.size == 0:
            # A corpus holding a single action label has nothing to contrast
            # against; the forest degenerates to constant-1.0 leaves.
            warnings.warn(
                f"action {action!r} has no negative examples; "
                "its forest will score every chain 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
        trees = []
        for tree_seed in action_seed.spawn(hyperparams.n_trees):
            rng = np.random.default_rng(tree_seed)
            if hyperparams.balance and neg_rows.size:
                drawn = rng.choice(
                    neg_rows, size=pos_rows.size, replace=neg_rows.size < pos_rows.size
                )
                pool = np.concatenate([pos_rows, drawn])
            elif hyperparams.balance:
                pool = pos_rows
            else:
                pool = np.arange(n)
            rows = rng.choice(pool, size=pool.size, replace=True)
            trees.append(_fit_tree(X, y, rows, hyperparams, rng))
        forests[action] = trees
    return Model(seed, dataset.spec, dataset.cfg, hyperparams, forests)


def _check_vector(model: Model, vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != model.spec.feature_len:
        raise LengthMismatch(
            f"model expects vectors of length {model.spec.feature_len}, "
            f"got shape {vector.shape}"
        )
    return vector


def score(model: Model, action: str, vector: np.ndarray) -> float:
    """Mean positive leaf fraction across the action's trees."""
    if action not in model.forests:
        raise UnknownAction(action)
    vector = _check_vector(model, vector)
    return _forest_scores(model.packed[action], vector[None, :])[0][0]


def predict_scores(model: Model, X: np.ndarray) -> dict[str, np.ndarray]:
    """Score a whole matrix against every action's forest at once."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.feature_len:
        raise LengthMismatch(
            f"model expects (n, {model.spec.feature_len}) matrices, got shape {X.shape}"
        )
    return {action: _forest_scores(model.packed[action], X)[0] for action in model.actions}


# -- explanations -------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    feature: int
    description: str
    value: int


@dataclass(frozen=True)
class Candidate:
    other: str
    obj_class: str
    score: float
    best_tree: int
    leaf_fraction: float
    leaf_count: int
    path: tuple[PathStep, ...]
    chain: tuple[tuple[int, RelationTuple], ...]


@dataclass(frozen=True)
class Explanation:
    scene_id: str
    actor: str
    frame: int
    action: str
    candidates: tuple[Candidate, ...]


def _check_threshold(threshold: float | None) -> None:
    # every comparison with NaN is false, so it would silently select nothing
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, got {threshold}")


def _decision_path(model: Model, tree: Tree, vector: np.ndarray) -> tuple[PathStep, ...]:
    """Spell out the tests along the tree's root-to-leaf walk for this vector."""
    steps = []
    node = 0
    while tree.feature[node] >= 0:
        f = int(tree.feature[node])
        value = 1 if vector[f] > 0.5 else 0
        steps.append(PathStep(f, model.spec.describe_feature(f), value))
        node = tree.right[node] if value else tree.left[node]
    return tuple(steps)


def explain(
    model: Model,
    graph: QXG,
    actor: str,
    at_frame: int,
    action: str,
    *,
    k: int | None = None,
    threshold: float | None = None,
) -> Explanation:
    """Rank candidate objects for "why did ``actor`` do ``action`` here".

    Candidates are every object sharing window history with the actor,
    ordered by descending forest score with object id as the tie break,
    optionally cut off below ``threshold`` and capped at ``k``.  Each keeps
    the decision path of the tree whose leaf is most confident for it
    (lowest index on ties).
    """
    if action not in model.forests:
        raise UnknownAction(action)
    _check_threshold(threshold)
    trees = model.forests[action]
    samples = extract_features(graph, actor, at_frame, model.spec)
    # the reshape keeps the width when no object shares the window
    X = np.array([s.vector for s in samples]).reshape(len(samples), model.spec.feature_len)
    forest = model.packed[action]
    scores, leaves, fracs = _forest_scores(forest, X)
    order = sorted(range(len(samples)), key=lambda i: (-scores[i], samples[i].other))
    if threshold is not None:
        order = [i for i in order if scores[i] >= threshold]
    if k is not None:
        order = order[:k]
    candidates = []
    for i in order:
        sample = samples[i]
        best_tree = int(np.argmax(fracs[i]))  # the first tree on ties
        candidates.append(
            Candidate(
                sample.other,
                graph.node_classes.get(sample.other, "unknown"),
                scores[i],
                best_tree,
                float(fracs[i, best_tree]),
                int(forest.count[leaves[i, best_tree]]),
                _decision_path(model, trees[best_tree], sample.vector),
                tuple((f, graph.decode(code)) for f, code in sample.chain),
            )
        )
    return Explanation(graph.scene_id, actor, at_frame, action, tuple(candidates))


def explanation_to_dict(explanation: Explanation) -> dict:
    return {
        "scene_id": explanation.scene_id,
        "actor": explanation.actor,
        "frame": explanation.frame,
        "action": explanation.action,
        "candidates": [
            {
                "object": c.other,
                "class": c.obj_class,
                "score": c.score,
                "best_tree": c.best_tree,
                "leaf_fraction": c.leaf_fraction,
                "leaf_count": c.leaf_count,
                "chain": [{"frame": f, **relation_to_dict(rel)} for f, rel in c.chain],
                "path": [
                    {"feature": s.feature, "description": s.description, "value": s.value}
                    for s in c.path
                ],
            }
            for c in explanation.candidates
        ],
    }


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class ActionMetrics:
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    support: int


@dataclass(frozen=True)
class EvalReport:
    per_action: dict[str, ActionMetrics]
    macro_precision: float
    macro_recall: float
    n_rows: int
    cause_recovery: tuple[int, int] | None = None  # (hits, annotations with a cause)


def evaluate(
    model: Model,
    dataset: Dataset,
    threshold: float = 0.5,
    causes: Mapping[tuple[str, str, int], str] | None = None,
) -> EvalReport:
    """Pair-vector precision and recall per action, one-vs-all at the given
    score threshold (a row counts as predicted-positive at score >=
    threshold).  Zero denominators score 0.0.

    ``causes`` maps ``(scene id, actor, frame)`` of an annotation to its
    recorded cause; given it, the report also counts top-1 cause recovery."""
    _check_threshold(threshold)
    if len(dataset) == 0:
        raise EmptyTestSet("cannot evaluate on an empty dataset")
    if dataset.spec != model.spec:
        raise LengthMismatch(
            f"dataset encoded with {dataset.spec}, model trained with {model.spec}"
        )
    scores = predict_scores(model, dataset.X)
    y = np.asarray(dataset.labels)
    per_action = {}
    for action in model.actions:
        predicted = scores[action] >= threshold
        actual = y == action
        tp = int(np.sum(predicted & actual))
        fp = int(np.sum(predicted & ~actual))
        fn = int(np.sum(~predicted & actual))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_action[action] = ActionMetrics(precision, recall, tp, fp, fn, int(actual.sum()))
    macro_p = sum(m.precision for m in per_action.values()) / len(per_action)
    macro_r = sum(m.recall for m in per_action.values()) / len(per_action)
    recovery = None if causes is None else _cause_recovery(dataset, scores, causes)
    return EvalReport(per_action, macro_p, macro_r, len(dataset), recovery)


def _cause_recovery(dataset: Dataset, scores: dict, causes: Mapping) -> tuple[int, int]:
    """Of the annotations whose cause is an object, how many have it as the
    top row under their own action's forest, ranked as :func:`explain`
    ranks: highest score, then lowest object id."""
    best = {}
    for i, (key, label) in enumerate(zip(dataset.keys, dataset.labels)):
        if label in scores:
            annotation = (key.scene_id, key.actor, key.frame)
            rank = (-scores[label][i], key.other)
            if annotation not in best or rank < best[annotation]:
                best[annotation] = rank
    caused = [(annotation, cause) for annotation, cause in causes.items() if cause != NO_CAUSE]
    hits = sum(annotation in best and best[annotation][1] == cause for annotation, cause in caused)
    return hits, len(caused)


# -- persistence --------------------------------------------------------------


def _tree_to_nodes(tree: Tree) -> list[dict]:
    nodes = []
    for i in range(len(tree.feature)):
        if tree.feature[i] < 0:
            nodes.append({"fraction": float(tree.fraction[i]), "count": int(tree.count[i])})
        else:
            nodes.append(
                {"feature": int(tree.feature[i]), "left": int(tree.left[i]), "right": int(tree.right[i])}
            )
    return nodes


def _tree_from_nodes(nodes: list[dict], feature_len: int) -> Tree:
    """Rebuild one tree, checking what scoring relies on: integer links,
    features and counts, and real fractions; nodes in preorder (children
    after their parent, so every walk ends); features inside the encoding;
    leaf fractions in [0, 1] with non-negative counts."""
    n = len(nodes)
    if n == 0:
        raise CorruptModel("a tree has no nodes")
    feature = np.full(n, -1, dtype=np.int32)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    fraction = np.zeros(n, dtype=np.float64)
    count = np.zeros(n, dtype=np.int32)
    for i, node in enumerate(nodes):
        split = "feature" in node
        for key in ("feature", "left", "right") if split else ("count",):
            if type(node[key]) is not int:  # bool and float are refused too
                raise CorruptModel(f"node {i}: {key} {node[key]!r} is not an integer")
        if split:
            if not (i < node["left"] < n and i < node["right"] < n):
                raise CorruptModel(f"node {i} links outside nodes {i + 1}..{n - 1}")
            if not 0 <= node["feature"] < feature_len:
                raise CorruptModel(f"node {i} tests feature {node['feature']} of {feature_len}")
            feature[i] = node["feature"]
            left[i] = node["left"]
            right[i] = node["right"]
        else:
            if type(node["fraction"]) not in (int, float):
                raise CorruptModel(f"leaf {i}: fraction {node['fraction']!r} is not a number")
            if not (0.0 <= node["fraction"] <= 1.0 and node["count"] >= 0):
                raise CorruptModel(f"leaf {i}: fraction {node['fraction']}, count {node['count']}")
            fraction[i] = node["fraction"]
            count[i] = node["count"]
    return Tree(feature, left, right, fraction, count)


def model_to_json(model: Model) -> bytes:
    payload = {
        "version": MODEL_VERSION,
        "seed": model.seed,
        "t": model.spec.t,
        "calculi": asdict(model.cfg),
        "encoding": {
            "slot_width": model.spec.slot_width,
            "feature_len": model.spec.feature_len,
        },
        "hyperparams": asdict(model.hyperparams),
        "actions": {
            action: {"trees": [{"nodes": _tree_to_nodes(t)} for t in model.forests[action]]}
            for action in model.actions
        },
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def model_from_json(data: bytes | str) -> Model:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"model file is not JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file is not UTF-8: {exc.reason}") from None
    if not isinstance(payload, dict):
        raise CorruptModel("model file must hold a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise VersionMismatch(f"model version {version!r}, this build reads {MODEL_VERSION}")
    try:
        cfg = replace_from_json(DEFAULT_CONFIG, payload["calculi"], "calculi", require_all=True)
        spec = EncodingSpec(payload["t"], cfg.qdc_band_names)
        hp = replace_from_json(Hyperparams(), payload["hyperparams"], "hyperparams", require_all=True)
        if payload["encoding"]["feature_len"] != spec.feature_len:
            raise CorruptModel(
                f"stored feature_len {payload['encoding']['feature_len']} does not match "
                f"the stored encoding parameters ({spec.feature_len})"
            )
        if not isinstance(payload["actions"], dict):
            raise CorruptModel("\"actions\" must be a JSON object")
        forests = {
            action: [_tree_from_nodes(t["nodes"], spec.feature_len) for t in forest["trees"]]
            for action, forest in payload["actions"].items()
        }
        if not forests:
            raise CorruptModel("the model has no actions")
        empty = sorted(action for action, trees in forests.items() if not trees)
        if empty:
            raise CorruptModel(f"no trees for {empty}")
        if type(payload["seed"]) is not int:
            raise CorruptModel(f"seed {payload['seed']!r} is not an integer")
        model = Model(payload["seed"], spec, cfg, hp, forests)
    except CorruptModel:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"model file is missing or mistypes fields: {exc!r}") from None
    return model


def save_model(model: Model, path) -> None:
    Path(path).write_bytes(model_to_json(model))


def load_model(path) -> Model:
    return model_from_json(Path(path).read_bytes())
