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
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Sequence

from .builder import (
    ALLEN_LABELS,
    MOTION_LABELS,
    QXG,
    SECTOR_LABELS,
    build,
    relation_to_dict,
    unpack_code,
)
from .calculi import DEFAULT_CONFIG, CalculiConfig, RelationTuple, shown
from .defs import MAX_CHAIN_LENGTH, Hyperparams, UnknownAction, replace_from_json
from .scene import _FLOAT_MAX, NO_CAUSE, ActionAnnotation, Scene

if TYPE_CHECKING:
    import numpy as np

# Feature rows are tuples of hot bits from extraction to scoring; ``train`` holds
# one int mask of rows per feature.  numpy loads only in ``train``, ``_fit_tree``,
# the dense ``score`` and ``PairSample.vector``, so ``qxg explain`` and ``eval`` skip it.

__all__ = [
    "EncodingSpec",
    "PairSample",
    "Dataset",
    "Hyperparams",
    "Tree",
    "Model",
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
        if not 1 <= self.t <= MAX_CHAIN_LENGTH:
            raise ValueError(f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {self.t}")
        if not self.band_names:
            raise ValueError("need at least one distance band")

    @cached_property
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

    @cached_property
    def slot_width(self) -> int:
        return sum(len(labels) for _, labels in self.blocks) + 1

    @cached_property
    def feature_len(self) -> int:
        return self.t * self.slot_width

    @cached_property
    def _code_bits(self) -> dict[int, tuple[int, ...]]:
        """The bits each code met so far sets within a slot.  Only codes of
        the spec's code space are kept, so it never grows past that."""
        return {}

    def hot_bits(self, chain: Sequence[tuple[int, int]], at_frame: int) -> tuple[int, ...]:
        """The set feature indices of one chain of ``(frame, code)`` pairs
        (as produced by ``QXG.window_chains``), ascending: per filled slot
        one bit in each block, per empty slot its missing flag."""
        last = self.t - 1  # the annotation frame's slot
        width, code_bits = self.slot_width, self._code_bits
        bits = set()
        filled = set()
        for frame, code in chain:
            slot = last - (at_frame - frame)
            if 0 <= slot <= last:
                filled.add(slot)
                within = code_bits.get(code)
                if within is None:
                    within = self._within_slot(code)
                    if 0 <= code < math.prod(len(labels) for _, labels in self.blocks):
                        code_bits[code] = within
                offset = slot * width
                bits.update([offset + bit for bit in within])
        bits.update((slot + 1) * width - 1 for slot in range(self.t) if slot not in filled)
        return tuple(sorted(bits))

    def _within_slot(self, code: int) -> tuple[int, ...]:
        offset, within = 0, []
        for (_, labels), component in zip(self.blocks, unpack_code(code, len(self.band_names))):
            within.append(offset + component)
            offset += len(labels)
        return tuple(within)

    @cached_property
    def _feature_names(self) -> dict[int, str]:
        """The names ``describe_feature`` gave so far, by feature index."""
        return {}

    def describe_feature(self, index: int) -> str:
        """Human name of one feature, e.g. ``frame-2 x=Before`` (two frames
        before the annotation, x intervals related by Before)."""
        name = self._feature_names.get(index)
        if name is None:
            name = self._feature_names[index] = self._name_feature(index)
        return name

    def _name_feature(self, index: int) -> str:
        if not 0 <= index < self.feature_len:
            raise IndexError(f"feature index {index} out of range 0..{self.feature_len - 1}")
        slot, within = divmod(index, self.slot_width)
        frame = f"frame{slot - (self.t - 1):+d}"
        for name, labels in self.blocks:
            if within < len(labels):
                return f"{frame} {name}={labels[within]}"
            within -= len(labels)
        return f"{frame} missing"


@dataclass(frozen=True)
class PairSample:
    """One encoded actor/other chain at one frame: the window's ``(frame,
    code)`` pairs and the feature bits they set under ``spec``."""

    actor: str
    other: str
    frame: int
    bits: tuple[int, ...]
    chain: list[tuple[int, int]]
    spec: EncodingSpec

    @property
    def vector(self) -> np.ndarray:
        """The dense boolean encoding, built on each access."""
        import numpy as np

        return np.isin(np.arange(self.spec.feature_len), self.bits)


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
    return [
        PairSample(actor, other, at_frame, spec.hot_bits(chain, at_frame), chain, spec)
        for other, chain in graph.window_chains(actor, at_frame, spec.t)
    ]


# -- datasets -----------------------------------------------------------------


@dataclass(frozen=True)
class RowKey:
    scene_id: str
    actor: str
    other: str
    frame: int


@dataclass
class Dataset:
    rows: list[tuple[int, ...]]  # each row's hot bits, ascending
    labels: list[str]
    keys: list[RowKey]
    spec: EncodingSpec
    cfg: CalculiConfig
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def extend(self, items: Iterable[tuple[Scene, ActionAnnotation]]) -> None:
        """Add the rows of more annotated scenes, as :func:`build_dataset`
        makes them, from one graph per run of items of one scene object, over
        the frames their chains read.  No scene is kept once this returns."""
        scene, annotations = None, []
        for item_scene, annotation in items:
            if item_scene is not scene and annotations:
                self._add_run(scene, annotations)
                annotations = []
            scene = item_scene
            annotations.append(annotation)
        if annotations:
            self._add_run(scene, annotations)

    def _add_run(self, scene: Scene, annotations: list[ActionAnnotation]) -> None:
        frames = [annotation.frame_index for annotation in annotations]
        last = max(frames)
        graph = build(scene, self.cfg, window=(last, last - min(frames) + self.spec.t))
        for annotation in annotations:
            samples = extract_features(graph, annotation.actor_id, annotation.frame_index, self.spec)
            if not samples:
                self.warnings.append(
                    f"scene {scene.scene_id!r}: no pair chains for actor "
                    f"{annotation.actor_id!r} at frame {annotation.frame_index}"
                )
                continue
            for sample in samples:
                self.rows.append(sample.bits)
                self.labels.append(annotation.action)
                self.keys.append(RowKey(scene.scene_id, sample.actor, sample.other, sample.frame))


def build_dataset(
    items: Iterable[tuple[Scene, ActionAnnotation]],
    t: int = 5,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> Dataset:
    """Turn annotated scenes into labelled rows of hot feature bits.

    Every pair chain extracted at an annotation frame becomes one row
    labelled with that annotation's action.  Annotations with no extractable
    pair are recorded as warnings rather than silently dropped."""
    dataset = Dataset([], [], [], EncodingSpec(t, cfg.qdc_band_names), cfg)
    dataset.extend(items)
    return dataset


# -- forests ------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """Flat tuple form: ``feature[i] < 0`` marks node i as a leaf carrying
    ``fraction``/``count``; otherwise ``left``/``right`` index the children
    for a test bit that is 0 / 1."""

    feature: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    fraction: tuple[float, ...]
    count: tuple[int, ...]


def _gini(pos: int, n: int) -> float:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _mask(flags: np.ndarray) -> int:
    """The int whose bit r is set where ``flags[r]`` is nonzero."""
    import numpy as np

    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _fit_tree(columns: Sequence[int], positives: int, rows: np.ndarray, hp: Hyperparams, rng) -> Tree:
    """Grow one tree in preorder on the bootstrap ``rows``.  ``columns[f]``
    has bit r set when row r has feature f, and ``positives`` when row r
    belongs to the action.

    A node is the mask of its distinct drawn rows, and the bootstrap's
    weights are split into bit planes: a candidate's drawn rows are
    ``sum(popcount(node & columns[f] & plane_k) << k)``, and its positives
    the same sum over the planes masked by ``positives``."""
    import numpy as np

    n_features = len(columns)
    subset_size = math.ceil(math.sqrt(n_features))
    weights = np.bincount(rows)
    planes = [_mask(weights >> k & 1) for k in range(int(weights.max()).bit_length())]
    pos_planes = [plane & positives for plane in planes]
    nodes: list[list] = []  # [feature, left, right, fraction, count] in preorder

    def count(masks: list[tuple[int, int]], column: int) -> int:
        total = 0
        for k, mask in masks:
            total += (mask & column).bit_count() << k
        return total

    def grow(node: int, n: int, pos: int, depth: int) -> None:
        i = len(nodes)
        nodes.append([-1, -1, -1, pos / n, n])
        if depth >= hp.max_depth or pos == 0 or pos == n or n < 2 * hp.min_samples_leaf:
            return

        # Candidate features in ascending order so that on tied gain the
        # smallest feature index wins.
        candidates = rng.choice(n_features, size=subset_size, replace=False)
        candidates.sort()
        drawn = [(k, mask) for k, plane in enumerate(planes) if (mask := node & plane)]
        drawn_pos = [(k, mask) for k, plane in enumerate(pos_planes) if (mask := node & plane)]
        parent = _gini(pos, n)
        best_gain = 0.0
        best = -1
        for f in candidates.tolist():
            n_hi = count(drawn, columns[f])
            n_lo = n - n_hi
            if n_hi < hp.min_samples_leaf or n_lo < hp.min_samples_leaf:
                continue
            pos_hi = count(drawn_pos, columns[f])
            pos_lo = pos - pos_hi
            gain = parent - (n_lo * _gini(pos_lo, n_lo) + n_hi * _gini(pos_hi, n_hi)) / n
            if gain > best_gain:
                best_gain, best, best_n, best_pos = gain, f, n_hi, pos_hi
        if best < 0:
            return

        nodes[i] = [best, i + 1, -1, 0.0, 0]
        grow(node & ~columns[best], n - best_n, pos - best_pos, depth + 1)
        nodes[i][2] = len(nodes)
        grow(node & columns[best], best_n, best_pos, depth + 1)

    grow(_mask(weights), rows.size, count(list(enumerate(pos_planes)), -1), 0)
    return Tree(*(tuple(values) for values in zip(*nodes)))


def _walk_forest(
    trees: Sequence[Tree], hot: AbstractSet[int]
) -> tuple[float, int, int, list[int]]:
    """Walk one row, given as its set of hot feature bits, down each tree.

    Returns the forest score; the first tree whose leaf has the highest
    fraction; that leaf; and the split nodes passed on the way to it, root
    first.  The leaf fractions are added one by one in tree order: ``sum()``
    may compensate rounding, and a pairwise mean differs in the last bits,
    either of which would change explanation JSON.  Only the chosen tree's
    path is recorded, by walking it once more: keeping every tree's path made
    the walk about 1.6 times as slow."""
    total, best, best_tree = 0.0, -1.0, 0
    for j, tree in enumerate(trees):
        feature, left, right = tree.feature, tree.left, tree.right
        node = 0
        while (f := feature[node]) >= 0:
            node = right[node] if f in hot else left[node]
        total += tree.fraction[node]
        if tree.fraction[node] > best:  # the first tree on ties
            best, best_tree = tree.fraction[node], j
    tree, node, path = trees[best_tree], 0, []
    while (f := tree.feature[node]) >= 0:
        path.append(node)
        node = tree.right[node] if f in hot else tree.left[node]
    return total / len(trees), best_tree, node, path


@dataclass
class Model:
    """Trained forests, one per action."""

    seed: int
    spec: EncodingSpec
    cfg: CalculiConfig
    hyperparams: Hyperparams
    forests: dict[str, list[Tree]]

    @property
    def actions(self) -> list[str]:
        return sorted(self.forests)


def train(
    dataset: Dataset,
    seed: int = 42,
    hyperparams: Hyperparams = Hyperparams(),
) -> Model:
    """Fit one forest per action label in the dataset.

    Per tree (with ``balance``): draw as many negatives as there are
    positives (with replacement only when negatives are scarce), pool with
    all positives, then bootstrap the pool.  Seeds come from per-action and
    per-tree spawns of the master seed, in sorted action order, so results
    do not depend on dict ordering.
    """
    import numpy as np

    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {shown(seed)}")
    n = len(dataset)
    if n == 0:
        raise InsufficientData("dataset has no rows")
    actions = sorted(set(dataset.labels))

    y_all = np.asarray(dataset.labels)
    columns = [bytearray((n + 7) // 8) for _ in range(dataset.spec.feature_len)]
    for r, bits in enumerate(dataset.rows):
        byte, bit = r >> 3, 1 << (r & 7)
        for f in bits:
            columns[f][byte] |= bit
    columns = [int.from_bytes(column, "little") for column in columns]
    forests: dict[str, list[Tree]] = {}
    action_seeds = np.random.SeedSequence(seed).spawn(len(actions))
    for action, action_seed in zip(actions, action_seeds):
        y = y_all == action
        positives = _mask(y)
        pos_rows = np.flatnonzero(y)
        neg_rows = np.flatnonzero(~y)
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
            trees.append(_fit_tree(columns, positives, rows, hyperparams, rng))
        forests[action] = trees
    return Model(seed, dataset.spec, dataset.cfg, hyperparams, forests)


def score(model: Model, action: str, vector: np.ndarray) -> float:
    """Mean positive leaf fraction across the action's trees."""
    import numpy as np

    if action not in model.forests:
        raise UnknownAction(action)
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != model.spec.feature_len:
        raise LengthMismatch(
            f"model expects vectors of length {model.spec.feature_len}, "
            f"got shape {vector.shape}"
        )
    hot = frozenset(np.flatnonzero(vector > 0.5).tolist())
    return _walk_forest(model.forests[action], hot)[0]


def predict_scores(model: Model, rows: Iterable[Sequence[int]]) -> dict[str, list[float]]:
    """Score every row, given as its hot feature bits, against every
    action's forest."""
    width = model.spec.feature_len
    hots = []
    for bits in rows:
        for bit in bits:
            if type(bit) is not int or not 0 <= bit < width:  # bool is refused too
                raise LengthMismatch(f"model expects feature bits in 0..{width - 1}, got {bit!r}")
        hots.append(frozenset(bits))
    return {
        action: [_walk_forest(model.forests[action], hot)[0] for hot in hots]
        for action in model.actions
    }


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
    # every comparison with NaN is false, so it would silently select
    # nothing; True would cut at 1.0, and an int past float range overflows
    if threshold is not None and (
        type(threshold) is bool
        or not isinstance(threshold, (int, float))
        or not abs(threshold) <= _FLOAT_MAX
    ):
        raise ValueError(f"threshold must be a finite number, got {shown(threshold)}")


def _check_k(k: int | None) -> None:
    # a negative slice drops from the end, and True slices as 1
    if k is not None and (type(k) is not int or k < 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


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
    _check_k(k)
    # True would answer for frame 1, and a non-string actor matches no node
    if type(at_frame) is not int:
        raise ValueError(f"frame must be an integer, got {shown(at_frame)}")
    if type(actor) is not str:
        raise ValueError(f"actor must be a string, got {shown(actor)}")
    trees = model.forests[action]
    samples = extract_features(graph, actor, at_frame, model.spec)
    walked = [_walk_forest(trees, frozenset(s.bits)) for s in samples]
    order = sorted(range(len(samples)), key=lambda i: (-walked[i][0], samples[i].other))
    if threshold is not None:
        order = [i for i in order if walked[i][0] >= threshold]
    if k is not None:
        order = order[:k]
    candidates = []
    for i in order:
        sample = samples[i]
        forest_score, best_tree, leaf, path = walked[i]
        tree = trees[best_tree]
        candidates.append(
            Candidate(
                sample.other,
                graph.node_classes.get(sample.other, "unknown"),
                forest_score,
                best_tree,
                tree.fraction[leaf],
                tree.count[leaf],
                tuple(
                    PathStep(f, model.spec.describe_feature(f), int(f in sample.bits))
                    for f in (tree.feature[node] for node in path)
                ),
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
    if dataset.cfg != model.cfg:  # the same bits, other relations
        raise ValueError(f"dataset built with calculi {dataset.cfg}, model trained with {model.cfg}")
    scores = predict_scores(model, dataset.rows)
    per_action = {}
    for action in model.actions:
        tp = fp = fn = 0
        for s, label in zip(scores[action], dataset.labels):
            if s >= threshold:
                tp += label == action
                fp += label != action
            else:
                fn += label == action
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_action[action] = ActionMetrics(precision, recall, tp, fp, fn, tp + fn)
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
    return [
        {"feature": f, "left": left, "right": right}
        if f >= 0
        else {"fraction": fraction, "count": count}
        for f, left, right, fraction, count in zip(
            tree.feature, tree.left, tree.right, tree.fraction, tree.count
        )
    ]


# Leaf counts stay within int32, the width the model format has always held.
_MAX_COUNT = 2**31 - 1


def _tree_from_nodes(nodes: list[dict], feature_len: int) -> Tree:
    """Rebuild one tree, checking what scoring relies on: integer links,
    features and counts, and real fractions; nodes in preorder (children
    after their parent, so every walk ends); features inside the encoding;
    leaf fractions in [0, 1] with counts in 0..2**31 - 1."""
    n = len(nodes)
    if n == 0:
        raise CorruptModel("a tree has no nodes")
    feature = [-1] * n
    left = [-1] * n
    right = [-1] * n
    fraction = [0.0] * n
    count = [0] * n
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
            if not (0.0 <= node["fraction"] <= 1.0 and 0 <= node["count"] <= _MAX_COUNT):
                raise CorruptModel(f"leaf {i}: fraction {node['fraction']}, count {node['count']}")
            fraction[i] = float(node["fraction"])
            count[i] = node["count"]
    return Tree(tuple(feature), tuple(left), tuple(right), tuple(fraction), tuple(count))


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def model_to_json(model: Model) -> bytes:
    """The model as one line of compact JSON with sorted keys.  Each tree
    is encoded on its own and the parts are joined, so the node dicts of
    only one tree exist at a time."""
    header = {
        "version": MODEL_VERSION,
        "seed": model.seed,
        "t": model.spec.t,
        "calculi": asdict(model.cfg),
        "encoding": {
            "slot_width": model.spec.slot_width,
            "feature_len": model.spec.feature_len,
        },
        "hyperparams": asdict(model.hyperparams),
    }
    actions = ",".join(
        _compact(action)
        + ':{"trees":['
        + ",".join(_compact({"nodes": _tree_to_nodes(tree)}) for tree in model.forests[action])
        + "]}"
        for action in model.actions  # sorted, as sort_keys orders them
    )
    # "actions" sorts before every header key, so it opens the object
    return ('{"actions":{' + actions + "}," + _compact(header)[1:] + "\n").encode("utf-8")


# the keys model_to_json writes; a model file may hold no others
_MODEL_KEYS = frozenset(("version", "seed", "t", "calculi", "encoding", "hyperparams", "actions"))
_ENCODING_KEYS = frozenset(("slot_width", "feature_len"))


def _refuse_unknown(payload: dict, known: frozenset, where: str) -> None:
    unknown = payload.keys() - known
    if unknown:
        raise CorruptModel(f"unknown keys {sorted(unknown)} in {where}")


def model_from_json(data: bytes | str) -> Model:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"model file is not JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file is not UTF-8: {exc.reason}") from None
    except (ValueError, RecursionError) as exc:  # nested too deep, too many int digits
        raise CorruptModel(f"model file is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CorruptModel("model file must hold a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise VersionMismatch(f"model version {version!r}, this build reads {MODEL_VERSION}")
    _refuse_unknown(payload, _MODEL_KEYS, "the model file")
    try:
        cfg = replace_from_json(DEFAULT_CONFIG, payload["calculi"], "calculi", require_all=True)
        spec = EncodingSpec(payload["t"], cfg.qdc_band_names)
        hp = replace_from_json(Hyperparams(), payload["hyperparams"], "hyperparams", require_all=True)
        for key in ("feature_len", "slot_width"):  # redundant with t and the bands
            if payload["encoding"][key] != getattr(spec, key):
                raise CorruptModel(
                    f"stored {key} {payload['encoding'][key]} does not match "
                    f"the stored encoding parameters ({getattr(spec, key)})"
                )
        _refuse_unknown(payload["encoding"], _ENCODING_KEYS, '"encoding"')  # a dict by now
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
        if type(payload["seed"]) is not int or payload["seed"] < 0:
            raise CorruptModel(f"seed {payload['seed']!r} is not a non-negative integer")
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
