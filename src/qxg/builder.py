"""Incremental construction of the qualitative scene graph.

The graph has one node per object ever observed and one edge per object pair
that shared at least one frame.  An edge carries the pair's relation history:
for every co-occurrence frame, one four-component relation tuple.  The graph
keeps its histories in one store, ``QXG.pairs``: a row per node, keyed by the
smaller id of a pair and then by the larger one.

``Builder.push_frame`` is the hot path and deliberately avoids the dataclass
machinery in :mod:`qxg.calculi`: it reads each box as four floats from
``Frame.rows`` (the parsed columns of a frame from ``load_trace``, so no
``ObjectState`` is built for it), and relations are computed with inline
float comparisons and stored as packed integer codes.  The arithmetic (``hypot``
distances, exact endpoint ties, half-open bands) is kept identical to the
pure functions so the two code paths agree bit for bit; the test suite
cross-checks them on random frames.

Per pair the loop does each piece of work once.  The gap between the two
previous centres is computed once and serves both motion signs, and the
distance band reuses the sector's ``dx, dy``: ``hypot`` ignores the signs of
its arguments and ``a - b`` is exactly ``-(b - a)`` in IEEE arithmetic, so
``hypot(b - a, ...)`` is the oracle's ``hypot(a - b, ...)`` to the last bit.
The loop takes each object's row of ``graph.pairs`` once and finds a pair's
history in it without building a tuple key.

A scene holds few distinct codes (about 1,300 in a 160-object crowd over 200
frames, against 2.5 M stored relations), so each graph interns its codes:
equal codes are one shared ``int`` object, and a stored relation costs one
list slot, its code, with no boxed ``int`` of its own.  A pair's frames are
kept as maximal runs of consecutive indices, so a pair seen in every frame
holds one run.  Each object's last-centre entry also records the frame it was
last seen in: when both objects of a pair were in the previous frame, the
pair was too, and the loop only appends the code to the open run.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot
from operator import itemgetter
from time import perf_counter_ns
from types import MappingProxyType
from typing import NamedTuple, Union

from .calculi import (
    ALLEN_BY_LABEL,
    DEFAULT_CONFIG,
    MOTION_BY_LABEL,
    SECTOR_BY_LABEL,
    Allen,
    CalculiConfig,
    Motion,
    QDCRelation,
    QTCBRelation,
    RARelation,
    RelationTuple,
    Sector,
    converse_allen,
    converse_star4,
    converse_tuple,  # not called here; benchmark/tracing.py hooks this name
    shown,
)
from .scene import _INT64, Frame, Scene

__all__ = [
    "OutOfOrderFrame",
    "BuilderStats",
    "EdgeHistory",
    "QXG",
    "Builder",
    "build",
    "pack_code",
    "unpack_code",
    "converse_code",
    "relation_to_dict",
    "relation_code",
    "export_graph",
    "import_graph",
]


# -- relation codes -----------------------------------------------------------
#
# A stored relation is one integer: the six component indices in mixed radix,
# x interval relation first.  ``Builder.push_frame`` inlines ``pack_code``.


def pack_code(ax, ay, am, bm, band, sector, n_bands: int):
    """Pack component indices into one relation code."""
    return ax + 13 * (ay + 13 * (am + 4 * (bm + 4 * (band + n_bands * sector))))


def unpack_code(code, n_bands: int) -> tuple:
    """Inverse of :func:`pack_code`: ``(ax, ay, am, bm, band, sector)``."""
    code, ax = divmod(code, 13)
    code, ay = divmod(code, 13)
    code, am = divmod(code, 4)
    code, bm = divmod(code, 4)
    sector, band = divmod(code, n_bands)
    return ax, ay, am, bm, band, sector


# calculi's converse maps as index tables
_ALLEN_CONVERSE = tuple(int(converse_allen(r)) for r in Allen)
_SECTOR_CONVERSE = tuple(int(converse_star4(s)) for s in Sector)

# How many codes there are with the default bands.  The memos below map codes
# (and band names) to values, so they keep no graph alive, and this bounds
# each of them.
_CODE_SPACE = 13 * 13 * 4 * 4 * len(DEFAULT_CONFIG.qdc_band_names) * 4


@lru_cache(maxsize=_CODE_SPACE)
def converse_code(code: int, n_bands: int) -> int:
    """The code of ``converse_tuple(decode(code))``, component by
    component: both interval relations and the sector are mirrored, the
    motion signs swap places and the distance band stays."""
    ax, ay, am, bm, band, sector = unpack_code(code, n_bands)
    return pack_code(
        _ALLEN_CONVERSE[ax], _ALLEN_CONVERSE[ay], bm, am, band, _SECTOR_CONVERSE[sector], n_bands
    )


class OutOfOrderFrame(ValueError):
    """Frames must arrive with strictly increasing indices."""


class BuilderStats(NamedTuple):
    """What one ``push_frame`` call did and how long it took."""

    frame_index: int
    objects_in_frame: int
    pairs_updated: int
    elapsed_ns: int


@dataclass(slots=True)
class EdgeHistory:
    """Per-pair relation history in ascending frames.  ``codes`` holds one
    code per relation; the codes are shared ``int`` objects: the builder and
    the JSON loader store one object per distinct code value in a graph.
    ``runs`` holds the frames as maximal runs of consecutive indices,
    flattened: each run's first frame, then the position in ``codes`` of its
    first code.  Runs are always maximal, so equal histories compare equal."""

    codes: list[int] = field(default_factory=list)
    runs: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def frames(self) -> list[int]:
        """Every relation's frame, rebuilt from the runs."""
        runs = self.runs
        last = runs[-2] + len(self.codes) - 1 - runs[-1] if runs else 0
        return list(self.tail(last, len(self))[0])

    def append(self, frame: int, code: int) -> None:
        """Add a relation after the last one; ``frame`` must be later than
        every frame held."""
        runs, codes = self.runs, self.codes
        if not runs or frame != runs[-2] + len(codes) - runs[-1]:
            runs += (frame, len(codes))
        codes.append(code)

    def tail(self, at_frame: int, t: int) -> tuple[list[int] | range, list[int]]:
        """The frames and codes of the last up-to-``t`` relations at or
        before ``at_frame``, ascending."""
        runs, codes = self.runs, self.codes
        if not runs:
            return [], []
        j = len(runs) - 2  # the last run holds at_frame unless it is earlier
        end = len(codes)
        if at_frame < runs[j]:
            k = bisect_right(range(0, j, 2), at_frame, key=runs.__getitem__)
            if not k:
                return [], []
            j = 2 * k - 2
            end = runs[j + 3]
        first, pos = runs[j], runs[j + 1]
        if at_frame - first < end - pos - 1:  # at_frame falls inside the run
            end = pos + at_frame - first + 1
        start = end - t if end > t else 0
        if start >= pos:  # all inside one run: the common case
            return range(first + start - pos, first + end - pos), codes[start:end]
        pieces = []
        hi = end
        while hi > start:
            first, pos = runs[j], runs[j + 1]
            lo = pos if pos > start else start
            pieces.append(range(first + lo - pos, first + hi - pos))
            hi = lo
            j -= 2
        return [f for piece in reversed(pieces) for f in piece], codes[start:end]


@dataclass
class QXG:
    """A finished (or in-progress) qualitative scene graph.

    ``pairs`` is the one store of relation histories: every node has a row,
    and ``pairs[a][b]`` is the history of the pair whose smaller id is ``a``
    and larger id ``b``.  Stored relation tuples always describe ``a``
    against ``b``; the accessors apply the converse when a query names the
    pair in the opposite order.
    """

    scene_id: str
    band_names: tuple[str, ...]
    node_classes: dict[str, str] = field(default_factory=dict)
    pairs: dict[str, dict[str, EdgeHistory]] = field(default_factory=dict)

    @property
    def edges(self) -> MappingProxyType[tuple[str, str], EdgeHistory]:
        """A read-only view of ``pairs`` keyed by ``(smaller id, larger
        id)``, built when read; its values are the stored histories."""
        return MappingProxyType(
            {(a, b): history for a, row in self.pairs.items() for b, history in row.items()}
        )

    def decode(self, code: int) -> RelationTuple:
        return _decode(code, self.band_names)

    def code_chain(self, a: str, b: str, at_frame: int, t: int) -> list[tuple[int, int]]:
        """The last up-to-``t`` relation codes of the pair at or before
        ``at_frame``, in ascending frame order, oriented as a-against-b."""
        if a == b:
            raise ValueError(f"a pair needs two distinct objects, got {a!r} twice")
        first, second = (a, b) if a < b else (b, a)
        row = self.pairs.get(first)
        history = row.get(second) if row is not None else None
        if history is None:
            return []
        frames, codes = history.tail(at_frame, t)
        if first != a:
            n_bands = len(self.band_names)
            codes = [converse_code(code, n_bands) for code in codes]
        return list(zip(frames, codes))

    def window_chains(
        self, actor: str, at_frame: int, t: int
    ) -> list[tuple[str, list[tuple[int, int]]]]:
        """Every partner with at least one relation in the ``t`` frames
        ending at ``at_frame``, sorted by id, each with those relations as
        ``(frame, code)`` pairs oriented as actor-against-partner."""
        start = at_frame - t + 1
        # the larger-id partners are the actor's row; a smaller-id partner
        # holds the actor in its own row
        partners = [first for first, row in self.pairs.items() if actor in row]
        partners += self.pairs.get(actor, ())
        partners.sort()
        found = []
        for other in partners:
            chain = self.code_chain(actor, other, at_frame, t)
            del chain[: bisect_left(chain, (start,))]  # frames ascend: keep those >= start
            if chain:
                found.append((other, chain))
        return found

    def edge_chain(
        self, a: str, b: str, at_frame: int, t: int
    ) -> list[tuple[int, RelationTuple]]:
        """:meth:`code_chain` with every code decoded."""
        return [(frame, self.decode(code)) for frame, code in self.code_chain(a, b, at_frame, t)]


@lru_cache(maxsize=_CODE_SPACE)
def _decode(code: int, band_names: tuple[str, ...]) -> RelationTuple:
    """One code's relation tuple; equal codes share one (frozen) tuple."""
    ax, ay, am, bm, band, sector = unpack_code(code, len(band_names))
    return RelationTuple(
        RARelation(Allen(ax), Allen(ay)),
        QTCBRelation(Motion(am), Motion(bm)),
        QDCRelation(band, band_names[band]),
        Sector(sector),
    )


_by_id = itemgetter(0)  # a pair-loop state's object id


class Builder:
    """Feeds frames one at a time into a growing :class:`QXG`.

    Keeps the last observed centroid of every object so trajectory relations
    survive detection gaps: an object absent for a few frames is judged
    against wherever it was last seen, not reset to Unknown.
    """

    def __init__(self, scene_id: str, cfg: CalculiConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.graph = QXG(scene_id, cfg.qdc_band_names)
        # object id -> (centre x, centre y, frame index) where last seen
        self._last_center: dict[str, tuple[float, float, int]] = {}
        self._last_index: int | None = None
        self._codes: dict[int, int] = {}

    def push_frame(self, frame: Frame) -> BuilderStats:
        t0 = perf_counter_ns()
        if self._last_index is not None and frame.index <= self._last_index:
            raise OutOfOrderFrame(
                f"frame {frame.index} pushed after frame {self._last_index}"
            )

        edges = self.cfg.qdc_band_edges
        n_bands = len(self.cfg.qdc_band_names)
        eps = self.cfg.qtc_epsilon
        last_center = self._last_center
        node_classes = self.graph.node_classes
        pairs = self.graph.pairs
        intern = self._codes.setdefault

        # One pass over the frame's box rows; the pair loop below touches
        # plain floats only.  Each object's last centre is read here too: it
        # is only written after the pair loop.  ``held`` says the object was
        # in the previous frame, so a pair of two such objects continues its
        # pair's last run.
        frame_index = frame.index
        before = frame_index - 1
        states = []
        for object_id, obj_class, (xl, xh, yl, yh) in frame.rows():
            node_classes.setdefault(object_id, obj_class)
            prev = last_center.get(object_id)
            held = prev is not None and prev[2] == before
            states.append((object_id, xl, xh, yl, yh, (xl + xh) / 2.0, (yl + yh) / 2.0, prev, held))
        states.sort(key=_by_id)  # ids are distinct strings: Frame checks them

        for i, (a_id, axl, axh, ayl, ayh, acx, acy, a_prev, a_held) in enumerate(states):
            if a_prev is not None:
                apx, apy, _ = a_prev
            row = pairs.get(a_id)
            if row is None:
                row = pairs[a_id] = {}
            for b_id, bxl, bxh, byl, byh, bcx, bcy, b_prev, b_held in states[i + 1 :]:

                # Interval relation per axis (exact endpoint ties).
                if axh < bxl:
                    ax = 0
                elif bxh < axl:
                    ax = 7
                elif axl == bxl:
                    ax = 6 if axh == bxh else (3 if axh < bxh else 10)
                elif axl < bxl:
                    if axh == bxh:
                        ax = 12
                    elif axh > bxh:
                        ax = 11
                    else:
                        ax = 1 if axh == bxl else 2
                elif axh == bxh:
                    ax = 5
                elif axh < bxh:
                    ax = 4
                else:
                    ax = 8 if axl == bxh else 9

                if ayh < byl:
                    ay = 0
                elif byh < ayl:
                    ay = 7
                elif ayl == byl:
                    ay = 6 if ayh == byh else (3 if ayh < byh else 10)
                elif ayl < byl:
                    if ayh == byh:
                        ay = 12
                    elif ayh > byh:
                        ay = 11
                    else:
                        ay = 1 if ayh == byl else 2
                elif ayh == byh:
                    ay = 5
                elif ayh < byh:
                    ay = 4
                else:
                    ay = 8 if ayl == byh else 9

                if a_prev is None or b_prev is None:
                    am = bm = 3
                else:
                    # One previous-centre gap serves both sides (see the
                    # module docstring for why it is the oracle's bits).
                    bpx, bpy, _ = b_prev
                    gap = hypot(apx - bpx, apy - bpy)
                    a_delta = hypot(acx - bpx, acy - bpy) - gap
                    am = 0 if a_delta < -eps else (2 if a_delta > eps else 1)
                    b_delta = hypot(bcx - apx, bcy - apy) - gap
                    bm = 0 if b_delta < -eps else (2 if b_delta > eps else 1)

                dx = bcx - acx
                dy = bcy - acy
                band = bisect_right(edges, hypot(dx, dy))
                if dy > 0.0:
                    sector = 0 if dx >= 0.0 else 1
                elif dy < 0.0:
                    sector = 2 if dx <= 0.0 else 3
                elif dx > 0.0:
                    sector = 3
                elif dx < 0.0:
                    sector = 1
                else:
                    sector = 0

                # pack_code, inlined
                code = ax + 13 * (ay + 13 * (am + 4 * (bm + 4 * (band + n_bands * sector))))
                code = intern(code, code)
                if a_held and b_held:
                    row[b_id].codes.append(code)
                else:
                    history = row.get(b_id)
                    if history is None:
                        history = row[b_id] = EdgeHistory()
                    history.append(frame_index, code)

        for st in states:
            last_center[st[0]] = (st[5], st[6], frame_index)
        self._last_index = frame_index

        n = len(states)  # ids are distinct, so every pair was updated
        return BuilderStats(frame_index, n, n * (n - 1) // 2, perf_counter_ns() - t0)


def build(scene: Scene, cfg: CalculiConfig = DEFAULT_CONFIG) -> QXG:
    """Run a whole scene through a fresh builder."""
    builder = Builder(scene.scene_id, cfg)
    for frame in scene.frames:
        builder.push_frame(frame)
    return builder.graph


# -- serialization ------------------------------------------------------------


# Component labels by index.  The relation JSON below and the explainer's
# feature names both read them.
ALLEN_LABELS = tuple(r.label for r in Allen)
MOTION_LABELS = tuple(m.label for m in Motion)
SECTOR_LABELS = tuple(s.label for s in Sector)


def relation_to_dict(rel: RelationTuple) -> dict:
    """The one JSON spelling of a relation, shared by graph and explanation
    files: component labels under ``ra``, ``qtcb``, ``qdc`` and ``star4``."""
    return {
        "ra": [ALLEN_LABELS[rel.ra.x], ALLEN_LABELS[rel.ra.y]],
        "qtcb": [MOTION_LABELS[rel.qtcb.a], MOTION_LABELS[rel.qtcb.b]],
        "qdc": rel.qdc.band_name,
        "star4": SECTOR_LABELS[rel.star4],
    }


def relation_code(payload: dict, band_index: dict[str, int]) -> int:
    """Inverse of :func:`relation_to_dict`, straight to the packed code;
    ``band_index`` maps each distance band name to its index.  ``ra`` and
    ``qtcb`` each hold exactly two labels."""
    ra, qtcb = payload["ra"], payload["qtcb"]
    code = pack_code(
        ALLEN_BY_LABEL[ra[0]],
        ALLEN_BY_LABEL[ra[1]],
        MOTION_BY_LABEL[qtcb[0]],
        MOTION_BY_LABEL[qtcb[1]],
        band_index[payload["qdc"]],
        SECTOR_BY_LABEL[payload["star4"]],
        len(band_index),
    )
    # checked after the lookups, which refuse a shorter list or a non-list
    if len(ra) != 2 or len(qtcb) != 2:
        raise _not_a_graph(
            f"ra and qtcb must each hold two labels, got {shown(ra)} and {shown(qtcb)}"
        )
    return code


def _sorted_pairs(graph: QXG):
    """``(a, b, history)`` for every pair, sorted by ``a`` and then ``b``."""
    for a in sorted(graph.pairs):
        row = graph.pairs[a]
        for b in sorted(row):
            yield a, b, row[b]


def graph_to_dict(graph: QXG) -> dict:
    edges_out = []
    for a, b, history in _sorted_pairs(graph):
        relations = [
            {"frame": frame, **relation_to_dict(graph.decode(code))}
            for frame, code in zip(history.frames, history.codes)
        ]
        edges_out.append({"a": a, "b": b, "relations": relations})
    return {
        "scene_id": graph.scene_id,
        "qdc_bands": list(graph.band_names),
        "nodes": [
            {"id": oid, "class": graph.node_classes[oid]} for oid in sorted(graph.node_classes)
        ],
        "edges": edges_out,
    }


def _not_a_graph(problem: str) -> ValueError:
    return ValueError(f"not a serialized scene graph: {problem}")


def graph_from_dict(payload: dict) -> QXG:
    """Rebuild a graph, checking what the accessors rely on: ids, classes
    and band names are strings, the bands a non-empty list without repeats,
    every node is listed once, every edge joins two known nodes stored as
    (smaller id, larger id), appears once, and lists at least one frame, as
    strictly increasing signed 64-bit integers."""
    try:
        scene_id, band_names = payload["scene_id"], payload["qdc_bands"]
        if type(scene_id) is not str:
            raise _not_a_graph(f"scene_id {shown(scene_id)} is not a string")
        if not (type(band_names) is list and band_names and all(type(n) is str for n in band_names)):
            raise _not_a_graph(
                f"qdc_bands must be a non-empty list of strings, got {shown(band_names)}"
            )
        band_names = tuple(band_names)
        band_index = {name: i for i, name in enumerate(band_names)}
        if len(band_index) != len(band_names):
            raise _not_a_graph(f"band names {band_names} repeat")
        graph = QXG(scene_id, band_names)
        pairs = graph.pairs
        intern = {}.setdefault  # equal codes share one int, as in Builder
        for node in payload["nodes"]:
            oid, obj_class = node["id"], node["class"]
            if type(oid) is not str:
                raise _not_a_graph(f"node id {shown(oid)} is not a string")
            if type(obj_class) is not str:
                raise _not_a_graph(f"node {oid!r} class {shown(obj_class)} is not a string")
            if oid in pairs:
                raise _not_a_graph(f"node {oid!r} is listed twice")
            graph.node_classes[oid] = obj_class
            pairs[oid] = {}
        for edge in payload["edges"]:
            a, b = key = (edge["a"], edge["b"])
            if not a < b:
                problem = "is not stored as (smaller id, larger id)"
            elif a not in pairs or b not in pairs:
                problem = "joins an object that is not a node"
            elif b in pairs[a]:
                problem = "appears twice"
            else:
                problem = None
            if problem:
                raise _not_a_graph(f"edge {shown(key)} {problem}")
            history = EdgeHistory()
            last = None
            for rel in edge["relations"]:
                frame = rel["frame"]
                if type(frame) is not int or (last is not None and frame <= last):
                    raise _not_a_graph(
                        f"edge {key} frames must be strictly increasing integers, "
                        f"got {shown(frame)} after {history.frames[-1:]}"
                    )
                if frame not in _INT64:
                    raise _not_a_graph(f"edge {key} frame {shown(frame)} is outside signed 64 bits")
                last = frame
                code = relation_code(rel, band_index)
                history.append(frame, intern(code, code))
            if last is None:  # the builder never stores a pair it has not seen
                raise _not_a_graph(f"edge {key} has no relations")
            pairs[a][b] = history
    except (KeyError, IndexError, TypeError) as exc:
        raise _not_a_graph(repr(exc)) from None
    return graph


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text: str) -> str:
    return '"' + _dot_escape(text) + '"'


def export_graph(graph: QXG, fmt: str = "json") -> bytes:
    """Serialize a graph.  ``json`` round-trips through :func:`import_graph`;
    ``dot`` is a one-way rendering where each edge is labelled with its most
    recent relation tuple."""
    if fmt == "json":
        return (json.dumps(graph_to_dict(graph), separators=(",", ":")) + "\n").encode("utf-8")
    if fmt == "dot":
        lines = [f"graph {_dot_quote(graph.scene_id)} {{"]
        for oid in sorted(graph.node_classes):
            # \n is Graphviz's own line-break escape, so it must survive
            # quoting literally rather than get its backslash doubled.
            label = f"{_dot_escape(oid)}\\n({_dot_escape(graph.node_classes[oid])})"
            lines.append(f'  {_dot_quote(oid)} [label="{label}"];')
        for a, b, history in _sorted_pairs(graph):
            rel = relation_to_dict(graph.decode(history.codes[-1]))
            label = "|".join((",".join(rel["ra"]), ",".join(rel["qtcb"]), rel["qdc"], rel["star4"]))
            lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [label={_dot_quote(label)}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (expected 'json' or 'dot')")


def import_graph(data: Union[str, bytes]) -> QXG:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a serialized scene graph: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # nested too deep, too many int digits
        raise ValueError(f"not a serialized scene graph: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("not a serialized scene graph: expected a JSON object")
    return graph_from_dict(payload)
