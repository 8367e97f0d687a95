"""Incremental construction of the qualitative scene graph.

The graph has one node per object ever observed and one edge per object pair
that shared at least one frame.  An edge carries the pair's relation history:
for every co-occurrence frame, one four-component relation tuple.

``Builder.push_frame`` is the hot path and deliberately avoids the dataclass
machinery in :mod:`qxg.calculi`: relations are computed with inline float
comparisons and stored as packed integer codes.  The arithmetic (``hypot``
distances, exact endpoint ties, half-open bands) is kept identical to the
pure functions so the two code paths agree bit for bit; the test suite
cross-checks them on random frames.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from math import hypot
from typing import Union

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
)
from .scene import Frame, Scene

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
    """Pack component indices into one relation code.  Plain integers and
    numpy integer arrays both work."""
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


@dataclass(frozen=True)
class BuilderStats:
    """What one ``push_frame`` call did and how long it took."""

    frame_index: int
    objects_in_frame: int
    pairs_updated: int
    elapsed_ns: int


@dataclass
class EdgeHistory:
    """Per-pair relation history as parallel arrays (ascending frames)."""

    frames: list[int] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class QXG:
    """A finished (or in-progress) qualitative scene graph.

    Stored relation tuples always describe the lexicographically smaller
    object id against the larger one; the accessors apply the converse when
    a query names the pair in the opposite order.
    """

    scene_id: str
    band_names: tuple[str, ...]
    node_classes: dict[str, str] = field(default_factory=dict)
    edges: dict[tuple[str, str], EdgeHistory] = field(default_factory=dict)

    def decode(self, code: int) -> RelationTuple:
        ax, ay, am, bm, band, sector = unpack_code(code, len(self.band_names))
        return RelationTuple(
            RARelation(Allen(ax), Allen(ay)),
            QTCBRelation(Motion(am), Motion(bm)),
            QDCRelation(band, self.band_names[band]),
            Sector(sector),
        )

    def relations(self, a: str, b: str) -> list[tuple[int, RelationTuple]]:
        """Full relation history of the pair, oriented as a-against-b."""
        return self.edge_chain(a, b, math.inf, math.inf)

    def code_chain(self, a: str, b: str, at_frame: int, t: int) -> list[tuple[int, int]]:
        """The last up-to-``t`` relation codes of the pair at or before
        ``at_frame``, in ascending frame order, oriented as a-against-b."""
        if a == b:
            raise ValueError(f"a pair needs two distinct objects, got {a!r} twice")
        if t <= 0:
            return []
        key = (a, b) if a < b else (b, a)
        history = self.edges.get(key)
        if history is None:
            return []
        end = bisect_right(history.frames, at_frame)
        start = max(0, end - t)
        codes = history.codes[start:end]
        if key[0] != a:
            n_bands = len(self.band_names)
            codes = [converse_code(code, n_bands) for code in codes]
        return list(zip(history.frames[start:end], codes))

    def window_chains(
        self, actor: str, at_frame: int, t: int
    ) -> list[tuple[str, list[tuple[int, int]]]]:
        """Every partner with at least one relation in the ``t`` frames
        ending at ``at_frame``, sorted by id, each with those relations as
        ``(frame, code)`` pairs oriented as actor-against-partner."""
        start = at_frame - t + 1
        found = []
        for other in self.partners(actor):
            chain = self.code_chain(actor, other, at_frame, t)
            chain = [(f, code) for f, code in chain if f >= start]
            if chain:
                found.append((other, chain))
        return found

    def edge_chain(
        self, a: str, b: str, at_frame: int, t: int
    ) -> list[tuple[int, RelationTuple]]:
        """:meth:`code_chain` with every code decoded."""
        return [(frame, self.decode(code)) for frame, code in self.code_chain(a, b, at_frame, t)]

    def partners(self, object_id: str) -> list[str]:
        """Every object this one ever shared a frame with, sorted."""
        found = []
        for first, second in self.edges:
            if first == object_id:
                found.append(second)
            elif second == object_id:
                found.append(first)
        return sorted(found)


class Builder:
    """Feeds frames one at a time into a growing :class:`QXG`.

    Keeps the last observed centroid of every object so trajectory relations
    survive detection gaps: an object absent for a few frames is judged
    against wherever it was last seen, not reset to Unknown.
    """

    def __init__(
        self,
        scene_id: str,
        cfg: CalculiConfig = DEFAULT_CONFIG,
        *,
        max_pair_distance: float | None = None,
    ):
        self.cfg = cfg
        self.graph = QXG(scene_id, cfg.qdc_band_names)
        self.max_pair_distance = max_pair_distance
        self._last_center: dict[str, tuple[float, float]] = {}
        self._last_index: int | None = None

    def push_frame(self, frame: Frame) -> BuilderStats:
        t0 = time.perf_counter_ns()
        if self._last_index is not None and frame.index <= self._last_index:
            raise OutOfOrderFrame(
                f"frame {frame.index} pushed after frame {self._last_index}"
            )

        edges = self.cfg.qdc_band_edges
        n_bands = len(self.cfg.qdc_band_names)
        eps = self.cfg.qtc_epsilon
        prune = self.max_pair_distance
        last_center = self._last_center
        node_classes = self.graph.node_classes
        graph_edges = self.graph.edges

        # Unpack once; the pair loop below touches plain floats only.
        states = []
        for s in frame.objects:
            x, y = s.bbox.x, s.bbox.y
            cx, cy = (x.lo + x.hi) / 2.0, (y.lo + y.hi) / 2.0
            states.append((s.object_id, x.lo, x.hi, y.lo, y.hi, cx, cy))
        states.sort(key=lambda st: st[0])
        for a, b in zip(states, states[1:]):
            if a[0] == b[0]:
                raise ValueError(f"frame {frame.index} holds object {a[0]!r} twice")
        for s in frame.objects:
            node_classes.setdefault(s.object_id, s.obj_class)

        frame_index = frame.index
        pairs_updated = 0
        for i in range(len(states) - 1):
            a_id, axl, axh, ayl, ayh, acx, acy = states[i]
            a_prev = last_center.get(a_id)
            for j in range(i + 1, len(states)):
                b_id, bxl, bxh, byl, byh, bcx, bcy = states[j]

                dist = hypot(acx - bcx, acy - bcy)
                if prune is not None and dist > prune:
                    continue

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

                b_prev = last_center.get(b_id)
                if a_prev is None or b_prev is None:
                    am = bm = 3
                else:
                    apx, apy = a_prev
                    bpx, bpy = b_prev
                    a_delta = hypot(acx - bpx, acy - bpy) - hypot(apx - bpx, apy - bpy)
                    am = 0 if a_delta < -eps else (2 if a_delta > eps else 1)
                    b_delta = hypot(bcx - apx, bcy - apy) - hypot(bpx - apx, bpy - apy)
                    bm = 0 if b_delta < -eps else (2 if b_delta > eps else 1)

                band = bisect_right(edges, dist)

                dx = bcx - acx
                dy = bcy - acy
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
                history = graph_edges.get((a_id, b_id))
                if history is None:
                    history = graph_edges[(a_id, b_id)] = EdgeHistory()
                history.frames.append(frame_index)
                history.codes.append(code)
                pairs_updated += 1

        for st in states:
            last_center[st[0]] = (st[5], st[6])
        self._last_index = frame_index

        return BuilderStats(frame_index, len(states), pairs_updated, time.perf_counter_ns() - t0)


def build(
    scene: Scene,
    cfg: CalculiConfig = DEFAULT_CONFIG,
    *,
    max_pair_distance: float | None = None,
) -> QXG:
    """Run a whole scene through a fresh builder."""
    builder = Builder(scene.scene_id, cfg, max_pair_distance=max_pair_distance)
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
    ``band_index`` maps each distance band name to its index."""
    return pack_code(
        ALLEN_BY_LABEL[payload["ra"][0]],
        ALLEN_BY_LABEL[payload["ra"][1]],
        MOTION_BY_LABEL[payload["qtcb"][0]],
        MOTION_BY_LABEL[payload["qtcb"][1]],
        band_index[payload["qdc"]],
        SECTOR_BY_LABEL[payload["star4"]],
        len(band_index),
    )


def graph_to_dict(graph: QXG) -> dict:
    edges_out = []
    for (a, b) in sorted(graph.edges):
        history = graph.edges[(a, b)]
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


def graph_from_dict(payload: dict) -> QXG:
    """Rebuild a graph, checking what the accessors rely on: every edge
    joins two known nodes stored as (smaller id, larger id), appears once,
    and lists its frames as strictly increasing integers."""
    try:
        band_names = tuple(payload["qdc_bands"])
        graph = QXG(payload["scene_id"], band_names)
        band_index = {name: i for i, name in enumerate(band_names)}
        if len(band_index) != len(band_names):
            raise ValueError(f"not a serialized scene graph: band names {band_names} repeat")
        for node in payload["nodes"]:
            graph.node_classes[node["id"]] = node["class"]
        for edge in payload["edges"]:
            key = (edge["a"], edge["b"])
            if not key[0] < key[1]:
                problem = "is not stored as (smaller id, larger id)"
            elif key[0] not in graph.node_classes or key[1] not in graph.node_classes:
                problem = "joins an object that is not a node"
            elif key in graph.edges:
                problem = "appears twice"
            else:
                problem = None
            if problem:
                raise ValueError(f"not a serialized scene graph: edge {key} {problem}")
            history = EdgeHistory()
            for rel in edge["relations"]:
                frame = rel["frame"]
                if type(frame) is not int or (history.frames and frame <= history.frames[-1]):
                    raise ValueError(
                        f"not a serialized scene graph: edge {key} frames must be strictly "
                        f"increasing integers, got {frame!r} after {history.frames[-1:]}"
                    )
                history.frames.append(frame)
                history.codes.append(relation_code(rel, band_index))
            graph.edges[key] = history
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"not a serialized scene graph: {exc!r}") from None
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
        for (a, b) in sorted(graph.edges):
            rel = relation_to_dict(graph.decode(graph.edges[(a, b)].codes[-1]))
            label = "|".join((",".join(rel["ra"]), ",".join(rel["qtcb"]), rel["qdc"], rel["star4"]))
            lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [label={_dot_quote(label)}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (expected 'json' or 'dot')")


def import_graph(data: Union[str, bytes, dict]) -> QXG:
    if isinstance(data, (str, bytes)):
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a serialized scene graph: {exc.msg}") from None
    else:
        payload = data
    if not isinstance(payload, dict):
        raise ValueError("not a serialized scene graph: expected a JSON object")
    return graph_from_dict(payload)
