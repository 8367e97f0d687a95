"""Qualitative spatial relations between tracked objects.

Four relation families describe how a pair of bird's-eye-view boxes relate
at one instant:

* rectangle relations -- an interval relation per axis (13 relations each),
* trajectory relations -- is each object moving towards or away from the
  other one's previous position,
* distance bands -- coarse Euclidean distance between centroids,
* sectors -- which quadrant the second object occupies relative to the first.

Everything in this module is a pure function of its arguments; state
(previous positions, frame bookkeeping) lives in the graph builder.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "Interval",
    "Point2D",
    "BBox2D",
    "Allen",
    "Motion",
    "Sector",
    "RARelation",
    "QTCBRelation",
    "QDCRelation",
    "RelationTuple",
    "CalculiConfig",
    "DEFAULT_CONFIG",
    "allen_relation",
    "ra_relation",
    "qtcb_relation",
    "qdc_relation",
    "star4_relation",
    "relation_tuple",
    "converse_allen",
    "converse_ra",
    "converse_qtcb",
    "converse_qdc",
    "converse_star4",
    "converse_tuple",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval on one axis.  Zero width is allowed (a point)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned box: an x interval and a y interval."""

    x: Interval
    y: Interval

    @property
    def center(self) -> Point2D:
        return Point2D(self.x.mid, self.y.mid)

    @classmethod
    def from_bounds(cls, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> "BBox2D":
        return cls(Interval(x_lo, x_hi), Interval(y_lo, y_hi))


class _Labeled(enum.IntEnum):
    @property
    def label(self) -> str:
        return "".join(part.capitalize() for part in self.name.split("_"))


class Allen(_Labeled):
    """The thirteen interval relations.

    ``X_INV`` is the converse of ``X``: a BEFORE b  <=>  b BEFORE_INV a.
    """

    BEFORE = 0
    MEETS = 1
    OVERLAPS = 2
    STARTS = 3
    DURING = 4
    FINISHES = 5
    EQUALS = 6
    BEFORE_INV = 7
    MEETS_INV = 8
    OVERLAPS_INV = 9
    STARTS_INV = 10
    DURING_INV = 11
    FINISHES_INV = 12


_ALLEN_CONVERSE = {
    Allen.BEFORE: Allen.BEFORE_INV,
    Allen.MEETS: Allen.MEETS_INV,
    Allen.OVERLAPS: Allen.OVERLAPS_INV,
    Allen.STARTS: Allen.STARTS_INV,
    Allen.DURING: Allen.DURING_INV,
    Allen.FINISHES: Allen.FINISHES_INV,
    Allen.EQUALS: Allen.EQUALS,
}
_ALLEN_CONVERSE.update({v: k for k, v in _ALLEN_CONVERSE.items() if v is not k})

ALLEN_BY_LABEL = {r.label: r for r in Allen}


class Motion(_Labeled):
    """Single-object motion sign: towards / away from the other object's
    previous position, Stable inside the epsilon dead band, Unknown when the
    object has no previous observation at all."""

    TOWARDS = 0
    STABLE = 1
    AWAY = 2
    UNKNOWN = 3


MOTION_BY_LABEL = {m.label: m for m in Motion}


class Sector(enum.IntEnum):
    """Quadrant of the target relative to the reference, global axes.

    Boundary policy (half-open sweep, counter-clockwise from east):
    NE owns the +y axis, NW the -x axis, SW the -y axis, SE the +x axis.
    A coincident target is reported as NE.
    """

    NE = 0
    NW = 1
    SW = 2
    SE = 3

    @property
    def label(self) -> str:
        return self.name


SECTOR_BY_LABEL = {s.name: s for s in Sector}

_SECTOR_CONVERSE = {
    Sector.NE: Sector.SW,
    Sector.SW: Sector.NE,
    Sector.NW: Sector.SE,
    Sector.SE: Sector.NW,
}


@dataclass(frozen=True)
class RARelation:
    """Rectangle relation: one interval relation per axis."""

    x: Allen
    y: Allen


@dataclass(frozen=True)
class QTCBRelation:
    """Motion signs of both objects, first argument's motion first."""

    a: Motion
    b: Motion


@dataclass(frozen=True)
class QDCRelation:
    band_index: int
    band_name: str


@dataclass(frozen=True)
class RelationTuple:
    """Everything we record about a pair at one frame.

    Component order is fixed and shared by every serializer: rectangle,
    trajectory, distance band, sector.
    """

    ra: RARelation
    qtcb: QTCBRelation
    qdc: QDCRelation
    star4: Sector


def _is_finite_real(value) -> bool:
    # a bool is no distance; the bound also rules out NaN and oversized ints
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class CalculiConfig:
    """Tunables for the distance bands and the trajectory dead band.

    ``qdc_band_edges`` are the upper bounds (exclusive) of all bands but the
    last; band i covers [edges[i-1], edges[i]) and the final band is
    unbounded.  ``qtc_epsilon`` is the per-frame displacement (metres) below
    which motion counts as Stable.
    """

    qdc_band_edges: tuple[float, ...] = (1.0, 5.0, 15.0, 50.0)
    qdc_band_names: tuple[str, ...] = ("adjacent", "near", "medium", "far", "very_far")
    qtc_epsilon: float = 0.05

    def __post_init__(self) -> None:
        numbers = (*self.qdc_band_edges, self.qtc_epsilon)
        if not all(_is_finite_real(v) for v in numbers):
            raise ValueError(f"band edges and qtc_epsilon must be finite numbers, got {numbers}")
        names = self.qdc_band_names
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError(f"band names must be distinct strings, got {names}")
        if len(self.qdc_band_names) != len(self.qdc_band_edges) + 1:
            raise ValueError(
                f"{len(self.qdc_band_edges)} edges need {len(self.qdc_band_edges) + 1} "
                f"band names, got {len(self.qdc_band_names)}"
            )
        if any(e <= 0 for e in self.qdc_band_edges):
            raise ValueError("band edges must be positive")
        if any(a >= b for a, b in zip(self.qdc_band_edges, self.qdc_band_edges[1:])):
            raise ValueError(f"band edges must be strictly increasing: {self.qdc_band_edges}")
        if self.qtc_epsilon < 0:
            raise ValueError("qtc_epsilon must be non-negative")

    @property
    def band_count(self) -> int:
        return len(self.qdc_band_names)

    def band_for_distance(self, distance: float) -> QDCRelation:
        idx = bisect_right(self.qdc_band_edges, distance)
        return QDCRelation(idx, self.qdc_band_names[idx])


DEFAULT_CONFIG = CalculiConfig()


def allen_relation(a: Interval, b: Interval) -> Allen:
    """Classify the relation of interval ``a`` against ``b``.

    Endpoint comparisons are exact; ties are meaningful (Meets, Starts,
    Finishes and Equals all require them), so callers must not pre-round.
    Exactly one relation holds for any pair of valid intervals, including
    zero-width ones.
    """
    if a.hi < b.lo:
        return Allen.BEFORE
    if b.hi < a.lo:
        return Allen.BEFORE_INV
    if a.lo == b.lo:
        if a.hi == b.hi:
            return Allen.EQUALS
        return Allen.STARTS if a.hi < b.hi else Allen.STARTS_INV
    if a.lo < b.lo:
        # a started first and they touch or overlap somewhere.
        if a.hi == b.hi:
            return Allen.FINISHES_INV
        if a.hi > b.hi:
            return Allen.DURING_INV
        return Allen.MEETS if a.hi == b.lo else Allen.OVERLAPS
    # b started first, mirror image of the branch above.
    if a.hi == b.hi:
        return Allen.FINISHES
    if a.hi < b.hi:
        return Allen.DURING
    return Allen.MEETS_INV if a.lo == b.hi else Allen.OVERLAPS_INV


def converse_allen(rel: Allen) -> Allen:
    return _ALLEN_CONVERSE[rel]


def ra_relation(a: BBox2D, b: BBox2D) -> RARelation:
    """Rectangle relation of box ``a`` against box ``b``: the interval
    relation of the x projections paired with that of the y projections."""
    return RARelation(allen_relation(a.x, b.x), allen_relation(a.y, b.y))


def converse_ra(rel: RARelation) -> RARelation:
    return RARelation(_ALLEN_CONVERSE[rel.x], _ALLEN_CONVERSE[rel.y])


def qtcb_relation(
    a_prev: Point2D | None,
    a_cur: Point2D,
    b_prev: Point2D | None,
    b_cur: Point2D,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> QTCBRelation:
    """Trajectory relation of a pair across one step.

    Each side is judged against the *other object's previous* position: a
    counts as Towards if it ended the step more than epsilon closer to where
    b was, Away if more than epsilon farther, Stable otherwise.  If either
    object has never been seen before there is no step to judge and both
    sides are Unknown.
    """
    if a_prev is None or b_prev is None:
        return QTCBRelation(Motion.UNKNOWN, Motion.UNKNOWN)
    eps = cfg.qtc_epsilon
    a_delta = a_cur.distance_to(b_prev) - a_prev.distance_to(b_prev)
    b_delta = b_cur.distance_to(a_prev) - b_prev.distance_to(a_prev)
    return QTCBRelation(_motion_sign(a_delta, eps), _motion_sign(b_delta, eps))


def _motion_sign(delta: float, eps: float) -> Motion:
    if delta < -eps:
        return Motion.TOWARDS
    if delta > eps:
        return Motion.AWAY
    return Motion.STABLE


def converse_qtcb(rel: QTCBRelation) -> QTCBRelation:
    return QTCBRelation(rel.b, rel.a)


def qdc_relation(a: Point2D, b: Point2D, cfg: CalculiConfig = DEFAULT_CONFIG) -> QDCRelation:
    """Distance band of the centroid distance.  Half-open bands: a distance
    exactly on an edge belongs to the farther band."""
    return cfg.band_for_distance(a.distance_to(b))


def converse_qdc(rel: QDCRelation) -> QDCRelation:
    return rel


def star4_relation(reference: Point2D, target: Point2D) -> Sector:
    """Sector of ``target`` seen from ``reference`` in global axes."""
    dx = target.x - reference.x
    dy = target.y - reference.y
    if dy > 0.0:
        return Sector.NE if dx >= 0.0 else Sector.NW
    if dy < 0.0:
        return Sector.SW if dx <= 0.0 else Sector.SE
    if dx > 0.0:
        return Sector.SE
    if dx < 0.0:
        return Sector.NW
    return Sector.NE  # coincident centroids


def converse_star4(rel: Sector) -> Sector:
    """Sector seen from the other end: point reflection through the origin."""
    return _SECTOR_CONVERSE[rel]


def relation_tuple(
    a_prev: BBox2D | None,
    a_cur: BBox2D,
    b_prev: BBox2D | None,
    b_cur: BBox2D,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> RelationTuple:
    """Full relation of object a against object b at the current frame.

    Rectangle, distance and sector components come from the current boxes;
    the trajectory component additionally needs each object's previous
    centroid (``None`` for objects observed for the first time).
    """
    a_c = a_cur.center
    b_c = b_cur.center
    return RelationTuple(
        ra=ra_relation(a_cur, b_cur),
        qtcb=qtcb_relation(
            a_prev.center if a_prev is not None else None,
            a_c,
            b_prev.center if b_prev is not None else None,
            b_c,
            cfg,
        ),
        qdc=qdc_relation(a_c, b_c, cfg),
        star4=star4_relation(a_c, b_c),
    )


def converse_tuple(rel: RelationTuple) -> RelationTuple:
    """The same pair described from b's side."""
    return RelationTuple(
        ra=converse_ra(rel.ra),
        qtcb=converse_qtcb(rel.qtcb),
        qdc=rel.qdc,
        star4=converse_star4(rel.star4),
    )
