"""Relation-calculi tests.

The interval classifier is checked against a deliberately naive oracle that
evaluates all thirteen textbook endpoint definitions independently; the two
implementations share no code.
"""

import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qxg.calculi import (
    ALLEN_BY_LABEL,
    Allen,
    BBox2D,
    CalculiConfig,
    DEFAULT_CONFIG,
    Interval,
    Motion,
    Point2D,
    QDCRelation,
    QTCBRelation,
    RARelation,
    Sector,
    allen_relation,
    converse_allen,
    converse_qdc,
    converse_qtcb,
    converse_ra,
    converse_star4,
    converse_tuple,
    qdc_relation,
    qtcb_relation,
    relation_tuple,
    star4_relation,
)

# ---------------------------------------------------------------------------
# brute-force oracle: all 13 endpoint definitions, evaluated independently


def _oracle_definitions(al, ah, bl, bh):
    """Truth value of every interval relation, one entry per relation."""
    return {
        Allen.BEFORE: ah < bl,
        Allen.MEETS: ah == bl and al < bl and ah < bh,
        Allen.OVERLAPS: al < bl and bl < ah and ah < bh,
        Allen.FINISHES_INV: al < bl and ah == bh,
        Allen.DURING_INV: al < bl and ah > bh,
        Allen.STARTS: al == bl and ah < bh,
        Allen.EQUALS: al == bl and ah == bh,
        Allen.STARTS_INV: al == bl and ah > bh,
        Allen.DURING: al > bl and ah < bh,
        Allen.FINISHES: al > bl and ah == bh,
        Allen.OVERLAPS_INV: bl < al and al < bh and bh < ah,
        Allen.MEETS_INV: al == bh and bl < al and bh < ah,
        Allen.BEFORE_INV: al > bh,
    }


def oracle_allen(a: Interval, b: Interval) -> Allen:
    holding = [rel for rel, holds in _oracle_definitions(a.lo, a.hi, b.lo, b.hi).items() if holds]
    assert len(holding) == 1, f"{len(holding)} definitions hold for {a} vs {b}: {holding}"
    return holding[0]


def _random_interval(rng: random.Random) -> Interval:
    # Mix a coarse lattice (forcing endpoint ties and zero-width intervals)
    # with continuous draws, so boundary relations actually come up.
    if rng.random() < 0.5:
        lo = rng.randint(-5, 5) * 1.0
        hi = lo + rng.randint(0, 6)
    else:
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.uniform(0.0, 10.0)
    return Interval(lo, hi)


def test_interval_classifier_matches_oracle_on_10k_pairs():
    rng = random.Random(20240817)
    pairs = [(_random_interval(rng), _random_interval(rng)) for _ in range(10_000)]
    started = time.perf_counter()
    for a, b in pairs:
        assert allen_relation(a, b) is oracle_allen(a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"10k classifications took {elapsed:.2f}s"


def test_interval_classifier_agrees_with_converse_of_swapped_arguments():
    rng = random.Random(7)
    for _ in range(10_000):
        a = _random_interval(rng)
        b = _random_interval(rng)
        assert allen_relation(a, b) is converse_allen(allen_relation(b, a))


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((0, 2), (3, 5), Allen.BEFORE),
        ((3, 5), (0, 2), Allen.BEFORE_INV),
        ((0, 2), (2, 5), Allen.MEETS),
        ((2, 5), (0, 2), Allen.MEETS_INV),
        ((0, 3), (2, 5), Allen.OVERLAPS),
        ((2, 5), (0, 3), Allen.OVERLAPS_INV),
        ((0, 2), (0, 5), Allen.STARTS),
        ((0, 5), (0, 2), Allen.STARTS_INV),
        ((2, 4), (0, 9), Allen.DURING),
        ((0, 9), (2, 4), Allen.DURING_INV),
        ((3, 5), (0, 5), Allen.FINISHES),
        ((0, 5), (3, 5), Allen.FINISHES_INV),
        ((1, 4), (1, 4), Allen.EQUALS),
    ],
)
def test_interval_relation_textbook_cases(a, b, expected):
    assert allen_relation(Interval(*a), Interval(*b)) is expected


def test_zero_width_intervals_are_classified_consistently():
    # Points sit at the boundary of several textbook definitions; the policy
    # is that start/finish alignment wins over mere touching.
    point = Interval(1.0, 1.0)
    assert allen_relation(point, Interval(1, 5)) is Allen.STARTS
    assert allen_relation(Interval(1, 5), point) is Allen.STARTS_INV
    assert allen_relation(point, Interval(0, 1)) is Allen.FINISHES
    assert allen_relation(Interval(0, 1), point) is Allen.FINISHES_INV
    assert allen_relation(point, Interval(0, 2)) is Allen.DURING
    assert allen_relation(point, point) is Allen.EQUALS
    assert allen_relation(point, Interval(2, 2)) is Allen.BEFORE
    # and the oracle agrees that exactly one definition holds
    for other in (Interval(1, 5), Interval(0, 1), Interval(0, 2), point, Interval(2, 2)):
        assert oracle_allen(point, other) is allen_relation(point, other)


@given(
    st.floats(-50, 50), st.floats(0, 40), st.floats(-50, 50), st.floats(0, 40)
)
def test_exactly_one_interval_relation_holds(al, aw, bl, bw):
    a = Interval(al, al + aw)
    b = Interval(bl, bl + bw)
    held = [rel for rel, holds in _oracle_definitions(a.lo, a.hi, b.lo, b.hi).items() if holds]
    assert len(held) == 1
    assert allen_relation(a, b) is held[0]


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    assert Interval(3.0, 3.0).width == 0.0


# ---------------------------------------------------------------------------
# converses


def test_interval_converse_is_an_involution_for_all_13_relations():
    for rel in Allen:
        assert converse_allen(converse_allen(rel)) is rel
    assert converse_allen(Allen.EQUALS) is Allen.EQUALS
    assert converse_allen(Allen.BEFORE) is Allen.BEFORE_INV


def test_rectangle_converse_is_an_involution_for_all_169_pairs():
    for x in Allen:
        for y in Allen:
            rel = RARelation(x, y)
            assert converse_ra(converse_ra(rel)) == rel


def test_trajectory_converse_swaps_sides_and_is_an_involution():
    known = [Motion.TOWARDS, Motion.STABLE, Motion.AWAY]
    states = [QTCBRelation(a, b) for a in known for b in known]
    states.append(QTCBRelation(Motion.UNKNOWN, Motion.UNKNOWN))
    for rel in states:
        assert converse_qtcb(rel) == QTCBRelation(rel.b, rel.a)
        assert converse_qtcb(converse_qtcb(rel)) == rel


def test_distance_band_converse_is_identity():
    for idx, name in enumerate(DEFAULT_CONFIG.qdc_band_names):
        rel = QDCRelation(idx, name)
        assert converse_qdc(rel) == rel


def test_sector_converse_is_point_reflection_and_involution():
    assert converse_star4(Sector.NE) is Sector.SW
    assert converse_star4(Sector.SW) is Sector.NE
    assert converse_star4(Sector.NW) is Sector.SE
    assert converse_star4(Sector.SE) is Sector.NW
    for s in Sector:
        assert converse_star4(converse_star4(s)) is s


def test_sector_rotation_by_90_degrees_cycles_counterclockwise():
    rng = random.Random(99)
    origin = Point2D(0.0, 0.0)
    cycle = [Sector.NE, Sector.NW, Sector.SW, Sector.SE]
    checked = 0
    while checked < 1000:
        dx = rng.uniform(-20, 20)
        dy = rng.uniform(-20, 20)
        if abs(dx) < 1e-6 or abs(dy) < 1e-6:
            continue  # stay off the axis boundaries
        start = star4_relation(origin, Point2D(dx, dy))
        rotated = star4_relation(origin, Point2D(-dy, dx))
        assert rotated is cycle[(cycle.index(start) + 1) % 4]
        checked += 1


# ---------------------------------------------------------------------------
# distance bands


def test_distance_bands_frozen_examples():
    cfg = DEFAULT_CONFIG
    a = Point2D(0.0, 0.0)
    assert qdc_relation(a, Point2D(7.3, 0.0), cfg) == QDCRelation(2, "medium")
    assert qdc_relation(a, Point2D(0.0, 0.0), cfg) == QDCRelation(0, "adjacent")
    assert qdc_relation(a, Point2D(0.3, 0.4), cfg).band_name == "adjacent"
    # a distance exactly on an edge falls in the farther band
    assert qdc_relation(a, Point2D(1.0, 0.0), cfg) == QDCRelation(1, "near")
    assert qdc_relation(a, Point2D(50.0, 0.0), cfg) == QDCRelation(4, "very_far")
    assert qdc_relation(a, Point2D(0.0, 4000.0), cfg).band_name == "very_far"


@given(st.floats(0, 100), st.floats(0, 100))
def test_distance_band_index_is_monotone_in_distance(d1, d2):
    cfg = DEFAULT_CONFIG
    a = Point2D(0.0, 0.0)
    near, far = sorted((d1, d2))
    assert (
        qdc_relation(a, Point2D(near, 0.0), cfg).band_index
        <= qdc_relation(a, Point2D(far, 0.0), cfg).band_index
    )


@given(st.floats(-40, 40), st.floats(-40, 40), st.floats(-40, 40), st.floats(-40, 40))
def test_distance_band_is_symmetric(ax, ay, bx, by):
    a, b = Point2D(ax, ay), Point2D(bx, by)
    assert qdc_relation(a, b) == qdc_relation(b, a)


def test_band_config_validation():
    with pytest.raises(ValueError):
        CalculiConfig(qdc_band_edges=(5.0, 1.0))
    with pytest.raises(ValueError):
        CalculiConfig(qdc_band_edges=(1.0, 5.0), qdc_band_names=("a", "b"))
    with pytest.raises(ValueError):
        CalculiConfig(qtc_epsilon=-0.1)
    two_band = CalculiConfig(qdc_band_edges=(10.0,), qdc_band_names=("close", "far"))
    assert two_band.band_count == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"qdc_band_edges": (1.0, 5.0, 15.0, math.nan)},
        {"qdc_band_edges": (1.0, 5.0, 15.0, math.inf)},
        {"qdc_band_edges": (1.0, 5.0, 15.0, 10**400)},
        {"qdc_band_edges": (True, 5.0, 15.0, 50.0)},
        {"qdc_band_edges": (1.0, 5.0, 15.0, "50")},
        {"qtc_epsilon": math.nan},
        {"qtc_epsilon": False},
        {"qdc_band_names": (0, 1, 2, 3, 4)},
        {"qdc_band_names": ("a", "a", "b", "c", "d")},
    ],
)
def test_band_config_checks_its_field_types(fields):
    with pytest.raises(ValueError):
        CalculiConfig(**fields)


# ---------------------------------------------------------------------------
# trajectory relation


def test_head_on_approach_is_towards_towards():
    # two cars closing in on each other along one lane
    rel = qtcb_relation(
        Point2D(0.0, 0.0), Point2D(0.0, 2.0),
        Point2D(0.0, 10.0), Point2D(0.0, 8.0),
    )
    assert rel == QTCBRelation(Motion.TOWARDS, Motion.TOWARDS)


def test_receding_object_is_away_and_parked_object_is_stable():
    parked = Point2D(5.0, 5.0)
    rel = qtcb_relation(parked, parked, Point2D(5.0, 10.0), Point2D(5.0, 13.0))
    assert rel == QTCBRelation(Motion.STABLE, Motion.AWAY)


def test_displacement_exactly_epsilon_counts_as_stable():
    # 0.25 is exactly representable, so the deltas below are exact and the
    # comparison really is tested *at* the dead-band edge.
    cfg = CalculiConfig(qtc_epsilon=0.25)
    a0 = Point2D(0.0, 0.0)
    b = Point2D(10.0, 0.0)
    assert qtcb_relation(a0, Point2D(0.25, 0.0), b, b, cfg).a is Motion.STABLE
    assert qtcb_relation(a0, Point2D(-0.25, 0.0), b, b, cfg).a is Motion.STABLE
    assert qtcb_relation(a0, Point2D(0.375, 0.0), b, b, cfg).a is Motion.TOWARDS
    assert qtcb_relation(a0, Point2D(-0.375, 0.0), b, b, cfg).a is Motion.AWAY


def test_first_observation_of_either_object_yields_unknown_unknown():
    p = Point2D(0.0, 0.0)
    q = Point2D(3.0, 4.0)
    unknown = QTCBRelation(Motion.UNKNOWN, Motion.UNKNOWN)
    assert qtcb_relation(None, p, q, q) == unknown
    assert qtcb_relation(p, p, None, q) == unknown
    assert qtcb_relation(None, p, None, q) == unknown


_coord = st.floats(-30, 30)


@given(_coord, _coord, _coord, _coord, _coord, _coord, _coord, _coord)
def test_trajectory_relation_swaps_cleanly(apx, apy, acx, acy, bpx, bpy, bcx, bcy):
    a_prev, a_cur = Point2D(apx, apy), Point2D(acx, acy)
    b_prev, b_cur = Point2D(bpx, bpy), Point2D(bcx, bcy)
    forward = qtcb_relation(a_prev, a_cur, b_prev, b_cur)
    backward = qtcb_relation(b_prev, b_cur, a_prev, a_cur)
    assert forward == converse_qtcb(backward)


# ---------------------------------------------------------------------------
# sectors


@pytest.mark.parametrize(
    "dx, dy, expected",
    [
        (3.0, 4.0, Sector.NE),
        (-3.0, 0.5, Sector.NW),
        (-1.0, -1.0, Sector.SW),
        (2.0, -0.1, Sector.SE),
        (0.0, 5.0, Sector.NE),   # +y axis belongs to NE
        (-5.0, 0.0, Sector.NW),  # -x axis belongs to NW
        (0.0, -5.0, Sector.SW),  # -y axis belongs to SW
        (5.0, 0.0, Sector.SE),   # +x axis belongs to SE
        (0.0, 0.0, Sector.NE),   # coincident
    ],
)
def test_sector_boundary_policy(dx, dy, expected):
    assert star4_relation(Point2D(1.0, 2.0), Point2D(1.0 + dx, 2.0 + dy)) is expected


@given(_coord, _coord, _coord, _coord)
def test_sector_seen_from_the_other_end_is_the_converse(ax, ay, bx, by):
    a, b = Point2D(ax, ay), Point2D(bx, by)
    assume(not (ax == bx and ay == by))
    assert star4_relation(b, a) is converse_star4(star4_relation(a, b))


# ---------------------------------------------------------------------------
# the combined tuple


def test_relation_tuple_combines_all_four_components():
    # ego driving north, a pedestrian ahead-left walking into its path
    ego_prev = BBox2D.from_bounds(-1, 1, 0.0, 4.5)
    ego_cur = BBox2D.from_bounds(-1, 1, 3.0, 7.5)
    ped_prev = BBox2D.from_bounds(-6.3, -5.7, 14.7, 15.3)
    ped_cur = BBox2D.from_bounds(-5.3, -4.7, 14.7, 15.3)
    rel = relation_tuple(ego_prev, ego_cur, ped_prev, ped_cur)
    assert rel.ra == RARelation(Allen.BEFORE_INV, Allen.BEFORE)
    assert rel.qtcb == QTCBRelation(Motion.TOWARDS, Motion.TOWARDS)
    assert rel.qdc.band_name == "medium"
    assert rel.star4 is Sector.NW


def test_relation_tuple_for_brand_new_objects_has_unknown_motion():
    box = BBox2D.from_bounds(0, 2, 0, 2)
    other = BBox2D.from_bounds(10, 12, 0, 2)
    rel = relation_tuple(None, box, None, other)
    assert rel.qtcb == QTCBRelation(Motion.UNKNOWN, Motion.UNKNOWN)
    assert rel.ra.x is Allen.BEFORE


@given(
    st.floats(-20, 20), st.floats(0.1, 5), st.floats(-20, 20), st.floats(0.1, 5),
    st.floats(-20, 20), st.floats(0.1, 5), st.floats(-20, 20), st.floats(0.1, 5),
)
@settings(max_examples=60)
def test_tuple_converse_is_an_involution_and_describes_the_swapped_pair(
    ax, aw, ay, ah, bx, bw, by, bh
):
    a = BBox2D.from_bounds(ax, ax + aw, ay, ay + ah)
    b = BBox2D.from_bounds(bx, bx + bw, by, by + bh)
    forward = relation_tuple(None, a, None, b)
    backward = relation_tuple(None, b, None, a)
    assert converse_tuple(converse_tuple(forward)) == forward
    # coincident centroids are the one place the sector converse may disagree
    assume(a.center != b.center)
    assert converse_tuple(forward) == backward


def test_relation_labels_round_trip():
    for rel in Allen:
        assert ALLEN_BY_LABEL[rel.label] is rel
    assert Allen.BEFORE_INV.label == "BeforeInv"
    assert Motion.TOWARDS.label == "Towards"
    assert Sector.NW.label == "NW"
