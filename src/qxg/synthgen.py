"""Synthetic driving scenes with a known causal object.

Four scenario kinds, all on a straight north-bound road with the ego car on
the centre line:

* ``StoppingForCrosser`` -- a pedestrian crosses ahead; the ego brakes to a
  stop (action ``Stopping``, cause ``ped``).
* ``LeadVehicleBraking`` -- the car ahead brakes; the ego stops behind it
  (action ``Stopping``, cause ``lead``).
* ``ClearCruise`` -- steady driving among ordinary traffic (action
  ``Cruising``, no causal object).
* ``GapAccelerate`` -- the car ahead pulls away and the ego sets off after
  it (action ``Accelerating``, cause ``lead``).

The geometry of each cause object is fixed per kind, so its relation chain
over the five frames ending at the annotation is the same in every scene of
that kind.  Scenes are dressed up with distractors: objects that leave
before the decision window, fully visible traffic (cruise only), and one
briefly-visible "lingering" object whose windowed chain is constructed to
be *bit-identical* between the kind it belongs to and a fraction of cruise
scenes.  Those shared chains are the hard part of the classification task:
no feature can separate two identical vectors, so a classifier can be
confident about planted causes while staying honestly uncertain about the
lingerers.

Randomness (distractor placement, jitter) never touches the qualitative
relations inside the window: every randomized object is accepted only if
its window geometry clears safety margins around all relation boundaries,
and jitter is a per-object constant offset, re-drawn if it would flip any
windowed relation.  Positions elsewhere in the scene are free to vary.

The jitter check compares the ego's chains with and without the offsets,
each from a graph ``build`` relates over the window only.  A draw that fails
it is refused with :class:`GenerationFailed`, as is a distractor that finds
no safe placement.

Frames are assembled as the id, class and packed box columns that every
``Frame`` holds, so no per-box object is built; a read of ``frame.objects``
builds a new tuple and keeps nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from math import hypot

import numpy as np

from .builder import build
from .calculi import BBox2D, DEFAULT_CONFIG, shown
from .defs import CLEAR_CRUISE, GAP_ACCELERATE, KINDS, LEAD_VEHICLE_BRAKING, STOPPING_FOR_CROSSER
from .scene import _FLOAT_MAX, ActionAnnotation, Frame, NO_CAUSE, Scene, _Columns, split_scenes

__all__ = [
    "STOPPING_FOR_CROSSER",
    "LEAD_VEHICLE_BRAKING",
    "CLEAR_CRUISE",
    "GAP_ACCELERATE",
    "KINDS",
    "ACTION_FOR_KIND",
    "EGO_ID",
    "ScenarioSpec",
    "GroundTruth",
    "GenerationFailed",
    "generate_scene",
    "generate_scenes",
    "generate_dataset",
    "generate_corpus",
    "split_scenes",
]

ACTION_FOR_KIND = {
    STOPPING_FOR_CROSSER: "Stopping",
    LEAD_VEHICLE_BRAKING: "Stopping",
    CLEAR_CRUISE: "Cruising",
    GAP_ACCELERATE: "Accelerating",
}

EGO_ID = "ego"

_N_FRAMES = 12  # frames per scene
_WINDOW = 5  # frames per relation chain, matching the default encoder
_MARGIN = 0.5  # metres of slack demanded around every relation boundary
_PLACEMENT_TRIES = 200  # draws of one distractor before giving up

# box half-extents (x, y): cars are 2 x 4.5 along their travel direction
_CAR_NS = (1.0, 2.25)
_CAR_EW = (2.25, 1.0)
_HALF_BY_CLASS = {"car": _CAR_NS, "pedestrian": (0.3, 0.3), "cyclist": (0.4, 0.9)}


def _check_count(name: str, value) -> None:
    # type(), not isinstance: True would count as 1; a negative scene count
    # would reach numpy as a shape
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {shown(value)}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines one generated scene.

    ``cruise_twin`` plants the lingering-object chain of another kind into a
    ``ClearCruise`` scene (``"l12"`` for the stopping lingerer, ``"l45"``
    for the accelerating one); the corpus builders set it on a fixed
    rotation."""

    kind: str
    n_distractors: int = 4
    jitter_sigma: float = 0.1
    seed: int = 0
    cruise_twin: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; choose from {KINDS}")
        _check_count("n_distractors", self.n_distractors)
        _check_count("seed", self.seed)
        sigma = self.jitter_sigma
        if not (type(sigma) in (int, float) and 0 <= sigma <= _FLOAT_MAX):  # also NaN
            raise ValueError(f"jitter_sigma must be a finite non-negative number, got {shown(sigma)}")
        if self.cruise_twin not in (None, "l12", "l45"):
            raise ValueError(f"cruise_twin must be 'l12', 'l45' or None, got {self.cruise_twin!r}")
        if self.cruise_twin is not None and self.kind != CLEAR_CRUISE:
            raise ValueError("cruise_twin only applies to ClearCruise scenes")


class GenerationFailed(ValueError):
    """The spec's random draws found no scene that keeps the planted
    relations: a distractor with no safe placement, or jitter that keeps
    flipping a windowed relation."""


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows about a scene: the annotation it planted,
    the object that caused it (``NO_CAUSE`` if none), the object nearest
    the actor at the annotation frame as a baseline answer, and the
    scenario kind."""

    scene_id: str
    annotation: ActionAnnotation
    cause_id: str
    nearest_id: str | None
    kind: str


@dataclass
class _Track:
    obj_class: str
    half: tuple[float, float]
    pos: dict[int, tuple[float, float]] = field(default_factory=dict)


def _ego_ys(kind: str, n: int) -> list[float]:
    if kind in (STOPPING_FOR_CROSSER, LEAD_VEHICLE_BRAKING):
        steps = [3.0] * (n - 7) + [2.0, 1.0] + [0.0] * 4
    elif kind == CLEAR_CRUISE:
        steps = [3.0] * (n - 1)
    else:
        steps = [0.0] * (n - 4) + [1.0, 2.0, 3.0]
    ys = [0.0]
    for s in steps:
        ys.append(ys[-1] + s)
    return ys


def _annotation_frame(kind: str, n: int) -> int:
    # stopping is annotated at the first stationary frame; the other kinds
    # at the final frame
    return n - 4 if kind in (STOPPING_FOR_CROSSER, LEAD_VEHICLE_BRAKING) else n - 1


def _linger_track(ego_ys: list[float], ann_frame: int, variant: str) -> _Track:
    """The briefly-visible object.  Placement is relative to the ego at the
    entry frame, which is what makes the windowed chain reproducible across
    scenario kinds with different absolute ego positions."""
    if variant == "l12":
        entry = ann_frame - 3
        track = _Track("car", _CAR_EW)
        track.pos[entry] = (22.0, ego_ys[entry] + 8.0)
        track.pos[entry + 1] = (20.0, ego_ys[entry] + 8.0)
    else:
        entry = ann_frame - 1
        track = _Track("car", _CAR_EW)
        track.pos[entry] = (-20.0, ego_ys[entry] - 8.0)
        track.pos[entry + 1] = (-18.0, ego_ys[entry] - 8.0)
    return track


def _margins_ok(ego: _Track, other: _Track, window: range) -> bool:
    """True when the pair's window geometry keeps every qualitative relation
    at least ``_MARGIN`` away from flipping: distances clear of band edges,
    interval endpoints clear of each other, displacement deltas either
    exactly zero (structurally static) or decisively signed, and the offset
    clear of both axes."""
    edges = DEFAULT_CONFIG.qdc_band_edges
    for f in window:
        if f not in other.pos:
            continue
        ex, ey = ego.pos[f]
        ox, oy = other.pos[f]
        dx, dy = ox - ex, oy - ey
        if abs(dx) < _MARGIN or abs(dy) < _MARGIN:
            return False
        dist = hypot(dx, dy)
        if any(abs(dist - edge) < _MARGIN for edge in edges):
            return False
        for a_half, b_half, delta in ((ego.half[0], other.half[0], dx), (ego.half[1], other.half[1], dy)):
            a_lo, a_hi = -a_half, a_half
            b_lo, b_hi = delta - b_half, delta + b_half
            for diff in (a_lo - b_lo, a_hi - b_hi, a_hi - b_lo, b_hi - a_lo):
                if abs(diff) < _MARGIN:
                    return False
        prev_e = ego.pos.get(f - 1)
        prev_o = other.pos.get(f - 1)
        if prev_e is not None and prev_o is not None:
            d_ego = hypot(ex - prev_o[0], ey - prev_o[1]) - hypot(
                prev_e[0] - prev_o[0], prev_e[1] - prev_o[1]
            )
            d_oth = hypot(ox - prev_e[0], oy - prev_e[1]) - hypot(
                prev_o[0] - prev_e[0], prev_o[1] - prev_e[1]
            )
            for d in (d_ego, d_oth):
                if d != 0.0 and abs(d) < _MARGIN:
                    return False
    return True


def _draw_until_safe(draw, ego: _Track, window: range) -> _Track:
    for _ in range(_PLACEMENT_TRIES):
        candidate = draw()
        if _margins_ok(ego, candidate, window):
            return candidate
    raise GenerationFailed("could not place a distractor clear of relation boundaries")


def _paced_car(rng: random.Random, ego_ys: list[float], ahead: bool) -> _Track:
    dy = rng.uniform(5.2, 10.0) * (1 if ahead else -1)
    x = rng.choice((-3.5, 3.5))
    track = _Track("car", _CAR_NS)
    for f, y in enumerate(ego_ys):
        track.pos[f] = (x, y + dy)
    return track


def _static_obstacle(rng: random.Random, ego_ys: list[float], ann_frame: int, behind: bool) -> _Track:
    x = rng.choice((-1, 1)) * rng.uniform(3.0, 7.0)
    if behind:
        y = ego_ys[ann_frame - _WINDOW + 1] - rng.uniform(2.5, 7.0)
    else:
        y = ego_ys[ann_frame] + rng.uniform(2.5, 12.0)
    track = _Track("car", _CAR_NS)
    for f in range(len(ego_ys)):
        track.pos[f] = (x, y)
    return track


def _exiter(rng: random.Random, last_frame: int, obj_class: str) -> _Track:
    x = rng.choice((-1, 1)) * rng.uniform(3.0, 12.0)
    y = rng.uniform(-8.0, 28.0)
    track = _Track(obj_class, _HALF_BY_CLASS[obj_class])
    for f in range(last_frame + 1):
        track.pos[f] = (x, y)
    return track


def _build_tracks(spec: ScenarioSpec, rng: random.Random) -> tuple[dict[str, _Track], str, int]:
    n = _N_FRAMES
    ego_ys = _ego_ys(spec.kind, n)
    ann = _annotation_frame(spec.kind, n)
    window = range(ann - _WINDOW + 1, ann + 1)

    ego = _Track("car", _CAR_NS, {f: (0.0, y) for f, y in enumerate(ego_ys)})
    tracks: dict[str, _Track] = {EGO_ID: ego}

    if spec.kind == STOPPING_FOR_CROSSER:
        cause = "ped"
        ped = _Track("pedestrian", _HALF_BY_CLASS["pedestrian"])
        crossing_y = ego_ys[ann] + 8.0
        for f in range(n):
            ped.pos[f] = (-10.0 + 2.0 * (f - (ann - 4)), crossing_y)
        tracks[cause] = ped
    elif spec.kind == LEAD_VEHICLE_BRAKING:
        cause = "lead"
        steps = [3.0] * (n - 10) + [2.0, 1.0] + [0.0] * 7
        lead = _Track("car", _CAR_NS)
        y = ego_ys[0] + 20.0
        lead.pos[0] = (0.5, y)
        for f, s in enumerate(steps, start=1):
            y += s
            lead.pos[f] = (0.5, y)
        tracks[cause] = lead
    elif spec.kind == GAP_ACCELERATE:
        cause = "lead"
        lead = _Track("car", _CAR_NS)
        y = 8.0
        for f in range(n):
            if f > ann - 4:
                y += 1.5 * (f - (ann - 4))
            lead.pos[f] = (0.5, y)
        tracks[cause] = lead
    else:
        cause = NO_CAUSE

    if spec.kind == CLEAR_CRUISE:
        slots = spec.n_distractors
        draws = [
            lambda: _paced_car(rng, ego_ys, ahead=True),
            lambda: _paced_car(rng, ego_ys, ahead=False),
            lambda: _static_obstacle(rng, ego_ys, ann, behind=True),
            lambda: _static_obstacle(rng, ego_ys, ann, behind=False),
        ]
        n_full = slots - 1 if (spec.cruise_twin and slots > 0) else slots
        for i in range(n_full):
            tracks[f"d{i}"] = _draw_until_safe(draws[i % 4], ego, window)
        if spec.cruise_twin and slots > 0:
            twin = _linger_track(ego_ys, ann, spec.cruise_twin)
            if not _margins_ok(ego, twin, window):
                raise RuntimeError("lingering-object geometry lost its safety margins")
            tracks[f"d{slots - 1}"] = twin
    else:
        exit_classes = ("car", "pedestrian", "cyclist")
        slots = spec.n_distractors
        for i in range(max(0, slots - 1)):
            tracks[f"d{i}"] = _exiter(rng, window.start - 1, exit_classes[i % 3])
        if slots > 0:
            variant = "l12" if spec.kind != GAP_ACCELERATE else "l45"
            linger = _linger_track(ego_ys, ann, variant)
            if not _margins_ok(ego, linger, window):
                raise RuntimeError("lingering-object geometry lost its safety margins")
            tracks[f"d{slots - 1}"] = linger
        if not _margins_ok(ego, tracks[cause], window):
            raise RuntimeError(f"{spec.kind} cause geometry lost its safety margins")

    return tracks, cause, ann


def _assemble(
    scene_id: str, tracks: dict[str, _Track], offsets: dict[str, tuple[float, float]]
) -> Scene:
    """The scene's frames, as columns packed once per frame.  One
    comparison holds each box to the ``Interval`` rules (finite,
    lo <= hi); a box that fails it goes to ``BBox2D.from_bounds``, which
    raises that rule's error."""
    frames = []
    for f in range(_N_FRAMES):
        ids, classes, boxes = [], [], []
        for oid, track in tracks.items():
            pos = track.pos.get(f)
            if pos is None:
                continue
            cx, cy = pos
            off = offsets.get(oid)
            if off is not None:
                cx += off[0]
                cy += off[1]
            hx, hy = track.half
            xl, xh, yl, yh = cx - hx, cx + hx, cy - hy, cy + hy
            if not (-_FLOAT_MAX <= xl <= xh <= _FLOAT_MAX and -_FLOAT_MAX <= yl <= yh <= _FLOAT_MAX):
                BBox2D.from_bounds(xl, xh, yl, yh)
            ids.append(oid)
            classes.append(track.obj_class)
            boxes += (xl, xh, yl, yh)
        frames.append(Frame(f, f * 0.5, _Columns(ids, classes, boxes)))
    return Scene(scene_id, tuple(frames))


def generate_scene(spec: ScenarioSpec) -> tuple[Scene, ActionAnnotation, GroundTruth]:
    """Generate one scene.  Deterministic in the spec (including its seed):
    the same spec always yields byte-identical frames and annotations."""
    rng = random.Random(spec.seed)
    tracks, cause, ann_frame = _build_tracks(spec, rng)
    scene_id = f"{spec.kind}-{spec.seed:x}"

    scene = _assemble(scene_id, tracks, {})
    if spec.jitter_sigma != 0.0:
        # jitter must perturb coordinates without flipping any windowed
        # relation, otherwise the planted ground truth would silently rot
        window = (ann_frame, _WINDOW)  # the frames the ego's chains read
        reference = build(scene, window=window).window_chains(EGO_ID, *window)
        for _ in range(50):
            offsets = {
                oid: (rng.gauss(0.0, spec.jitter_sigma), rng.gauss(0.0, spec.jitter_sigma))
                for oid in tracks
            }
            scene = _assemble(scene_id, tracks, offsets)
            if build(scene, window=window).window_chains(EGO_ID, *window) == reference:
                break
        else:
            raise GenerationFailed(
                f"jitter sigma {spec.jitter_sigma} keeps flipping windowed relations; "
                "the margins assume something closer to 0.1"
            )

    annotation = ActionAnnotation(scene_id, ann_frame, EGO_ID, ACTION_FOR_KIND[spec.kind])

    # the object nearest the ego's centre, ties to the smaller id
    centres = {
        oid: ((xl + xh) / 2.0, (yl + yh) / 2.0)
        for oid, _, (xl, xh, yl, yh) in scene.frame_at(ann_frame).rows()
    }
    ex, ey = centres.pop(EGO_ID)
    nearest = min(
        centres,
        key=lambda oid: (hypot(ex - centres[oid][0], ey - centres[oid][1]), oid),
        default=None,
    )
    truth = GroundTruth(scene_id, annotation, cause, nearest, spec.kind)
    return scene, annotation, truth


def _round_robin(
    n_scenes: int, base: ScenarioSpec, seeds: np.ndarray, kind: str | None = None
) -> list[tuple[Scene, ActionAnnotation, GroundTruth]]:
    """``n_scenes`` scenes, the i-th seeded with ``seeds[i]``: all of
    ``kind`` when given, else the kinds in turn."""
    items = []
    for i in range(n_scenes):
        this = kind or KINDS[i % 4]
        twin = None
        if kind is None and this == CLEAR_CRUISE:
            # every fifth cruise scene hosts the stopping lingerer's chain,
            # the next one the accelerating lingerer's
            twin = {0: "l12", 1: "l45"}.get((i // 4) % 5)
        spec = replace(base, kind=this, seed=int(seeds[i]), cruise_twin=twin)
        items.append(generate_scene(spec))
    return items


def generate_scenes(
    n_scenes: int,
    base_spec: ScenarioSpec | None = None,
    master_seed: int = 42,
    kind: str | None = None,
) -> list[tuple[Scene, ActionAnnotation, GroundTruth]]:
    """``n_scenes`` scenes with seeds derived from one master seed: all of
    ``kind`` when given, else the kinds interleaved round-robin.  The
    mixed list is a prefix of :func:`generate_dataset`'s for that seed."""
    _check_count("n_scenes", n_scenes)
    _check_count("master_seed", master_seed)
    seeds = np.random.SeedSequence(master_seed).generate_state(n_scenes, dtype=np.uint64)
    base = base_spec if base_spec is not None else ScenarioSpec(CLEAR_CRUISE)
    return _round_robin(n_scenes, base, seeds, kind)


def generate_dataset(
    n_per_kind: int, master_seed: int = 42
) -> list[tuple[Scene, ActionAnnotation, GroundTruth]]:
    """A mixed list of scenes, kinds interleaved round-robin, with all scene
    seeds derived from one master seed."""
    _check_count("n_per_kind", n_per_kind)
    return generate_scenes(4 * n_per_kind, master_seed=master_seed)


def generate_corpus(n_train_per_kind: int, n_test_per_kind: int, master_seed: int = 42):
    """Disjoint train and test scene lists with exact per-kind counts.  The
    two halves draw from independent seed streams spawned off the master
    seed, so they never share a scene."""
    _check_count("n_train_per_kind", n_train_per_kind)
    _check_count("n_test_per_kind", n_test_per_kind)
    _check_count("master_seed", master_seed)
    train_ss, test_ss = np.random.SeedSequence(master_seed).spawn(2)
    base = ScenarioSpec(CLEAR_CRUISE)
    n_train, n_test = 4 * n_train_per_kind, 4 * n_test_per_kind
    train = _round_robin(n_train, base, train_ss.generate_state(n_train, dtype=np.uint64))
    test = _round_robin(n_test, base, test_ss.generate_state(n_test, dtype=np.uint64))
    return train, test
