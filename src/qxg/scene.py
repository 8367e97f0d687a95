"""Scene traces: the object-track input format.

A trace is JSON Lines.  The first line is a header, then one line per frame
in increasing frame order, then (or interleaved) annotation lines:

    {"type": "header", "scene_id": "s42", "version": 1}
    {"type": "frame", "index": 0, "timestamp": 0.0, "objects": [
        {"id": "ego", "class": "car", "bbox": {"x": [-1, 1], "y": [0, 4.5]}}]}
    {"type": "action", "frame": 8, "actor": "ego", "action": "Stopping"}
    {"type": "cause", "frame": 8, "actor": "ego", "cause": "ped"}

``cause`` lines are optional ground-truth markers used by the synthetic
corpus; ``"none"`` means the annotated action had no single causal object.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import IO, Iterable, Union

from .calculi import BBox2D, Interval, Point2D

__all__ = [
    "NO_CAUSE",
    "ObjectState",
    "Frame",
    "Scene",
    "ActionAnnotation",
    "CauseRecord",
    "Violation",
    "TraceError",
    "MalformedLine",
    "SchemaViolation",
    "OrderingViolation",
    "DanglingAnnotation",
    "load_trace",
    "serialize_scene",
    "validate_scene",
]

NO_CAUSE = "none"

TRACE_VERSION = 1


class TraceError(ValueError):
    """Base class for everything the trace parser can complain about."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MalformedLine(TraceError):
    """A line that is not a JSON object at all."""


class SchemaViolation(TraceError):
    """A structurally valid JSON line with missing or ill-typed fields."""


class OrderingViolation(TraceError):
    """Frame indices not strictly increasing or timestamps decreasing."""


class DanglingAnnotation(TraceError):
    """An annotation that points at a frame or object the trace never had."""


@dataclass(frozen=True)
class ObjectState:
    object_id: str
    obj_class: str
    bbox: BBox2D

    @property
    def center(self) -> Point2D:
        return self.bbox.center


@dataclass(frozen=True)
class Frame:
    index: int
    timestamp: float
    objects: tuple[ObjectState, ...]

    def get(self, object_id: str) -> ObjectState | None:
        for state in self.objects:
            if state.object_id == object_id:
                return state
        return None


@dataclass(frozen=True)
class Scene:
    scene_id: str
    frames: tuple[Frame, ...]

    def frame_at(self, index: int) -> Frame | None:
        for fr in self.frames:
            if fr.index == index:
                return fr
        return None

    @property
    def object_ids(self) -> set[str]:
        return {s.object_id for fr in self.frames for s in fr.objects}


@dataclass(frozen=True)
class ActionAnnotation:
    scene_id: str
    frame_index: int
    actor_id: str
    action: str


@dataclass(frozen=True)
class CauseRecord:
    scene_id: str
    frame_index: int
    actor_id: str
    cause_id: str  # NO_CAUSE when the action has no causal object


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    frame_index: int | None = None
    object_id: str | None = None


def _require(record: dict, key: str, kind, line_no: int):
    if key not in record:
        raise SchemaViolation(f"missing field {key!r}", line_no)
    value = record[key]
    # bool is an int subclass; a frame index of `true` should not slip through
    if kind is int and isinstance(value, bool):
        raise SchemaViolation(f"field {key!r} must be an integer, got {value!r}", line_no)
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaViolation(f"field {key!r} must be a number, got {value!r}", line_no)
        return float(value)
    if not isinstance(value, kind):
        raise SchemaViolation(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}", line_no
        )
    return value


def _parse_interval(raw, axis: str, line_no: int) -> Interval:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
    ):
        raise SchemaViolation(f"bbox {axis} must be a [lo, hi] number pair, got {raw!r}", line_no)
    try:
        return Interval(float(raw[0]), float(raw[1]))
    except ValueError as exc:
        raise SchemaViolation(f"bbox {axis}: {exc}", line_no) from None


def _parse_object(raw, line_no: int) -> ObjectState:
    if not isinstance(raw, dict):
        raise SchemaViolation(f"objects entries must be objects, got {raw!r}", line_no)
    object_id = _require(raw, "id", str, line_no)
    obj_class = _require(raw, "class", str, line_no)
    bbox = _require(raw, "bbox", dict, line_no)
    box = BBox2D(
        _parse_interval(bbox.get("x"), "x", line_no),
        _parse_interval(bbox.get("y"), "y", line_no),
    )
    return ObjectState(object_id, obj_class, box)


TraceInput = Union[str, bytes, IO]


def _iter_lines(data: TraceInput) -> Iterable[str]:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise MalformedLine(f"not valid UTF-8 ({exc.reason})", line_no) from None
    if isinstance(data, str):
        # split as a text file does, at \n, \r\n or a lone \r: JSON strings
        # may hold U+2028, U+2029 or U+0085 raw, and str.splitlines cuts there
        data = io.StringIO(data, newline=None)
    return (line.rstrip("\n") for line in data)


def load_trace(data: TraceInput) -> tuple[Scene, list[ActionAnnotation], list[CauseRecord]]:
    """Parse one trace, validating as it goes.

    Raises MalformedLine / SchemaViolation / OrderingViolation /
    DanglingAnnotation, all carrying the offending 1-based line number.
    """
    scene_id: str | None = None
    frames: list[Frame] = []
    frame_lookup: dict[int, Frame] = {}
    raw_annotations: list[tuple[ActionAnnotation, int]] = []
    raw_causes: list[tuple[CauseRecord, int]] = []

    line_no = 0
    for line in _iter_lines(data):
        line_no += 1
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"not valid JSON ({exc.msg})", line_no) from None
        if not isinstance(record, dict):
            raise MalformedLine("expected a JSON object", line_no)

        kind = record.get("type")
        if kind == "header":
            if scene_id is not None:
                raise SchemaViolation("duplicate header", line_no)
            if frames:
                raise SchemaViolation("header must be the first record", line_no)
            version = _require(record, "version", int, line_no)
            if version != TRACE_VERSION:
                raise SchemaViolation(
                    f"unsupported trace version {version} (expected {TRACE_VERSION})", line_no
                )
            scene_id = _require(record, "scene_id", str, line_no)
        elif kind == "frame":
            if scene_id is None:
                raise SchemaViolation("frame before header", line_no)
            index = _require(record, "index", int, line_no)
            timestamp = _require(record, "timestamp", float, line_no)
            objects_raw = _require(record, "objects", list, line_no)
            states = tuple(_parse_object(o, line_no) for o in objects_raw)
            seen: set[str] = set()
            for state in states:
                if state.object_id in seen:
                    raise SchemaViolation(
                        f"object id {state.object_id!r} appears twice in frame {index}", line_no
                    )
                seen.add(state.object_id)
            if frames:
                last = frames[-1]
                if index <= last.index:
                    raise OrderingViolation(
                        f"frame index {index} after {last.index}; indices must strictly increase",
                        line_no,
                    )
                if timestamp < last.timestamp:
                    raise OrderingViolation(
                        f"timestamp {timestamp} before {last.timestamp}", line_no
                    )
            frame = Frame(index, timestamp, states)
            frames.append(frame)
            frame_lookup[index] = frame
        elif kind == "action":
            if scene_id is None:
                raise SchemaViolation("action before header", line_no)
            ann = ActionAnnotation(
                scene_id,
                _require(record, "frame", int, line_no),
                _require(record, "actor", str, line_no),
                _require(record, "action", str, line_no),
            )
            raw_annotations.append((ann, line_no))
        elif kind == "cause":
            if scene_id is None:
                raise SchemaViolation("cause before header", line_no)
            cause = CauseRecord(
                scene_id,
                _require(record, "frame", int, line_no),
                _require(record, "actor", str, line_no),
                _require(record, "cause", str, line_no),
            )
            raw_causes.append((cause, line_no))
        else:
            raise SchemaViolation(f"unknown record type {kind!r}", line_no)

    if scene_id is None:
        raise SchemaViolation("trace has no header", line_no or None)
    if not frames:
        raise SchemaViolation("trace has no frames")

    for ann, at_line in raw_annotations:
        frame = frame_lookup.get(ann.frame_index)
        if frame is None:
            raise DanglingAnnotation(f"action refers to missing frame {ann.frame_index}", at_line)
        if frame.get(ann.actor_id) is None:
            raise DanglingAnnotation(
                f"actor {ann.actor_id!r} is not present in frame {ann.frame_index}", at_line
            )
    for cause, at_line in raw_causes:
        frame = frame_lookup.get(cause.frame_index)
        if frame is None:
            raise DanglingAnnotation(f"cause refers to missing frame {cause.frame_index}", at_line)
        if frame.get(cause.actor_id) is None:
            raise DanglingAnnotation(
                f"actor {cause.actor_id!r} is not present in frame {cause.frame_index}", at_line
            )
        if cause.cause_id != NO_CAUSE and frame.get(cause.cause_id) is None:
            raise DanglingAnnotation(
                f"cause object {cause.cause_id!r} is not present in frame {cause.frame_index}",
                at_line,
            )

    scene = Scene(scene_id, tuple(frames))
    return scene, [a for a, _ in raw_annotations], [c for c, _ in raw_causes]


def serialize_scene(
    scene: Scene,
    annotations: Iterable[ActionAnnotation] = (),
    causes: Iterable[CauseRecord] = (),
) -> bytes:
    """Serialize back to JSON Lines. ``load_trace`` of the result is an
    exact inverse (floats survive via their shortest-repr decimal forms)."""
    out = [
        json.dumps(
            {"type": "header", "scene_id": scene.scene_id, "version": TRACE_VERSION},
            separators=(",", ":"),
        )
    ]
    for frame in scene.frames:
        record = {
            "type": "frame",
            "index": frame.index,
            "timestamp": frame.timestamp,
            "objects": [
                {
                    "id": s.object_id,
                    "class": s.obj_class,
                    "bbox": {
                        "x": [s.bbox.x.lo, s.bbox.x.hi],
                        "y": [s.bbox.y.lo, s.bbox.y.hi],
                    },
                }
                for s in frame.objects
            ],
        }
        out.append(json.dumps(record, separators=(",", ":")))
    for ann in annotations:
        out.append(
            json.dumps(
                {
                    "type": "action",
                    "frame": ann.frame_index,
                    "actor": ann.actor_id,
                    "action": ann.action,
                },
                separators=(",", ":"),
            )
        )
    for cause in causes:
        out.append(
            json.dumps(
                {
                    "type": "cause",
                    "frame": cause.frame_index,
                    "actor": cause.actor_id,
                    "cause": cause.cause_id,
                },
                separators=(",", ":"),
            )
        )
    return ("\n".join(out) + "\n").encode("utf-8")


def validate_scene(scene: Scene) -> list[Violation]:
    """Structural checks for scenes assembled in memory (the parser already
    enforces all of this for traces read from disk)."""
    violations: list[Violation] = []
    if not scene.frames:
        violations.append(Violation("frames", "scene has no frames"))
    prev: Frame | None = None
    for frame in scene.frames:
        if prev is not None:
            if frame.index <= prev.index:
                violations.append(
                    Violation(
                        "frame_order",
                        f"frame index {frame.index} follows {prev.index}",
                        frame_index=frame.index,
                    )
                )
            if frame.timestamp < prev.timestamp:
                violations.append(
                    Violation(
                        "timestamp_order",
                        f"timestamp {frame.timestamp} follows {prev.timestamp}",
                        frame_index=frame.index,
                    )
                )
        seen: set[str] = set()
        for state in frame.objects:
            if state.object_id in seen:
                violations.append(
                    Violation(
                        "duplicate_object",
                        f"object {state.object_id!r} appears twice",
                        frame_index=frame.index,
                        object_id=state.object_id,
                    )
                )
            seen.add(state.object_id)
        prev = frame
    return violations
