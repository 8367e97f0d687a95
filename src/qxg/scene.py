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

``Frame`` and ``Scene`` check the trace rules when they are constructed, so a
scene built in memory obeys the rules a trace on disk does, and
``serialize_scene`` can write any ``Scene``.  They raise ``SchemaViolation``
(a mistyped field, an index outside signed 64-bit range, a non-finite
timestamp, an id twice in one frame, no frames) or ``OrderingViolation``
(frame indices not strictly increasing, timestamps decreasing);
``load_trace`` raises the same errors with the line number added.

Every ``Frame`` holds its objects as columns: a tuple of ids, a tuple of
classes, and one ``array('d')`` holding each box as ``x.lo, x.hi, y.lo,
y.hi`` (32 bytes a box, where a tuple of four floats takes 168).
``load_trace``, ``synthgen`` and ``bench`` write frames straight into
columns, building no ``ObjectState``; ``Frame`` checks and packs a tuple of
``ObjectState`` values once.  ``Frame.rows`` reads the columns, and each
read of ``frame.objects`` builds a new tuple and keeps nothing, so a frame
equals, hashes, prints, pickles and copies alike whatever built it.
"""

from __future__ import annotations

import io
import json
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Union

from .calculi import BBox2D, Interval, Point2D, shown

__all__ = [
    "NO_CAUSE",
    "ObjectState",
    "Frame",
    "Scene",
    "ActionAnnotation",
    "CauseRecord",
    "TraceError",
    "MalformedLine",
    "SchemaViolation",
    "OrderingViolation",
    "DanglingAnnotation",
    "MAX_OBJECTS_PER_FRAME",
    "load_trace",
    "serialize_scene",
    "split_rule",
    "split_scenes",
]

NO_CAUSE = "none"

TRACE_VERSION = 1

# every integer field of a trace (a frame index, an annotation's frame, the
# version) is a signed 64-bit integer, as other readers of the format hold it
_INT64 = range(-(2**63), 2**63)

_FLOAT_MAX = sys.float_info.max

# a packed box: x.lo, x.hi, y.lo, y.hi as native doubles, as array('d') holds them
_BOX = struct.Struct("=4d")

# Every pair in a frame gets a relation, so cost grows with the square of a
# frame's objects.  ``qxg build --out /dev/null`` of a ``bench.crowd_frames``
# trace of K objects, 1 frame | 5 frames, with 2-byte codes (shared 2-vCPU
# VM, Python 3.11.7; wall time over two to five runs, the child's peak RSS
# from ``os.wait4``, launched from a 14 MB process):
#   K=160  0.2-0.3 s, 22 MB | 0.3-0.5 s, 27 MB
#   K=320  0.5-0.7 s, 36 MB | 1.0-1.3 s, 56 MB
#   K=640  1.8-2.4 s, 98 MB | 3.0-3.8 s, 175 MB
#   K=1000 3.8-4.9 s, 217 MB | 8.4-10.2 s, 399 MB
# The bound admits the largest ``qxg bench`` crowd (640) and keeps a frame
# under 0.25 GB; each further frame of a full crowd adds about 46 MB.
MAX_OBJECTS_PER_FRAME = 1000


class TraceError(ValueError):
    """Base class for everything the trace parser can complain about."""

    def __init__(self, message: str, line_no: int | None = None, source: str | None = None):
        self.message = message
        self.line_no = line_no
        self.source = source
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)

    def at(self, line_no: int) -> "TraceError":
        """The same fault, reported at trace line ``line_no``."""
        return type(self)(self.message, line_no, self.source)

    def in_file(self, source) -> "TraceError":
        """The same fault, reported in the trace file ``source``."""
        return type(self)(self.message, self.line_no, str(source))


class MalformedLine(TraceError):
    """A line that is not a JSON object at all."""


class SchemaViolation(TraceError):
    """A structurally valid JSON line with missing or ill-typed fields."""


class OrderingViolation(TraceError):
    """Frame indices not strictly increasing or timestamps decreasing."""


class DanglingAnnotation(TraceError):
    """An annotation that points at a frame or object the trace never had."""


@dataclass(frozen=True, slots=True)
class ObjectState:
    object_id: str
    obj_class: str
    bbox: BBox2D

    @property
    def center(self) -> Point2D:
        return self.bbox.center


def _typed(key: str, value, kind):
    """``value`` if it has the type the trace format gives field ``key``,
    else ``SchemaViolation``.  An int field takes a signed 64-bit int; a
    float field takes a finite int or float and returns it as a float."""
    # bool is an int subclass; a frame index of `true` should not slip through
    if kind is int and isinstance(value, bool):
        raise SchemaViolation(f"field {key!r} must be an integer, got {value!r}")
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaViolation(f"field {key!r} must be a number, got {shown(value)}")
        # NaN, ±Infinity or an int past float range; NaN would pass every order check
        if not abs(value) <= _FLOAT_MAX:
            raise SchemaViolation(f"field {key!r} must be a finite number, got {shown(value)}")
        return float(value)
    if not isinstance(value, kind):
        raise SchemaViolation(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if kind is int and value not in _INT64:
        raise SchemaViolation(f"field {key!r} must be a signed 64-bit integer, got {shown(value)}")
    return value


class _Columns:
    """A frame's objects as columns: the ids and the classes as tuples, and
    the boxes packed into one array of doubles, ``x.lo, x.hi, y.lo, y.hi``
    each.  Every ``Frame`` holds its objects this way, whatever built it."""

    __slots__ = ("ids", "classes", "boxes")

    def __init__(self, ids: Iterable[str], classes: Iterable[str], boxes):
        self.ids = tuple(ids)
        self.classes = tuple(classes)
        self.boxes = array("d", boxes)

    @classmethod
    def pack(cls, objects) -> "_Columns":
        """A tuple of ``ObjectState`` values as columns, packed once; any
        other value is a ``SchemaViolation``."""
        if type(objects) is not tuple:
            _typed("objects", objects, tuple)
        ids, classes, boxes = [], [], []
        for state in objects:
            if type(state) is not ObjectState:
                raise SchemaViolation(f"objects entries must be ObjectState, got {shown(state)}")
            if type(state.object_id) is not str:
                _typed("id", state.object_id, str)
            if type(state.obj_class) is not str:
                _typed("class", state.obj_class, str)
            box = state.bbox
            if not (type(box) is BBox2D and type(box.x) is type(box.y) is Interval):
                raise SchemaViolation(
                    f"object {state.object_id!r} bbox must be a BBox2D of two Intervals, "
                    f"got {shown(box)}"
                )
            ids.append(state.object_id)
            classes.append(state.obj_class)
            boxes += (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
        return cls(ids, classes, boxes)

    def rows(self) -> Iterable[tuple[str, str, tuple[float, float, float, float]]]:
        return zip(self.ids, self.classes, _BOX.iter_unpack(self.boxes))


@dataclass(frozen=True, slots=True)
class Frame:
    index: int
    timestamp: float
    objects: tuple[ObjectState, ...]  # held as _Columns; each read builds a new tuple

    def __post_init__(self) -> None:
        # the type() tests are fast paths; _typed states each rule
        if type(self.index) is not int or self.index not in _INT64:
            _typed("index", self.index, int)
        if type(self.timestamp) is not float or not abs(self.timestamp) <= _FLOAT_MAX:
            object.__setattr__(self, "timestamp", _typed("timestamp", self.timestamp, float))
        ids = _objects_slot.__get__(self).ids
        if len(ids) > MAX_OBJECTS_PER_FRAME:
            raise SchemaViolation(
                f"at most {MAX_OBJECTS_PER_FRAME} objects per frame, got {len(ids)} in frame {self.index}"
            )
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for object_id in ids:
                if object_id in seen:
                    raise SchemaViolation(
                        f"object id {object_id!r} appears twice in frame {self.index}"
                    )
                seen.add(object_id)

    def rows(self) -> Iterable[tuple[str, str, tuple[float, float, float, float]]]:
        """Each object as ``(id, class, (x.lo, x.hi, y.lo, y.hi))``, in
        frame order, read from the frame's columns: no ``ObjectState`` is
        built."""
        return _objects_slot.__get__(self).rows()

    def get(self, object_id: str) -> ObjectState | None:
        for state in self.objects:
            if state.object_id == object_id:
                return state
        return None


# The slot the dataclass made for ``objects`` holds the frame's _Columns.  The
# property that takes its place on the class packs every value set there (by
# the constructor, ``dataclasses.replace`` or unpickling), and builds a new
# tuple of ObjectStates on every read (by callers, ``==``, ``hash``, ``repr``
# or pickling), keeping nothing.
_objects_slot = Frame.objects


def _set_objects(frame: Frame, objects) -> None:
    _objects_slot.__set__(frame, objects if type(objects) is _Columns else _Columns.pack(objects))


def _read_objects(frame: Frame) -> tuple[ObjectState, ...]:
    return tuple(
        ObjectState(object_id, obj_class, BBox2D(Interval(xl, xh), Interval(yl, yh)))
        for object_id, obj_class, (xl, xh, yl, yh) in frame.rows()
    )


Frame.objects = property(_read_objects, _set_objects)


def _check_order(last: Frame, frame: Frame) -> None:
    """``frame`` may follow ``last``: a larger index, no earlier timestamp."""
    if frame.index <= last.index:
        raise OrderingViolation(
            f"frame index {frame.index} after {last.index}; indices must strictly increase"
        )
    if frame.timestamp < last.timestamp:
        raise OrderingViolation(f"timestamp {frame.timestamp} before {last.timestamp}")


@dataclass(frozen=True)
class Scene:
    scene_id: str
    frames: tuple[Frame, ...]

    def __post_init__(self) -> None:
        _typed("scene_id", self.scene_id, str)
        frames = _typed("frames", self.frames, tuple)
        if not frames:
            raise SchemaViolation("trace has no frames")
        for frame in frames:
            if type(frame) is not Frame:
                raise SchemaViolation(f"frames entries must be Frame, got {shown(frame)}")
        for last, frame in zip(frames, frames[1:]):
            _check_order(last, frame)

    def frame_at(self, index: int) -> Frame | None:
        for fr in self.frames:
            if fr.index == index:
                return fr
        return None


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


# Each annotation kind: the record a line of that kind makes, and the field
# that the line's last key, the kind's own name, fills.  Both kinds share the
# "frame" and "actor" keys.
_ANNOTATIONS = {"action": (ActionAnnotation, "action"), "cause": (CauseRecord, "cause_id")}
# a tuple, not the dict: `in` then tests by equality, and a JSON list or
# object as "type" is an unknown type, not a TypeError from hashing it
_RECORD_KINDS = ("frame", *_ANNOTATIONS)


def _require(record: dict, key: str, kind, line_no: int):
    if key not in record:
        raise SchemaViolation(f"missing field {key!r}", line_no)
    try:
        return _typed(key, record[key], kind)
    except SchemaViolation as exc:
        raise exc.at(line_no) from None


def _parse_interval(raw, axis: str, line_no: int) -> Interval:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
    ):
        raise SchemaViolation(f"bbox {axis} must be a [lo, hi] number pair, got {raw!r}", line_no)
    try:
        return Interval(float(raw[0]), float(raw[1]))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise SchemaViolation(f"bbox {axis}: {exc}", line_no) from None


def _parse_object(raw, line_no: int) -> tuple[str, str, tuple[float, float, float, float]]:
    """One ``objects`` entry as ``(id, class, box row)``, each rule checked
    and stated; ``load_trace`` comes here for what its fast path refuses."""
    if not isinstance(raw, dict):
        raise SchemaViolation(f"objects entries must be objects, got {raw!r}", line_no)
    object_id = _require(raw, "id", str, line_no)
    obj_class = _require(raw, "class", str, line_no)
    bbox = _require(raw, "bbox", dict, line_no)
    x = _parse_interval(bbox.get("x"), "x", line_no)
    y = _parse_interval(bbox.get("y"), "y", line_no)
    return object_id, obj_class, (x.lo, x.hi, y.lo, y.hi)


def _parse_annotation(kind: str, record: dict, scene_id: str, line_no: int | None):
    """The ``kind`` annotation that trace line ``record`` states, each field
    typed; ``serialize_scene`` reads the lines it writes through this too."""
    record_type, _ = _ANNOTATIONS[kind]
    keys = (("frame", int), ("actor", str), (kind, str))
    return record_type(scene_id, *(_require(record, key, want, line_no) for key, want in keys))


def _check_references(kind: str, annotation, frame: Frame | None) -> None:
    """``DanglingAnnotation`` unless ``frame``, the scene's frame at
    ``annotation.frame_index``, exists and holds the actor and any cause
    object that ``annotation`` names."""
    if frame is None:
        raise DanglingAnnotation(f"{kind} refers to missing frame {annotation.frame_index}")
    ids = [object_id for object_id, _, _ in frame.rows()]
    if annotation.actor_id not in ids:
        raise DanglingAnnotation(
            f"actor {annotation.actor_id!r} is not present in frame {annotation.frame_index}"
        )
    if kind == "cause" and annotation.cause_id != NO_CAUSE and annotation.cause_id not in ids:
        raise DanglingAnnotation(
            f"cause object {annotation.cause_id!r} is not present in frame {annotation.frame_index}"
        )


TraceInput = Union[str, bytes, IO]


def _iter_lines(data: TraceInput) -> Iterable[str]:
    try:
        if not isinstance(data, (str, bytes)):
            data = data.read()  # a text or binary stream: split as the str or bytes it holds
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes being decoded, from this decode or a text stream's read;
        # count the breaks the split below makes: \n, \r\n and a lone \r
        head = exc.object[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedLine(f"not valid UTF-8 ({exc.reason})", line_no) from None
    # split as a text file does, at \n, \r\n or a lone \r: JSON strings
    # may hold U+2028, U+2029 or U+0085 raw, and str.splitlines cuts there
    return (line.rstrip("\n") for line in io.StringIO(data, newline=None))


def load_trace(data: TraceInput) -> tuple[Scene, list[ActionAnnotation], list[CauseRecord]]:
    """Parse one trace, validating as it goes.

    Raises MalformedLine / SchemaViolation / OrderingViolation /
    DanglingAnnotation, all carrying the offending 1-based line number.
    """
    scene_id: str | None = None
    frames: list[Frame] = []
    frames_at: dict[int, Frame] = {}
    annotations: dict[str, list] = {kind: [] for kind in _ANNOTATIONS}  # (record, line)
    # one str object per distinct id or class in the trace, not one per box
    shared = {}.setdefault

    line_no = 0
    for line in _iter_lines(data):
        line_no += 1
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"not valid JSON ({exc.msg})", line_no) from None
        except (ValueError, RecursionError) as exc:  # nested too deep, too many int digits
            raise MalformedLine(f"not valid JSON ({exc})", line_no) from None
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
        elif kind not in _RECORD_KINDS:
            raise SchemaViolation(f"unknown record type {kind!r}", line_no)
        elif scene_id is None:
            raise SchemaViolation(f"{kind} before header", line_no)
        elif kind == "frame":
            index = _require(record, "index", int, line_no)
            timestamp = _require(record, "timestamp", float, line_no)
            ids: list[str] = []
            classes: list[str] = []
            boxes: list[float] = []
            for raw in _require(record, "objects", list, line_no):
                # the fast path: string id and class, a box of four finite
                # in-order floats; _parse_object states every rule
                try:
                    object_id, obj_class, bbox = raw["id"], raw["class"], raw["bbox"]
                    (xl, xh), (yl, yh) = bbox["x"], bbox["y"]
                    fast = (
                        type(object_id) is str
                        and type(obj_class) is str
                        and type(xl) is type(xh) is type(yl) is type(yh) is float
                        and -_FLOAT_MAX <= xl <= xh <= _FLOAT_MAX
                        and -_FLOAT_MAX <= yl <= yh <= _FLOAT_MAX
                    )
                except (KeyError, TypeError, ValueError):  # not a dict, a key missing, not a pair
                    fast = False
                if not fast:
                    object_id, obj_class, (xl, xh, yl, yh) = _parse_object(raw, line_no)
                ids.append(shared(object_id, object_id))
                classes.append(shared(obj_class, obj_class))
                boxes += (xl, xh, yl, yh)
            try:
                frame = Frame(index, timestamp, _Columns(ids, classes, boxes))
                if frames:
                    _check_order(frames[-1], frame)
            except TraceError as exc:
                raise exc.at(line_no) from None
            frames.append(frame)
            frames_at[index] = frame
        else:
            annotations[kind].append((_parse_annotation(kind, record, scene_id, line_no), line_no))

    if scene_id is None:
        raise SchemaViolation("trace has no header", line_no or None)
    scene = Scene(scene_id, tuple(frames))  # refuses a trace with no frames

    for kind, records in annotations.items():
        for record, at_line in records:
            try:
                _check_references(kind, record, frames_at.get(record.frame_index))
            except TraceError as exc:
                raise exc.at(at_line) from None

    actions, causes = ([record for record, _ in records] for records in annotations.values())
    return scene, actions, causes


def serialize_scene(
    scene: Scene,
    annotations: Iterable[ActionAnnotation] = (),
    causes: Iterable[CauseRecord] = (),
) -> bytes:
    """Serialize back to JSON Lines. ``load_trace`` of the result is an
    exact inverse (floats survive via their shortest-repr decimal forms).
    An annotation that ``load_trace`` would refuse, or that belongs to
    another scene, raises the same ``TraceError``, with no line number; a
    record of the wrong kind is a ``SchemaViolation``."""
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
                {"id": object_id, "class": obj_class, "bbox": {"x": [xl, xh], "y": [yl, yh]}}
                for object_id, obj_class, (xl, xh, yl, yh) in frame.rows()
            ],
        }
        out.append(json.dumps(record, separators=(",", ":")))
    frames_at = {frame.index: frame for frame in scene.frames}
    for kind, records in zip(_ANNOTATIONS, (annotations, causes)):
        record_type, field = _ANNOTATIONS[kind]
        for annotation in records:
            if type(annotation) is not record_type:
                raise SchemaViolation(
                    f"{kind} records must be {record_type.__name__}, got {shown(annotation)}"
                )
            if annotation.scene_id != scene.scene_id:
                raise SchemaViolation(
                    f"{kind} belongs to scene {shown(annotation.scene_id)}, not {scene.scene_id!r}"
                )
            record = {
                "type": kind,
                "frame": annotation.frame_index,
                "actor": annotation.actor_id,
                kind: getattr(annotation, field),
            }
            # load_trace's field checks, then its reference check
            parsed = _parse_annotation(kind, record, scene.scene_id, None)
            _check_references(kind, parsed, frames_at.get(parsed.frame_index))
            out.append(json.dumps(record, separators=(",", ":")))
    return ("\n".join(out) + "\n").encode("utf-8")


def split_rule(train_fraction: float = 0.7) -> Callable[[str], bool]:
    """Whether a scene id falls on the train side of the stable hash split
    that keeps a ``train_fraction`` share of ids: membership depends only
    on the id, so regenerating or reordering a corpus never moves a scene
    across the boundary."""
    import hashlib  # about 4 ms of OpenSSL start-up that only ``eval --split`` needs

    # bool is an int subclass; True would split as 1.0
    if (
        isinstance(train_fraction, bool)
        or not isinstance(train_fraction, (int, float))
        or not 0.0 <= train_fraction <= 1.0
    ):
        raise ValueError(f"train_fraction must be a number within [0, 1], got {shown(train_fraction)}")

    def in_train(scene_id: str) -> bool:
        digest = hashlib.sha256(scene_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < train_fraction

    return in_train


def split_scenes(items: Iterable, train_fraction: float = 0.7):
    """``(train, test)``: the ``(scene, ...)`` items split by
    :func:`split_rule` on their scene ids."""
    in_train = split_rule(train_fraction)
    train, test = [], []
    for item in items:
        (train if in_train(item[0].scene_id) else test).append(item)
    return train, test
