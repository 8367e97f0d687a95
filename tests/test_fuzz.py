"""Mutation fuzzing of every loader: each mutated input either loads or
raises the loader's own typed error, and does so quickly.

Each example starts from a valid input and applies one to three edits:
drop a key or list element, swap a value for one of another type,
truncate the bytes, or flip one bit.  Structural edits apply to the parsed
JSON (for traces, to one parsed line), byte edits to the serialized form.
"""

import json
import math
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qxg.builder import build, export_graph, import_graph
from qxg.cli import load_app_config
from qxg.defs import STOPPING_FOR_CROSSER, Hyperparams
from qxg.explainer import CorruptModel, VersionMismatch, build_dataset, model_from_json
from qxg.explainer import model_to_json, train
from qxg.calculi import BBox2D, Interval
from qxg.scene import ActionAnnotation, CauseRecord, DanglingAnnotation, Frame, MalformedLine
from qxg.scene import NO_CAUSE, ObjectState, Scene, SchemaViolation, TraceError, load_trace, serialize_scene
from qxg.scene import TRACE_VERSION, _check_order, _iter_lines, _require
from qxg.synthgen import ScenarioSpec, generate_dataset, generate_scene

FUZZ = settings(
    max_examples=200,
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.too_slow],
)

# a value of every JSON type, and the awkward numbers
SWAPS = [None, True, False, 0, -1, 7, 2.5, 1e308, 10**30, math.nan, math.inf, "", "x", [], [1], {}, {"a": 1}]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


def _edit(doc, data):
    """Drop or swap the value at one path of a parsed JSON document."""
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(st.sampled_from(SWAPS))
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(SWAPS))
    return doc


def _mutate(blob: bytes, data, lines: bool = False) -> bytes:
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["structure", "truncate", "flip"]))
        if op == "truncate":
            blob = blob[: data.draw(st.integers(0, max(0, len(blob) - 1)))]
        elif op == "flip" and blob:
            i = data.draw(st.integers(0, len(blob) - 1))
            blob = blob[:i] + bytes([blob[i] ^ (1 << data.draw(st.integers(0, 7)))]) + blob[i + 1 :]
        elif op == "structure":
            parts = blob.split(b"\n") if lines else [blob]
            k = data.draw(st.integers(0, len(parts) - 1))
            try:
                doc = json.loads(parts[k])
            except ValueError:
                continue
            parts[k] = json.dumps(_edit(doc, data)).encode("utf-8")
            blob = b"\n".join(parts)
    return blob


@pytest.fixture(scope="module")
def trace_blob():
    scene, annotation, truth = generate_scene(ScenarioSpec(STOPPING_FOR_CROSSER, seed=3, n_distractors=2))
    cause = CauseRecord(scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)
    return serialize_scene(scene, [annotation], [cause])


@pytest.fixture(scope="module")
def graph_blob(trace_blob):
    scene, _, _ = load_trace(trace_blob)
    return export_graph(build(scene))


@pytest.fixture(scope="module")
def model_blob():
    items = generate_dataset(2, master_seed=5)
    dataset = build_dataset([(scene, annotation) for scene, annotation, _ in items])
    return model_to_json(train(dataset, seed=1, hyperparams=Hyperparams(n_trees=2, max_depth=3)))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


CONFIG = {
    "calculi": {"qdc_band_edges": [1, 5, 15, 50], "qdc_band_names": ["a", "b", "c", "d", "e"], "qtc_epsilon": 0.05},
    "t": 5,
    "hyperparams": {"n_trees": 100, "max_depth": 10, "min_samples_leaf": 5, "balance": True},
    "seed": 42,
    "out": "model.json",
}


def test_seeds_are_valid(trace_blob, graph_blob, model_blob, config_path):
    load_trace(trace_blob)
    import_graph(graph_blob)
    model_from_json(model_blob)
    config_path.write_text(json.dumps(CONFIG))
    load_app_config(config_path)


@FUZZ
@given(data=st.data())
def test_trace_loader(trace_blob, data):
    blob = _mutate(trace_blob, data, lines=True)
    try:
        load_trace(blob)
    except TraceError:
        pass


# -- a per-object trace parser, the reference for load_trace ----------------
#
# Every box becomes an Interval pair, a BBox2D and an ObjectState, checked by
# their constructors, and each annotation is checked with Frame.get.  The field
# rules (_require) and the line splitting are qxg.scene's own.  load_trace
# parses boxes into float rows instead, and must agree with this on every
# input: the same scene, or the same error, message and line.


def _reference_interval(raw, axis, line_no):
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
    ):
        raise SchemaViolation(f"bbox {axis} must be a [lo, hi] number pair, got {raw!r}", line_no)
    try:
        return Interval(float(raw[0]), float(raw[1]))
    except (ValueError, OverflowError) as exc:
        raise SchemaViolation(f"bbox {axis}: {exc}", line_no) from None


def _reference_object(raw, line_no):
    if not isinstance(raw, dict):
        raise SchemaViolation(f"objects entries must be objects, got {raw!r}", line_no)
    object_id = _require(raw, "id", str, line_no)
    obj_class = _require(raw, "class", str, line_no)
    bbox = _require(raw, "bbox", dict, line_no)
    box = BBox2D(_reference_interval(bbox.get("x"), "x", line_no), _reference_interval(bbox.get("y"), "y", line_no))
    return ObjectState(object_id, obj_class, box)


def reference_load_trace(data):
    scene_id, frames, frame_lookup, annotations, causes = None, [], {}, [], []
    line_no = 0
    for line in _iter_lines(data):
        line_no += 1
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"not valid JSON ({exc.msg})", line_no) from None
        except (ValueError, RecursionError) as exc:
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
                raise SchemaViolation(f"unsupported trace version {version} (expected {TRACE_VERSION})", line_no)
            scene_id = _require(record, "scene_id", str, line_no)
        elif kind == "frame":
            if scene_id is None:
                raise SchemaViolation("frame before header", line_no)
            index = _require(record, "index", int, line_no)
            timestamp = _require(record, "timestamp", float, line_no)
            states = tuple(_reference_object(o, line_no) for o in _require(record, "objects", list, line_no))
            try:
                frame = Frame(index, timestamp, states)
                if frames:
                    _check_order(frames[-1], frame)
            except TraceError as exc:
                raise exc.at(line_no) from None
            frames.append(frame)
            frame_lookup[index] = frame
        elif kind in ("action", "cause"):
            if scene_id is None:
                raise SchemaViolation(f"{kind} before header", line_no)
            make, last = (ActionAnnotation, "action") if kind == "action" else (CauseRecord, "cause")
            fields = [_require(record, key, want, line_no) for key, want in (("frame", int), ("actor", str), (last, str))]
            (annotations if kind == "action" else causes).append((make(scene_id, *fields), line_no))
        else:
            raise SchemaViolation(f"unknown record type {kind!r}", line_no)
    if scene_id is None:
        raise SchemaViolation("trace has no header", line_no or None)
    scene = Scene(scene_id, tuple(frames))
    for kind, records in (("action", annotations), ("cause", causes)):
        for record, at_line in records:
            frame = frame_lookup.get(record.frame_index)
            if frame is None:
                raise DanglingAnnotation(f"{kind} refers to missing frame {record.frame_index}", at_line)
            if frame.get(record.actor_id) is None:
                raise DanglingAnnotation(
                    f"actor {record.actor_id!r} is not present in frame {record.frame_index}", at_line
                )
            if kind == "cause" and record.cause_id != NO_CAUSE and frame.get(record.cause_id) is None:
                raise DanglingAnnotation(
                    f"cause object {record.cause_id!r} is not present in frame {record.frame_index}", at_line
                )
    return scene, [a for a, _ in annotations], [c for c, _ in causes]


# box endpoints that reach each branch of the box checks: finite floats on
# either side of the trace's coordinates, signed zero, ints, an int past
# float range, non-finite numbers and non-numbers
ENDPOINTS = [-1e308, -2.5, -0.0, 0.0, 2.5, 1e308, 7, -(10**400), math.nan, -math.inf, True, False, None, "1"]


def _edit_endpoints(blob, data):
    """Set one to four box endpoints of the trace's frame lines."""
    lines = blob.split(b"\n")
    for _ in range(data.draw(st.integers(1, 4))):
        k = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[k]) if lines[k] else None
        if not (isinstance(doc, dict) and doc.get("objects")):
            continue
        box = data.draw(st.sampled_from(doc["objects"]))["bbox"]
        box[data.draw(st.sampled_from("xy"))][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(ENDPOINTS))
        lines[k] = json.dumps(doc).encode("utf-8")
    return b"\n".join(lines)


def _outcome(parse, blob):
    try:
        return parse(blob)
    except TraceError as exc:
        return type(exc), str(exc), exc.line_no


def test_reference_parser_reads_the_seed_trace(trace_blob):
    assert reference_load_trace(trace_blob) == load_trace(trace_blob)


@FUZZ
@given(data=st.data())
def test_trace_loader_agrees_with_per_object_reference(trace_blob, data):
    edit = data.draw(st.sampled_from([_edit_endpoints, lambda blob, data: _mutate(blob, data, lines=True)]))
    blob = edit(trace_blob, data)
    assert _outcome(load_trace, blob) == _outcome(reference_load_trace, blob)


@FUZZ
@given(data=st.data())
def test_graph_loader(graph_blob, data):
    blob = _mutate(graph_blob, data)
    try:
        import_graph(blob)
    except ValueError:
        pass


@FUZZ
@given(data=st.data())
def test_model_loader(model_blob, data):
    blob = _mutate(model_blob, data)
    try:
        model_from_json(blob)
    except (CorruptModel, VersionMismatch):
        pass


@FUZZ
@given(data=st.data())
def test_config_loader(config_path, data):
    config_path.write_bytes(_mutate(json.dumps(CONFIG).encode("utf-8"), data))
    try:
        load_app_config(config_path)
    except ValueError:
        pass


# in-memory field values: each valid value is swapped, one time in twelve,
# for an awkward one, so that most draws still build whole scenes
AWKWARD = [None, True, False, 2**64, 10**400, -(10**400), math.nan, math.inf, -math.inf, "", "7", b"x", 2.5]
COORDS = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))


def _maybe_awkward(data, value):
    return data.draw(st.sampled_from(AWKWARD)) if data.draw(st.integers(0, 11)) == 0 else value


def _draw_object(data):
    def interval():
        lo, hi = sorted((data.draw(COORDS), data.draw(COORDS)))
        return Interval(_maybe_awkward(data, lo), _maybe_awkward(data, hi))

    object_id = _maybe_awkward(data, data.draw(st.text(max_size=2)))
    obj_class = _maybe_awkward(data, data.draw(st.sampled_from(["car", "pedestrian"])))
    return ObjectState(object_id, obj_class, BBox2D(interval(), interval()))


@FUZZ
@given(data=st.data())
def test_in_memory_scene(data):
    """Any scene that can be built round-trips byte for byte; any other
    draw is refused with a TraceError or ValueError, never a bare
    TypeError, AttributeError or OverflowError."""
    index, timestamp = data.draw(st.integers(-3, 3)), data.draw(COORDS)
    try:
        frames = []
        for _ in range(data.draw(st.integers(0, 3))):
            objects = tuple(_draw_object(data) for _ in range(data.draw(st.integers(0, 3))))
            frames.append(Frame(_maybe_awkward(data, index), _maybe_awkward(data, timestamp), objects))
            index += data.draw(st.integers(1, 3))
            timestamp += data.draw(st.one_of(st.integers(0, 2), st.floats(0, 2)))
        scene = Scene(_maybe_awkward(data, data.draw(st.text(max_size=3))), tuple(frames))
    except ValueError:  # TraceError is one
        return
    blob = serialize_scene(scene)
    restored, _, _ = load_trace(blob)
    assert restored == scene
    assert serialize_scene(restored) == blob


def _load_config(blob, tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(blob)
    return load_app_config(path)


UNDECODABLE = {"deep-nesting": b"[" * 200_000, "5000-digit-int": b'{"seed": ' + b"9" * 5000 + b"}"}
LOADERS = {
    # the trace payload sits on line 2, after a valid header
    "trace": (lambda blob, _: load_trace(b'{"type":"header","scene_id":"s","version":1}\n' + blob),
              TraceError, "^line 2: not valid JSON"),
    "graph": (lambda blob, _: import_graph(blob), ValueError, "^not a serialized scene graph: "),
    "model": (lambda blob, _: model_from_json(blob), CorruptModel, "^model file is not JSON: "),
    "config": (_load_config, ValueError, "^config .*: not valid JSON"),
}


@pytest.mark.parametrize("payload", sorted(UNDECODABLE))
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_undecodable_json_is_a_typed_error(loader, payload, tmp_path):
    """Python's decoder raises RecursionError past its nesting depth and a
    bare ValueError past the int digit limit; both must become each
    loader's own error."""
    load, error, message = LOADERS[loader]
    with pytest.raises(error, match=message):
        load(UNDECODABLE[payload], tmp_path)


def test_invalid_utf8_trace_is_malformed_line(trace_blob):
    second = trace_blob.index(b"\n") + 1
    with pytest.raises(TraceError, match="line 2: not valid UTF-8"):
        load_trace(trace_blob[:second] + b"\xfb" + trace_blob[second:])


def test_model_faults_found_by_fuzzing(model_blob):
    with pytest.raises(CorruptModel, match="not UTF-8"):
        model_from_json(b"\xfb" + model_blob)
    payload = json.loads(model_blob)
    payload["actions"] = None
    with pytest.raises(CorruptModel, match='"actions" must be a JSON object'):
        model_from_json(json.dumps(payload))
