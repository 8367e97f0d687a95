"""Trace parsing, serialization, and validation."""

import copy
import dataclasses
import io
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxg.builder import build, export_graph
from qxg.calculi import BBox2D, Interval
from qxg.scene import (
    NO_CAUSE,
    ActionAnnotation,
    CauseRecord,
    DanglingAnnotation,
    Frame,
    MalformedLine,
    ObjectState,
    OrderingViolation,
    Scene,
    SchemaViolation,
    TraceError,
    load_trace,
    serialize_scene,
)

HEADER = '{"type":"header","scene_id":"s0","version":1}'


def _frame_line(index, timestamp, objects):
    return json.dumps(
        {"type": "frame", "index": index, "timestamp": timestamp, "objects": objects}
    )


def _obj(oid, cls="car", x=(0, 1), y=(0, 1)):
    return {"id": oid, "class": cls, "bbox": {"x": list(x), "y": list(y)}}


def _trace(*lines):
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_minimal_trace(self):
        scene, annotations, _ = load_trace(_trace(HEADER, _frame_line(0, 0.0, [_obj("ego")])))
        assert scene.scene_id == "s0"
        assert len(scene.frames) == 1
        assert annotations == []
        state = scene.frames[0].objects[0]
        assert state.object_id == "ego"
        assert state.obj_class == "car"
        assert state.bbox == BBox2D(Interval(0, 1), Interval(0, 1))

    def test_accepts_bytes_and_file_objects(self, tmp_path):
        raw = _trace(HEADER, _frame_line(0, 0.0, [_obj("ego")]))
        scene_from_bytes, _, _ = load_trace(raw.encode())
        path = tmp_path / "trace.jsonl"
        path.write_text(raw)
        with open(path) as fh:
            scene_from_file, _, _ = load_trace(fh)
        assert scene_from_bytes == scene_from_file

    def test_actions_and_causes(self):
        scene, annotations, causes = load_trace(
            _trace(
                HEADER,
                _frame_line(0, 0.0, [_obj("ego"), _obj("ped", cls="pedestrian")]),
                '{"type":"action","frame":0,"actor":"ego","action":"Stopping"}',
                '{"type":"cause","frame":0,"actor":"ego","cause":"ped"}',
            )
        )
        assert annotations == [ActionAnnotation("s0", 0, "ego", "Stopping")]
        assert causes == [CauseRecord("s0", 0, "ego", "ped")]
        assert scene.frame_at(0).get("ped").obj_class == "pedestrian"

    def test_cause_may_be_the_none_sentinel(self):
        _, _, causes = load_trace(
            _trace(
                HEADER,
                _frame_line(0, 0.0, [_obj("ego")]),
                '{"type":"action","frame":0,"actor":"ego","action":"Cruising"}',
                '{"type":"cause","frame":0,"actor":"ego","cause":"none"}',
            )
        )
        assert causes[0].cause_id == NO_CAUSE

    def test_annotations_may_precede_their_frame(self):
        # JSON Lines appenders sometimes flush annotations early; order of
        # non-frame records is not significant.
        _, annotations, _ = load_trace(
            _trace(
                HEADER,
                '{"type":"action","frame":1,"actor":"ego","action":"Stopping"}',
                _frame_line(0, 0.0, [_obj("ego")]),
                _frame_line(1, 0.5, [_obj("ego")]),
            )
        )
        assert annotations[0].frame_index == 1

    def test_blank_lines_ignored(self):
        scene, _, _ = load_trace(_trace(HEADER, "", _frame_line(0, 0.0, [_obj("ego")]), "   "))
        assert len(scene.frames) == 1

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
    def test_line_endings(self, sep):
        lines = (HEADER, _frame_line(0, 0.0, [_obj("ego")]), _frame_line(1, 0.5, [_obj("ego")]))
        text = sep.join(lines) + sep
        for data in (text, text.encode()):
            scene, _, _ = load_trace(data)
            assert [f.index for f in scene.frames] == [0, 1]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_breaks_inside_strings(self, char):
        # valid JSON: only control characters below U+0020 must be escaped
        header = json.dumps(
            {"type": "header", "scene_id": f"a{char}b", "version": 1}, ensure_ascii=False
        )
        text = _trace(header, _frame_line(0, 0.0, [_obj(f"ego{char}")]))
        for data in (text, text.encode()):
            scene, _, _ = load_trace(data)
            assert scene.scene_id == f"a{char}b"
            assert scene.frames[0].objects[0].object_id == f"ego{char}"


class TestMalformedLines:
    @pytest.mark.parametrize("bad", ["{not json", '"just a string"', "[1,2,3]", "42"])
    def test_non_object_lines(self, bad):
        with pytest.raises(MalformedLine) as err:
            load_trace(_trace(HEADER, bad))
        assert err.value.line_no == 2

    def test_line_number_is_reported(self):
        with pytest.raises(MalformedLine, match="line 3"):
            load_trace(_trace(HEADER, _frame_line(0, 0.0, []), "oops"))

    @pytest.mark.parametrize("seps", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\r\n", "\r")])
    def test_invalid_utf8_line_number_counts_every_line_break(self, seps):
        # the bad byte opens line 3 whichever breaks end lines 1 and 2
        head = HEADER + seps[0] + _frame_line(0, 0.0, [_obj("ego")]) + seps[1]
        blob = head.encode() + b"\xfb" + _frame_line(1, 0.5, [_obj("ego")]).encode() + b"\n"
        with pytest.raises(MalformedLine, match="not valid UTF-8") as err:
            load_trace(blob)
        assert err.value.line_no == 3


class TestSchemaViolations:
    def test_missing_header(self):
        with pytest.raises(SchemaViolation, match="before header"):
            load_trace(_trace(_frame_line(0, 0.0, [])))

    def test_empty_input(self):
        with pytest.raises(SchemaViolation, match="no header"):
            load_trace("")

    def test_header_only(self):
        with pytest.raises(SchemaViolation, match="no frames"):
            load_trace(_trace(HEADER))

    def test_duplicate_header(self):
        with pytest.raises(SchemaViolation, match="duplicate header"):
            load_trace(_trace(HEADER, HEADER))

    def test_wrong_version(self):
        with pytest.raises(SchemaViolation, match="version"):
            load_trace(_trace('{"type":"header","scene_id":"s0","version":2}'))

    def test_unknown_record_type(self):
        with pytest.raises(SchemaViolation, match="unknown record type"):
            load_trace(_trace(HEADER, '{"type":"telemetry"}'))

    @pytest.mark.parametrize("kind", [["action"], {"cause": 1}], ids=["list", "object"])
    def test_unhashable_record_type_is_unknown(self, kind):
        with pytest.raises(SchemaViolation) as refused:
            load_trace(_trace(HEADER, json.dumps({"type": kind})))
        assert str(refused.value) == f"line 2: unknown record type {kind!r}"

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda o: o.pop("id"),
            lambda o: o.update(id=7),
            lambda o: o.pop("bbox"),
            lambda o: o["bbox"].update(x=[1]),
            lambda o: o["bbox"].update(x=[2, 1]),  # lo > hi
            lambda o: o["bbox"].update(y=["a", "b"]),
            lambda o: o["bbox"].update(x=[True, True]),
            lambda o: o["bbox"].update(x=[0, 10**400]),  # past float range
        ],
    )
    def test_bad_object_payloads(self, mangle):
        obj = _obj("ego")
        mangle(obj)
        with pytest.raises(SchemaViolation):
            load_trace(_trace(HEADER, _frame_line(0, 0.0, [obj])))

    def test_boolean_frame_index_rejected(self):
        with pytest.raises(SchemaViolation, match="integer"):
            load_trace(_trace(HEADER, _frame_line(True, 0.0, [])))

    def test_duplicate_object_in_frame(self):
        with pytest.raises(SchemaViolation, match="appears twice"):
            load_trace(_trace(HEADER, _frame_line(0, 0.0, [_obj("ego"), _obj("ego")])))


class TestOrderingViolations:
    def test_repeated_frame_index(self):
        with pytest.raises(OrderingViolation):
            load_trace(_trace(HEADER, _frame_line(0, 0.0, []), _frame_line(0, 0.5, [])))

    def test_decreasing_frame_index(self):
        with pytest.raises(OrderingViolation, match="strictly increase"):
            load_trace(_trace(HEADER, _frame_line(5, 0.0, []), _frame_line(3, 0.5, [])))

    def test_decreasing_timestamp(self):
        with pytest.raises(OrderingViolation, match="timestamp"):
            load_trace(_trace(HEADER, _frame_line(0, 1.0, []), _frame_line(1, 0.5, [])))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_non_finite_timestamp_rejected(self, value):
        # json writes NaN, Infinity, -Infinity; every comparison with NaN is
        # false, so 5.0, NaN, 1.0 used to pass the order check
        frames = [_frame_line(i, ts, []) for i, ts in enumerate((5.0, value, 1.0))]
        message = f"^line 3: field 'timestamp' must be a finite number, got {value}$"
        with pytest.raises(SchemaViolation, match=message):
            load_trace(_trace(HEADER, *frames))

    def test_gap_in_indices_is_fine(self):
        scene, _, _ = load_trace(_trace(HEADER, _frame_line(0, 0.0, []), _frame_line(7, 3.5, [])))
        assert [f.index for f in scene.frames] == [0, 7]


class TestDanglingAnnotations:
    def test_action_on_missing_frame(self):
        with pytest.raises(DanglingAnnotation, match="missing frame"):
            load_trace(
                _trace(
                    HEADER,
                    _frame_line(0, 0.0, [_obj("ego")]),
                    '{"type":"action","frame":9,"actor":"ego","action":"Stopping"}',
                )
            )

    def test_action_by_absent_actor(self):
        with pytest.raises(DanglingAnnotation, match="not present"):
            load_trace(
                _trace(
                    HEADER,
                    _frame_line(0, 0.0, [_obj("ego")]),
                    '{"type":"action","frame":0,"actor":"ghost","action":"Stopping"}',
                )
            )

    def test_cause_naming_absent_object(self):
        with pytest.raises(DanglingAnnotation, match="cause object"):
            load_trace(
                _trace(
                    HEADER,
                    _frame_line(0, 0.0, [_obj("ego")]),
                    '{"type":"cause","frame":0,"actor":"ego","cause":"ghost"}',
                )
            )


# -- round trips --------------------------------------------------------------

_ids = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def _bboxes(draw):
    x1, x2 = sorted((draw(_coords), draw(_coords)))
    y1, y2 = sorted((draw(_coords), draw(_coords)))
    return BBox2D(Interval(x1, x2), Interval(y1, y2))


@st.composite
def scenes(draw):
    n_frames = draw(st.integers(1, 5))
    indices = draw(
        st.lists(st.integers(0, 40), min_size=n_frames, max_size=n_frames, unique=True)
    )
    indices.sort()
    stamps = sorted(
        draw(st.lists(st.floats(0, 100, allow_nan=False), min_size=n_frames, max_size=n_frames))
    )
    frames = []
    for idx, ts in zip(indices, stamps):
        ids = draw(st.lists(_ids, max_size=3, unique=True))
        frames.append(
            Frame(
                idx,
                ts,
                tuple(ObjectState(i, draw(st.sampled_from(["car", "pedestrian", "cyclist"])), draw(_bboxes())) for i in ids),
            )
        )
    return Scene(draw(_ids), tuple(frames))


@given(scenes())
@settings(max_examples=60)
def test_serialize_parse_round_trip(scene):
    restored, annotations, _ = load_trace(serialize_scene(scene))
    assert restored == scene
    assert annotations == []


@given(scenes(), st.data())
def test_round_trip_keeps_annotations(scene, data):
    actors = [
        (fr.index, s.object_id) for fr in scene.frames for s in fr.objects
    ]
    if not actors:
        frame_index, actor = scene.frames[0].index, None
        annotations, causes = [], []
    else:
        frame_index, actor = data.draw(st.sampled_from(actors))
        annotations = [ActionAnnotation(scene.scene_id, frame_index, actor, "Stopping")]
        causes = [CauseRecord(scene.scene_id, frame_index, actor, NO_CAUSE)]
    blob = serialize_scene(scene, annotations, causes)
    restored, got_annotations, got_causes = load_trace(blob)
    assert restored == scene
    assert got_annotations == annotations
    assert got_causes == causes


# serialize_scene refuses an annotation that load_trace would refuse, with
# load_trace's type and message but no line number, so every trace it writes
# reads back


def _annotation_line(kind, record):
    """The line the writer gives ``record``, written here without its checks."""
    last = record.action if kind == "action" else record.cause_id
    return json.dumps(
        {"type": kind, "frame": record.frame_index, "actor": record.actor_id, kind: last},
        separators=(",", ":"),
    )


@pytest.mark.parametrize(
    "kind, record, error, message",
    [
        ("action", ActionAnnotation("s", 99, "ego", "Stopping"), DanglingAnnotation,
         "action refers to missing frame 99"),
        ("action", ActionAnnotation("s", "8", "ego", "Stopping"), SchemaViolation,
         "field 'frame' must be int, got str"),
        ("cause", CauseRecord("s", 8, "ghost", NO_CAUSE), DanglingAnnotation,
         "actor 'ghost' is not present in frame 8"),
        ("action", ActionAnnotation("other", 8, "ego", "Stopping"), SchemaViolation,
         "action belongs to scene 'other', not 's'"),
    ],
    ids=["missing-frame", "str-frame-index", "absent-actor", "foreign-scene"],
)
def test_serialize_refuses_what_load_trace_refuses(kind, record, error, message):
    scene = Scene("s", (_plain_frame(8, ids=("ego", "ped")),))
    records = ([record], []) if kind == "action" else ([], [record])
    with pytest.raises(error) as refused:
        serialize_scene(scene, *records)
    assert (str(refused.value), refused.value.line_no) == (message, None)
    if record.scene_id == scene.scene_id:
        written = serialize_scene(scene) + _annotation_line(kind, record).encode() + b"\n"
        with pytest.raises(error) as loaded:
            load_trace(written)
        assert loaded.value.message == message


@pytest.mark.parametrize("kind", ["action", "cause"])
def test_serialize_refuses_a_record_of_the_other_kind(kind):
    scene = Scene("s", (_plain_frame(8, ids=("ego", "ped")),))
    if kind == "action":
        records, expected = ([CauseRecord("s", 8, "ego", "ped")], []), "ActionAnnotation"
    else:
        records, expected = ([], [ActionAnnotation("s", 8, "ego", "Stopping")]), "CauseRecord"
    with pytest.raises(SchemaViolation, match=rf"^{kind} records must be {expected}, got "):
        serialize_scene(scene, *records)


_AWKWARD = [None, True, 2**64, "8", 3, "ghost", 99, "zz"]


@given(scenes(), st.data())
@settings(max_examples=80)
def test_serialize_raises_or_writes_what_loads_back(scene, data):
    ids = [s.object_id for fr in scene.frames for s in fr.objects] or ["ego"]

    def field(*valid):
        # one field in four is awkward, so that most draws still load
        return data.draw(st.sampled_from(_AWKWARD if data.draw(st.integers(0, 3)) == 0 else valid))

    def draw(make, *last):
        return [
            make(field(scene.scene_id), field(*[fr.index for fr in scene.frames]), field(*ids), field(*last))
            for _ in range(data.draw(st.integers(0, 2)))
        ]

    annotations = draw(ActionAnnotation, "Stopping", *ids)
    causes = draw(CauseRecord, NO_CAUSE, *ids)
    written = serialize_scene(scene) + b"".join(
        _annotation_line(kind, r).encode() + b"\n"
        for kind, records in (("action", annotations), ("cause", causes))
        for r in records
    )
    try:
        blob = serialize_scene(scene, annotations, causes)
    except TraceError as exc:
        assert exc.line_no is None
        if all(r.scene_id == scene.scene_id for r in annotations + causes):
            with pytest.raises(TraceError):
                load_trace(written)
        return
    assert blob == written
    assert load_trace(blob) == (scene, annotations, causes)


def test_serialization_is_deterministic():
    scene = Scene(
        "twice",
        (Frame(0, 0.25, (ObjectState("ego", "car", BBox2D(Interval(-1, 1), Interval(0, 4.5))),)),),
    )
    assert serialize_scene(scene) == serialize_scene(scene)


def test_serialized_floats_keep_precision():
    box = BBox2D(Interval(0.1, 0.30000000000000004), Interval(-7.25, 1e-9))
    scene = Scene("fp", (Frame(0, 1 / 3, (ObjectState("o", "car", box),)),))
    restored, _, _ = load_trace(serialize_scene(scene))
    assert restored.frames[0].timestamp == 1 / 3
    assert restored.frames[0].objects[0].bbox == box


# -- construction-time checks ---------------------------------------------------
#
# Frame and Scene refuse what load_trace refuses, with its messages but no
# line number, so every scene that exists can be written and read back.


def _plain_frame(index, timestamp=None, ids=("ego",)):
    ts = float(index) if timestamp is None else timestamp
    box = BBox2D(Interval(0, 1), Interval(0, 1))
    return Frame(index, ts, tuple(ObjectState(i, "car", box) for i in ids))


def test_well_formed_scene_constructs_and_round_trips():
    scene = Scene("ok", (_plain_frame(0), _plain_frame(1), _plain_frame(4)))
    blob = serialize_scene(scene)
    assert serialize_scene(load_trace(blob)[0]) == blob


def test_empty_scene_refused():
    with pytest.raises(SchemaViolation, match="^trace has no frames$") as info:
        Scene("empty", ())
    assert info.value.line_no is None


@pytest.mark.parametrize("first, second", [(3, 1), (2, 2)], ids=["decreasing", "repeated"])
def test_unsorted_frames_refused(first, second):
    message = f"^frame index {second} after {first}; indices must strictly increase$"
    with pytest.raises(OrderingViolation, match=message):
        Scene("bad", (_plain_frame(first, 0.0), _plain_frame(second, 1.0)))


def test_timestamp_regression_refused():
    with pytest.raises(OrderingViolation, match="^timestamp 2.0 before 5.0$"):
        Scene("bad", (_plain_frame(0, 5.0), _plain_frame(1, 2.0)))


@pytest.mark.parametrize(
    "value, message",
    [
        (float("nan"), "must be a finite number, got nan"),
        (float("inf"), "must be a finite number, got inf"),
        (float("-inf"), "must be a finite number, got -inf"),
        (10**400, f"must be a finite number, got {10**400}"),
        (True, "must be a number, got True"),
        ("0.5", "must be a number, got '0.5'"),
        (None, "must be a number, got None"),
    ],
    ids=["nan", "inf", "-inf", "10**400", "bool", "str", "None"],
)
def test_non_finite_timestamp_refused(value, message):
    with pytest.raises(SchemaViolation, match=f"^field 'timestamp' {message}$"):
        Frame(0, value, ())


def test_duplicate_ids_refused():
    with pytest.raises(SchemaViolation, match="^object id 'a' appears twice in frame 0$") as info:
        _plain_frame(0, ids=("a", "b", "a"))
    assert info.value.line_no is None


@pytest.mark.parametrize(
    "index, message",
    [
        (1.5, "field 'index' must be int, got float"),
        (True, "field 'index' must be an integer, got True"),
        ("x", "field 'index' must be int, got str"),
        (None, "field 'index' must be int, got NoneType"),
    ],
    ids=["float", "bool", "str", "None"],
)
def test_non_integer_frame_index_refused(index, message):
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        _plain_frame(index, 0.0)


@pytest.mark.parametrize(
    "ids, cls, message",
    [
        ((7,), "car", "field 'id' must be str, got int"),
        (("a", None), "car", "field 'id' must be str, got NoneType"),
        (("a",), 3, "field 'class' must be str, got int"),
    ],
    ids=["int-id", "None-id", "int-class"],
)
def test_non_string_id_or_class_refused(ids, cls, message):
    box = BBox2D(Interval(0, 1), Interval(0, 1))
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        Frame(0, 0.0, tuple(ObjectState(i, cls, box) for i in ids))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Frame(0, 0.0, []), "field 'objects' must be tuple, got list"),
        (lambda: Frame(0, 0.0, ("ego",)), "objects entries must be ObjectState, got 'ego'"),
        (lambda: Scene("s", [_plain_frame(0)]), "field 'frames' must be tuple, got list"),
        (lambda: Scene("s", (_plain_frame(0), 1)), "frames entries must be Frame, got 1"),
    ],
    ids=["objects-list", "objects-entry", "frames-list", "frames-entry"],
)
def test_containers_hold_value_types(make, message):
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "bbox",
    [None, "box", BBox2D(1, 2), BBox2D(Interval(0, 1), None)],
    ids=["None", "str", "int-axes", "one-axis-None"],
)
def test_object_bbox_is_a_box_of_two_intervals(bbox):
    with pytest.raises(SchemaViolation, match="^object 'ego' bbox must be a BBox2D of two Intervals, got "):
        Frame(0, 0.0, (ObjectState("ego", "car", bbox),))


@pytest.mark.parametrize("scene_id", [7, None, b"s"], ids=["int", "None", "bytes"])
def test_non_string_scene_id_refused(scene_id):
    with pytest.raises(SchemaViolation, match="^field 'scene_id' must be str, got "):
        Scene(scene_id, (_plain_frame(0),))


def test_int_timestamp_and_endpoints_are_stored_as_floats():
    box = BBox2D(Interval(0, 1), Interval(-2, 3))
    scene = Scene("ints", (Frame(0, 0, (ObjectState("o", "car", box),)), Frame(1, 2, ())))
    assert [type(f.timestamp) for f in scene.frames] == [float, float]
    assert {type(v) for v in (box.x.lo, box.x.hi, box.y.lo, box.y.hi)} == {float}
    blob = serialize_scene(scene)
    restored, _, _ = load_trace(blob)
    assert restored == scene and serialize_scene(restored) == blob


# -- integers past 64 bits --------------------------------------------------------


@pytest.mark.parametrize(
    "index, shown",
    [(2**63, str(2**63)), (-(2**63) - 1, str(-(2**63) - 1)), (10**5000, "an int of 5001 digits")],
    ids=["2**63", "-2**63-1", "10**5000"],
)
def test_frame_index_is_signed_64_bit(index, shown):
    # an index past 4300 digits used to build a Scene that serialize_scene
    # could not write
    with pytest.raises(SchemaViolation, match=f"^field 'index' must be a signed 64-bit integer, got {shown}$"):
        Scene("s", (Frame(index, 0.0, ()),))


def test_frame_index_bounds_are_accepted():
    scene = Scene("s", (_plain_frame(-(2**63), 0.0), _plain_frame(2**63 - 1, 1.0)))
    assert load_trace(serialize_scene(scene))[0] == scene


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Frame(0, 10**5000, ()), "field 'timestamp' must be a finite number, got an int of 5001 digits"),
        (lambda: Frame(0, 0.0, (10**5000,)), "objects entries must be ObjectState, got an int of 5001 digits"),
        (
            lambda: Scene("s", ((-(10**5000),),)),
            "frames entries must be Frame, got a tuple holding an int too long to show",
        ),
    ],
    ids=["timestamp", "objects-entry", "frames-entry"],
)
def test_an_int_too_long_to_print_is_named_by_its_digits(make, message):
    with pytest.raises(SchemaViolation, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "line, field",
    [
        (_frame_line(2**63, 0.0, [_obj("ego")]), "index"),
        ('{"type":"action","frame":9223372036854775808,"actor":"ego","action":"Stopping"}', "frame"),
        ('{"type":"cause","frame":-9223372036854775809,"actor":"ego","cause":"none"}', "frame"),
    ],
    ids=["frame", "action", "cause"],
)
def test_trace_integers_are_signed_64_bit(line, field):
    with pytest.raises(SchemaViolation, match=f"^line 3: field '{field}' must be a signed 64-bit integer"):
        load_trace(_trace(HEADER, _frame_line(0, 0.0, [_obj("ego")]), line))


# -- binary streams ----------------------------------------------------------------


def test_binary_streams_are_read_as_bytes(tmp_path):
    raw = _trace(HEADER, _frame_line(0, 0.0, [_obj("ego")]), _frame_line(1, 0.5, [_obj("ego")])).encode()
    path = tmp_path / "trace.jsonl"
    path.write_bytes(raw)
    with open(path, "rb") as fh:
        from_file = load_trace(fh)
    assert load_trace(io.BytesIO(raw)) == from_file == load_trace(raw)


def test_invalid_utf8_in_a_binary_stream_names_its_line():
    blob = _trace(HEADER, _frame_line(0, 0.0, [_obj("ego")])).encode() + b"\xfb" + _frame_line(1, 0.5, []).encode()
    with pytest.raises(MalformedLine, match=r"^line 3: not valid UTF-8 \(invalid start byte\)$"):
        load_trace(io.BytesIO(blob))


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_in_a_text_stream_names_its_line(tmp_path, sep):
    path = tmp_path / "trace.jsonl"
    path.write_bytes((HEADER + sep).encode() + b"\xfb" + _frame_line(0, 0.0, []).encode() + b"\n")
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(MalformedLine, match=r"^line 2: not valid UTF-8 \(invalid start byte\)$"):
            load_trace(fh)


# -- the columnar parse ------------------------------------------------------------
#
# every frame keeps its boxes packed in an array of doubles; a read of a
# frame's objects builds ObjectStates that must be the value a constructed
# frame was given.


def _annotated_scene():
    box = lambda x, y: BBox2D(Interval(x, x + 1.5), Interval(y, y + 0.25))  # noqa: E731
    frames = tuple(
        Frame(i, i * 0.5, (ObjectState("ego", "car", box(0.5 * i, 0.0)), ObjectState("ped", "pedestrian", box(3.0, -i))))
        for i in range(3)
    )
    scene = Scene("cols", frames)
    return scene, [ActionAnnotation("cols", 2, "ego", "Stopping")], [CauseRecord("cols", 2, "ego", "ped")]


def test_load_trace_builds_no_per_box_objects(monkeypatch):
    scene, annotations, causes = _annotated_scene()
    blob = serialize_scene(scene, annotations, causes)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"load_trace or push_frame built a {type(self).__name__}")

    for kind in (ObjectState, BBox2D, Interval):
        monkeypatch.setattr(kind, "__init__", refuse)
    parsed, got_annotations, got_causes = load_trace(blob)
    graph = export_graph(build(parsed))
    monkeypatch.undo()
    assert (parsed, got_annotations, got_causes) == (scene, annotations, causes)
    assert graph == export_graph(build(scene))


READS = {
    "eq": lambda frame: frame,
    "hash": hash,
    "repr": repr,
    "replace": lambda frame: dataclasses.replace(frame, timestamp=frame.timestamp + 1.0),
    "pickle": lambda frame: pickle.loads(pickle.dumps(frame)),
    "copy": copy.copy,
}


@pytest.mark.parametrize("read", sorted(READS))
def test_parsed_frames_act_as_the_frames_they_encode(read):
    # a fresh parse each time, so that this read is the frame's first
    scene, _, _ = _annotated_scene()
    parsed, _, _ = load_trace(serialize_scene(scene))
    assert [READS[read](frame) for frame in parsed.frames] == [READS[read](frame) for frame in scene.frames]


# 12 frames of the synthetic corpus's shape: the ego, a cause and
# distractors, every coordinate a float with a fractional part
_MEMORY_CLASSES = {"ego": "car", "ped": "pedestrian", **{f"d{i}": "cyclist" for i in range(6)}}


def _memory_scene():
    box = lambda f, i: BBox2D(Interval(0.37 * i + 0.1 * f, 0.37 * i + 1.9), Interval(-2.13 * i, 4.41 + f))  # noqa: E731
    return Scene(
        "mem",
        tuple(
            Frame(f, f * 0.5, tuple(ObjectState(oid, cls, box(f, i)) for i, (oid, cls) in enumerate(_MEMORY_CLASSES.items())))
            for f in range(12)
        ),
    )


def _read_every_frame(scene):
    assert all(frame.objects for frame in scene.frames)
    return scene


MEMORY_CASES = {
    "parsed": lambda blob: load_trace(blob)[0],
    "parsed-then-read": lambda blob: _read_every_frame(load_trace(blob)[0]),
    "built": lambda blob: _memory_scene(),  # the ObjectState tuples are dropped once packed
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_a_parsed_box_costs_its_packed_doubles(case):
    scene = _memory_scene()
    blob = serialize_scene(scene)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held_scene = MEMORY_CASES[case](blob)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    boxes = sum(1 for frame in held_scene.frames for _ in frame.rows())
    assert boxes == 96 and held_scene == scene
    # measured 65-78 B a box in each case (Python 3.11.7): 32 B of doubles,
    # two tuple slots, and the frame's own objects shared among its 8 boxes.
    # A tuple of four boxed floats per box, and a new str per id and class,
    # held 319 B; ObjectStates kept by a built frame, or by a parsed one
    # after a read, held 299-304 B.
    assert held / boxes <= 150


# -- objects per frame -------------------------------------------------------------
#
# The bound is patched small, so that no large frame is built.


def test_a_frame_one_object_over_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr("qxg.scene.MAX_OBJECTS_PER_FRAME", 3)
    assert len(_plain_frame(0, ids=("a", "b", "c")).objects) == 3
    with pytest.raises(SchemaViolation, match="^at most 3 objects per frame, got 4 in frame 0$") as info:
        _plain_frame(0, ids=("a", "b", "c", "d"))
    assert info.value.line_no is None


def test_load_trace_refuses_a_frame_over_the_bound_at_its_line(monkeypatch):
    monkeypatch.setattr("qxg.scene.MAX_OBJECTS_PER_FRAME", 3)
    blob = _trace(
        HEADER,
        _frame_line(0, 0.0, [_obj(oid) for oid in "abc"]),
        _frame_line(1, 0.5, [_obj(oid) for oid in "abcd"]),
    )
    with pytest.raises(SchemaViolation, match="^line 3: at most 3 objects per frame, got 4 in frame 1$"):
        load_trace(blob)
