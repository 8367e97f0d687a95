"""Trace parsing, serialization, and validation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    load_trace,
    serialize_scene,
    validate_scene,
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


# -- validate_scene -----------------------------------------------------------

def _plain_frame(index, timestamp=None, ids=("ego",)):
    ts = float(index) if timestamp is None else timestamp
    box = BBox2D(Interval(0, 1), Interval(0, 1))
    return Frame(index, ts, tuple(ObjectState(i, "car", box) for i in ids))


def test_validate_accepts_well_formed_scene():
    scene = Scene("ok", (_plain_frame(0), _plain_frame(1), _plain_frame(4)))
    assert validate_scene(scene) == []

def test_validate_flags_empty_scene():
    assert [v.rule for v in validate_scene(Scene("empty", ()))] == ["frames"]

def test_validate_flags_unsorted_frames():
    scene = Scene("bad", (_plain_frame(3), _plain_frame(1)))
    assert "frame_order" in {v.rule for v in validate_scene(scene)}

def test_validate_flags_timestamp_regression():
    scene = Scene("bad", (_plain_frame(0, 5.0), _plain_frame(1, 2.0)))
    rules = {v.rule for v in validate_scene(scene)}
    assert "timestamp_order" in rules

def test_validate_flags_duplicate_ids():
    scene = Scene("bad", (_plain_frame(0, ids=("a", "a")),))
    hits = [v for v in validate_scene(scene) if v.rule == "duplicate_object"]
    assert hits and hits[0].object_id == "a"
