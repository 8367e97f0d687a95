"""End-to-end checks of the command-line interface, mostly via subprocesses."""

import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import asdict, replace

import pytest

from qxg import calculi, cli, explainer
from qxg.builder import build, import_graph
from qxg.calculi import BBox2D, CalculiConfig, Interval
from qxg.cli import MAX_BENCH_FRAMES, MAX_BENCH_OBJECTS, AppConfig, build_parser, load_app_config, main
from qxg.defs import MAX_CHAIN_LENGTH, MAX_TREES, Hyperparams
from qxg.explainer import build_dataset, evaluate, load_model
from qxg.scene import (
    CauseRecord,
    Frame,
    MalformedLine,
    ObjectState,
    Scene,
    load_trace,
    serialize_scene,
    split_scenes,
)
from qxg.synthgen import generate_dataset, generate_scenes


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "qxg", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


N_SCENES = 32
FOREST = {"n_trees": 48, "max_depth": 10, "min_samples_leaf": 2}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    traces = tmp_path_factory.mktemp("cli") / "traces"
    result = run_cli("gen", "--scenes", str(N_SCENES), "--seed", "5", "--out", str(traces))
    assert result.returncode == 0, result.stderr
    return traces


@pytest.fixture(scope="module")
def manifest(corpus):
    return json.loads((corpus / "manifest.json").read_text())


@pytest.fixture(scope="module")
def model_file(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    config = root / "config.json"
    config.write_text(json.dumps({"hyperparams": FOREST}))
    out = root / "model.json"
    result = run_cli("train", "--traces", str(corpus), "--config", str(config), "--out", str(out))
    assert result.returncode == 0, result.stderr
    return out


def _entry(manifest, kind):
    return next(e for e in manifest["scenes"] if e["kind"] == kind)


class TestGen:
    def test_files_and_manifest(self, corpus, manifest):
        assert len(list(corpus.glob("*.jsonl"))) == N_SCENES
        assert manifest["n_scenes"] == N_SCENES
        assert len(manifest["scenes"]) == N_SCENES
        entry = manifest["scenes"][0]
        assert set(entry) == {
            "file", "scene_id", "kind", "action", "frame", "actor", "cause", "nearest",
        }
        assert (corpus / entry["file"]).exists()

    def test_traces_parse_with_annotations(self, corpus, manifest):
        entry = _entry(manifest, "StoppingForCrosser")
        scene, annotations, causes = load_trace((corpus / entry["file"]).read_bytes())
        assert scene.scene_id == entry["scene_id"]
        assert len(annotations) == 1 and annotations[0].action == "Stopping"
        assert len(causes) == 1 and causes[0].cause_id == entry["cause"]

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        again = tmp_path / "again"
        result = run_cli("gen", "--scenes", str(N_SCENES), "--seed", "5", "--out", str(again))
        assert result.returncode == 0
        for path in sorted(corpus.iterdir()):
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_single_kind(self, tmp_path):
        result = run_cli(
            "gen", "--scenes", "3", "--kind", "GapAccelerate", "--out", str(tmp_path / "g")
        )
        assert result.returncode == 0
        names = [p.name for p in sorted((tmp_path / "g").glob("*.jsonl"))]
        assert len(names) == 3 and all("GapAccelerate" in n for n in names)

    @pytest.mark.parametrize(
        "n_scenes, kind", [(7, None), (8, None), (3, "GapAccelerate")], ids=["mixed-7", "mixed-8", "kind"]
    )
    def test_files_are_synthgen_scenes(self, tmp_path, n_scenes, kind):
        out = tmp_path / "g"
        result = run_cli(
            "gen", "--scenes", str(n_scenes), "--seed", "7", "--out", str(out),
            *(["--kind", kind] if kind else []),
        )
        assert result.returncode == 0, result.stderr
        if kind is None:
            # the mixed rotation is generate_dataset's, cut to the count
            expected = generate_dataset(2, master_seed=7)[:n_scenes]
        else:
            expected = generate_scenes(n_scenes, master_seed=7, kind=kind)
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["scenes"]) == n_scenes == len(list(out.glob("*.jsonl")))
        for i, ((scene, annotation, truth), entry) in enumerate(zip(expected, manifest["scenes"])):
            cause = CauseRecord(scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)
            assert entry["file"] == f"{i:03d}_{scene.scene_id}.jsonl"
            assert entry["kind"] == truth.kind == (kind or entry["kind"])
            assert (out / entry["file"]).read_bytes() == serialize_scene(scene, [annotation], [cause])

    def test_zero_scenes_is_usage_error(self, tmp_path):
        result = run_cli("gen", "--scenes", "0", "--out", str(tmp_path / "z"))
        assert result.returncode == 2

    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("count", ["-1", "201", "100000"])
    def test_distractors_outside_the_bound_are_usage_errors(self, tmp_path, count):
        out = tmp_path / "d"
        result = run_cli("gen", "--scenes", "2", "--distractors", count, "--out", str(out), timeout=20)
        assert result.returncode == 2
        assert f"must be in 0..200, got {count}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "jitter, code, message",
        [
            ("nan", 2, "argument --jitter: must be a finite number, got nan"),
            ("inf", 2, "argument --jitter: must be a finite number, got inf"),
            ("-1", 1, "jitter_sigma must be a finite non-negative number, got -1.0"),
        ],
        ids=["nan", "inf", "negative"],
    )
    def test_bad_jitter_is_refused_before_any_output(self, tmp_path, jitter, code, message):
        out = tmp_path / "d"
        result = run_cli("gen", "--scenes", "2", "--jitter", jitter, "--out", str(out), timeout=20)
        assert result.returncode == code
        assert message in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "jitter, message",
        [
            ("5", "jitter sigma 5.0 keeps flipping windowed relations; "
                  "the margins assume something closer to 0.1"),
            ("1e308", "interval endpoints must be finite, got [-inf, -inf]"),
        ],
        ids=["flips-relations", "overflows-a-box"],
    )
    def test_jitter_no_scene_survives_is_a_refusal(self, tmp_path, jitter, message):
        result = run_cli("gen", "--scenes", "2", "--jitter", jitter, "--out", str(tmp_path / "d"), timeout=20)
        assert result.returncode == 1
        assert result.stderr == f"error: gen: {message}\n"
        assert "Traceback" not in result.stderr

    def test_distractor_bound_is_inclusive(self, tmp_path):
        result = run_cli("gen", "--scenes", "1", "--distractors", "200", "--out", str(tmp_path / "d"))
        assert result.returncode == 0, result.stderr


class TestBuild:
    def test_json_export_reimports(self, corpus, manifest):
        entry = manifest["scenes"][0]
        result = run_cli("build", "--trace", str(corpus / entry["file"]))
        assert result.returncode == 0, result.stderr
        graph = import_graph(result.stdout)
        scene, _, _ = load_trace((corpus / entry["file"]).read_bytes())
        reference = build(scene)
        assert graph.scene_id == reference.scene_id
        assert set(graph.edges) == set(reference.edges)

    def test_dot_output(self, corpus, manifest):
        entry = manifest["scenes"][0]
        result = run_cli("build", "--trace", str(corpus / entry["file"]), "--format", "dot")
        assert result.returncode == 0
        assert result.stdout.startswith("graph ")
        assert '"ego" [label="ego\\n(car)"];' in result.stdout

    def test_verbose_stats(self, corpus, manifest):
        entry = manifest["scenes"][0]
        result = run_cli(
            "build", "--trace", str(corpus / entry["file"]), "--verbose", "--out", "/dev/null"
        )
        lines = [l for l in result.stderr.splitlines() if l.startswith("frame ")]
        assert len(lines) == 12
        # a frame with k visible objects updates k(k-1)/2 pairs
        assert "5 objects, 10 pairs" in lines[0]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_mode_follows_umask(self, corpus, manifest, tmp_path, umask):
        trace = corpus / manifest["scenes"][0]["file"]
        out = tmp_path / "graph.json"
        old = os.umask(umask)
        try:
            result = run_cli("build", "--trace", str(trace), "--out", str(out))
        finally:
            os.umask(old)
        assert result.returncode == 0, result.stderr
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_bad_trace_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        result = run_cli("build", "--trace", str(bad))
        assert result.returncode == 1
        assert "line 1" in result.stderr


class TestConfig:
    @pytest.mark.parametrize(
        "config",
        [
            '{"seed": null}',
            '{"seed": 1.0}',
            '{"t": 2.7}',
            '{"t": true}',
            '{"out": 5}',
            '{"calculi": null}',
            '{"calculi": [1, 5, 15, 50]}',
            '{"calculi": {"qdc_band_edges": [1, "a", 3, 4]}}',
            '{"calculi": {"qdc_band_edges": "1,5,15,50"}}',
            '{"calculi": {"qdc_band_edges": [1, 5, 15, NaN]}}',
            '{"calculi": {"qdc_band_names": [1, 2, 3, 4, 5]}}',
            '{"calculi": {"qtc_epsilon": "0.05"}}',
            '{"calculi": {"qtc_epsilon": true}}',
            '{"calculi": {"qtc_epsilon": 1e999}}',
            '{"calculi": {"qdc_band_names": ["a", "a", "b", "c", "d"]}}',
            '{"hyperparams": null}',
            '{"hyperparams": {"balance": "false"}}',
            '{"hyperparams": {"balance": 0}}',
            '{"hyperparams": {"n_trees": "7"}}',
            '{"hyperparams": {"max_depth": 7.0}}',
            '{"hyperparams": {"min_samples_leaf": false}}',
        ],
    )
    def test_mistyped_value_is_runtime_error(self, corpus, manifest, tmp_path, config):
        path = tmp_path / "c.json"
        path.write_text(config)
        trace = corpus / manifest["scenes"][0]["file"]
        result = run_cli("build", "--trace", str(trace), "--config", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error: build: config ") and "Traceback" not in result.stderr

    def test_typed_values_load_as_given(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "calculi": {"qdc_band_edges": [2, 6.5], "qdc_band_names": ["a", "b", "c"], "qtc_epsilon": 1},
            "hyperparams": {"n_trees": 7, "balance": False},
            "t": 3,
            "seed": 0,
            "out": "m.json",
        }))
        assert load_app_config(path) == AppConfig(
            CalculiConfig((2, 6.5), ("a", "b", "c"), 1.0), 3, Hyperparams(n_trees=7, balance=False), 0, "m.json"
        )


class TestTrain:
    def test_model_written_and_counts_printed(self, model_file):
        payload = json.loads(model_file.read_text())
        assert payload["version"] == 1
        assert set(payload["actions"]) == {"Accelerating", "Cruising", "Stopping"}

    def test_retrain_is_byte_identical(self, corpus, model_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hyperparams": FOREST}))
        out = tmp_path / "model.json"
        result = run_cli("train", "--traces", str(corpus), "--config", str(config), "--out", str(out))
        assert result.returncode == 0
        assert out.read_bytes() == model_file.read_bytes()

    def test_counts_in_stdout(self, corpus, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"hyperparams": {"n_trees": 2, "max_depth": 3}}))
        result = run_cli(
            "train", "--traces", str(corpus), "--config", str(config),
            "--out", str(tmp_path / "m.json"),
        )
        assert "Stopping:" in result.stdout and "chains" in result.stdout

    def test_missing_directory(self, tmp_path):
        result = run_cli("train", "--traces", str(tmp_path / "nope"), "--out", str(tmp_path / "m"))
        assert result.returncode == 1

    def test_bad_config_rejected(self, corpus, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"volume": 11}')
        result = run_cli("train", "--traces", str(corpus), "--config", str(config))
        assert result.returncode == 1
        assert "unknown config keys" in result.stderr

    def test_a_trace_is_built_once_for_all_its_annotations(self, tmp_path, monkeypatch, capsys):
        generated, annotation, _ = generate_scenes(1, master_seed=7)[0]
        annotations = [
            replace(annotation, frame_index=annotation.frame_index - back, action=action)
            for back, action in ((0, "Cruising"), (3, "Stopping"), (6, "Cruising"))
        ]
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "drive.jsonl").write_bytes(serialize_scene(generated, annotations, []))
        scene, annotations, _ = load_trace((traces / "drive.jsonl").read_bytes())
        # one graph per annotation, each built on its own
        expected = [build_dataset([(scene, a)]) for a in annotations]
        built = []
        real = explainer.build
        monkeypatch.setattr(
            explainer, "build", lambda scene, cfg, window: built.append(scene) or real(scene, cfg, window=window)
        )
        assert main(["train", "--traces", str(traces), "--out", str(tmp_path / "model.json")]) == 0
        assert len(built) == 1
        dataset, _ = cli._read_rows(traces, 5, CalculiConfig())
        assert dataset.rows == [row for d in expected for row in d.rows]
        assert dataset.labels == [label for d in expected for label in d.labels]
        assert dataset.keys == [key for d in expected for key in d.keys]
        assert len(dataset.rows) > len(expected[0].rows) > 0


class TestExplain:
    def _explain(self, corpus, manifest, model_file, kind, *extra):
        entry = _entry(manifest, kind)
        return run_cli(
            "explain",
            "--trace", str(corpus / entry["file"]),
            "--model", str(model_file),
            "--frame", str(entry["frame"]),
            "--actor", entry["actor"],
            "--action", entry["action"],
            *extra,
        ), entry

    def test_planted_cause_ranked_first(self, corpus, manifest, model_file):
        result, entry = self._explain(corpus, manifest, model_file, "StoppingForCrosser")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["candidates"][0]["object"] == entry["cause"]

    def test_chain_components_in_canonical_order(self, corpus, manifest, model_file):
        result, _ = self._explain(corpus, manifest, model_file, "LeadVehicleBraking")
        chain = json.loads(result.stdout)["candidates"][0]["chain"]
        assert chain, "expected a non-empty relation chain"
        assert all(list(entry) == ["frame", "ra", "qtcb", "qdc", "star4"] for entry in chain)

    def test_impossible_threshold_gives_empty_list(self, corpus, manifest, model_file):
        result, _ = self._explain(
            corpus, manifest, model_file, "StoppingForCrosser", "--threshold", "1.01"
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["candidates"] == []

    def test_output_bytes_stable(self, corpus, manifest, model_file):
        first, _ = self._explain(corpus, manifest, model_file, "GapAccelerate")
        second, _ = self._explain(corpus, manifest, model_file, "GapAccelerate")
        assert first.stdout == second.stdout

    def test_builds_no_per_box_objects(self, corpus, manifest, model_file, monkeypatch, capsysbinary):
        # in-process, so that the patched box types are the ones the handler meets
        entry = _entry(manifest, "StoppingForCrosser")
        argv = [
            "explain",
            "--trace", str(corpus / entry["file"]),
            "--model", str(model_file),
            "--frame", str(entry["frame"]),
            "--actor", entry["actor"],
            "--action", entry["action"],
        ]

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"qxg explain built a {type(self).__name__}")

        for kind in (ObjectState, BBox2D, Interval):
            monkeypatch.setattr(kind, "__init__", refuse)
        assert main(argv) == 0
        patched = capsysbinary.readouterr().out
        monkeypatch.undo()
        assert main(argv) == 0
        assert patched == capsysbinary.readouterr().out
        assert json.loads(patched)["candidates"]

    @pytest.mark.parametrize("back", [0, 2])
    def test_frames_after_the_query_are_never_read(
        self, corpus, manifest, model_file, tmp_path, capsysbinary, back
    ):
        entry = _entry(manifest, "StoppingForCrosser")
        scene, annotations, causes = load_trace((corpus / entry["file"]).read_bytes())
        at = entry["frame"] - back
        # after the queried frame every box moves 100 m east and a new object joins
        frames = tuple(
            frame if frame.index <= at else Frame(
                frame.index,
                frame.timestamp,
                tuple(
                    ObjectState(oid, cls, BBox2D.from_bounds(xl + 100.0, xh + 100.0, yl, yh))
                    for oid, cls, (xl, xh, yl, yh) in frame.rows()
                ) + (ObjectState("late", "cyclist", BBox2D.from_bounds(-1.0, 1.0, 4.0, 6.0)),),
            )
            for frame in scene.frames
        )
        assert frames[-1].index > at
        changed = tmp_path / "changed.jsonl"
        changed.write_bytes(serialize_scene(Scene(scene.scene_id, frames), annotations, causes))
        outputs = []
        for trace in (corpus / entry["file"], changed):
            argv = [
                "explain",
                "--trace", str(trace),
                "--model", str(model_file),
                "--frame", str(at),
                "--actor", entry["actor"],
                "--action", entry["action"],
            ]
            assert main(argv) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["candidates"]

    def test_unknown_actor(self, corpus, manifest, model_file):
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model_file),
            "--frame", "8", "--actor", "ghost", "--action", "Stopping",
        )
        assert result.returncode == 1 and "unknown actor" in result.stderr

    def test_an_actor_first_seen_after_the_query_is_unknown(
        self, corpus, manifest, model_file, tmp_path, capsys
    ):
        entry = _entry(manifest, "StoppingForCrosser")
        scene, annotations, causes = load_trace((corpus / entry["file"]).read_bytes())
        at = entry["frame"] - 2
        late = ObjectState("late", "cyclist", BBox2D.from_bounds(-1.0, 1.0, 4.0, 6.0))
        frames = tuple(
            frame if frame.index <= at else Frame(frame.index, frame.timestamp, frame.objects + (late,))
            for frame in scene.frames
        )
        trace = tmp_path / "late.jsonl"
        trace.write_bytes(serialize_scene(Scene(scene.scene_id, frames), annotations, causes))
        argv = ["explain", "--trace", str(trace), "--model", str(model_file), "--action", "Stopping"]
        assert main([*argv, "--actor", "late", "--frame", str(at)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: explain: unknown actor 'late' in {scene.scene_id} at or before frame {at}\n"
        )
        assert main([*argv, "--actor", "late", "--frame", str(at + 1)]) == 0
        assert "candidates" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("frame", ["-5", "999"])
    def test_frame_outside_the_trace(self, corpus, manifest, model_file, frame):
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model_file),
            "--frame", frame, "--actor", entry["actor"], "--action", entry["action"],
        )
        assert result.returncode == 1
        assert result.stderr == f"error: explain: frame {frame} is not in {entry['scene_id']}\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, corpus, manifest, model_file, threshold):
        result, _ = self._explain(
            corpus, manifest, model_file, "StoppingForCrosser", f"--threshold={threshold}"
        )
        assert result.returncode == 2 and "must be a finite number" in result.stderr

    def test_unknown_action(self, corpus, manifest, model_file):
        result, _ = self._explain(corpus, manifest, model_file, "StoppingForCrosser")
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model_file),
            "--frame", "8", "--actor", "ego", "--action", "Swerving",
        )
        assert result.returncode == 1 and "unknown action 'Swerving'" in result.stderr

    def test_cyclic_tree_is_runtime_error(self, corpus, manifest, model_file, tmp_path):
        payload = json.loads(model_file.read_bytes())
        forest = next(iter(payload["actions"].values()))
        forest["trees"][0]["nodes"][0] = {"feature": 0, "left": 0, "right": 0}
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps(payload))
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(cyclic),
            "--frame", str(entry["frame"]), "--actor", entry["actor"], "--action", entry["action"],
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: explain:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("calculi", "qdc_band_edges", [1.0, 5.0, 15.0, float("nan")]),
            ("calculi", "qdc_band_edges", [True, 5.0, 15.0, 50.0]),
            ("calculi", "qtc_epsilon", float("nan")),
            ("calculi", "qdc_band_names", [0, 1, 2, 3, 4]),
            ("calculi", "qdc_band_names", ["a", "a", "b", "c", "d"]),
            (None, "t", 5.0),
            ("calculi", "qdc_band_names", "abcde"),
            ("calculi", "qdc_band_edges", "1,5,15,50"),
            ("calculi", "qdc_band_count", 5),
            ("hyperparams", "max_features", 3),
        ],
        ids=[
            "nan-edge", "bool-edge", "nan-epsilon", "int-names", "repeated-names", "float-t",
            "str-names", "str-edges", "unknown-calculi-key", "unknown-hyperparams-key",
        ],
    )
    def test_mistyped_model_config_is_runtime_error(
        self, corpus, manifest, model_file, tmp_path, section, key, value
    ):
        payload = json.loads(model_file.read_bytes())
        (payload[section] if section else payload)[key] = value
        if key == "t":
            payload["encoding"]["feature_len"] = float(payload["encoding"]["feature_len"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(bad),
            "--frame", str(entry["frame"]), "--actor", entry["actor"], "--action", entry["action"],
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: explain:") and "Traceback" not in result.stderr


class TestEval:
    def test_table_shape(self, corpus, model_file):
        result = run_cli("eval", "--traces", str(corpus), "--model", str(model_file))
        assert result.returncode == 0, result.stderr
        *table, recovery = result.stdout.splitlines()
        assert table[0].split() == ["action", "precision", "recall", "support"]
        names = [l.split()[0] for l in table[1:]]
        assert names == ["Accelerating", "Cruising", "Stopping", "macro"]
        assert table[-1].startswith("macro average")
        assert recovery.startswith("top-1 cause recovery: ")

    def test_no_recovery_without_cause_records(self, corpus, model_file, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        for path in sorted(corpus.glob("*.jsonl"))[:8]:
            scene, annotations, _ = load_trace(path.read_bytes())
            (bare / path.name).write_bytes(serialize_scene(scene, annotations, []))
        out = tmp_path / "metrics.json"
        result = run_cli("eval", "--traces", str(bare), "--model", str(model_file), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert "recovery" not in result.stdout
        assert "top1_cause_recovery" not in json.loads(out.read_text())

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, corpus, model_file, threshold):
        result = run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file), f"--threshold={threshold}"
        )
        assert result.returncode == 2 and "must be a finite number" in result.stderr

    def test_json_report(self, corpus, manifest, model_file, tmp_path):
        out = tmp_path / "metrics.json"
        result = run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file), "--out", str(out)
        )
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert set(payload["per_action"]) == {"Accelerating", "Cruising", "Stopping"}
        assert payload["n_rows"] > 0
        recovery = payload["top1_cause_recovery"]
        # every generated scene records its cause; "none" ones are not counted
        assert recovery["total"] == sum(e["cause"] != "none" for e in manifest["scenes"])
        assert 0 < recovery["hits"] <= recovery["total"]
        assert result.stdout.endswith(f"top-1 cause recovery: {recovery['hits']}/{recovery['total']}\n")

    def test_split_subsets(self, corpus, model_file, tmp_path):
        full = tmp_path / "full.json"
        part = tmp_path / "part.json"
        run_cli("eval", "--traces", str(corpus), "--model", str(model_file), "--out", str(full))
        run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file),
            "--split", "test", "--out", str(part),
        )
        n_full = json.loads(full.read_text())["n_rows"]
        n_part = json.loads(part.read_text())["n_rows"]
        assert 0 < n_part < n_full

    def test_empty_test_set(self, corpus, model_file):
        result = run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file),
            "--split", "test", "--train-fraction", "1.0",
        )
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "fraction, message",
        [
            ("nan", "must be a finite number, got nan"),
            ("-0.1", "must be within [0, 1], got -0.1"),
            ("7", "must be within [0, 1], got 7"),
            ("abc", "must be a number, got 'abc'"),
        ],
        ids=["nan", "negative", "seven", "not-a-number"],
    )
    @pytest.mark.parametrize("split", ["all", "test"])
    def test_train_fraction_outside_0_1_is_usage_error(
        self, corpus, model_file, fraction, message, split
    ):
        result = run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file),
            "--split", split, "--train-fraction", fraction,
        )
        assert result.returncode == 2
        assert f"argument --train-fraction: {message}" in result.stderr

    def test_model_without_actions_is_runtime_error(self, corpus, model_file, tmp_path):
        payload = json.loads(model_file.read_bytes())
        payload["actions"] = {}
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(payload))
        result = run_cli("eval", "--traces", str(corpus), "--model", str(empty), timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: eval:") and "Traceback" not in result.stderr


class TestTraceDirectories:
    """``train`` and ``eval`` read their directory one file at a time."""

    ARGV = {
        "train": lambda corpus, model_file, tmp_path: [
            "train", "--traces", str(corpus), "--n-trees", "2", "--out", str(tmp_path / "m.json"),
        ],
        "eval-all": lambda corpus, model_file, tmp_path: [
            "eval", "--traces", str(corpus), "--model", str(model_file),
        ],
        "eval-test": lambda corpus, model_file, tmp_path: [
            "eval", "--traces", str(corpus), "--model", str(model_file), "--split", "test",
        ],
    }

    @pytest.mark.parametrize("command", ["train", "eval-all", "eval-test"])
    def test_refusal_names_the_file(self, corpus, model_file, tmp_path, capsys, command):
        traces = tmp_path / "traces"
        shutil.copytree(corpus, traces)
        bad = sorted(traces.glob("*.jsonl"))[N_SCENES // 2]
        bad.write_bytes(b'{"type": "header" "scene_id": "s"}\n' + bad.read_bytes())
        argv = self.ARGV[command](traces, model_file, tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {argv[0]}: {bad}: line 1: not valid JSON (Expecting ',' delimiter)\n"
        )
        with pytest.raises(MalformedLine) as refused:  # the parser's own type, located
            cli._read_rows(traces, 5, CalculiConfig())
        assert (refused.value.source, refused.value.line_no) == (str(bad), 1)

    @pytest.mark.parametrize("command", ["train", "eval-all", "eval-test"])
    def test_one_parsed_scene_alive_at_a_time(self, corpus, model_file, tmp_path, capsys, monkeypatch, command):
        # each trace's scene must be gone before the next file is parsed
        parsed, most_alive = [], []
        real = cli.load_trace

        def load_trace(data):
            most_alive.append(sum(scene() is not None for scene in parsed))
            result = real(data)
            parsed.append(weakref.ref(result[0]))
            return result

        monkeypatch.setattr(cli, "load_trace", load_trace)
        assert main(self.ARGV[command](corpus, model_file, tmp_path)) == 0
        assert len(most_alive) == N_SCENES
        assert max(most_alive) == 0

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_split_sides_follow_split_scenes(self, corpus, model_file, tmp_path, capsys, split):
        out = tmp_path / "metrics.json"
        argv = ["eval", "--traces", str(corpus), "--model", str(model_file), "--split", split]
        assert main([*argv, "--train-fraction", "0.6", "--out", str(out)]) == 0
        model = load_model(model_file)
        items, causes = [], {}
        for path in sorted(corpus.glob("*.jsonl")):
            scene, annotations, records = load_trace(path.read_bytes())
            items += [(scene, annotation) for annotation in annotations]
            causes.update(((c.scene_id, c.actor_id, c.frame_index), c.cause_id) for c in records)
        side = split_scenes(items, 0.6)[split == "test"]
        assert 0 < len(side) < len(items)
        keys = {(scene.scene_id, a.actor_id, a.frame_index) for scene, a in side}
        report = evaluate(
            model,
            build_dataset(side, model.spec.t, model.cfg),
            causes={key: cause for key, cause in causes.items() if key in keys},
        )
        expected = asdict(report)
        expected["top1_cause_recovery"] = dict(zip(("hits", "total"), expected.pop("cause_recovery")))
        assert json.loads(out.read_text()) == expected


class TestUndecodableJSON:
    @pytest.mark.parametrize("payload", ["deep-nesting", "5000-digit-int"])
    @pytest.mark.parametrize("command", ["build", "explain", "train"])
    def test_exits_1_without_traceback(self, corpus, manifest, tmp_path, command, payload):
        blob = b"[" * 200_000 if payload == "deep-nesting" else b'{"seed": ' + b"9" * 5000 + b"}"
        entry = _entry(manifest, "StoppingForCrosser")
        trace = corpus / entry["file"]
        bad = tmp_path / "bad.json"
        if command == "build":  # the trace's second line
            bad.write_bytes(trace.read_bytes().split(b"\n")[0] + b"\n" + blob + b"\n")
            argv, message = ["--trace", str(bad)], "line 2: not valid JSON"
        elif command == "explain":  # the model file
            bad.write_bytes(blob)
            argv = ["--trace", str(trace), "--model", str(bad), "--frame", str(entry["frame"]),
                    "--actor", entry["actor"], "--action", entry["action"]]
            message = "model file is not JSON"
        else:  # the config file
            bad.write_bytes(blob)
            argv = ["--traces", str(corpus), "--config", str(bad), "--out", str(tmp_path / "m.json")]
            message = f"config {bad}: not valid JSON"
        result = run_cli(command, *argv, timeout=10)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {command}: {message}"), result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("source", ["flag", "config", "model"])
def test_chain_length_is_bounded(corpus, manifest, model_file, tmp_path, source):
    """t above MAX_CHAIN_LENGTH is refused quickly from each source (a usage
    error from the flag); t at the bound runs."""

    def run(t):
        if source == "model":
            payload = json.loads(model_file.read_text())
            payload["t"] = t
            payload["encoding"]["feature_len"] = t * payload["encoding"]["slot_width"]
            model = tmp_path / "m.json"
            model.write_text(json.dumps(payload))
            entry = _entry(manifest, "StoppingForCrosser")
            return run_cli(
                "explain", "--trace", str(corpus / entry["file"]), "--model", str(model),
                "--frame", str(entry["frame"]), "--actor", entry["actor"], "--action", entry["action"],
                timeout=10,
            )
        config = {"hyperparams": {"n_trees": 2, "max_depth": 3}}
        flags = ["--t", str(t)] if source == "flag" else []
        if source == "config":
            config["t"] = t
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return run_cli(
            "train", "--traces", str(corpus), "--config", str(path), *flags,
            "--out", str(tmp_path / "out.json"), timeout=10,
        )

    over = run(MAX_CHAIN_LENGTH + 1)
    assert over.returncode == (2 if source == "flag" else 1)
    assert f"must be in 1..{MAX_CHAIN_LENGTH}, got {MAX_CHAIN_LENGTH + 1}" in over.stderr
    assert "Traceback" not in over.stderr
    at_bound = run(MAX_CHAIN_LENGTH)
    assert at_bound.returncode == 0, at_bound.stderr


@pytest.mark.parametrize("command", ["gen", "train", "bench"])
def test_negative_seed_flag_is_usage_error(corpus, tmp_path, command):
    out = tmp_path / "out"
    argv = {
        "gen": ["--scenes", "2", "--out", str(out)],
        "train": ["--traces", str(corpus), "--out", str(out)],
        "bench": ["--objects", "2", "--frames", "2"],
    }[command]
    result = run_cli(command, *argv, "--seed", "-1", timeout=10)
    assert result.returncode == 2
    assert "argument --seed: must be >= 0, got -1" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == "" and not out.exists()


def test_negative_config_seed_refused_before_any_trace_is_read(corpus, tmp_path):
    config = tmp_path / "c.json"
    config.write_text('{"seed": -5}')
    out = tmp_path / "m.json"
    result = run_cli("train", "--traces", str(corpus), "--config", str(config), "--out", str(out), timeout=10)
    assert result.returncode == 1
    assert result.stderr == f"error: train: config {config}: seed must be >= 0, got -5\n"
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("source", ["flag", "config", "model"])
def test_tree_count_is_bounded(corpus, manifest, model_file, tmp_path, source):
    """n_trees above MAX_TREES is refused quickly from each source (a usage
    error from the flag)."""
    over = MAX_TREES + 1
    if source == "model":
        payload = json.loads(model_file.read_text())
        payload["hyperparams"]["n_trees"] = over
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload))
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model),
            "--frame", str(entry["frame"]), "--actor", entry["actor"], "--action", entry["action"],
            timeout=10,
        )
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"hyperparams": {"n_trees": over}} if source == "config" else {}))
        flags = ["--n-trees", str(over)] if source == "flag" else []
        result = run_cli(
            "train", "--traces", str(corpus), "--config", str(config), *flags,
            "--out", str(tmp_path / "out.json"), timeout=10,
        )
    assert result.returncode == (2 if source == "flag" else 1)
    assert f"must be in 1..{MAX_TREES}, got {over}" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("source", ["config", "model"])
def test_band_count_is_bounded(corpus, manifest, model_file, tmp_path, monkeypatch, capsys, source):
    """More than MAX_BANDS distance bands in a config or model file is
    exit 1.  The bound is patched to one under the default 5 bands, so that
    no large band list is built."""
    monkeypatch.setattr(calculi, "MAX_BANDS", 4)
    if source == "model":
        entry = _entry(manifest, "StoppingForCrosser")
        argv = [
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model_file),
            "--frame", str(entry["frame"]), "--actor", entry["actor"], "--action", entry["action"],
        ]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"calculi": asdict(calculi.DEFAULT_CONFIG)}))
        argv = ["train", "--traces", str(corpus), "--config", str(config), "--out", str(tmp_path / "m.json")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "at most 4 distance bands, got 5" in err and out == ""


def test_objects_per_frame_are_bounded(tmp_path, monkeypatch, capsys):
    """A trace frame with more than MAX_OBJECTS_PER_FRAME objects is exit 1
    from ``qxg build``.  The bound is patched small, so that no large frame
    is built."""
    monkeypatch.setattr("qxg.scene.MAX_OBJECTS_PER_FRAME", 2)
    box = {"x": [0, 1], "y": [0, 1]}
    trace = tmp_path / "crowd.jsonl"
    trace.write_text(
        json.dumps({"type": "header", "scene_id": "s", "version": 1}) + "\n"
        + json.dumps({"type": "frame", "index": 0, "timestamp": 0.0,
                      "objects": [{"id": oid, "class": "car", "bbox": box} for oid in "abc"]}) + "\n"
    )
    assert main(["build", "--trace", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert "line 2: at most 2 objects per frame, got 3 in frame 0" in err and out == ""


def test_a_key_error_from_a_handler_is_not_a_refusal(monkeypatch, capsys):
    """A bare KeyError inside a handler is a fault of the program, not of
    its input: main lets it out, not ``unknown key`` with exit 1."""

    def broken(args):
        raise KeyError("slot")

    monkeypatch.setattr(cli, "cmd_build", broken)
    with pytest.raises(KeyError, match="slot"):
        main(["build", "--trace", "t.jsonl"])
    assert capsys.readouterr().err == ""


def test_tree_count_at_the_bound_is_accepted():
    args = build_parser().parse_args(["train", "--traces", "t", "--n-trees", str(MAX_TREES)])
    assert args.n_trees == MAX_TREES
    assert Hyperparams(n_trees=MAX_TREES).n_trees == MAX_TREES


class TestBench:
    def test_json_fields(self):
        result = run_cli("bench", "--objects", "2", "--frames", "3")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) == {"n_objects", "n_frames", "median_ms", "p95_ms", "mean_pairs"}
        assert payload["mean_pairs"] == 1.0  # two objects, one pair
        assert payload["n_frames"] == 3

    def test_scaling_mode(self):
        result = run_cli("bench", "--scaling", "4,8", "--frames", "3")
        payload = json.loads(result.stdout)
        assert [r["n_objects"] for r in payload["results"]] == [4, 8]
        assert "exponent" in payload

    def test_too_few_objects_is_usage_error(self):
        assert run_cli("bench", "--objects", "1").returncode == 2

    @pytest.mark.parametrize(
        "flag, value, bound",
        [
            ("--objects", MAX_BENCH_OBJECTS + 1, f"2..{MAX_BENCH_OBJECTS}"),
            ("--scaling", f"20,{MAX_BENCH_OBJECTS + 1}", f"2..{MAX_BENCH_OBJECTS}"),
            ("--frames", MAX_BENCH_FRAMES + 1, f"1..{MAX_BENCH_FRAMES}"),
        ],
        ids=["objects", "scaling", "frames"],
    )
    def test_one_over_a_size_bound_is_usage_error(self, flag, value, bound):
        # refused by argparse, before any crowd is generated
        result = run_cli("bench", flag, str(value), timeout=10)
        assert result.returncode == 2
        over = str(value).split(",")[-1]
        assert f"argument {flag}: must be in {bound}, got {over}" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_size_bounds_admit_the_criterion_runs(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--objects", "160", "--frames", "30"])
        assert (args.objects, args.frames) == (160, 30)
        args = parser.parse_args(["bench", "--scaling", "20,40,80,160", "--frames", "30"])
        assert args.scaling == [20, 40, 80, 160]
        args = parser.parse_args(
            ["bench", "--objects", str(MAX_BENCH_OBJECTS), "--frames", str(MAX_BENCH_FRAMES)]
        )  # parsed only: a run this size takes about a minute
        assert (args.objects, args.frames) == (MAX_BENCH_OBJECTS, MAX_BENCH_FRAMES)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--scenes", "x"], "argument --scenes: must be an integer, got 'x'"),
        (["train", "--traces", "t", "--t", "2.5"], "argument --t: must be an integer, got '2.5'"),
        (["bench", "--objects", "many"], "argument --objects: must be an integer, got 'many'"),
        (["eval", "--traces", "t", "--model", "m", "--threshold", "abc"],
         "argument --threshold: must be a number, got 'abc'"),
    ],
    ids=["positive-int", "positive-int-float", "crowd-size", "finite-float"],
)
def test_usage_errors_name_no_private_helper(argv, message):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert message in result.stderr
    assert not re.search(r"\b_[a-z]", result.stderr), result.stderr


@pytest.mark.skipif(shutil.which("qxg") is None, reason="console script not on PATH")
def test_console_script():
    result = subprocess.run(["qxg", "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "gen" in result.stdout and "bench" in result.stdout
