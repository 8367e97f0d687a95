"""End-to-end checks of the command-line interface via subprocesses."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from qxg.builder import build, import_graph
from qxg.calculi import CalculiConfig
from qxg.cli import AppConfig, load_app_config
from qxg.defs import Hyperparams
from qxg.scene import CauseRecord, load_trace, serialize_scene
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

    def test_unknown_actor(self, corpus, manifest, model_file):
        entry = _entry(manifest, "StoppingForCrosser")
        result = run_cli(
            "explain", "--trace", str(corpus / entry["file"]), "--model", str(model_file),
            "--frame", "8", "--actor", "ghost", "--action", "Stopping",
        )
        assert result.returncode == 1 and "unknown actor" in result.stderr

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
        ],
        ids=["nan-edge", "bool-edge", "nan-epsilon", "int-names", "repeated-names", "float-t"],
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
        lines = result.stdout.splitlines()
        assert lines[0].split() == ["action", "precision", "recall", "support"]
        names = [l.split()[0] for l in lines[1:]]
        assert names == ["Accelerating", "Cruising", "Stopping", "macro"]
        assert lines[-1].startswith("macro average")

    def test_json_report(self, corpus, model_file, tmp_path):
        out = tmp_path / "metrics.json"
        result = run_cli(
            "eval", "--traces", str(corpus), "--model", str(model_file), "--out", str(out)
        )
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert set(payload["per_action"]) == {"Accelerating", "Cruising", "Stopping"}
        assert payload["n_rows"] > 0

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

    def test_model_without_actions_is_runtime_error(self, corpus, model_file, tmp_path):
        payload = json.loads(model_file.read_bytes())
        payload["actions"] = {}
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(payload))
        result = run_cli("eval", "--traces", str(corpus), "--model", str(empty), timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: eval:") and "Traceback" not in result.stderr


class TestBench:
    def test_json_fields(self):
        result = run_cli("bench", "--objects", "2", "--frames", "3")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["mean_pairs"] == 1.0  # two objects, one pair
        assert payload["median_ns"] == pytest.approx(payload["median_ms"] * 1e6)

    def test_scaling_mode(self):
        result = run_cli("bench", "--scaling", "4,8", "--frames", "3")
        payload = json.loads(result.stdout)
        assert [r["n_objects"] for r in payload["results"]] == [4, 8]
        assert "exponent" in payload

    def test_too_few_objects_is_usage_error(self):
        assert run_cli("bench", "--objects", "1").returncode == 2


@pytest.mark.skipif(shutil.which("qxg") is None, reason="console script not on PATH")
def test_console_script():
    result = subprocess.run(["qxg", "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "gen" in result.stdout and "bench" in result.stdout
