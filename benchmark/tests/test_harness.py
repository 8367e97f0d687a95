"""Fast tests of the benchmark's own machinery, on tiny inputs."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stats
import tracing
import workloads
from qxg.builder import Builder, build, export_graph
from qxg.explainer import Hyperparams, build_dataset, model_to_json, train
from qxg.synthgen import generate_corpus

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


# -- percentile rule ----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 20), 0.5) is None  # 9 samples above rank 10
    assert stats.percentile(range(1, 21), 0.5) == 10  # 10 above
    assert stats.percentile(range(1, 200), 0.95) is None
    assert stats.percentile(range(1, 201), 0.95) == 190


def test_tail_metric_keeps_its_name_and_needs_ten_beyond():
    names = [m.name for m in workloads._percentile_metrics("frame", [x / 1e3 for x in range(1, 2001)])]
    assert names == ["frame_p50_ms", "frame_p95_ms"]
    names = [m.name for m in workloads._percentile_metrics("frame", [x / 1e3 for x in range(1, 150)])]
    assert names == ["frame_p50_ms"]


def test_quartile_spread_is_share_of_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- spans and self time ------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 30, 0, None],
        ["b", 40, 70, 0, None],
        ["c", 45, 50, 2, None],
    ]
    assert tracing.self_times(spans) == [50, 20, 25, 5]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0, 100, -1, None], ["a", 10, 40, 0, None], ["b", 30, 60, 0, None]]
    assert tracing.self_times(spans)[0] == 50


def test_traced_nesting_sums_to_root_duration():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_root = tracer.wrap("root", lambda: [traced_leaf() for _ in range(3)])
    traced_root()
    root = tracer.spans[0]
    assert [s[0] for s in tracer.spans] == ["root", "leaf", "leaf", "leaf"]
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert sum(tracing.self_times(tracer.spans)) == root[2] - root[1]
    totals = tracing.aggregate(tracer.spans)
    assert totals["leaf"].calls == 3


# -- hooks --------------------------------------------------------------------


def test_install_wraps_the_names_callers_use_and_restores_them():
    import qxg.builder
    import qxg.explainer

    original = qxg.builder.build
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        assert missing == []
        assert qxg.explainer.build is not original  # the name build_dataset calls
        assert qxg.explainer.build is qxg.builder.build
    finally:
        restore()
    assert qxg.builder.build is original and qxg.explainer.build is original


def test_lost_hooks_name_missing_targets_and_silent_layers():
    train_items, _ = generate_corpus(1, 0, master_seed=3)
    scene = train_items[0][0]
    gone = tracing.Hook("builder.gone", "qxg.builder", "no_such_function")
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer, tracing.HOOKS + (gone,))
    try:
        build(scene)
    finally:
        restore()
    totals = tracing.aggregate(tracer.spans)
    assert totals["builder.push_frame"].calls == len(scene.frames)
    lost = tracing.lost_hooks(totals, ("builder.push_frame", "explainer.explain"), missing)
    assert lost == ["builder.gone", "explainer.explain"]


def test_layer_metrics_are_per_pass_and_cover_the_catalogue():
    totals = {"builder.push_frame": tracing.LayerTotals(4, 8_000, {"pairs": 40})}
    values = tracing.layer_metrics(totals, passes=2)
    assert values["builder.push_frame.calls"] == 2
    assert values["builder.push_frame.self_ms"] == 0.004
    assert values["builder.push_frame.pairs"] == 20
    assert values["builder.push_frame.ns_per_pair"] == 200
    catalogue = {name for name, _, _ in tracing.layer_catalogue()}
    assert set(values) == catalogue - {"cli.startup_ms"}


def test_benchmark_json_lists_what_the_benchmark_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]]
    assert per_layer == run.PER_LAYER


# -- output checks fire on corrupted outputs ----------------------------------


@pytest.fixture(scope="module")
def tiny_serve():
    serve = workloads.ExplainServe()
    serve.TRAIN_PER_KIND = 4
    serve.REPEATS = 1
    serve.setup(5, None)
    return serve


def test_explain_serve_pass_is_clean(tiny_serve):
    result = tiny_serve.run_pass()
    assert result.failed == 0 and result.attempted == 36
    assert len(result.op_s) == 36


def test_explanation_check_fires_on_swapped_candidates(tiny_serve):
    q = next(q for q in tiny_serve.queries if q.action == "Cruising")
    from qxg.explainer import explain
    from qxg.scene import load_trace

    sc, _, _ = load_trace(q.blob)
    graph = build(sc)
    result = explain(tiny_serve.model, graph, q.actor, q.frame, q.action)
    assert len(result.candidates) >= 2
    assert tiny_serve._explanation_ok(q, result, graph)
    swapped = dataclasses.replace(result, candidates=result.candidates[::-1])
    assert not tiny_serve._explanation_ok(q, swapped, graph)
    bumped = dataclasses.replace(
        result,
        candidates=(dataclasses.replace(result.candidates[0], score=2.0),) + result.candidates[1:],
    )
    assert not tiny_serve._explanation_ok(q, bumped, graph)


def test_model_check_fires_on_mutated_bytes():
    items, _ = generate_corpus(3, 0, master_seed=1)
    model = train(build_dataset([(s, a) for s, a, _ in items]), hyperparams=Hyperparams(n_trees=3))
    blob = model_to_json(model)
    assert workloads.model_round_trips(blob)
    assert not workloads.model_round_trips(blob.replace(b'"seed":', b'"seed": ', 1))
    assert not workloads.model_round_trips(blob[:-5])


def test_crowd_edge_sample_fires_on_a_wrong_code():
    crowd = workloads.CrowdStream()
    crowd.K, crowd.FRAMES, crowd.SAMPLED_EDGES = 6, 4, 20
    crowd.setup(2, None)
    result = crowd.run_pass()
    assert result.failed == 0 and result.counts["pairs"] == 4 * 15
    b = Builder("crowd")
    for frame in crowd.frames:
        b.push_frame(frame)
    assert all(got == expect for _, got, expect in crowd._sampled_relations(b.graph))
    for history in b.graph.edges.values():
        history.codes[:] = [code ^ 1 for code in history.codes]
    assert any(got != expect for _, got, expect in crowd._sampled_relations(b.graph))


def test_cli_checks_fire_on_wrong_outputs():
    items, _ = generate_corpus(1, 0, master_seed=4)
    scene = items[0][0]
    graph_json = export_graph(build(scene))
    assert workloads._graph_matches(graph_json, scene)
    assert not workloads._graph_matches(graph_json.replace(b'"frame":0', b'"frame":99', 1), scene)
    ordered = json.dumps({"candidates": [{"object": "a", "score": 0.9}, {"object": "b", "score": 0.2}]})
    assert workloads._ordered_explanation(ordered.encode())
    swapped = json.dumps({"candidates": [{"object": "b", "score": 0.2}, {"object": "a", "score": 0.9}]})
    assert not workloads._ordered_explanation(swapped.encode())
    report = {"per_action": {"Stopping": {"precision": 0.95, "recall": 1.0},
                             "Cruising": {"precision": 1.0, "recall": 0.9}}}
    quality = workloads.eval_quality(json.dumps(report).encode())
    assert quality["quality_ok"] and quality["macro_f1"] > 0.9
    report["per_action"]["Cruising"]["recall"] = 0.8
    assert not workloads.eval_quality(json.dumps(report).encode())["quality_ok"]
    assert not workloads.eval_quality(b'{"per_action": {}}')["quality_ok"]
    assert not workloads.eval_quality(b"not json")["quality_ok"]


def test_outputs_must_match_the_first_pass():
    crowd = workloads.CrowdStream()
    assert crowd._compare("aa") and crowd._compare("aa")
    assert not crowd._compare("ab")


# -- contract -----------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "crowd-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
