"""The release gate: every stated requirement, one verdict line each.

Each test prints ``[criterion N] name: PASS/FAIL (detail)`` outside pytest's
capture so the verdicts survive into piped output, then asserts.  Budgets
and thresholds are written out literally rather than shared through
constants, so a reader can audit each criterion in one place.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from qxg.builder import Builder, build, export_graph, import_graph
from qxg.calculi import (
    Allen,
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
    star4_relation,
    DEFAULT_CONFIG,
)
from qxg.explainer import (
    Hyperparams,
    build_dataset,
    evaluate,
    explain,
    model_from_json,
    model_to_json,
    predict_scores,
    train,
)
from qxg.scene import NO_CAUSE, CauseRecord, load_trace, serialize_scene
from qxg.synthgen import KINDS, ScenarioSpec, generate_corpus, generate_dataset, generate_scene

from test_calculi import _random_interval, oracle_allen


def _verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qxg", *args], capture_output=True, text=True
    )


def test_criterion_1_calculi_oracle(capsys):
    """allen_relation agrees with the brute-force classifier on 10,000 pairs."""
    rng = random.Random(20240817)
    pairs = [(_random_interval(rng), _random_interval(rng)) for _ in range(10_000)]
    start = time.perf_counter()
    mismatches = 0
    for a, b in pairs:
        if allen_relation(a, b) is not oracle_allen(a, b):  # oracle asserts exactly-one
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _verdict(
        capsys, 1, "calculi oracle equivalence", ok,
        f"{mismatches} mismatches in 10000 pairs, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_converse_suite(capsys):
    """Involutions exhaustively; symmetry and rotation on random samples."""
    failures = []

    ra_values = [RARelation(x, y) for x, y in itertools.product(Allen, Allen)]
    if not all(converse_ra(converse_ra(r)) == r for r in ra_values):
        failures.append("RA involution")
    if len(ra_values) != 169:
        failures.append("RA enumeration")

    qtc_values = [QTCBRelation(a, b) for a, b in itertools.product(Motion, Motion)]
    if not all(converse_qtcb(converse_qtcb(r)) == r for r in qtc_values):
        failures.append("QTC_b involution")

    bands = [QDCRelation(i, name) for i, name in enumerate(DEFAULT_CONFIG.qdc_band_names)]
    if not all(converse_qdc(converse_qdc(r)) == r for r in bands):
        failures.append("QDC involution")
    if not all(converse_star4(converse_star4(s)) == s for s in Sector):
        failures.append("STAR_4 involution")

    rng = random.Random(20240818)
    sym_bad = sum(
        allen_relation(a, b) is not converse_allen(allen_relation(b, a))
        for a, b in ((_random_interval(rng), _random_interval(rng)) for _ in range(10_000))
    )
    if sym_bad:
        failures.append(f"allen symmetry ({sym_bad} bad)")

    cycle = {Sector.NE: Sector.NW, Sector.NW: Sector.SW, Sector.SW: Sector.SE, Sector.SE: Sector.NE}
    rot_bad = 0
    for _ in range(1_000):
        dx = rng.choice([-1, 1]) * rng.uniform(0.1, 50.0)
        dy = rng.choice([-1, 1]) * rng.uniform(0.1, 50.0)
        ref = Point2D(rng.uniform(-20, 20), rng.uniform(-20, 20))
        before = star4_relation(ref, Point2D(ref.x + dx, ref.y + dy))
        after = star4_relation(ref, Point2D(ref.x - dy, ref.y + dx))  # +90 degrees
        rot_bad += after is not cycle[before]
    if rot_bad:
        failures.append(f"STAR_4 rotation ({rot_bad} bad)")

    _verdict(
        capsys, 2, "converse involution & symmetry", not failures,
        "169 RA + 16 QTC_b + 5 bands + 4 sectors exhaustive, 10000 symmetry, "
        f"1000 rotations; failures: {failures or 'none'}",
    )


def test_criterion_3_incremental_equals_batch(capsys):
    """Folding push_frame matches one-shot construction on 100 mixed scenes."""
    start = time.perf_counter()
    checked = 0
    mismatch = None
    for seed in range(100):
        scene, _, _ = generate_scene(ScenarioSpec(KINDS[seed % 4], seed=seed))
        incremental = Builder(scene.scene_id)
        for frame in scene.frames:
            incremental.push_frame(frame)
        batch = build(scene)
        a, b = incremental.graph, batch
        if (
            a.node_classes != b.node_classes
            or set(a.edges) != set(b.edges)
            or any(
                a.edges[k].frames != b.edges[k].frames or a.edges[k].codes != b.edges[k].codes
                for k in a.edges
            )
        ):
            mismatch = scene.scene_id
            break
        # spot check one edge tuple-for-tuple through the decoding path
        key = next(iter(sorted(a.edges)))
        if a.edge_chain(*key, math.inf, math.inf) != b.edge_chain(*key, math.inf, math.inf):
            mismatch = scene.scene_id
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatch is None and checked == 100 and elapsed < 10.0
    _verdict(
        capsys, 3, "incremental = batch", ok,
        f"{checked}/100 scenes identical, {elapsed:.2f}s < 10s"
        + (f", first mismatch {mismatch}" if mismatch else ""),
    )


def test_criterion_4_realtime_construction(capsys):
    """cmd_bench: K=160 under 50 ms median; quadratic-ish growth."""
    single = _cli("bench", "--objects", "160", "--frames", "30")
    assert single.returncode == 0, single.stderr
    payload = json.loads(single.stdout)

    scaling = _cli("bench", "--scaling", "20,40,80,160", "--frames", "30")
    assert scaling.returncode == 0, scaling.stderr
    exponent = json.loads(scaling.stdout)["exponent"]

    ok = payload["median_ms"] < 50.0 and 1.7 <= exponent <= 2.3
    _verdict(
        capsys, 4, "real-time construction", ok,
        f"K=160 median {payload['median_ms']:.1f} ms < 50 ms, "
        f"p95 {payload['p95_ms']:.1f} ms, scaling exponent {exponent:.2f} in [1.7, 2.3]",
    )


def test_criterion_5_end_to_end_quality(capsys):
    """400/100 synthetic scenes: metrics >= 0.85, cause recovery >= 0.80."""
    start = time.perf_counter()
    train_items, test_items = generate_corpus(100, 25, master_seed=42)
    assert len(train_items) == 400 and len(test_items) == 100

    dataset = build_dataset([(s, a) for s, a, _ in train_items], t=5)
    model = train(dataset, seed=42, hyperparams=Hyperparams())
    test_set = build_dataset([(s, a) for s, a, _ in test_items], t=5)
    report = evaluate(model, test_set, threshold=0.5)

    metrics_ok = all(
        m.precision >= 0.85 and m.recall >= 0.85 for m in report.per_action.values()
    )

    hits = total = 0
    for scene, annotation, truth in test_items:
        if truth.cause_id == NO_CAUSE or annotation.action not in ("Stopping", "Accelerating"):
            continue
        result = explain(
            model, build(scene), annotation.actor_id, annotation.frame_index, annotation.action
        )
        total += 1
        hits += bool(result.candidates) and result.candidates[0].other == truth.cause_id
    recovery = hits / total if total else 0.0
    elapsed = time.perf_counter() - start

    summary = ", ".join(
        f"{a} p={m.precision:.3f} r={m.recall:.3f}"
        for a, m in sorted(report.per_action.items())
    )
    ok = metrics_ok and recovery >= 0.80 and elapsed < 300.0
    _verdict(
        capsys, 5, "end-to-end explanation quality", ok,
        f"{summary}; top-1 recovery {hits}/{total} = {recovery:.2f} >= 0.80; "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_6_determinism(capsys, tmp_path):
    """Two identical runs produce byte-identical traces, model, explanation."""
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        result = _cli("gen", "--scenes", "12", "--seed", "42", "--out", str(d))
        assert result.returncode == 0, result.stderr
    trace_files = sorted(p.name for p in dirs[0].iterdir())
    traces_ok = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in trace_files
    )

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hyperparams": {"n_trees": 16, "max_depth": 8}}))
    models = [tmp_path / "m1.json", tmp_path / "m2.json"]
    for out in models:
        result = _cli("train", "--traces", str(dirs[0]), "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
    model_ok = models[0].read_bytes() == models[1].read_bytes()

    trace = next(p for p in dirs[0].iterdir() if "StoppingForCrosser" in p.name)
    runs = [
        _cli(
            "explain", "--trace", str(trace), "--model", str(models[0]),
            "--frame", "8", "--actor", "ego", "--action", "Stopping",
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    explain_ok = runs[0].stdout == runs[1].stdout and runs[0].stdout

    ok = traces_ok and model_ok and bool(explain_ok)
    _verdict(
        capsys, 6, "determinism", ok,
        f"{len(trace_files)} generated files (traces + manifest) byte-identical: {traces_ok}, "
        f"model byte-identical: {model_ok}, explanation byte-identical: {bool(explain_ok)}",
    )


def test_criterion_7_round_trips(capsys, tmp_path):
    """Traces, graphs, and models all survive serialize/parse unchanged."""
    items = generate_dataset(3, master_seed=77)

    trace_bad = 0
    for scene, annotation, truth in items:
        cause = CauseRecord(
            scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id
        )
        blob = serialize_scene(scene, [annotation], [cause])
        scene2, annotations2, causes2 = load_trace(blob)
        if scene2 != scene or annotations2 != [annotation] or causes2 != [cause]:
            trace_bad += 1
        if serialize_scene(scene2, annotations2, causes2) != blob:
            trace_bad += 1

    graph_bad = 0
    for scene, _, _ in items:
        graph = build(scene)
        restored = import_graph(export_graph(graph, "json"))
        if (
            restored.scene_id != graph.scene_id
            or restored.band_names != graph.band_names
            or restored.node_classes != graph.node_classes
            or restored.edges != graph.edges
        ):
            graph_bad += 1

    dataset = build_dataset([(s, a) for s, a, _ in items], t=5)
    model = train(dataset, seed=7, hyperparams=Hyperparams(n_trees=12, max_depth=8))
    restored = model_from_json(model_to_json(model))
    vectors = np.random.default_rng(99).integers(0, 2, size=(100, dataset.spec.feature_len))
    vectors = vectors.astype(np.float64)
    before = predict_scores(model, vectors)
    after = predict_scores(restored, vectors)
    model_ok = all(np.array_equal(before[a], after[a]) for a in before)

    ok = trace_bad == 0 and graph_bad == 0 and model_ok
    _verdict(
        capsys, 7, "lossless round trips", ok,
        f"{len(items)} traces, {len(items)} graphs, model scores identical on "
        f"100 random vectors: {model_ok}",
    )
