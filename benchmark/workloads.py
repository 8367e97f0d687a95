"""The three workloads, their generated inputs and their output checks.

Every workload is closed loop: one client, one process at a time, the next
operation sent only when the previous one returned.  A *pass* is one unit a
user waits for (a whole stream, one sweep over the query set, one CLI
session); a run repeats whole passes.

Timed regions call the program through module attributes (``builder.Builder``,
``explainer.explain``...), so a traced run sees its wrappers there.  The
checks use references taken at import, before any wrapper exists, and run
outside the timed regions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
from stats import median, percentile

from qxg import builder, explainer, scene, synthgen
from qxg.builder import QXG
from qxg.builder import build as _build
from qxg.builder import export_graph as _export_graph
from qxg.builder import import_graph as _import_graph
from qxg.calculi import BBox2D, Interval, relation_tuple
from qxg.explainer import extract_features as _extract_features
from qxg.explainer import explanation_to_dict as _explanation_to_dict
from qxg.explainer import model_from_json as _model_from_json
from qxg.explainer import model_to_json as _model_to_json
from qxg.explainer import score as _score
from qxg.scene import NO_CAUSE, CauseRecord, Frame, ObjectState
from qxg.scene import serialize_scene as _serialize_scene

BENCH_DIR = Path(__file__).resolve().parent
QUALITY_FLOOR = 0.85  # per-action precision and recall (acceptance criterion 5)
RECOVERY_FLOOR = 0.80  # top-1 planted-cause recovery (acceptance criterion 5)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    better: str
    n: int  # samples behind the value


@dataclass
class PassResult:
    op_s: list[float]  # wall time of each timed operation that succeeded
    busy_s: float  # timed work in the pass
    attempted: int
    failed: int
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    digest: str = ""  # sha256 of every output of the pass
    child_spans: list = field(default_factory=list)  # one span list per subprocess


def sha256_hex(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def trace_bytes(item) -> bytes:
    """One synthgen ``(scene, annotation, truth)`` as trace JSONL bytes."""
    sc, annotation, truth = item
    cause = CauseRecord(sc.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)
    return _serialize_scene(sc, [annotation], [cause])


def crowd_boxes(seed: int, n_objects: int, n_frames: int, area: float = 150.0) -> np.ndarray:
    """Random-walk boxes with momentum, reflected at the walls of a square
    area; shape ``(frames, objects, 4)`` as ``x_lo, x_hi, y_lo, y_hi``."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, area, (n_objects, 2))
    vel = rng.normal(0.0, 0.4, (n_objects, 2))
    half = rng.uniform(0.4, 1.3, (n_objects, 2))
    out = np.empty((n_frames, n_objects, 4))
    for f in range(n_frames):
        if f:
            vel = 0.8 * vel + rng.normal(0.0, 0.25, (n_objects, 2))
            pos = pos + vel
            low, high = pos < 0.0, pos > area
            pos[low], vel[low] = -pos[low], -vel[low]
            pos[high], vel[high] = 2 * area - pos[high], -vel[high]
        out[f, :, 0::2] = pos - half
        out[f, :, 1::2] = pos + half
    return out


def _box(row) -> BBox2D:
    return BBox2D(Interval(float(row[0]), float(row[1])), Interval(float(row[2]), float(row[3])))


_edge_chain = QXG.edge_chain  # unwrapped, for checks


def _relation_label(rel) -> str:
    if rel is None:
        return "missing"
    return ",".join((rel.ra.x.label, rel.ra.y.label, rel.qtcb.a.label, rel.qtcb.b.label,
                     rel.qdc.band_name, rel.star4.label))


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Workload:
    name = ""
    why = ""
    # Spans the workload must record; one with no call is a lost hook.
    expected: tuple[str, ...] = ()
    expected_in_setup: tuple[str, ...] = ()
    trace_dir: Path | None = None  # set while a traced phase runs
    reference: str | None = None  # output digest of the run's first pass
    model_digest: str | None = None  # sha256 of a model trained in set-up

    def setup(self, seed: int, workdir: Path) -> str:
        """Generate the inputs; return the sha256 of their bytes."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def report(self, passes: list[PassResult]) -> list[Metric]:
        """The workload's own end-to-end metrics, by the names users know."""
        raise NotImplementedError

    def quality_ok(self, passes: list[PassResult]) -> bool:
        return True

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()

    def _compare(self, digest: str) -> bool:
        """True when the outputs match the run's first pass."""
        if self.reference is None:
            self.reference = digest
        return digest == self.reference


def _percentile_metrics(prefix: str, samples_s: list[float]) -> list[Metric]:
    ms = [x * 1e3 for x in samples_s]
    if not ms:
        return []
    out = [Metric(f"{prefix}_p50_ms", median(ms), "ms", "lower", len(ms))]
    p95 = percentile(ms, 0.95)
    if p95 is not None:
        out.append(Metric(f"{prefix}_p95_ms", p95, "ms", "lower", len(ms)))
    return out


class CrowdStream(Workload):
    name = "crowd-stream"
    why = "dense crowd (K=160, every pair in every frame): the push_frame pair loop and edge-history appends"
    expected = ("builder.push_frame",)
    K = 160
    FRAMES = 200
    SAMPLED_EDGES = 256

    def setup(self, seed, workdir):
        self.seed = seed
        boxes = crowd_boxes(seed, self.K, self.FRAMES)
        self.ids = [f"p{i:03d}" for i in range(self.K)]
        self.boxes = [[_box(row) for row in frame] for frame in boxes]
        self.frames = [
            Frame(f, f * 0.1, tuple(ObjectState(oid, "pedestrian", box) for oid, box in zip(self.ids, row)))
            for f, row in enumerate(self.boxes)
        ]
        return sha256_hex([boxes.tobytes()])

    def run_pass(self):
        b = builder.Builder("crowd")
        op_s, pairs = [], []
        failed = set()
        start = perf_counter()
        for frame in self.frames:
            t0 = perf_counter()
            try:
                stats = b.push_frame(frame)
            except Exception:
                failed.add(frame.index)
                continue
            op_s.append(perf_counter() - t0)
            pairs.append((frame.index, stats.pairs_updated))
        busy = perf_counter() - start

        expected_pairs = self.K * (self.K - 1) // 2
        failed.update(f for f, n in pairs if n != expected_pairs)
        sample = self._sampled_relations(b.graph)
        failed.update(f for f, got, expect in sample if got != expect)
        digest = sha256_hex(
            [repr(pairs).encode()] + [_relation_label(got).encode() for _, got, _ in sample]
        )
        if not self._compare(digest):
            failed.add(self.FRAMES - 1)
        total_pairs = sum(n for _, n in pairs)
        return PassResult(op_s, busy, self.FRAMES, len(failed), counts={"pairs": total_pairs}, digest=digest)

    def _sampled_relations(self, graph) -> list[tuple[int, object, object]]:
        """A seeded sample of ``(frame, stored relation, relation from the
        pure calculi functions)``; the stored one is None when missing."""
        rng = random.Random(self.seed)
        out = []
        for _ in range(self.SAMPLED_EDGES):
            f = rng.randrange(self.FRAMES)
            i, j = sorted(rng.sample(range(self.K), 2))
            chain = _edge_chain(graph, self.ids[i], self.ids[j], f, 1)
            got = chain[0][1] if chain and chain[0][0] == f else None
            prev = self.boxes[f - 1] if f else None
            expect = relation_tuple(
                prev[i] if prev else None, self.boxes[f][i], prev[j] if prev else None, self.boxes[f][j]
            )
            out.append((f, got, expect))
        return out

    def report(self, passes):
        frames = [x for p in passes for x in p.op_s]
        pairs = sum(p.counts["pairs"] for p in passes)
        busy = sum(p.busy_s for p in passes)
        return _percentile_metrics("frame", frames) + [
            Metric("pairs_per_s", pairs / busy, "pairs/s", "higher", len(passes))
        ]


@dataclass(frozen=True)
class Query:
    blob: bytes
    frame: int
    actor: str
    action: str
    cause: str


class ExplainServe(Workload):
    name = "explain-serve"
    why = "held-out explain queries with 2-10 distractors: forest scoring and the decision-path walk"
    expected = (
        "scene.load_trace", "builder.push_frame", "builder.edge_chain", "calculi.converse_tuple",
        "explainer.extract_features", "explainer.score", "explainer.explain",
    )
    expected_in_setup = ("synthgen.generate_corpus",)
    TRAIN_PER_KIND = 100
    REPEATS = 6  # 6 x 4 kinds x 9 distractor counts = 216 queries

    def setup(self, seed, workdir):
        self.seed = seed
        train_items, _ = synthgen.generate_corpus(self.TRAIN_PER_KIND, 0, master_seed=seed)
        dataset = explainer.build_dataset([(s, a) for s, a, _ in train_items])
        self.model = explainer.train(dataset, seed=seed)
        self.model_digest = sha256_hex([_model_to_json(self.model)])
        # Every seed draws the same mix: each kind with each distractor
        # count from 2 to 10, REPEATS times, in a seeded order.
        mix = [(kind, n) for kind in synthgen.KINDS for n in range(2, 11)] * self.REPEATS
        random.Random(seed).shuffle(mix)
        scene_seeds = np.random.SeedSequence([seed, 1]).generate_state(len(mix), dtype=np.uint64)
        self.queries = []
        for (kind, distractors), scene_seed in zip(mix, scene_seeds):
            spec = synthgen.ScenarioSpec(kind, n_distractors=distractors, seed=int(scene_seed))
            sc, annotation, truth = synthgen.generate_scene(spec)
            self.queries.append(
                Query(
                    trace_bytes((sc, annotation, truth)),
                    annotation.frame_index, annotation.actor_id, annotation.action, truth.cause_id,
                )
            )
        self.checked = False
        return sha256_hex([q.blob for q in self.queries])

    def run_pass(self):
        model = self.model
        op_s, explanations, failed = [], [], 0
        for q in self.queries:
            t0 = perf_counter()
            try:
                sc, _, _ = scene.load_trace(q.blob)
                b = builder.Builder(sc.scene_id, model.cfg)
                for frame in sc.frames:
                    if frame.index > q.frame:
                        break
                    b.push_frame(frame)
                result = explainer.explain(model, b.graph, q.actor, q.frame, q.action)
            except Exception:
                failed += 1
                explanations.append(None)
                continue
            op_s.append(perf_counter() - t0)
            explanations.append((result, b.graph))

        hits = planted = 0
        digests = []
        for q, entry in zip(self.queries, explanations):
            if entry is None:
                digests.append(b"")
                continue
            result, graph = entry
            blob = json.dumps(_explanation_to_dict(result), sort_keys=True).encode()
            digests.append(hashlib.sha256(blob).digest())
            if not self.checked and not self._explanation_ok(q, result, graph):
                failed += 1
            if q.cause != NO_CAUSE:
                planted += 1
                hits += bool(result.candidates) and result.candidates[0].other == q.cause
        self.checked = True
        digest = sha256_hex(digests)
        if not self._compare(digest):
            failed += 1
        return PassResult(
            op_s, sum(op_s), len(self.queries), failed,
            counts={"hits": hits, "planted": planted},
            digest=digest,
        )

    def _explanation_ok(self, q: Query, result, graph) -> bool:
        """Scores equal ``explainer.score`` on each vector; order is
        (-score, object id)."""
        vectors = {s.other: s.vector for s in _extract_features(graph, q.actor, q.frame, self.model.spec)}
        for c in result.candidates:
            if c.other not in vectors or _score(self.model, q.action, vectors[c.other]) != c.score:
                return False
        keys = [(-c.score, c.other) for c in result.candidates]
        return keys == sorted(keys) and len(keys) == len(vectors)

    def quality_ok(self, passes):
        first = passes[0].counts
        return first["planted"] > 0 and first["hits"] / first["planted"] >= RECOVERY_FLOOR

    def report(self, passes):
        queries = [x for p in passes for x in p.op_s]
        first = passes[0].counts
        recovery = first["hits"] / first["planted"] if first["planted"] else 0.0
        return _percentile_metrics("explain", queries) + [
            Metric("top1_recovery", recovery, "1", "higher", first["planted"])
        ]


class CliFlow(Workload):
    name = "cli-flow"
    why = "python -m qxg train, held-out eval, explain and build as subprocesses: start-up, imports, model loads, file I/O, trace parsing and tree growing"
    expected = (
        "cli.main.train", "cli.main.eval", "cli.main.explain", "cli.main.build",
        "scene.load_trace", "builder.push_frame", "builder.build", "builder.edge_chain",
        "builder.export_graph", "calculi.converse_tuple", "explainer.extract_features",
        "explainer.build_dataset", "explainer.train", "explainer.predict_scores",
        "explainer.score", "explainer.explain", "explainer.model_to_json",
        "explainer.model_from_json",
    )
    expected_in_setup = ("synthgen.generate_corpus",)
    TRAIN_PER_KIND = 50  # 200 training scenes
    TEST_PER_KIND = 25  # 100 held-out scenes
    CALLS = 20  # explain calls on held-out scenes, and as many build calls
    TIMEOUT_S = 60

    def setup(self, seed, workdir):
        """A training directory and a held-out one.  ``qxg train`` reads a
        whole directory, so ``eval`` scores the held-out one (``--split
        all``): ``--split test`` on the training directory would score scenes
        the model was trained on."""
        self.workdir = workdir
        train_items, test_items = synthgen.generate_corpus(
            self.TRAIN_PER_KIND, self.TEST_PER_KIND, master_seed=seed
        )
        blobs = []
        self.queries = []
        self.traces = {}
        for split, items in (("train", train_items), ("test", test_items)):
            traces = self.traces[split] = workdir / split
            shutil.rmtree(traces, ignore_errors=True)
            traces.mkdir(parents=True)
            for i, item in enumerate(items):
                blob = trace_bytes(item)
                path = traces / f"{i:03d}_{item[0].scene_id}.jsonl"
                path.write_bytes(blob)
                blobs.append(blob)
                if split == "test" and i < self.CALLS:
                    sc, annotation, _ = item
                    self.queries.append((path, sc, annotation))
        self.calls_made = 0
        return sha256_hex(blobs)

    def _commands(self) -> list[tuple[str, list[str], object]]:
        """``(command, argv, scene the output must match)`` in call order."""
        model = str(self.workdir / "model.json")
        commands = [
            ("train", ["train", "--traces", str(self.traces["train"]), "--out", model], None),
            ("eval", ["eval", "--traces", str(self.traces["test"]), "--model", model,
                      "--split", "all", "--out", str(self.workdir / "metrics.json")], None),
        ]
        for path, sc, annotation in self.queries:
            commands.append(("explain", [
                "explain", "--trace", str(path), "--model", model,
                "--frame", str(annotation.frame_index), "--actor", annotation.actor_id,
                "--action", annotation.action,
            ], sc))
            commands.append(("build", ["build", "--trace", str(path), "--format", "json"], sc))
        return commands

    def _run(self, argv: list[str]):
        """One CLI call; returns (process, wall seconds, spans or None,
        start-up seconds or None)."""
        src = str(BENCH_DIR.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        spans_path = None
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "qxg", *argv]
        else:
            self.calls_made += 1
            spans_path = self.trace_dir / f"call-{self.calls_made}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(spans_path), *argv]
        t0_ns = perf_counter_ns()
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=self.workdir, timeout=self.TIMEOUT_S)
        wall = perf_counter() - t0
        if spans_path is None or not spans_path.exists():
            return proc, wall, None, None
        payload = json.loads(spans_path.read_text("utf-8"))
        spans_path.unlink()
        return proc, wall, payload["spans"], (payload["imported_ns"] - t0_ns) / 1e9

    def run_pass(self):
        op_s, failed, outputs = [], 0, []
        samples: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        child_spans = []
        for command, argv, sc in self._commands():
            try:
                proc, wall, spans, startup = self._run(argv)
            except (subprocess.TimeoutExpired, OSError):
                failed += 1
                continue
            if spans is not None:
                child_spans.append(spans)
                samples.setdefault("startup_s", []).append(startup)
            ok = proc.returncode == 0
            if ok and command == "train":
                blob = (self.workdir / "model.json").read_bytes()
                ok = model_round_trips(blob)
                outputs.append(blob)
            elif ok and command == "eval":
                blob = (self.workdir / "metrics.json").read_bytes()
                counts = eval_quality(blob)
                ok = counts["quality_ok"]
                outputs.append(blob)
            elif ok and command == "explain":
                ok = _ordered_explanation(proc.stdout)
                outputs.append(proc.stdout)
            elif ok and command == "build":
                ok = _graph_matches(proc.stdout, sc)
                outputs.append(proc.stdout)
            if not ok:
                failed += 1
                continue
            op_s.append(wall)
            samples.setdefault(command, []).append(wall)
        digest = sha256_hex(outputs)
        if not self._compare(digest):
            failed += 1
        return PassResult(op_s, sum(op_s), 2 + 2 * len(self.queries), failed, samples=samples,
                          counts=counts, digest=digest, child_spans=child_spans)

    def quality_ok(self, passes):
        return all(p.counts.get("quality_ok") for p in passes)

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def report(self, passes):
        def calls(command):
            return [x for p in passes for x in p.samples.get(command, ())]

        out = []
        for command, name in (("train", "cli_train_s"), ("eval", "cli_eval_s")):
            if calls(command):
                out.append(Metric(name, median(calls(command)), "s", "lower", len(calls(command))))
        for command, name in (("explain", "cli_explain_p50_ms"), ("build", "cli_build_p50_ms")):
            if calls(command):
                out.append(Metric(name, median(calls(command)) * 1e3, "ms", "lower", len(calls(command))))
        f1 = [p.counts["macro_f1"] for p in passes if "macro_f1" in p.counts]
        if f1:
            out.append(Metric("macro_f1", f1[0], "1", "higher", len(f1)))
        return out


def model_round_trips(blob: bytes) -> bool:
    """Model JSON survives load and re-save byte for byte."""
    try:
        return _model_to_json(_model_from_json(blob)) == blob
    except ValueError:
        return False


def eval_quality(blob: bytes) -> dict:
    """Macro F1 of an ``eval --out`` report, and whether every action has
    precision and recall at or above the floor."""
    try:
        per_action = json.loads(blob)["per_action"].values()
        pr = [(float(m["precision"]), float(m["recall"])) for m in per_action]
    except (ValueError, KeyError, TypeError, AttributeError):
        return {"quality_ok": False}
    f1 = [2 * p * r / (p + r) if p + r else 0.0 for p, r in pr]
    return {
        "macro_f1": sum(f1) / len(f1) if f1 else 0.0,
        "quality_ok": bool(pr) and all(p >= QUALITY_FLOOR and r >= QUALITY_FLOOR for p, r in pr),
    }


def _ordered_explanation(stdout: bytes) -> bool:
    try:
        payload = json.loads(stdout)
        keys = [(-c["score"], c["object"]) for c in payload["candidates"]]
    except (ValueError, KeyError, TypeError):
        return False
    return keys == sorted(keys)


def _graph_matches(stdout: bytes, sc) -> bool:
    """The CLI's graph JSON loads and equals ``build(scene)``, compared
    through their canonical exports."""
    try:
        graph = _import_graph(stdout)
    except ValueError:
        return False
    return _export_graph(graph) == _export_graph(_build(sc))


WORKLOADS = {w.name: w for w in (CrowdStream, ExplainServe, CliFlow)}
