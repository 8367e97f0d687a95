"""The qxg benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them, each in its own process) against the
program under ``src/`` of the checkout this file sits in.  Inputs come from
the seed alone.  Every output is checked, outside the timed regions.

With ``--trace 0`` the run repeats whole passes for ``--seconds``, setting
the workload up again in rounds spread between them (``setup_s`` is the
median set-up), and reports the end-to-end metrics.  With ``--trace 1`` it
measures half the time untraced and half with spans around the program's
public functions, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced) of every end-to-end metric.

Lines before the last describe the run for a reader: every metric with its
unit, direction and sample count, then a ``REPORT`` line of JSON with the
run metadata and input/output digests.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stats import median
from tracing import Tracer, aggregate, install, layer_catalogue, layer_metrics, lost_hooks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One thread per process.  qxg makes no BLAS calls, but importing numpy
# starts an OpenBLAS thread per core that spins for a while: in every CLI call
# that doubled the CPU time and made the calls contend for the machine's
# cores.  Set before numpy is imported; CLI subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Set-ups are spread over the run, so that setup_s is timed across the same
# stretch of machine time as the passes: SETUP_ROUNDS rounds at evenly spaced
# points of the run, each setting up again until SETUP_ROUND_S has gone (at
# least once).  setup_s is the median of all of them.
SETUP_ROUNDS, SETUP_ROUND_S = 4, 0.6

# The end-to-end metrics of the last output line: (name, unit, better).  Only
# metrics every workload has.  The timing one is a rate over the whole run,
# not a median: on a shared machine CPU speed can switch between two levels
# for tens of seconds at a time, and a median latency jumps with whichever
# level held most of a run, while a rate averages over both.  The medians and
# tails are printed above the last line.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
)
# Metrics every workload reports, whose tracing overhead goes in the per-layer
# output.
COMMON = END_TO_END + (("op_p50_ms", "ms", "lower"),)
# The per-layer metrics: the layers, then trace bookkeeping.
PER_LAYER = layer_catalogue() + [
    ("trace.lost_hooks", "count", "lower"),
    ("trace.spans", "count", "lower"),
] + [(f"trace.overhead.{name}", unit, better) for name, unit, better in COMMON]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _room_for_pass(start: float, seconds: float, walls: list[float]) -> bool:
    """True before the first pass, and while one more pass as long as the
    median one so far would end nearer to ``seconds`` after ``start`` than
    stopping now: a run of whole passes then lasts ``seconds`` on average."""
    return not walls or perf_counter() - start + median(walls) / 2 <= seconds


def run_passes(workload, seconds: float) -> list:
    """Whole passes for about ``seconds`` of wall time (at least one)."""
    passes, walls = [], []
    start = perf_counter()
    while _room_for_pass(start, seconds, walls):
        t0 = perf_counter()
        passes.append(workload.run_pass())
        walls.append(perf_counter() - t0)
    return passes


def timed_setup(workload, seed: int, workdir: Path) -> tuple[float, str]:
    start = perf_counter()
    digest = workload.setup(seed, workdir)
    return perf_counter() - start, digest


def summarize(workload, setup_times: list[float], passes: list) -> dict:
    """Every end-to-end metric of the run, by name."""
    from workloads import Metric

    ops = [x for p in passes for x in p.op_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = [
        Metric("setup_s", median(setup_times), "s", "lower", len(setup_times)),
        Metric("peak_rss_mb", workload.peak_rss_mb(), "MB", "lower", 1),
        Metric("fail_rate", failed / attempted, "fraction", "lower", attempted),
    ]
    busy = sum(p.busy_s for p in passes)
    metrics.append(Metric("ops_per_s", len(ops) / busy if busy else 0.0, "1/s", "higher", len(ops)))
    if ops:
        metrics.append(Metric("op_p50_ms", median(ops) * 1e3, "ms", "lower", len(ops)))
    metrics += workload.report(passes)
    return {m.name: m for m in metrics}


def run_untraced(workload, args, workdir: Path) -> dict:
    """Whole passes, with the set-up rounds between them, for about
    ``args.seconds`` of wall time."""
    setups, passes, walls = [], [], []
    rounds, start = 0, perf_counter()
    while _room_for_pass(start, args.seconds, walls):
        if rounds < SETUP_ROUNDS and perf_counter() - start >= rounds * args.seconds / SETUP_ROUNDS:
            spent = 0.0
            while spent == 0.0 or spent < SETUP_ROUND_S:
                setups.append(timed_setup(workload, args.seed, workdir))
                spent += setups[-1][0]
            rounds += 1
        t0 = perf_counter()
        passes.append(workload.run_pass())
        walls.append(perf_counter() - t0)
    return {
        "setup_digests": sorted({d for _, d in setups}),
        "passes": passes,
        "metrics": summarize(workload, [t for t, _ in setups], passes),
    }


def run_traced(workload, args, workdir: Path) -> dict:
    setup_u, digest_u = timed_setup(workload, args.seed, workdir)
    passes_u = run_passes(workload, args.seconds / 2)
    untraced = summarize(workload, [setup_u], passes_u)

    setup_tracer = Tracer()
    restore, _ = install(setup_tracer)
    try:
        setup_t, digest_t = timed_setup(workload, args.seed, workdir)
    finally:
        restore()
    pass_tracer = Tracer()
    workload.trace_dir = workdir / "spans"
    workload.trace_dir.mkdir(parents=True, exist_ok=True)
    restore, missing = install(pass_tracer)
    try:
        passes_t = run_passes(workload, args.seconds / 2)
    finally:
        restore()
        workload.trace_dir = None
    traced = summarize(workload, [setup_t], passes_t)

    totals = aggregate(pass_tracer.spans)
    children = [spans for p in passes_t for spans in p.child_spans]
    for spans in children:
        aggregate(spans, totals)
    layers = layer_metrics(totals, len(passes_t))
    setup_totals = aggregate(setup_tracer.spans)
    layers.update(
        (k, v) for k, v in layer_metrics(setup_totals, 1).items() if k.startswith("synthgen.")
    )
    startup = [x for p in passes_t for x in p.samples.get("startup_s", ())]
    layers["cli.startup_ms"] = median(startup) * 1e3 if startup else 0.0
    lost = sorted(
        set(lost_hooks(totals, workload.expected, missing))
        | set(lost_hooks(setup_totals, workload.expected_in_setup))
    )
    layers["trace.lost_hooks"] = len(lost)
    layers["trace.spans"] = (len(pass_tracer.spans) + sum(map(len, children))) / len(passes_t)
    overhead = {
        name: traced[name].value - untraced[name].value
        for name in untraced
        if name in traced
    }
    for name, _, _ in COMMON:
        layers[f"trace.overhead.{name}"] = overhead.get(name, 0.0)

    spans_out = ROOT / ".qxgbench" / f"spans-{workload.name}-seed{args.seed}.json"
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"passes": pass_tracer.spans, "children": children, "setup": setup_tracer.spans},
                  handle, separators=(",", ":"))

    return {
        "setup_digests": sorted({digest_u, digest_t}),
        "passes": passes_u + passes_t,
        "metrics": untraced,
        "overhead": overhead,
        "layers": layers,
        "lost_hooks": lost,
        "spans_file": str(spans_out.relative_to(ROOT)),
    }


class DeadlinePassed(BaseException):
    """Raised by the alarm; a BaseException so no workload handler eats it."""


def _deadline_passed(signum, frame):
    raise DeadlinePassed("the run took too long; no result")


def run_workload(args) -> int:
    # numpy, qxg and workloads are imported here, after main() has put the
    # checkout's src/ first on the path.
    import numpy

    import qxg
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    meta = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qxg": qxg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    # A hung program must not hang the benchmark: the alarm raises inside
    # the run, which kills any CLI subprocess and exits without a result.
    signal.signal(signal.SIGALRM, _deadline_passed)
    signal.alarm(int(150 + 2 * args.seconds))
    workdir = ROOT / ".qxgbench" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = (run_traced if args.trace else run_untraced)(workload, args, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    passes = result["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    outputs = sorted({p.digest for p in passes})
    correct = (
        failed == 0
        and len(result["setup_digests"]) == 1
        and len(outputs) == 1
        and workload.quality_ok(passes)
    )

    print(f"# qxg benchmark: {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}; {workload.why}")
    for m in result["metrics"].values():
        print(f"  {m.name:<22} {m.value:>14.6g} {m.unit:<9} {m.better:<6} n={m.n}")
    if args.trace:
        print(f"  lost hooks: {', '.join(result['lost_hooks']) or 'none'}")
        for name, value in result["overhead"].items():
            print(f"  overhead {name:<22} {value:>+14.6g}")
    report = {
        "meta": meta,
        "correct": correct,
        "digests": {"inputs": result["setup_digests"], "outputs": outputs,
                    "model": workload.model_digest},
        "metrics": {m.name: vars(m) for m in result["metrics"].values()},
        **{k: result[k] for k in ("overhead", "lost_hooks", "spans_file") if k in result},
    }
    print("REPORT " + json.dumps(report, sort_keys=True))

    if args.trace:
        catalogue, values = PER_LAYER, result["layers"]
    else:
        catalogue, values = END_TO_END, {n: m.value for n, m in result["metrics"].items()}
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue},
    }
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    finals = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        finals[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qxg" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'qxg'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qxg

    if Path(qxg.__file__).resolve().parent != (src / "qxg").resolve():
        print(f"error: imported qxg from {qxg.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
