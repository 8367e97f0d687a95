"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload NAME [--runs 10]

Runs the benchmark ``--runs`` times, one run at a time, with seeds 1, 2, ...
and the ``run_seconds`` of ``BENCHMARK.json``, and prints for every
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, beside the metric's bound.  A benchmark
is steady when each spread is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stats import median, quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", "0"]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        if not final["correct"]:
            print(f"seed {seed}: incorrect output ({final['failed']} failed)")
        for name, metric in final["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for name, series in values.items():
        spread = quartile_spread(series)
        print(f"{args.workload:<14} {name:<14} median {median(series):>12.6g}  "
              f"spread {spread:6.3f}  bound {bounds.get(name, float('nan')):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
