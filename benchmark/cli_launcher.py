"""Run ``qxg.cli.main`` with the benchmark's span wrappers installed.

Usage: python3 cli_launcher.py SPANS_OUT SUBCOMMAND [ARGS...]

Writes ``{"imported_ns": ..., "spans": [...]}`` to SPANS_OUT, where
``imported_ns`` is the monotonic clock right after ``import qxg.cli`` (the
parent subtracts its own spawn time to get start-up cost), and exits with
the CLI's own exit code.
"""

import sys
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qxg.cli  # noqa: E402

IMPORTED_NS = perf_counter_ns()

import json  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    traced_main = tracer.wrap(f"cli.main.{argv[0]}", qxg.cli.main)
    try:
        return traced_main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"imported_ns": IMPORTED_NS, "spans": tracer.spans}, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
