"""Command-line front end for the whole pipeline.

Subcommands mirror the workflow: ``gen`` writes synthetic trace files,
``build`` turns one trace into an exported graph, ``train`` fits the
per-action forests over a trace directory, ``explain`` ranks the candidate
objects behind one annotated action, ``eval`` reports precision/recall, and
``bench`` times the builder on dense crowds.

Options may come from a JSON config file (``--config``); explicit flags win
over config values.  Every output file is written atomically (temp file in
the target directory, then rename), and everything is deterministic given
the seed.  Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .builder import Builder, build, export_graph
from .calculi import DEFAULT_CONFIG, CalculiConfig
from .defs import KINDS, MAX_CHAIN_LENGTH, MAX_TREES, Hyperparams, replace_from_json
from .scene import CauseRecord, TraceError, load_trace, serialize_scene, split_rule

# explainer, synthgen and bench load inside the handlers that call them.
# synthgen and bench import numpy, and explainer imports it only inside
# ``train`` and its ``_fit_tree``, the dense ``score`` and ``PairSample.vector``,
# so ``qxg build``, ``qxg explain`` and ``qxg eval`` start without numpy.


# -- config file --------------------------------------------------------------


@dataclass(frozen=True)
class AppConfig:
    """Everything a run needs beyond its input files."""

    calculi: CalculiConfig = DEFAULT_CONFIG
    t: int = 5
    hyperparams: Hyperparams = Hyperparams()
    seed: int = 42
    out: str | None = None

    def __post_init__(self) -> None:
        if not (type(self.t) is type(self.seed) is int and isinstance(self.out, (str, type(None)))):
            raise ValueError(f"t and seed must be integers and out a string or null: {self}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def load_app_config(path: str | Path) -> AppConfig:
    """Read an :class:`AppConfig` from JSON; omitted keys keep defaults.
    Values must already have their key's type: only an int in a float
    field is converted."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # also: nested too deep, too many int digits
        raise ValueError(f"config {path}: not valid JSON ({exc})") from None
    return replace_from_json(AppConfig(), payload, f"config {path}")


def _config_from(args) -> AppConfig:
    """The config file's settings, with the flags given on top."""
    cfg = load_app_config(args.config) if getattr(args, "config", None) else AppConfig()
    given = {key: value for key, value in vars(args).items() if value is not None}
    hp = {f.name: given[f.name] for f in fields(Hyperparams) if f.name in given}
    flags = {key: given[key] for key in ("t", "seed") if key in given}
    return replace_from_json(cfg, {**flags, "hyperparams": hp}, "flags")


# -- shared plumbing ----------------------------------------------------------


def _atomic_write(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_trace(path: str | Path):
    return load_trace(Path(path).read_bytes())


def _trace_files(directory: str | Path) -> list[Path]:
    files = sorted(Path(directory).glob("*.jsonl"))
    if not files:
        raise ValueError(f"no .jsonl trace files in {directory}")
    return files


def _read_rows(directory: str | Path, t: int, cfg: CalculiConfig, keep=lambda scene_id: True):
    """``build_dataset`` over every annotated scene under ``directory`` whose
    id ``keep`` accepts, and those annotations' recorded causes as
    ``{(scene id, actor, frame): cause id}``.  Files are read one at a
    time, and each scene is dropped before the next file is read, so memory
    holds rows, not scenes."""
    from .explainer import build_dataset

    dataset = build_dataset((), t, cfg)
    keys: list[tuple[str, str, int]] = []
    causes: dict[tuple[str, str, int], str] = {}
    for path in _trace_files(directory):
        _add_trace(path, keep, dataset, keys, causes)
    return dataset, {key: causes[key] for key in keys if key in causes}


def _add_trace(path: Path, keep: Callable[[str], bool], dataset, keys: list, causes: dict) -> None:
    """Add one trace file's rows to ``dataset``, its annotations to ``keys``
    and its recorded causes to ``causes``, unless ``keep`` refuses its
    scene's id.  The parsed scene is dropped on return.  A trace refusal
    names the file."""
    try:
        scene, annotations, records = _read_trace(path)
    except TraceError as exc:
        raise exc.in_file(path) from None
    if keep(scene.scene_id):
        dataset.extend((scene, annotation) for annotation in annotations)
        keys += ((scene.scene_id, a.actor_id, a.frame_index) for a in annotations)
        causes.update(((c.scene_id, c.actor_id, c.frame_index), c.cause_id) for c in records)


def _emit(payload: bytes, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


# -- subcommands --------------------------------------------------------------


def cmd_gen(args) -> int:
    from .synthgen import CLEAR_CRUISE, ScenarioSpec, generate_scenes

    base = ScenarioSpec(
        args.kind or CLEAR_CRUISE, n_distractors=args.distractors, jitter_sigma=args.jitter
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (scene, annotation, truth) in enumerate(
        generate_scenes(args.scenes, base, args.seed, args.kind)
    ):
        cause = CauseRecord(
            scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id
        )
        name = f"{i:03d}_{scene.scene_id}.jsonl"
        _atomic_write(out_dir / name, serialize_scene(scene, [annotation], [cause]))
        entries.append(
            {
                "file": name,
                "scene_id": scene.scene_id,
                "kind": truth.kind,
                "action": annotation.action,
                "frame": annotation.frame_index,
                "actor": annotation.actor_id,
                "cause": truth.cause_id,
                "nearest": truth.nearest_id,
            }
        )
    manifest = {
        "seed": args.seed,
        "n_scenes": args.scenes,
        "kind": args.kind,
        "distractors": args.distractors,
        "jitter": args.jitter,
        "scenes": entries,
    }
    blob = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n"
    _atomic_write(out_dir / "manifest.json", blob)
    print(f"wrote {args.scenes} trace files + manifest.json to {out_dir}")
    return 0


def cmd_build(args) -> int:
    cfg = _config_from(args)
    scene, _, _ = _read_trace(args.trace)
    builder = Builder(scene.scene_id, cfg.calculi)
    for frame in scene.frames:
        stats = builder.push_frame(frame)
        if args.verbose:
            print(
                f"frame {stats.frame_index}: {stats.objects_in_frame} objects, "
                f"{stats.pairs_updated} pairs, {stats.elapsed_ns / 1e6:.3f} ms",
                file=sys.stderr,
            )
    _emit(export_graph(builder.graph, args.format), args.out or cfg.out)
    return 0


def cmd_train(args) -> int:
    from .explainer import model_to_json, train

    cfg = _config_from(args)
    dataset, _ = _read_rows(args.traces, cfg.t, cfg.calculi)
    for warning in dataset.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    counts = Counter(dataset.labels)
    for action in sorted(counts):
        print(f"{action}: {counts[action]} chains")
    model = train(dataset, seed=cfg.seed, hyperparams=cfg.hyperparams)
    out = args.out or cfg.out or "model.json"
    _atomic_write(Path(out), model_to_json(model))
    print(f"model for {model.actions} -> {out}")
    return 0


def cmd_explain(args) -> int:
    from .explainer import explain, explanation_to_dict, load_model

    model = load_model(args.model)
    scene, _, _ = _read_trace(args.trace)
    # the ids come from the rows, so that no frame builds its ObjectStates
    if not any(oid == args.actor for frame in scene.frames for oid, _, _ in frame.rows()):
        raise ValueError(f"unknown actor {args.actor!r} in {scene.scene_id}")
    if scene.frame_at(args.frame) is None:
        raise ValueError(f"frame {args.frame} is not in {scene.scene_id}")
    result = explain(
        model,
        build(scene, model.cfg, window=(args.frame, model.spec.t)),
        args.actor,
        args.frame,
        args.action,
        k=args.top_k,
        threshold=args.threshold,
    )
    blob = json.dumps(explanation_to_dict(result), indent=2).encode("utf-8") + b"\n"
    _emit(blob, args.out)
    return 0


def cmd_eval(args) -> int:
    from .explainer import evaluate, load_model

    model = load_model(args.model)
    keep = lambda scene_id: True
    if args.split != "all":
        in_train = split_rule(args.train_fraction)
        keep = lambda scene_id: in_train(scene_id) == (args.split == "train")
    dataset, causes = _read_rows(args.traces, model.spec.t, model.cfg, keep)
    report = evaluate(model, dataset, threshold=args.threshold, causes=causes or None)

    rows = [(a, m.precision, m.recall, m.support) for a, m in sorted(report.per_action.items())]
    rows.append(("macro average", report.macro_precision, report.macro_recall, report.n_rows))
    width = max(len(r[0]) for r in rows)
    print(f"{'action':<{width}}  precision  recall  support")
    for name, precision, recall, support in rows:
        print(f"{name:<{width}}  {precision:>9.3f}  {recall:>6.3f}  {support:>7d}")
    if report.cause_recovery is not None:
        print("top-1 cause recovery: {}/{}".format(*report.cause_recovery))

    if args.out:
        payload = asdict(report)
        if payload.pop("cause_recovery") is not None:
            hits, total = report.cause_recovery
            payload["top1_cause_recovery"] = {"hits": hits, "total": total}
        blob = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        _atomic_write(Path(args.out), blob)
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench, run_scaling

    if args.scaling:
        result = run_scaling(tuple(args.scaling), n_frames=args.frames, seed=args.seed)
    else:
        result = run_bench(args.objects, args.frames, args.seed)
    print(json.dumps(asdict(result), indent=2, sort_keys=True))
    return 0


# -- parser -------------------------------------------------------------------


def _int_in(lo: int, hi: int | None = None):
    """An argparse type for an integer in ``lo..hi``, or ``>= lo`` without ``hi``."""

    def parse(text: str) -> int:
        # argparse names the type function in its message for a ValueError
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if hi is None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}, got {value}")
        return value

    return parse


# qxg bench pushes every pair of a crowd in every frame, and keeps the whole
# graph, so time and memory grow with objects squared times frames.  Measured
# before the bounds were set (2-vCPU VM, wall time and peak RSS of the process):
#
#   --objects 160 --frames 30     1.0 s    47 MB
#   --objects 320 --frames 30     3.1 s    74 MB
#   --objects 640 --frames 5      3.4 s   120 MB
#   --objects 640 --frames 30    10.6 s   176 MB
#   --objects 160 --frames 300    7.1 s    92 MB
#   --objects 20  --frames 1000   0.7 s    47 MB
#
# At 640 objects each frame adds about 2.2 MB and 0.29 s, so the largest run
# the bounds admit, 640 objects over 200 frames, needs about 0.56 GB and a
# minute (extrapolated, not run).
MAX_BENCH_OBJECTS = 640
MAX_BENCH_FRAMES = 200
_crowd_size = _int_in(2, MAX_BENCH_OBJECTS)

# ClearCruise scenes keep every distractor in the window, so their cost grows
# with the square of the count: on a 2-vCPU VM ``qxg gen --scenes 2 --kind
# ClearCruise`` takes 0.36 s at 50 and 1.2 s at 200; extrapolated, ~100 s a scene at 3200.
MAX_DISTRACTORS = 200


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _fraction(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {text}")
    return value


def _size_list(text: str) -> list[int]:
    sizes = [_crowd_size(part) for part in text.split(",") if part]
    if len(sizes) < 2:
        raise argparse.ArgumentTypeError("scaling needs at least two sizes, e.g. 20,40,80,160")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qxg",
        description="Qualitative scene graphs and action explanations over object traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write synthetic trace files + a corpus manifest")
    p.add_argument("--scenes", type=_int_in(1), required=True, help="number of scenes")
    p.add_argument("--kind", choices=KINDS, help="single scenario kind (default: mixed)")
    p.add_argument(
        "--distractors",
        type=_int_in(0, MAX_DISTRACTORS),
        default=4,
        help=f"distractor objects per scene, 0..{MAX_DISTRACTORS}; cost grows with the square",
    )
    p.add_argument("--jitter", type=_finite_float, default=0.1, help="observation noise sigma (m)")
    p.add_argument("--seed", type=_int_in(0), default=42)
    p.add_argument("--out", default="traces", help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a scene graph from one trace and export it")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--verbose", action="store_true", help="per-frame builder stats on stderr")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train per-action forests over a trace directory")
    p.add_argument("--traces", required=True, help="directory of .jsonl traces")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="model file (default: model.json)")
    p.add_argument(
        "--t", type=_int_in(1, MAX_CHAIN_LENGTH), help=f"chain window length, 1..{MAX_CHAIN_LENGTH}"
    )
    p.add_argument("--seed", type=_int_in(0))
    p.add_argument(
        "--n-trees", type=_int_in(1, MAX_TREES), dest="n_trees", help=f"trees per action, 1..{MAX_TREES}"
    )
    p.add_argument("--max-depth", type=_int_in(1), dest="max_depth")
    p.add_argument("--min-samples-leaf", type=_int_in(1), dest="min_samples_leaf")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="rank candidate objects for one annotated action")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--actor", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--top-k", type=_int_in(1), dest="top_k")
    p.add_argument("--threshold", type=_finite_float)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("eval", help="precision/recall of a model over a trace directory")
    p.add_argument("--traces", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--train-fraction", type=_fraction, default=0.7, dest="train_fraction")
    p.add_argument("--threshold", type=_finite_float, default=0.5)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time push_frame on dense synthetic crowds")
    p.add_argument("--objects", type=_crowd_size, default=160)
    p.add_argument("--frames", type=_int_in(1, MAX_BENCH_FRAMES), default=30)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--scaling", type=_size_list, help="fit cost ~ k^e over sizes, e.g. 20,40,80,160")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every library refusal is a ValueError
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
