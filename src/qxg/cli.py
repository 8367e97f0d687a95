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
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .builder import Builder, export_graph
from .calculi import DEFAULT_CONFIG, CalculiConfig
from .defs import KINDS, Hyperparams, UnknownAction
from .scene import CauseRecord, TraceError, load_trace, serialize_scene

# The numpy modules (explainer, synthgen, bench) load inside the handlers
# that call them, so ``qxg build`` starts without numpy.


# -- config file --------------------------------------------------------------


@dataclass(frozen=True)
class AppConfig:
    """Everything a run needs beyond its input files."""

    calculi: CalculiConfig = DEFAULT_CONFIG
    t: int = 5
    hyperparams: Hyperparams = Hyperparams()
    seed: int = 42
    out: str | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # finite and within float range, so float() never overflows
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _is_list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# config key -> (what it must be, check, conversion)
_CALCULI_KEYS = {
    "qdc_band_edges": ("a list of finite numbers", _is_list_of(_is_real), tuple),
    "qdc_band_names": ("a list of strings", _is_list_of(lambda v: isinstance(v, str)), tuple),
    "qtc_epsilon": ("a finite number", _is_real, float),
}
_HYPERPARAM_KEYS = {
    "n_trees": ("an integer", _is_int, int),
    "max_depth": ("an integer", _is_int, int),
    "min_samples_leaf": ("an integer", _is_int, int),
    "balance": ("true or false", lambda v: isinstance(v, bool), bool),
}
_TOP_KEYS = {
    "t": ("an integer", _is_int, int),
    "seed": ("an integer", _is_int, int),
    "out": ("a string", lambda v: isinstance(v, str), str),
}


def _replace_from(base, payload, allowed: dict, where: str):
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    values = {}
    for key, value in payload.items():
        what, check, convert = allowed[key]
        if not check(value):
            raise ValueError(f"{where}: {key!r} must be {what}, got {json.dumps(value)}")
        values[key] = convert(value)
    try:
        return replace(base, **values)
    except ValueError as exc:  # the value object's own checks, e.g. distinct band names
        raise ValueError(f"{where}: {exc}") from None


def load_app_config(path: str | Path) -> AppConfig:
    """Read an :class:`AppConfig` from JSON; omitted keys keep defaults.
    Values must already have their key's type: nothing is cast."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: not valid JSON ({exc})") from exc
    where = f"config {path}"
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: expected a JSON object")

    cfg = AppConfig()
    top = dict(payload)
    if "calculi" in top:
        calculi = _replace_from(DEFAULT_CONFIG, top.pop("calculi"), _CALCULI_KEYS, f"{where}: calculi")
        cfg = replace(cfg, calculi=calculi)
    if "hyperparams" in top:
        hp = _replace_from(Hyperparams(), top.pop("hyperparams"), _HYPERPARAM_KEYS, f"{where}: hyperparams")
        cfg = replace(cfg, hyperparams=hp)
    return _replace_from(cfg, top, _TOP_KEYS, where)


def _config_from(args) -> AppConfig:
    cfg = load_app_config(args.config) if getattr(args, "config", None) else AppConfig()
    if getattr(args, "t", None) is not None:
        cfg = replace(cfg, t=args.t)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    hp = cfg.hyperparams
    for name in ("n_trees", "max_depth", "min_samples_leaf", "balance"):
        value = getattr(args, name, None)
        if value is not None:
            hp = replace(hp, **{name: value})
    return replace(cfg, hyperparams=hp)


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


def _annotated_items(directory: str | Path):
    items = []
    for path in _trace_files(directory):
        scene, annotations, _ = _read_trace(path)
        for annotation in annotations:
            items.append((scene, annotation))
    return items


def _emit(payload: bytes, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


# -- subcommands --------------------------------------------------------------


def cmd_gen(args) -> int:
    from .synthgen import CLEAR_CRUISE, ScenarioSpec, generate_scenes

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = ScenarioSpec(
        args.kind or CLEAR_CRUISE, n_distractors=args.distractors, jitter_sigma=args.jitter
    )
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
    from .explainer import build_dataset, model_to_json, train

    cfg = _config_from(args)
    items = _annotated_items(args.traces)
    dataset = build_dataset(items, t=cfg.t, cfg=cfg.calculi)
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
    if not any(frame.get(args.actor) for frame in scene.frames):
        raise ValueError(f"unknown actor {args.actor!r} in {scene.scene_id}")
    # feed only what a live system would have seen by the queried frame
    builder = Builder(scene.scene_id, model.cfg)
    for frame in scene.frames:
        if frame.index > args.frame:
            break
        builder.push_frame(frame)
    result = explain(
        model,
        builder.graph,
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
    from .explainer import build_dataset, evaluate, load_model

    model = load_model(args.model)
    items = _annotated_items(args.traces)
    if args.split != "all":
        from .synthgen import split_scenes

        train_items, test_items = split_scenes(items, args.train_fraction)
        items = train_items if args.split == "train" else test_items
    dataset = build_dataset(items, t=model.spec.t, cfg=model.cfg)
    report = evaluate(model, dataset, threshold=args.threshold)

    rows = [(a, m.precision, m.recall, m.support) for a, m in sorted(report.per_action.items())]
    rows.append(("macro average", report.macro_precision, report.macro_recall, report.n_rows))
    width = max(len(r[0]) for r in rows)
    print(f"{'action':<{width}}  precision  recall  support")
    for name, precision, recall, support in rows:
        print(f"{name:<{width}}  {precision:>9.3f}  {recall:>6.3f}  {support:>7d}")

    if args.out:
        payload = {
            "per_action": {
                a: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "tp": m.tp,
                    "fp": m.fp,
                    "fn": m.fn,
                    "support": m.support,
                }
                for a, m in sorted(report.per_action.items())
            },
            "macro_precision": report.macro_precision,
            "macro_recall": report.macro_recall,
            "n_rows": report.n_rows,
        }
        blob = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        _atomic_write(Path(args.out), blob)
    return 0


def cmd_bench(args) -> int:
    from .bench import run_repeats, run_scaling

    if args.scaling:
        payload = run_scaling(tuple(args.scaling), n_frames=args.frames, seed=args.seed).as_dict()
    else:
        payload = run_repeats(args.objects, args.frames, args.seed, args.repeats)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _crowd_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 objects, got {value}")
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
    p.add_argument("--scenes", type=_positive_int, required=True, help="number of scenes")
    p.add_argument("--kind", choices=KINDS, help="single scenario kind (default: mixed)")
    p.add_argument("--distractors", type=int, default=4)
    p.add_argument("--jitter", type=float, default=0.1, help="observation noise sigma (m)")
    p.add_argument("--seed", type=int, default=42)
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
    p.add_argument("--t", type=_positive_int, help="chain window length")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-trees", type=_positive_int, dest="n_trees")
    p.add_argument("--max-depth", type=_positive_int, dest="max_depth")
    p.add_argument("--min-samples-leaf", type=_positive_int, dest="min_samples_leaf")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="rank candidate objects for one annotated action")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--actor", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--top-k", type=_positive_int, dest="top_k")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("eval", help="precision/recall of a model over a trace directory")
    p.add_argument("--traces", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--train-fraction", type=float, default=0.7, dest="train_fraction")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time push_frame on dense synthetic crowds")
    p.add_argument("--objects", type=_crowd_size, default=160)
    p.add_argument("--frames", type=_positive_int, default=30)
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaling", type=_size_list, help="fit cost ~ k^e over sizes, e.g. 20,40,80,160")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except UnknownAction as exc:
        print(f"error: {args.command}: unknown action {exc.args[0]!r}", file=sys.stderr)
        return 1
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {args.command}: unknown key {detail!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
