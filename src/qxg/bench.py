"""Throughput measurement for the incremental graph builder.

The load generator is deliberately adversarial for the builder's hot loop:
every object is visible in every frame, so each push touches all
k(k-1)/2 pairs.  Timings come from the nanosecond clock the builder
already wraps around its own frame updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import Builder
from .calculi import DEFAULT_CONFIG, BBox2D, CalculiConfig, Interval
from .scene import Frame, ObjectState

DEFAULT_SIZES = (20, 40, 80, 160)


def crowd_frames(
    n_objects: int,
    n_frames: int,
    seed: int = 0,
    *,
    area: float = 150.0,
    step: float = 0.6,
) -> list[Frame]:
    """Random-walk boxes, everyone present everywhere."""
    if n_objects < 2:
        raise ValueError(f"need at least 2 objects, got {n_objects}")
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, area, n_objects)
    y = rng.uniform(0.0, area, n_objects)
    half_w = rng.uniform(0.4, 1.3, n_objects)
    half_h = rng.uniform(0.4, 1.3, n_objects)
    frames = []
    for index in range(n_frames):
        if index:
            x = np.clip(x + rng.normal(0.0, step, n_objects), 0.0, area)
            y = np.clip(y + rng.normal(0.0, step, n_objects), 0.0, area)
        objects = tuple(
            ObjectState(
                f"o{i:03d}",
                "car",
                BBox2D(
                    Interval(float(x[i] - half_w[i]), float(x[i] + half_w[i])),
                    Interval(float(y[i] - half_h[i]), float(y[i] + half_h[i])),
                ),
            )
            for i in range(n_objects)
        )
        frames.append(Frame(index, index * 0.1, objects))
    return frames


@dataclass(frozen=True)
class BenchResult:
    """Per-frame update cost for one crowd size."""

    n_objects: int
    n_frames: int
    median_ms: float
    p95_ms: float
    mean_pairs: float

    def as_dict(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "n_frames": self.n_frames,
            "median_ms": self.median_ms,
            "p95_ms": self.p95_ms,
            "mean_pairs": self.mean_pairs,
        }


def run_bench(
    n_objects: int,
    n_frames: int = 30,
    seed: int = 0,
    *,
    warmup: int = 3,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> BenchResult:
    """Time ``push_frame`` over a dense scene; report median and p95 in ms."""
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    frames = crowd_frames(n_objects, n_frames + warmup, seed)
    builder = Builder("bench", cfg)
    elapsed = []
    pairs = []
    for i, frame in enumerate(frames):
        stats = builder.push_frame(frame)
        if i >= warmup:
            elapsed.append(stats.elapsed_ns)
            pairs.append(stats.pairs_updated)
    ms = np.asarray(elapsed, dtype=float) / 1e6
    return BenchResult(
        n_objects=n_objects,
        n_frames=n_frames,
        median_ms=float(np.median(ms)),
        p95_ms=float(np.percentile(ms, 95)),
        mean_pairs=float(np.mean(pairs)),
    )


@dataclass(frozen=True)
class ScalingReport:
    """Bench results over several crowd sizes plus a log-log growth fit."""

    results: tuple[BenchResult, ...]
    exponent: float

    def as_dict(self) -> dict:
        return {
            "results": [r.as_dict() for r in self.results],
            "exponent": self.exponent,
        }


def run_scaling(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    n_frames: int = 30,
    seed: int = 0,
    *,
    cfg: CalculiConfig = DEFAULT_CONFIG,
) -> ScalingReport:
    """Fit median cost ~ k^e over the given crowd sizes.

    A pure pairwise loop should land near e = 2; the slope comes from a
    least-squares line through the (log k, log median) points.
    """
    if len(sizes) < 2:
        raise ValueError("scaling fit needs at least two sizes")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate sizes in {sizes}")
    results = tuple(run_bench(k, n_frames, seed, cfg=cfg) for k in sizes)
    log_k = np.log([r.n_objects for r in results])
    log_ms = np.log([r.median_ms for r in results])
    exponent = float(np.polyfit(log_k, log_ms, 1)[0])
    return ScalingReport(results, exponent)


def run_repeats(n_objects: int, n_frames: int = 30, seed: int = 0, repeats: int = 1) -> dict:
    """:func:`run_bench` on seeds ``seed``, ``seed + 1``, ... ``repeats``
    times; reports the medians over runs of each run's median and p95."""
    runs = [run_bench(n_objects, n_frames, seed + i) for i in range(repeats)]
    median_ms = float(np.median([r.median_ms for r in runs]))
    p95_ms = float(np.median([r.p95_ms for r in runs]))
    return {
        "n_objects": n_objects,
        "n_frames": n_frames,
        "repeats": repeats,
        "median_ms": median_ms,
        "p95_ms": p95_ms,
        "median_ns": median_ms * 1e6,
        "p95_ns": p95_ms * 1e6,
        "mean_pairs": runs[0].mean_pairs,
        "runs": [r.as_dict() for r in runs],
    }
