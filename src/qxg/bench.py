"""Throughput measurement for the incremental graph builder.

The load generator is deliberately adversarial for the builder's hot loop:
every object is visible in every frame, so each push touches all
k(k-1)/2 pairs.  Its frames are packed straight into the columns every
``Frame`` holds, with no per-box object.  Timings come from the nanosecond
clock the builder already wraps around its own frame updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import Builder
from .scene import Frame, _Columns

AREA = 150.0  # side of the square the crowd walks in, m
STEP = 0.6  # per-frame step sigma, m
WARMUP = 3  # frames pushed before timing starts


def crowd_frames(n_objects: int, n_frames: int, seed: int = 0) -> list[Frame]:
    """Random-walk boxes, everyone present everywhere."""
    if n_objects < 2:
        raise ValueError(f"need at least 2 objects, got {n_objects}")
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, AREA, n_objects)
    y = rng.uniform(0.0, AREA, n_objects)
    half_w = rng.uniform(0.4, 1.3, n_objects)
    half_h = rng.uniform(0.4, 1.3, n_objects)
    # one ids and one classes tuple shared by every frame; the boxes packed
    # straight from the arrays, each row x.lo, x.hi, y.lo, y.hi
    ids = tuple(f"o{i:03d}" for i in range(n_objects))
    classes = ("car",) * n_objects
    frames = []
    for index in range(n_frames):
        if index:
            x = np.clip(x + rng.normal(0.0, STEP, n_objects), 0.0, AREA)
            y = np.clip(y + rng.normal(0.0, STEP, n_objects), 0.0, AREA)
        boxes = np.column_stack((x - half_w, x + half_w, y - half_h, y + half_h))
        frames.append(Frame(index, index * 0.1, _Columns(ids, classes, boxes.tobytes())))
    return frames


@dataclass(frozen=True)
class BenchResult:
    """Per-frame update cost for one crowd size."""

    n_objects: int
    n_frames: int
    median_ms: float
    p95_ms: float
    mean_pairs: float


def _run_interleaved(sizes: tuple[int, ...], n_frames: int, seed: int) -> tuple[BenchResult, ...]:
    """Time ``push_frame`` for every crowd size with one builder per size,
    pushing the sizes' frames round-robin: frame i of every size before
    frame i + 1 of any.  Drift in machine speed then falls on all sizes
    alike instead of tilting the ones timed in a slow stretch."""
    streams = [crowd_frames(k, n_frames + WARMUP, seed) for k in sizes]
    builders = [Builder("bench") for _ in sizes]
    elapsed: list[list[int]] = [[] for _ in sizes]
    pairs: list[list[int]] = [[] for _ in sizes]
    for i in range(n_frames + WARMUP):
        for frames, builder, ns, n_pairs in zip(streams, builders, elapsed, pairs):
            stats = builder.push_frame(frames[i])
            if i >= WARMUP:
                ns.append(stats.elapsed_ns)
                n_pairs.append(stats.pairs_updated)
    results = []
    for k, ns, n_pairs in zip(sizes, elapsed, pairs):
        ms = np.asarray(ns, dtype=float) / 1e6
        results.append(
            BenchResult(
                n_objects=k,
                n_frames=n_frames,
                median_ms=float(np.median(ms)),
                p95_ms=float(np.percentile(ms, 95)),
                mean_pairs=float(np.mean(n_pairs)),
            )
        )
    return tuple(results)


def run_bench(n_objects: int, n_frames: int = 30, seed: int = 0) -> BenchResult:
    """Time ``push_frame`` over a dense scene; report median and p95 in ms."""
    return _run_interleaved((n_objects,), n_frames, seed)[0]


@dataclass(frozen=True)
class ScalingReport:
    """Bench results over several crowd sizes plus a log-log growth fit."""

    results: tuple[BenchResult, ...]
    exponent: float


def run_scaling(sizes: tuple[int, ...], n_frames: int = 30, seed: int = 0) -> ScalingReport:
    """Fit median cost ~ k^e over the given crowd sizes.

    A pure pairwise loop should land near e = 2; the slope comes from a
    least-squares line through the (log k, log median) points.  The sizes
    are timed interleaved, frame by frame, so they share the machine's
    speed.
    """
    if len(sizes) < 2:
        raise ValueError("scaling fit needs at least two sizes")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate sizes in {sizes}")
    results = _run_interleaved(sizes, n_frames, seed)
    log_k = np.log([r.n_objects for r in results])
    log_ms = np.log([r.median_ms for r in results])
    exponent = float(np.polyfit(log_k, log_ms, 1)[0])
    return ScalingReport(results, exponent)
