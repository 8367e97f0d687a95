"""Benchmark harness sanity checks (cheap sizes only)."""

import json
from dataclasses import asdict

import pytest

from qxg.bench import BenchResult, crowd_frames, run_bench, run_scaling
from qxg.cli import MAX_BENCH_OBJECTS
from qxg.scene import MAX_OBJECTS_PER_FRAME, Scene, load_trace, serialize_scene


def test_crowd_frames_shape():
    frames = crowd_frames(7, 5, seed=1)
    assert len(frames) == 5
    assert all(len(f.objects) == 7 for f in frames)
    Scene("x", tuple(frames))  # refuses frames out of order


def test_crowd_frames_deterministic():
    a = crowd_frames(5, 4, seed=9)
    b = crowd_frames(5, 4, seed=9)
    assert a == b
    assert crowd_frames(5, 4, seed=10) != a


def test_the_largest_bench_crowd_fits_in_a_frame():
    assert 160 <= MAX_BENCH_OBJECTS <= MAX_OBJECTS_PER_FRAME
    scene = Scene("crowd", tuple(crowd_frames(MAX_BENCH_OBJECTS, 2)))
    assert [len(frame.objects) for frame in scene.frames] == [MAX_BENCH_OBJECTS] * 2
    assert load_trace(serialize_scene(scene))[0] == scene


def test_crowd_frames_validation():
    with pytest.raises(ValueError):
        crowd_frames(1, 5)
    with pytest.raises(ValueError):
        crowd_frames(5, 0)


def test_run_bench_counts_all_pairs():
    result = run_bench(6, n_frames=4, seed=0)
    assert isinstance(result, BenchResult)
    assert result.mean_pairs == 15.0  # 6*5/2, everyone visible
    assert 0.0 < result.median_ms <= result.p95_ms


def test_run_bench_json_friendly():
    d = json.loads(json.dumps(asdict(run_bench(4, n_frames=3, seed=0))))
    assert set(d) == {"n_objects", "n_frames", "median_ms", "p95_ms", "mean_pairs"}


def test_scaling_exponent_plausible():
    report = run_scaling(sizes=(8, 16, 32), n_frames=6, seed=0)
    assert [r.n_objects for r in report.results] == [8, 16, 32]
    # tiny sizes are noisy; just require clearly-superlinear growth
    assert 1.0 < report.exponent < 3.0


def test_scaling_validation():
    with pytest.raises(ValueError):
        run_scaling(sizes=(20,))
    with pytest.raises(ValueError):
        run_scaling(sizes=(20, 20, 40))


def test_scaling_pushes_the_sizes_round_robin(monkeypatch):
    from qxg import bench

    pushed = []
    push_frame = bench.Builder.push_frame

    def recording(self, frame):
        pushed.append((len(frame.objects), frame.index))
        return push_frame(self, frame)

    monkeypatch.setattr(bench.Builder, "push_frame", recording)
    report = run_scaling(sizes=(8, 16, 32), n_frames=4, seed=0)
    rounds = 4 + bench.WARMUP
    assert pushed == [(k, i) for i in range(rounds) for k in (8, 16, 32)]
    assert [r.mean_pairs for r in report.results] == [28.0, 120.0, 496.0]
