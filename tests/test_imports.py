"""Each entry point loads only the modules it uses: ``import qxg``,
``import qxg.explainer``, ``qxg build``, ``qxg explain`` and ``qxg eval``
run without numpy, and ``qxg explain`` and ``qxg eval`` without the scene
generator or the bench.  Every check runs in a fresh interpreter."""

import importlib
import subprocess
import sys

import pytest

import qxg
from qxg.defs import Hyperparams
from qxg.explainer import build_dataset, save_model, train
from qxg.scene import CauseRecord, serialize_scene
from qxg.synthgen import generate_dataset

HEAVY = ("numpy", "qxg.explainer", "qxg.synthgen", "qxg.bench")


def _loaded_after(code: str) -> set[str]:
    """Which of HEAVY a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(filter(None, result.stdout.splitlines()[-1].split(",")))  # after what code prints


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    traces = root / "traces"
    traces.mkdir()
    items = generate_dataset(1, master_seed=3)  # two scenes on each side of the 0.7 split
    for scene, annotation, truth in items:
        cause = CauseRecord(scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)
        (traces / f"{scene.scene_id}.jsonl").write_bytes(serialize_scene(scene, [annotation], [cause]))
    scene, annotation, _ = items[0]
    model = root / "model.json"
    dataset = build_dataset([(s, a) for s, a, _ in items])
    save_model(train(dataset, seed=1, hyperparams=Hyperparams(n_trees=2, max_depth=3)), model)
    return traces / f"{scene.scene_id}.jsonl", model, annotation


def test_package_import_loads_no_numpy():
    assert _loaded_after("import qxg") == set()


def test_explainer_import_loads_no_numpy():
    assert _loaded_after("import qxg.explainer") == {"qxg.explainer"}


def test_build_runs_without_numpy(files, tmp_path):
    trace, _, _ = files
    argv = ["build", "--trace", str(trace), "--out", str(tmp_path / "g.json")]
    assert _loaded_after(f"import qxg.cli\nassert qxg.cli.main({argv!r}) == 0") == set()


def test_explain_loads_neither_generator_nor_bench(files, tmp_path):
    trace, model, annotation = files
    argv = [
        "explain", "--trace", str(trace), "--model", str(model), "--frame", str(annotation.frame_index),
        "--actor", annotation.actor_id, "--action", annotation.action, "--out", str(tmp_path / "e.json"),
    ]
    loaded = _loaded_after(f"import qxg.cli\nassert qxg.cli.main({argv!r}) == 0")
    assert loaded == {"qxg.explainer"}


@pytest.mark.parametrize("split", ["all", "train", "test"])
def test_eval_runs_without_numpy(files, split):
    trace, model, _ = files
    argv = ["eval", "--traces", str(trace.parent), "--model", str(model), "--split", split]
    assert _loaded_after(f"import qxg.cli\nassert qxg.cli.main({argv!r}) == 0") == {"qxg.explainer"}


def test_exports_are_the_submodule_objects():
    homes = {
        "builder": ["Builder", "build", "export_graph", "import_graph"],
        "calculi": ["CalculiConfig", "DEFAULT_CONFIG"],
        "explainer": ["build_dataset", "evaluate", "explain", "load_model", "save_model", "train"],
        "scene": ["load_trace", "serialize_scene"],
        "synthgen": ["generate_corpus", "generate_dataset", "generate_scene"],
    }
    assert sorted(qxg.__all__) == sorted([name for names in homes.values() for name in names] + ["__version__"])
    for module, names in homes.items():
        sub = importlib.import_module(f"qxg.{module}")
        for name in names:
            assert getattr(qxg, name) is getattr(sub, name), name
    namespace = {}
    exec("from qxg import *", namespace)
    assert set(qxg.__all__) <= set(namespace)
    assert set(qxg.__all__) <= set(dir(qxg))
    with pytest.raises(AttributeError):
        qxg.no_such_name


def test_moved_names_are_shared():
    from qxg import defs, explainer, scene, synthgen

    assert explainer.Hyperparams is defs.Hyperparams
    assert explainer.UnknownAction is defs.UnknownAction
    assert synthgen.KINDS is defs.KINDS
    assert synthgen.split_scenes is scene.split_scenes
