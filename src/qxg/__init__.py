"""Qualitative scene graphs from object traces, and explanations on top.

The pipeline in one breath: :mod:`qxg.scene` parses object traces,
:mod:`qxg.calculi` turns box geometry into symbolic spatial relations,
:mod:`qxg.builder` accumulates them frame by frame into a per-scene graph,
:mod:`qxg.explainer` trains per-action forests over relation chains and
ranks the object pairs behind an annotated action, :mod:`qxg.synthgen`
fabricates labeled scenarios to exercise all of it, and :mod:`qxg.bench`
times the hot path.
"""

import importlib

__version__ = "0.1.0"

# Each re-exported name loads its submodule on first use (PEP 562), so
# ``import qxg`` costs no numpy until a numpy-backed name is asked for.
_HOMES = {
    "Builder": "builder",
    "build": "builder",
    "export_graph": "builder",
    "import_graph": "builder",
    "CalculiConfig": "calculi",
    "DEFAULT_CONFIG": "calculi",
    "build_dataset": "explainer",
    "evaluate": "explainer",
    "explain": "explainer",
    "load_model": "explainer",
    "save_model": "explainer",
    "train": "explainer",
    "load_trace": "scene",
    "serialize_scene": "scene",
    "generate_corpus": "synthgen",
    "generate_dataset": "synthgen",
    "generate_scene": "synthgen",
}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
