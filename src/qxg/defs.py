"""Names the command line needs before it knows which subcommand runs.

``qxg`` parses its arguments, fills in its config defaults and reports
errors with these, so they live here, free of numpy: ``qxg build`` then
loads no numpy at all.  :mod:`qxg.synthgen` re-exports the scenario kinds
and :mod:`qxg.explainer` the forest hyperparameters, ``UnknownAction`` and
``MAX_CHAIN_LENGTH``; they are the same objects under either name.
``MAX_TREES`` bounds ``Hyperparams.n_trees`` and the ``--n-trees`` flag.
:func:`replace_from_json` is the one decoder for the settings in config
files and model files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass, replace

__all__ = [
    "STOPPING_FOR_CROSSER",
    "LEAD_VEHICLE_BRAKING",
    "CLEAR_CRUISE",
    "GAP_ACCELERATE",
    "KINDS",
    "MAX_CHAIN_LENGTH",
    "MAX_TREES",
    "Hyperparams",
    "UnknownAction",
    "replace_from_json",
]

STOPPING_FOR_CROSSER = "StoppingForCrosser"
LEAD_VEHICLE_BRAKING = "LeadVehicleBraking"
CLEAR_CRUISE = "ClearCruise"
GAP_ACCELERATE = "GapAccelerate"

KINDS = (STOPPING_FOR_CROSSER, LEAD_VEHICLE_BRAKING, CLEAR_CRUISE, GAP_ACCELERATE)

# Training time and memory grow with the chain length t.  On a 200-scene
# ``qxg gen --seed 7`` corpus (2-vCPU VM; peak RSS from ``os.wait4``),
# ``qxg train`` takes 0.31 s and 37 MB at t=5 and 0.47 s and 50 MB at t=256;
# ``qxg explain`` takes 0.10-0.11 s at either.  ``qxg train --t 100000000`` ran for
# over 20 s without finishing.
MAX_CHAIN_LENGTH = 256

# Training time, memory and the model file grow with the trees per action.
# On the same corpus, ``qxg train`` takes 0.31 s and 37 MB peak RSS and writes
# a 0.1 MB model at 100 trees (the default), and takes 7.3 s and 115 MB and
# writes 11.5 MB at 10,000; ``qxg explain`` with that model takes 0.71 s, 132 MB.
# ``train`` spawns every tree's seed before growing the first tree: on a
# 4-scene corpus, ``--n-trees 100000000`` was still running after 30 s.
MAX_TREES = 10_000


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 100
    max_depth: int = 10
    min_samples_leaf: int = 5
    balance: bool = True

    def __post_init__(self) -> None:
        sizes = (self.n_trees, self.max_depth, self.min_samples_leaf)
        if any(type(v) is not int for v in sizes) or type(self.balance) is not bool:
            raise ValueError(f"hyperparameters must be integers and balance true or false: {self}")
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError(f"hyperparameters must be positive: {self}")
        if self.n_trees > MAX_TREES:
            raise ValueError(f"n_trees must be in 1..{MAX_TREES}, got {self.n_trees}")


class UnknownAction(KeyError, ValueError):
    """The model was never trained on this action label.  A ``ValueError``
    like every other refusal, and a ``KeyError`` for callers that catch one."""

    def __str__(self) -> str:
        return f"unknown action {self.args[0]!r}"


def replace_from_json(base, payload, where: str, *, require_all: bool = False):
    """``base`` with the fields named in the JSON object ``payload`` replaced.
    A nested value object takes a JSON object, a tuple field only a JSON
    list, and a float field an int too, as a float.  Unknown keys (and, with
    ``require_all``, missing ones) are refused; the value objects' own checks
    decide the rest.  Faults are ``ValueError``s that start with ``where``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(payload)}")
    names = {f.name for f in fields(base)}
    unknown = payload.keys() - names
    if unknown:
        raise ValueError(f"{where}: unknown config keys {sorted(unknown)}")
    missing = names - payload.keys() if require_all else ()
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")
    values = {}
    for key, value in payload.items():
        current = getattr(base, key)
        if is_dataclass(current):
            value = replace_from_json(current, value, f"{where}: {key}")
        elif isinstance(current, tuple):
            if not isinstance(value, list):
                raise ValueError(f"{where}: {key!r} must be a JSON list, got {json.dumps(value)}")
            value = tuple(value)
        elif type(current) is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)  # an int beyond float range is left for the check to refuse
        values[key] = value
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
