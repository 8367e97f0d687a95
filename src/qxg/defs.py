"""Names the command line needs before it knows which subcommand runs.

``qxg`` parses its arguments, fills in its config defaults and reports
errors with these, so they live here, free of numpy: ``qxg build`` then
loads no numpy at all.  :mod:`qxg.synthgen` re-exports the scenario kinds
and :mod:`qxg.explainer` the forest hyperparameters and ``UnknownAction``;
they are the same objects under either name.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "STOPPING_FOR_CROSSER",
    "LEAD_VEHICLE_BRAKING",
    "CLEAR_CRUISE",
    "GAP_ACCELERATE",
    "KINDS",
    "Hyperparams",
    "UnknownAction",
]

STOPPING_FOR_CROSSER = "StoppingForCrosser"
LEAD_VEHICLE_BRAKING = "LeadVehicleBraking"
CLEAR_CRUISE = "ClearCruise"
GAP_ACCELERATE = "GapAccelerate"

KINDS = (STOPPING_FOR_CROSSER, LEAD_VEHICLE_BRAKING, CLEAR_CRUISE, GAP_ACCELERATE)


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 100
    max_depth: int = 10
    min_samples_leaf: int = 5
    balance: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError(f"hyperparameters must be positive: {self}")


class UnknownAction(KeyError):
    """The model was never trained on this action label."""
