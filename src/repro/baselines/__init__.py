"""The full-model (FL) baselines: one engine, two selection strategies.

FedAvg and PyramidFL train the entire model locally through
:class:`FLTrainingEngine` under :class:`SelectAll` / :class:`PyramidSelection`.
The split-learning baselines (SplitFed, LocFedMix-SL, AdaSFL and the SFL-T /
SFL-FM / SFL-BR motivation variants) need no code of their own: they are
rows of :class:`~repro.core.controller.ControlModule` switches over the
split engine, listed with these two in
:data:`repro.algorithms.BUILTIN_ALGORITHMS`.
"""

from repro.baselines.fl_engine import FLTrainingEngine, FLSelectionStrategy
from repro.baselines.fedavg import SelectAll
from repro.baselines.pyramidfl import PyramidSelection

__all__ = [
    "FLTrainingEngine",
    "FLSelectionStrategy",
    "SelectAll",
    "PyramidSelection",
]
