"""FedAvg baseline (McMahan et al., AISTATS'17).

Every worker trains the entire model locally with an identical, fixed batch
size; the PS averages the local models weighted by shard size.  FedAvg is
:class:`~repro.baselines.fl_engine.FLTrainingEngine` under the trivial
selection strategy below (see :data:`repro.algorithms.BUILTIN_ALGORITHMS`).
"""

from __future__ import annotations

import numpy as np


class SelectAll:
    """FedAvg's trivial selection: every worker participates every round."""

    def select(
        self,
        round_index: int,
        durations: np.ndarray,
        label_distributions: np.ndarray,
        participation_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        return list(range(durations.shape[0]))
