"""PyramidFL baseline (Li et al., MobiCom'22), simplified.

PyramidFL performs fine-grained client selection that exploits the
divergence between selected and unselected workers to use both data and
compute efficiently.  The full system tunes per-client configurations
online; this reproduction keeps the part that matters for the paper's
comparison -- utility-driven selection -- and scores each worker by

* **statistical utility**: how much the worker's label distribution
  complements the already-selected mixture (moves it towards IID), and
* **system utility**: a penalty on slow workers so the synchronous round is
  not dominated by stragglers,

with an exploration term that favours rarely selected workers.  The
simplification is recorded in the README's "Algorithms" section.  PyramidFL
is :class:`~repro.baselines.fl_engine.FLTrainingEngine` under
:class:`PyramidSelection` (see :data:`repro.algorithms.BUILTIN_ALGORITHMS`).
"""

from __future__ import annotations

import numpy as np

from repro.core.divergence import iid_distribution, kl_divergence, mixed_label_distribution


class PyramidSelection:
    """Utility-driven worker selection with straggler avoidance."""

    def __init__(self, participation_fraction: float = 0.6, exploration: float = 0.2) -> None:
        if not 0.0 < participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if exploration < 0:
            raise ValueError("exploration must be non-negative")
        self.participation_fraction = participation_fraction
        self.exploration = exploration

    def select(
        self,
        round_index: int,
        durations: np.ndarray,
        label_distributions: np.ndarray,
        participation_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        num_workers = durations.shape[0]
        count = max(1, int(round(self.participation_fraction * num_workers)))
        target = iid_distribution(label_distributions)
        uniform_batches = np.ones(num_workers)

        selected: list[int] = []
        candidates = set(range(num_workers))
        max_duration = float(durations.max()) if durations.size else 1.0
        while len(selected) < count and candidates:
            best_worker = None
            best_score = -np.inf
            for worker in candidates:
                trial = selected + [worker]
                phi = mixed_label_distribution(
                    label_distributions, uniform_batches, trial
                )
                statistical = -kl_divergence(phi, target)
                system = -durations[worker] / max_duration
                explore = self.exploration / (participation_counts[worker] + 1.0)
                score = statistical + 0.5 * system + explore
                if score > best_score:
                    best_score = score
                    best_worker = worker
            selected.append(int(best_worker))
            candidates.remove(best_worker)
        return sorted(selected)
