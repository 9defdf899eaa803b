"""Worker state estimation (Eq. 5-6) and PS bandwidth estimation.

The control module of MergeSFL does not see true device speeds; it keeps a
moving-average estimate of each worker's per-sample compute time ``mu`` and
transmission time ``beta`` refreshed from the latest observation, plus an
estimate of the PS ingress bandwidth based on the previous rounds.
"""

from __future__ import annotations

import numpy as np

from repro.utils.numeric import moving_average


class WorkerStateEstimator:
    """Moving-average estimator of per-worker compute/communication time."""

    def __init__(self, num_workers: int, alpha: float = 0.8) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.num_workers = num_workers
        self._mu = np.zeros(num_workers)
        self._beta = np.zeros(num_workers)
        self._seen = np.zeros(num_workers, dtype=bool)

    def update(self, worker_id: int, mu: float, beta: float) -> None:
        """Fold one observation into the estimates (Eq. 5 and Eq. 6)."""
        if mu < 0 or beta < 0:
            raise ValueError("observed times must be non-negative")
        if not self._seen[worker_id]:
            self._mu[worker_id] = mu
            self._beta[worker_id] = beta
            self._seen[worker_id] = True
            return
        self._mu[worker_id] = moving_average(self._mu[worker_id], mu, self.alpha)
        self._beta[worker_id] = moving_average(self._beta[worker_id], beta, self.alpha)

    def update_ids(self, ids: np.ndarray, mus: np.ndarray, betas: np.ndarray) -> None:
        """Fold one observation per worker in ``ids``, vectorised.

        Elementwise first-observation/moving-average updates are IEEE-
        identical to a scalar :meth:`update` loop, and planning only ever
        observes the round's scope (the candidates, or everyone), so the
        cost is O(len(ids)) regardless of the registered population.
        """
        ids = np.asarray(ids, dtype=np.int64)
        mus = np.asarray(mus, dtype=np.float64)
        betas = np.asarray(betas, dtype=np.float64)
        if (mus < 0).any() or (betas < 0).any():
            raise ValueError("observed times must be non-negative")
        seen = self._seen[ids]
        fresh = ids[~seen]
        self._mu[fresh] = mus[~seen]
        self._beta[fresh] = betas[~seen]
        self._seen[fresh] = True
        tracked = ids[seen]
        self._mu[tracked] = moving_average(self._mu[tracked], mus[seen], self.alpha)
        self._beta[tracked] = moving_average(self._beta[tracked], betas[seen], self.alpha)

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(mu, beta)`` estimates (copies)."""
        return self._mu.copy(), self._beta.copy()

    def per_sample_duration(self, ids: np.ndarray) -> np.ndarray:
        """Estimated ``mu_i + beta_i`` (seconds per sample), in ``ids`` order."""
        ids = np.asarray(ids, dtype=np.int64)
        return self._mu[ids] + self._beta[ids]

    def is_initialised(self) -> bool:
        """Whether every worker has been observed at least once."""
        return bool(self._seen.all())

    def state_dict(self) -> dict:
        """Moving-average state for checkpointing."""
        return {
            "mu": self._mu.copy(),
            "beta": self._beta.copy(),
            "seen": self._seen.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        mu = np.asarray(state["mu"], dtype=np.float64)
        beta = np.asarray(state["beta"], dtype=np.float64)
        seen = np.asarray(state["seen"]).astype(bool)
        for name, array in (("mu", mu), ("beta", beta), ("seen", seen)):
            if array.shape != (self.num_workers,):
                raise ValueError(
                    f"checkpoint {name} has shape {array.shape}, estimator "
                    f"has {self.num_workers} workers"
                )
        self._mu = mu.copy()
        self._beta = beta.copy()
        self._seen = seen.copy()


class BandwidthEstimator:
    """Estimate the PS ingress bandwidth budget from past observations.

    Keeps a sliding history of the realised ingress bandwidth and predicts
    the next round's budget as a trimmed statistic (the paper: "analyze the
    statistical distribution of the ingress bandwidth based on the behaviour
    of the PS in the previous rounds").
    """

    def __init__(self, initial_mbps: float, history: int = 10, quantile: float = 0.4) -> None:
        if initial_mbps <= 0:
            raise ValueError("initial_mbps must be positive")
        if history <= 0:
            raise ValueError("history must be positive")
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self._history: list[float] = [initial_mbps]
        self._max_history = history
        self._quantile = quantile

    def observe(self, realised_mbps: float) -> None:
        """Record the ingress bandwidth realised in the round that just finished."""
        if realised_mbps <= 0:
            raise ValueError("realised bandwidth must be positive")
        self._history.append(realised_mbps)
        if len(self._history) > self._max_history:
            self._history.pop(0)

    def estimate(self) -> float:
        """Conservative estimate of the next round's ingress bandwidth (Mb/s)."""
        return float(np.quantile(np.asarray(self._history), self._quantile))

    def state_dict(self) -> dict:
        """Observation window for checkpointing."""
        return {"history": list(self._history)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        history = [float(value) for value in state["history"]]
        if not history:
            raise ValueError("bandwidth estimator history must be non-empty")
        self._history = history[-self._max_history:]
