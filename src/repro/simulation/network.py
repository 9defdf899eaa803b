"""WiFi bandwidth model.

The testbed groups devices at 2 m, 8 m, 14 m and 20 m from the WiFi routers
and measures per-device bandwidth fluctuating between 1 Mb/s and 30 Mb/s
(iperf3).  The model assigns each worker a distance group with a
corresponding mean bandwidth and re-draws a noisy value every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.numeric import clamp

#: Distance (metres) -> mean bandwidth in Mb/s.
DISTANCE_GROUPS: dict[float, float] = {
    2.0: 24.0,
    8.0: 15.0,
    14.0: 8.0,
    20.0: 4.0,
}

#: Hard bounds reported by the paper's iperf3 measurements.
MIN_BANDWIDTH_MBPS = 1.0
MAX_BANDWIDTH_MBPS = 30.0


@dataclass
class WifiNetworkModel:
    """Per-worker stochastic bandwidth generator.

    Attributes:
        distance_m: Distance of the worker from the router.
        jitter: Log-normal sigma of the round-to-round fluctuation.
    """

    distance_m: float
    jitter: float = 0.35

    def __post_init__(self) -> None:
        if self.distance_m not in DISTANCE_GROUPS:
            # Interpolate for unlisted distances so tests can probe the model.
            distances = np.asarray(sorted(DISTANCE_GROUPS))
            means = np.asarray([DISTANCE_GROUPS[d] for d in distances])
            self._mean = float(np.interp(self.distance_m, distances, means))
        else:
            self._mean = DISTANCE_GROUPS[self.distance_m]

    @property
    def mean_bandwidth_mbps(self) -> float:
        """Long-run mean bandwidth for this distance."""
        return self._mean

    def sample_bandwidth_mbps(self, rng: np.random.Generator) -> float:
        """Draw this round's bandwidth in Mb/s, clipped to the measured range."""
        noisy = self._mean * rng.lognormal(mean=0.0, sigma=self.jitter)
        return clamp(noisy, MIN_BANDWIDTH_MBPS, MAX_BANDWIDTH_MBPS)


def assign_distance(worker_id: int) -> float:
    """Assign workers to the four distance groups round-robin (20 per group)."""
    distances = sorted(DISTANCE_GROUPS)
    return distances[worker_id % len(distances)]
