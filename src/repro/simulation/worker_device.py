"""Per-worker device state: compute mode and link bandwidth."""

from __future__ import annotations

import numpy as np

from repro.simulation.device import DeviceProfile
from repro.simulation.network import WifiNetworkModel
from repro.utils.rng import get_rng_state, set_rng_state

#: Backward pass costs roughly twice the forward pass, so training one
#: sample costs about three forward passes worth of FLOPs.
TRAIN_FLOPS_MULTIPLIER = 3.0


def train_seconds(forward_flops, throughput):
    """Seconds to train on one sample at ``throughput`` FLOP/s (mu_i);
    scalars or arrays, the same float either way."""
    return forward_flops * TRAIN_FLOPS_MULTIPLIER / throughput


def transfer_seconds(nbytes, bandwidth_mbps):
    """Seconds to move ``nbytes`` over a ``bandwidth_mbps`` link (beta_i for
    a sample's feature and gradient, m_i for a model); scalars or arrays."""
    return nbytes * 8.0 / (bandwidth_mbps * 1e6)


class WorkerDevice:
    """Simulated edge device hosting one federated worker.

    The device exposes the two per-sample quantities the paper's timing
    model needs: the computing time ``mu`` for processing one data sample
    and the transmission time ``beta`` for shipping one sample's feature
    (and receiving its gradient) over the WiFi link.
    """

    def __init__(
        self,
        worker_id: int,
        profile: DeviceProfile,
        network: WifiNetworkModel,
        rng: np.random.Generator,
        mode_change_interval: int = 20,
    ) -> None:
        if mode_change_interval <= 0:
            raise ValueError("mode_change_interval must be positive")
        self.worker_id = worker_id
        self.profile = profile
        self.network = network
        self.mode_change_interval = mode_change_interval
        self._rng = rng
        self.mode = int(rng.integers(0, profile.num_modes))
        self.bandwidth_mbps = network.sample_bandwidth_mbps(rng)
        self._last_mode_round = 0

    # -- round lifecycle ---------------------------------------------------
    def advance_round(self, round_index: int) -> None:
        """Refresh time-varying state at the start of a communication round.

        Bandwidth is re-drawn every round; the performance mode is re-drawn
        every ``mode_change_interval`` rounds, as in the paper's testbed.
        """
        self.bandwidth_mbps = self.network.sample_bandwidth_mbps(self._rng)
        if round_index - self._last_mode_round >= self.mode_change_interval:
            self.mode = int(self._rng.integers(0, self.profile.num_modes))
            self._last_mode_round = round_index

    def state_dict(self) -> dict:
        """Time-varying device state (mode, bandwidth, RNG) for checkpointing."""
        return {
            "rng": get_rng_state(self._rng),
            "mode": self.mode,
            "bandwidth_mbps": self.bandwidth_mbps,
            "last_mode_round": self._last_mode_round,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        set_rng_state(self._rng, state["rng"])
        self.mode = int(state["mode"])
        self.bandwidth_mbps = float(state["bandwidth_mbps"])
        self._last_mode_round = int(state["last_mode_round"])

    # -- per-sample costs ----------------------------------------------------
    def compute_time_per_sample(self, forward_flops: float) -> float:
        """Seconds to train on one sample (mu_i in the paper)."""
        if forward_flops <= 0:
            raise ValueError("forward_flops must be positive")
        return train_seconds(forward_flops, self.profile.throughput(self.mode))

    def comm_time_per_sample(self, bytes_per_sample: float) -> float:
        """Seconds to exchange one sample's feature + gradient (beta_i)."""
        if bytes_per_sample < 0:
            raise ValueError("bytes_per_sample must be non-negative")
        return transfer_seconds(bytes_per_sample, self.bandwidth_mbps)

    def model_transfer_time(self, model_bytes: float) -> float:
        """Seconds to upload or download a (sub)model of the given size."""
        if model_bytes < 0:
            raise ValueError("model_bytes must be non-negative")
        return transfer_seconds(model_bytes, self.bandwidth_mbps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerDevice(id={self.worker_id}, profile={self.profile.name}, "
            f"mode={self.mode}, bw={self.bandwidth_mbps:.1f}Mbps)"
        )
