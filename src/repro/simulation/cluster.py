"""Heterogeneous cluster construction.

:class:`Cluster` holds the simulated worker devices and the PS ingress
link.  A device is a pure function of ``(seed, worker_id, round)``: built
on first touch from ``spawned_rng(seed, worker_id)`` and caught up by
replaying the ``advance_round`` calls it missed, it is the device an
always-advanced fleet would hold.  So advancing a round only re-draws the
bandwidth budget, and a checkpoint is the budget RNG, budget and round.
Planning reads each worker's ``(mu_i, beta_i)``, and the round's cost
model also its model move time ``m_i``, through
:meth:`Cluster.per_sample_times`: one device lookup, and so one catch-up,
per worker, at costs one per worker when workers cut at different depths.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.device import sample_device_profile
from repro.simulation.network import WifiNetworkModel, assign_distance
from repro.simulation.worker_device import (
    WorkerDevice,
    train_seconds,
    transfer_seconds,
)
from repro.utils.rng import get_rng_state, set_rng_state, spawned_rng


class Cluster:
    """The simulated worker devices plus the PS ingress link.

    ``max_live_devices`` caps the device cache; eviction is lossless (a
    re-touched device replays from scratch) and only trades memory for
    replay time.  ``0`` keeps every touched device.
    """

    def __init__(
        self,
        num_workers: int,
        bandwidth_budget_mbps: float,
        seed: int = 0,
        mode_change_interval: int = 20,
        budget_jitter: float = 0.15,
        max_live_devices: int = 0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if bandwidth_budget_mbps <= 0:
            raise ValueError("bandwidth_budget_mbps must be positive")
        self.num_workers = num_workers
        self.nominal_budget_mbps = bandwidth_budget_mbps
        self.budget_jitter = budget_jitter
        self.current_budget_mbps = bandwidth_budget_mbps
        self.max_live_devices = max_live_devices
        self._seed = seed
        self._mode_change_interval = mode_change_interval
        # The stream after the devices' own: rngs[num_workers] of
        # spawn_rngs(seed, num_workers + 2).
        self._rng = spawned_rng(seed, num_workers)
        self._round = -1
        self._devices: dict[int, WorkerDevice] = {}
        self._advanced: dict[int, int] = {}

    def __len__(self) -> int:
        return self.num_workers

    def __getitem__(self, worker_id: int) -> WorkerDevice:
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.num_workers:
            raise IndexError(
                f"worker id {worker_id} outside cluster of {self.num_workers}"
            )
        device = self._devices.get(worker_id)
        if device is None:
            device = self._register(worker_id, -1)
        # Catch up through the rounds this device missed while dormant.
        for round_index in range(self._advanced[worker_id] + 1, self._round + 1):
            device.advance_round(round_index)
        self._advanced[worker_id] = self._round
        return device

    def _register(self, worker_id: int, advanced: int) -> WorkerDevice:
        """Build worker ``worker_id``'s device as of before round 0 and
        cache it as advanced through round ``advanced``."""
        rng = spawned_rng(self._seed, worker_id)
        device = WorkerDevice(
            worker_id=worker_id,
            profile=sample_device_profile(rng),
            network=WifiNetworkModel(distance_m=assign_distance(worker_id)),
            rng=rng,
            mode_change_interval=self._mode_change_interval,
        )
        if self.max_live_devices > 0:
            while len(self._devices) >= self.max_live_devices:
                oldest = next(iter(self._devices))
                del self._devices[oldest]
                del self._advanced[oldest]
        self._devices[worker_id] = device
        self._advanced[worker_id] = advanced
        return device

    @property
    def live_devices(self) -> int:
        """Devices currently held in the cache."""
        return len(self._devices)

    @property
    def devices(self) -> list[WorkerDevice]:
        """All devices, materialised (small populations / diagnostics only)."""
        return [self[worker_id] for worker_id in range(self.num_workers)]

    def per_sample_times(
        self, ids, forward_flops, bytes_per_sample, model_bytes=None
    ) -> tuple[np.ndarray, ...]:
        """Per-sample compute and communication times ``(mu_i, beta_i)``
        of workers ``ids`` (seconds), from one device lookup per worker.

        Each cost is shared by every worker or an array aligned with
        ``ids``; given ``model_bytes``, one model move's time ``m_i`` is a
        third array.
        """
        ids = list(ids)
        throughputs = np.empty(len(ids))
        bandwidths = np.empty(len(ids))
        for position, worker_id in enumerate(ids):
            device = self[worker_id]
            throughputs[position] = device.profile.throughput(device.mode)
            bandwidths[position] = device.bandwidth_mbps

        def per_worker(cost) -> np.ndarray:
            return np.broadcast_to(np.asarray(cost, np.float64), len(ids))

        # The devices' own formulas over the cohort's arrays: every element
        # is the float the scalar method returns.
        flops, exchange = per_worker(forward_flops), per_worker(bytes_per_sample)
        if flops.size and flops.min() <= 0:
            raise ValueError("forward_flops must be positive")
        if exchange.size and exchange.min() < 0:
            raise ValueError("bytes_per_sample must be non-negative")
        mus = train_seconds(flops, throughputs)
        betas = transfer_seconds(exchange, bandwidths)
        if model_bytes is None:
            return mus, betas
        moves = per_worker(model_bytes)
        if moves.size and moves.min() < 0:
            raise ValueError("model_bytes must be non-negative")
        return mus, betas, transfer_seconds(moves, bandwidths)

    def advance_round(self, round_index: int) -> None:
        """Re-draw the PS budget; devices catch up on their next touch."""
        self._round = round_index
        noise = self._rng.normal(1.0, self.budget_jitter)
        self.current_budget_mbps = float(
            np.clip(self.nominal_budget_mbps * noise,
                    0.3 * self.nominal_budget_mbps,
                    2.0 * self.nominal_budget_mbps)
        )

    def state_dict(self) -> dict:
        """Budget RNG, budget and round: device state is recomputed by replay."""
        return {
            "rng": get_rng_state(self._rng),
            "current_budget_mbps": self.current_budget_mbps,
            "round": self._round,
        }

    def load_state_dict(self, state: dict, last_round: int | None = None) -> None:
        """Restore state captured by :meth:`state_dict`.

        Checkpoints of the retired all-live cluster hold every device's
        state and no round counter; their devices are restored as they
        were, as of ``last_round`` -- the round the cluster last advanced
        to, which the caller knows.  The ``"format"`` key of earlier
        checkpoints is ignored.
        """
        devices = state.get("devices")
        if devices is not None and len(devices) != self.num_workers:
            raise ValueError(
                f"checkpoint has {len(devices)} devices, cluster has "
                f"{self.num_workers}"
            )
        if devices is not None and last_round is None:
            raise ValueError(
                "a checkpoint of every device's state needs last_round, "
                "the round its cluster last advanced to"
            )
        set_rng_state(self._rng, state["rng"])
        self.current_budget_mbps = float(state["current_budget_mbps"])
        self._round = int(state["round"] if devices is None else last_round)
        self._devices.clear()
        self._advanced.clear()
        for worker_id, device_state in enumerate(devices or ()):
            self._register(worker_id, self._round).load_state_dict(device_state)


def build_cluster(
    num_workers: int,
    bandwidth_budget_mbps: float,
    seed: int = 0,
    mode_change_interval: int = 20,
) -> Cluster:
    """Construct a heterogeneous cluster mirroring the paper's testbed.

    Device families follow the 30/40/10 TX2/NX/AGX mix and workers are
    spread evenly over the four WiFi distance groups.
    """
    return Cluster(
        num_workers=num_workers,
        bandwidth_budget_mbps=bandwidth_budget_mbps,
        seed=seed,
        mode_change_interval=mode_change_interval,
    )
