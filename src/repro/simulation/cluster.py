"""Heterogeneous cluster construction.

:class:`Cluster` holds one live :class:`WorkerDevice` per registered worker
(the eager path).  :class:`LazyCluster` answers the same queries for
populations too large to hold live device objects: devices are derived on
first touch from ``spawned_rng(seed, worker_id)`` -- the identical stream
``build_cluster`` hands each eager device -- and caught up by replaying the
missed ``advance_round`` calls, so a lazily-materialised device is
bit-identical to an always-live one for any touch pattern.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.device import sample_device_profile
from repro.simulation.network import WifiNetworkModel, assign_distance
from repro.simulation.worker_device import WorkerDevice
from repro.utils.rng import get_rng_state, set_rng_state, spawn_rngs, spawned_rng


class _DeviceTimes:
    """Per-sample times of any worker subset, over ``self[worker_id]``."""

    def compute_times(self, ids, forward_flops: float) -> np.ndarray:
        """Per-sample compute time ``mu_i`` of workers ``ids`` (seconds)."""
        return np.asarray(
            [self[int(i)].compute_time_per_sample(forward_flops) for i in ids]
        )

    def comm_times(self, ids, bytes_per_sample: float) -> np.ndarray:
        """Per-sample communication time ``beta_i`` of workers ``ids`` (seconds)."""
        return np.asarray(
            [self[int(i)].comm_time_per_sample(bytes_per_sample) for i in ids]
        )


class Cluster(_DeviceTimes):
    """A collection of simulated worker devices plus the PS ingress link."""

    def __init__(
        self,
        devices: list[WorkerDevice],
        bandwidth_budget_mbps: float,
        rng: np.random.Generator,
        budget_jitter: float = 0.15,
    ) -> None:
        if bandwidth_budget_mbps <= 0:
            raise ValueError("bandwidth_budget_mbps must be positive")
        self.devices = devices
        self.nominal_budget_mbps = bandwidth_budget_mbps
        self.budget_jitter = budget_jitter
        self._rng = rng
        self.current_budget_mbps = bandwidth_budget_mbps

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, worker_id: int) -> WorkerDevice:
        return self.devices[worker_id]

    def advance_round(self, round_index: int) -> None:
        """Refresh every device and re-draw the PS ingress bandwidth budget."""
        for device in self.devices:
            device.advance_round(round_index)
        noise = self._rng.normal(1.0, self.budget_jitter)
        self.current_budget_mbps = float(
            np.clip(self.nominal_budget_mbps * noise,
                    0.3 * self.nominal_budget_mbps,
                    2.0 * self.nominal_budget_mbps)
        )

    def state_dict(self) -> dict:
        """Time-varying cluster state (budget, RNGs, devices) for checkpointing."""
        return {
            "rng": get_rng_state(self._rng),
            "current_budget_mbps": self.current_budget_mbps,
            "devices": [device.state_dict() for device in self.devices],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        devices_state = state["devices"]
        if len(devices_state) != len(self.devices):
            raise ValueError(
                f"checkpoint has {len(devices_state)} devices, cluster has "
                f"{len(self.devices)}"
            )
        set_rng_state(self._rng, state["rng"])
        self.current_budget_mbps = float(state["current_budget_mbps"])
        for device, device_state in zip(self.devices, devices_state):
            device.load_state_dict(device_state)


class LazyCluster(_DeviceTimes):
    """A cluster whose devices are derived on demand from their RNG streams.

    Device state is a pure function of ``(seed, worker_id, round)``: the
    per-device generator draws its profile, mode and bandwidth at
    construction and advances only through its own ``advance_round`` calls,
    with no cross-device input.  The lazy cluster therefore keeps no
    per-device state at all -- a touched device is built from
    ``spawned_rng(seed, worker_id)`` (the stream ``build_cluster`` would
    have given it) and replayed through the missed rounds, which makes it
    bit-identical to an eager device.  Checkpoints carry only the budget
    RNG, the current budget and the round counter, independent of the
    registered population.

    ``max_live_devices`` caps the device cache; eviction is lossless (a
    re-touched device replays from scratch) and only trades memory for
    replay time.
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
        # The same stream build_cluster uses for the cluster budget
        # (rngs[num_workers] of spawn_rngs(seed, num_workers + 2)).
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
            rng = spawned_rng(self._seed, worker_id)
            profile = sample_device_profile(rng)
            network = WifiNetworkModel(distance_m=assign_distance(worker_id))
            device = WorkerDevice(
                worker_id=worker_id,
                profile=profile,
                network=network,
                rng=rng,
                mode_change_interval=self._mode_change_interval,
            )
            self._trim_cache()
            self._devices[worker_id] = device
            self._advanced[worker_id] = -1
        # Catch up through the rounds this device missed while dormant.
        for round_index in range(self._advanced[worker_id] + 1, self._round + 1):
            device.advance_round(round_index)
        self._advanced[worker_id] = self._round
        return device

    def _trim_cache(self) -> None:
        if self.max_live_devices <= 0:
            return
        while len(self._devices) >= self.max_live_devices:
            oldest = next(iter(self._devices))
            del self._devices[oldest]
            del self._advanced[oldest]

    @property
    def live_devices(self) -> int:
        """Devices currently held in the cache."""
        return len(self._devices)

    @property
    def devices(self) -> list[WorkerDevice]:
        """All devices, materialised (small populations / diagnostics only)."""
        return [self[worker_id] for worker_id in range(self.num_workers)]

    def advance_round(self, round_index: int) -> None:
        """Re-draw the PS budget; devices catch up lazily on next touch."""
        self._round = round_index
        noise = self._rng.normal(1.0, self.budget_jitter)
        self.current_budget_mbps = float(
            np.clip(self.nominal_budget_mbps * noise,
                    0.3 * self.nominal_budget_mbps,
                    2.0 * self.nominal_budget_mbps)
        )

    def state_dict(self) -> dict:
        """Population-independent state: budget RNG, budget and round only.

        Device state is recomputed by replay, so it never enters the
        checkpoint -- a million registered devices serialise to three
        scalars and one RNG state.
        """
        return {
            "format": "lazy",
            "rng": get_rng_state(self._rng),
            "current_budget_mbps": self.current_budget_mbps,
            "round": self._round,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state.get("format") != "lazy":
            raise ValueError(
                "checkpoint holds an eager cluster but the engine runs with "
                "population='lazy'"
            )
        set_rng_state(self._rng, state["rng"])
        self.current_budget_mbps = float(state["current_budget_mbps"])
        self._round = int(state["round"])
        self._devices.clear()
        self._advanced.clear()


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
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    rngs = spawn_rngs(seed, num_workers + 2)
    devices = []
    for worker_id in range(num_workers):
        profile = sample_device_profile(rngs[worker_id])
        network = WifiNetworkModel(distance_m=assign_distance(worker_id))
        devices.append(
            WorkerDevice(
                worker_id=worker_id,
                profile=profile,
                network=network,
                rng=rngs[worker_id],
                mode_change_interval=mode_change_interval,
            )
        )
    return Cluster(
        devices=devices,
        bandwidth_budget_mbps=bandwidth_budget_mbps,
        rng=rngs[num_workers],
    )
