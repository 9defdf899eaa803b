"""Split-point policies: per-worker cut-depth selection.

Every policy sees the same :class:`SplitContext` -- the candidate depths of
the bottom model together with per-depth cost tables (forward FLOPs,
feature-exchange bytes, prefix model bytes) and the simulated cluster --
and returns one depth per selected worker.  The engine threads the chosen
depths through installation, merging, aggregation and accounting.

Policies:

* ``uniform`` -- every worker cuts at the full bottom depth, the paper's
  global constant.  Marked *trivial*: plans carry no depths and the engine
  reads every worker at the tail, the one-group case of the same path.
* ``profile`` -- a static per-worker depth from the device-class
  compute-vs-bandwidth profiles (Table II Jetson classes + WiFi distance
  groups).  Stateless and time-invariant: slow-compute/fast-link devices
  get shallow cuts, fast devices keep deep cuts.
* ``adaptive`` -- re-selects depths every round from the device's current
  state and an EMA straggler factor learned from recorded per-round
  durations, co-optimizing with the regulated per-worker batch sizes of the
  round plan.

Both cost models read the engine's per-depth tables, whose exchange and
model bytes are what the simulated link carries: under a compressing codec
they are the encoded sizes, so communication-heavy shallow cuts get
cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.api.registry import SPLIT_POLICIES, register_split_policy
from repro.simulation.worker_device import TRAIN_FLOPS_MULTIPLIER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ExperimentConfig


@dataclass
class SplitContext:
    """Everything a policy may consult when assigning depths.

    Attributes:
        depths: Candidate cut depths inside the bottom model, ascending;
            the last entry is the full bottom (the global cut).
        flops: Forward FLOPs of the depth-``d`` prefix, per sample.
        exchange_bytes: Feature-up + gradient-down bytes per sample at
            depth ``d``, as the simulated link carries them.
        model_bytes: Bytes of one move of the depth-``d`` prefix model, as
            the simulated link charges it (the mean of the raw download
            and the upload at the weights codec's size).
        cluster: The device cluster; ``cluster[worker_id]`` is the
            worker's :class:`~repro.simulation.worker_device.WorkerDevice`.
        batch_sizes: The round plan's regulated per-worker batch sizes.
        base_batch_size: Fleet-wide nominal batch size (fallback when a
            worker has no regulated entry yet).
        local_iterations: Local iterations per round (tau).
        aggregations: Model up/down transfers per round (1, or tau when
            aggregating every iteration).
    """

    depths: list[int]
    flops: dict[int, float]
    exchange_bytes: dict[int, int]
    model_bytes: dict[int, int]
    cluster: object
    batch_sizes: dict[int, int] = field(default_factory=dict)
    base_batch_size: int = 1
    local_iterations: int = 1
    aggregations: int = 1


class SplitPolicy:
    """Interface for per-worker cut-depth selection."""

    #: Registry name (also used in logs and checkpoints).
    name: str = "abstract"

    #: Trivial policies always pick the full bottom depth; the engine never
    #: asks them, and reads a plan without depths as "everyone at the tail".
    trivial: bool = False

    def assign_depths(
        self, round_index: int, worker_ids: list[int], ctx: SplitContext
    ) -> dict[int, int]:
        """Pick a candidate depth for every worker in ``worker_ids``."""
        raise NotImplementedError

    def observe_durations(
        self, round_index: int, durations: dict[int, float]
    ) -> None:
        """Record the round's simulated per-worker durations (seconds)."""

    def state_dict(self) -> dict:
        """JSON-serializable policy state; ``{}`` for stateless policies."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _round_cost(
    depth_cost: float, move_cost: float, batch: int, ctx: SplitContext
) -> float:
    """One worker's round duration estimate for a per-sample cost."""
    return (
        ctx.local_iterations * batch * depth_cost
        + 2.0 * ctx.aggregations * move_cost
    )


@register_split_policy("uniform")
class UniformSplitPolicy(SplitPolicy):
    """Every worker cuts at the full bottom depth (the global constant)."""

    name = "uniform"
    trivial = True

    def __init__(self, config: "ExperimentConfig | None" = None) -> None:
        self.config = config

    def assign_depths(self, round_index, worker_ids, ctx):
        return {worker_id: ctx.depths[-1] for worker_id in worker_ids}


@register_split_policy("profile")
class ProfileSplitPolicy(SplitPolicy):
    """Static per-worker depth from the device-class nominal profiles.

    Scores every candidate depth with the worker's *long-run* cost model --
    class training throughput at the expected performance mode and the WiFi
    distance group's mean bandwidth -- and keeps the argmin for the whole
    run.  Stateless: the same worker always maps to the same depth, so
    checkpoints carry nothing.
    """

    name = "profile"

    def __init__(self, config: "ExperimentConfig | None" = None) -> None:
        self.config = config

    def assign_depths(self, round_index, worker_ids, ctx):
        return {
            worker_id: self._select(ctx.cluster[worker_id], ctx)
            for worker_id in worker_ids
        }

    def _select(self, device, ctx: SplitContext) -> int:
        profile = device.profile
        throughput = (
            profile.train_gflops * 1e9 * float(np.mean(profile.mode_factors))
        )
        mean_mbps = device.network.mean_bandwidth_mbps
        best_depth, best_cost = ctx.depths[-1], float("inf")
        for depth in ctx.depths:
            mu = ctx.flops[depth] * TRAIN_FLOPS_MULTIPLIER / throughput
            beta = ctx.exchange_bytes[depth] * 8.0 / (mean_mbps * 1e6)
            move = ctx.model_bytes[depth] * 8.0 / (mean_mbps * 1e6)
            cost = _round_cost(mu + beta, move, ctx.base_batch_size, ctx)
            # Ties go to the deeper cut (closer to the global constant).
            if cost <= best_cost:
                best_depth, best_cost = depth, cost
        return best_depth


@register_split_policy("adaptive")
class AdaptiveSplitPolicy(SplitPolicy):
    """Re-selects depths each round from recorded durations.

    Keeps one learned signal: a per-worker *slowdown* EMA (the worker's
    recorded round duration relative to the cohort mean -- persistent
    stragglers get shallower cuts than their nominal profile suggests).
    Costs use the round plan's regulated batch sizes, co-optimizing the
    depth choice with the batch-size regulation that produced the plan.
    """

    name = "adaptive"

    #: EMA smoothing of the slowdown signal.
    decay: float = 0.5

    def __init__(self, config: "ExperimentConfig | None" = None) -> None:
        self.config = config
        self._slowdown: dict[int, float] = {}

    def assign_depths(self, round_index, worker_ids, ctx):
        return {
            worker_id: self._select(worker_id, ctx.cluster[worker_id], ctx)
            for worker_id in worker_ids
        }

    def _select(self, worker_id: int, device, ctx: SplitContext) -> int:
        batch = ctx.batch_sizes.get(worker_id, ctx.base_batch_size)
        slowdown = self._slowdown.get(worker_id, 1.0)
        best_depth, best_cost = ctx.depths[-1], float("inf")
        for depth in ctx.depths:
            # The slowdown EMA scales only the compute term: a persistent
            # straggler behaves like a lower-throughput device than its
            # nominal profile, which shifts the compute/communication
            # trade-off toward a shallower cut.  (Scaling the whole cost
            # would be a per-worker constant and could never change the
            # argmin.)
            mu = slowdown * device.compute_time_per_sample(ctx.flops[depth])
            beta = device.comm_time_per_sample(ctx.exchange_bytes[depth])
            move = device.model_transfer_time(ctx.model_bytes[depth])
            cost = _round_cost(mu + beta, move, batch, ctx)
            if cost <= best_cost:
                best_depth, best_cost = depth, cost
        return best_depth

    def observe_durations(self, round_index, durations):
        if not durations:
            return
        mean = float(np.mean(list(durations.values())))
        if mean <= 0:
            return
        for worker_id, duration in durations.items():
            relative = float(duration) / mean
            previous = self._slowdown.get(worker_id, 1.0)
            self._slowdown[worker_id] = (
                (1.0 - self.decay) * previous + self.decay * relative
            )

    def state_dict(self):
        return {"slowdown": {str(k): v for k, v in self._slowdown.items()}}

    def load_state_dict(self, state):
        # Checkpoints written while host wire bytes fed the policy also
        # carry a ``wire_scale``; a codec's saving is in the cost tables
        # now, so it is ignored.
        self._slowdown = {int(k): float(v) for k, v in state["slowdown"].items()}


def build_split_policy(config: "ExperimentConfig") -> SplitPolicy | None:
    """Resolve ``config.split_policy``; ``None`` when the policy is trivial.

    ``None`` means plans carry no depths -- the checkpoint encoding of the
    global cut -- and every worker cuts at the tail.
    """
    policy = SPLIT_POLICIES.get(config.split_policy)(config)
    return None if policy.trivial else policy
