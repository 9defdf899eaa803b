"""Split-point policy selection, learning signals and serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.api.registry import SPLIT_POLICIES, register_split_policy
from repro.config import ExperimentConfig
from repro.exceptions import ConfigurationError
from repro.splitpoint import (
    AdaptiveSplitPolicy,
    ProfileSplitPolicy,
    SplitContext,
    UniformSplitPolicy,
    build_split_policy,
)


@dataclass
class _Profile:
    train_gflops: float
    mode_factors: tuple = (1.0,)


@dataclass
class _Network:
    mean_bandwidth_mbps: float


class _Device:
    """Stub device exposing exactly what the policies consult."""

    def __init__(self, gflops: float, mbps: float):
        self.profile = _Profile(gflops)
        self.network = _Network(mbps)

    def compute_time_per_sample(self, flops: float) -> float:
        return flops * 3.0 / (self.profile.train_gflops * 1e9)

    def comm_time_per_sample(self, nbytes: int) -> float:
        return nbytes * 8.0 / (self.network.mean_bandwidth_mbps * 1e6)

    def model_transfer_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / (self.network.mean_bandwidth_mbps * 1e6)


def _ctx(cluster, **overrides) -> SplitContext:
    """A two-candidate context where the cost trade-off is real: the deep
    cut computes 100x more but exchanges 1000x fewer feature bytes."""
    params = dict(
        depths=[1, 4],
        flops={1: 1e6, 4: 100e6},
        exchange_bytes={1: 100_000, 4: 100},
        model_bytes={1: 1_000, 4: 10_000},
        cluster=cluster,
        base_batch_size=8,
        local_iterations=2,
        aggregations=1,
    )
    params.update(overrides)
    return SplitContext(**params)


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert {"uniform", "profile", "adaptive"} <= set(SPLIT_POLICIES.names())

    def test_build_returns_none_for_trivial_uniform(self):
        config = ExperimentConfig(split_policy="uniform")
        assert build_split_policy(config) is None

    def test_build_resolves_nontrivial_policies(self):
        assert isinstance(
            build_split_policy(ExperimentConfig(split_policy="profile")),
            ProfileSplitPolicy,
        )
        assert isinstance(
            build_split_policy(ExperimentConfig(split_policy="adaptive")),
            AdaptiveSplitPolicy,
        )

    def test_unknown_policy_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="split policy"):
            ExperimentConfig(split_policy="psychic")

    def test_custom_policy_registers_and_resolves(self):
        @register_split_policy("always_shallow_test")
        class AlwaysShallow(UniformSplitPolicy):
            name = "always_shallow_test"
            trivial = False

            def assign_depths(self, round_index, worker_ids, ctx):
                return {w: ctx.depths[0] for w in worker_ids}

        try:
            config = ExperimentConfig(split_policy="always_shallow_test")
            policy = build_split_policy(config)
            assert isinstance(policy, AlwaysShallow)
            ctx = _ctx({0: _Device(1.0, 1000.0)})
            assert policy.assign_depths(0, [0], ctx) == {0: 1}
        finally:
            SPLIT_POLICIES.unregister("always_shallow_test")


class TestUniform:
    def test_always_picks_the_tail(self):
        policy = UniformSplitPolicy()
        ctx = _ctx({w: _Device(1.0, 1.0) for w in range(3)})
        assert policy.assign_depths(5, [0, 1, 2], ctx) == {0: 4, 1: 4, 2: 4}

    def test_trivial_flag(self):
        assert UniformSplitPolicy.trivial
        assert not ProfileSplitPolicy.trivial
        assert not AdaptiveSplitPolicy.trivial


class TestProfile:
    def test_slow_compute_gets_shallow_fast_gets_deep(self):
        cluster = {0: _Device(1.0, 1000.0), 1: _Device(1000.0, 1000.0)}
        policy = ProfileSplitPolicy()
        depths = policy.assign_depths(0, [0, 1], _ctx(cluster))
        assert depths == {0: 1, 1: 4}

    def test_static_across_rounds_and_stateless(self):
        cluster = {0: _Device(2.0, 24.0)}
        policy = ProfileSplitPolicy()
        first = policy.assign_depths(0, [0], _ctx(cluster))
        for round_index in range(1, 4):
            assert policy.assign_depths(round_index, [0], _ctx(cluster)) == first
        assert policy.state_dict() == {}

    def test_tie_goes_to_the_deeper_cut(self):
        # Identical per-depth costs everywhere: the policy must keep the
        # global constant rather than drift shallow for no benefit.
        ctx = _ctx(
            {0: _Device(1.0, 1.0)},
            flops={1: 0.0, 4: 0.0},
            exchange_bytes={1: 0, 4: 0},
            model_bytes={1: 0, 4: 0},
        )
        assert ProfileSplitPolicy().assign_depths(0, [0], ctx) == {0: 4}


class TestAdaptive:
    def test_duration_ema_tracks_relative_slowdown(self):
        policy = AdaptiveSplitPolicy()
        policy.observe_durations(0, {0: 2.0, 1: 1.0})
        # mean 1.5; relatives 4/3 and 2/3; EMA from 1.0 at decay 0.5.
        assert policy._slowdown[0] == pytest.approx(0.5 + 0.5 * 4 / 3)
        assert policy._slowdown[1] == pytest.approx(0.5 + 0.5 * 2 / 3)
        policy.observe_durations(1, {0: 3.0, 1: 3.0})
        assert policy._slowdown[0] == pytest.approx(
            0.5 * (0.5 + 0.5 * 4 / 3) + 0.5
        )

    def test_slowdown_shifts_a_straggler_shallow(self):
        # A device just past the compute/comm break-even point: nominally
        # it keeps the deep cut, but once the EMA has learned it runs 2x
        # slower than the cohort, the (scaled) compute term tips it shallow.
        cluster = {0: _Device(400.0, 1000.0)}
        policy = AdaptiveSplitPolicy()
        assert policy.assign_depths(0, [0], _ctx(cluster)) == {0: 4}
        for round_index in range(6):
            policy.observe_durations(round_index, {0: 4.0, 1: 1.0, 2: 1.0})
        assert policy.assign_depths(6, [0], _ctx(cluster)) == {0: 1}

    def test_regulated_batch_sizes_enter_the_cost(self):
        # The round plan's regulated batch size scales the per-sample terms
        # but not the model move: a tiny batch cannot amortise the deep
        # prefix's heavy model transfer, while a large batch makes the
        # shallow cut's heavier per-sample exchange dominate instead.
        cluster = {0: _Device(100.0, 10.0)}
        overrides = dict(
            exchange_bytes={1: 20_000, 4: 100},
            model_bytes={1: 1_000, 4: 100_000},
        )
        policy = AdaptiveSplitPolicy()
        small = policy.assign_depths(
            0, [0], _ctx(cluster, batch_sizes={0: 1}, **overrides))
        large = policy.assign_depths(
            0, [0], _ctx(cluster, batch_sizes={0: 64}, **overrides))
        assert small == {0: 1}
        assert large == {0: 4}

    def test_state_round_trips_through_json(self):
        policy = AdaptiveSplitPolicy()
        policy.observe_durations(0, {3: 2.0, 7: 0.5})
        state = json.loads(json.dumps(policy.state_dict()))
        restored = AdaptiveSplitPolicy()
        restored.load_state_dict(state)
        assert restored._slowdown == policy._slowdown
        # Older checkpoints also carry the retired wire-scale EMA.
        legacy = AdaptiveSplitPolicy()
        legacy.load_state_dict({**state, "wire_scale": 0.5})
        assert legacy.state_dict() == policy.state_dict()


@pytest.mark.parametrize("policy_type", [ProfileSplitPolicy, AdaptiveSplitPolicy])
def test_a_compressed_exchange_table_moves_the_cut_shallower(policy_type):
    """A compute-heavy device nominally avoids the feature-heavy shallow
    cut; the engine's tables under a codec that puts 10% of the bytes on
    the link shrink the exchange term until shallow wins."""
    cluster = {0: _Device(50.0, 100.0)}
    raw = _ctx(cluster)
    compressed = _ctx(cluster, exchange_bytes={
        depth: nbytes * 0.1 for depth, nbytes in raw.exchange_bytes.items()
    })
    assert policy_type().assign_depths(0, [0], raw) == {0: 4}
    assert policy_type().assign_depths(0, [0], compressed) == {0: 1}


class TestEngineValidation:
    def test_out_of_candidates_depth_rejected(self):
        @register_split_policy("off_the_rails_test")
        class OffTheRails(ProfileSplitPolicy):
            name = "off_the_rails_test"

            def assign_depths(self, round_index, worker_ids, ctx):
                return {w: 999 for w in worker_ids}

        try:
            from repro.api.session import Session

            config = ExperimentConfig(
                dataset="har", model="cnn_h", num_workers=3, num_rounds=1,
                train_samples=96, test_samples=32, model_width=0.3,
                split_policy="off_the_rails_test",
            )
            with pytest.raises(ConfigurationError, match="candidates"):
                with Session.from_config(config) as session:
                    session.run()
        finally:
            SPLIT_POLICIES.unregister("off_the_rails_test")
