"""ElasticController unit behaviour: over-selection, quorum, rejoin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.controller import RoundPlan
from repro.core.elastic import ElasticController


def _controller(**overrides) -> ElasticController:
    params = dict(seed=3)
    params.update(overrides)
    return ElasticController(ExperimentConfig(**params))


class _FakePool:
    """Planning-column stub: participation counts and a population size."""

    def __init__(self, counts):
        self._counts = np.asarray(counts, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._counts)

    def participation_counts(self, ids=None):
        if ids is None:
            return self._counts
        return self._counts[np.asarray(ids, dtype=np.int64)]


def _state(value: float) -> dict:
    return {"w": np.full(2, value, dtype=np.float64)}


REFERENCE = _state(0.0)


def _global(state: dict):
    """The ``global_state`` callable ``apply_aggregate`` reads lazily."""
    return lambda: state


class TestBuild:
    def test_the_default_config_builds_a_neutral_controller(self):
        controller = ElasticController(ExperimentConfig())
        assert controller.churn.dropout_rate == 0.0
        assert controller.churn.straggler_deadline == 0.0
        assert controller.over_select_factor == 1.0
        assert controller.rejoin_staleness_bound == 0

    def test_the_knobs_reach_the_controller(self):
        controller = ElasticController(ExperimentConfig(dropout_rate=0.25))
        assert controller.churn.dropout_rate == 0.25


class TestOverSelection:
    def test_factor_one_returns_the_plan_untouched(self):
        plan = RoundPlan(selected=[0, 2], batch_sizes={0: 8, 2: 8})
        controller = _controller(over_select_factor=1.0)
        assert controller.over_select(plan, _FakePool([0] * 4), None, 8) is plan

    def test_backups_prefer_low_participation_then_low_id(self):
        plan = RoundPlan(selected=[0, 1], batch_sizes={0: 8, 1: 16})
        pool = _FakePool([5, 5, 3, 1, 3, 0])
        padded = _controller(over_select_factor=2.0).over_select(
            plan, pool, None, 8
        )
        # Two extra workers: counts 0 (id 5) then 1 (id 3).
        assert padded.selected == [0, 1, 3, 5]
        assert padded.batch_sizes == {0: 8, 1: 16, 3: 8, 5: 8}
        assert padded.info["over_selected"] == [5, 3]
        assert padded.merged_kl == plan.merged_kl

    def test_participation_tie_breaks_on_lowest_id(self):
        plan = RoundPlan(selected=[0], batch_sizes={0: 8})
        padded = _controller(over_select_factor=3.0).over_select(
            plan, _FakePool([9, 2, 2, 2]), None, 8
        )
        assert padded.info["over_selected"] == [1, 2]

    def test_backups_exhaust_at_the_population(self):
        plan = RoundPlan(selected=[0, 1, 2], batch_sizes={0: 8, 1: 8, 2: 8})
        padded = _controller(over_select_factor=4.0).over_select(
            plan, _FakePool([0] * 4), None, 8
        )
        assert padded.selected == [0, 1, 2, 3]

    def test_no_available_backup_keeps_the_plan(self):
        plan = RoundPlan(selected=[0, 1], batch_sizes={0: 8, 1: 8})
        controller = _controller(over_select_factor=2.0)
        assert controller.over_select(plan, _FakePool([0, 0]), None, 8) is plan

    def test_candidates_bound_the_backup_universe(self):
        plan = RoundPlan(selected=[4], batch_sizes={4: 8})
        padded = _controller(over_select_factor=2.0).over_select(
            plan, _FakePool([0] * 10), np.array([2, 4, 9]), 8
        )
        assert padded.selected == [2, 4]


class TestApplyAggregate:
    def test_missing_workers_are_filtered_out(self):
        controller = _controller(dropout_rate=0.5)
        round_state = controller.begin_round(0, [0, 1, 2], np.ones(3))
        round_state.dropped = [1]
        resolved = controller.apply_aggregate(
            round_state, [0, 1, 2],
            [_state(1.0), _state(2.0), _state(3.0)], [8.0, 8.0, 8.0],
            _global(REFERENCE),
        )
        states, weights = resolved
        assert [s["w"][0] for s in states] == [1.0, 3.0]
        assert weights == [8.0, 8.0]
        assert round_state.completed == [0, 2]
        assert round_state.effective_cohort == 2
        assert round_state.dropout_rate == pytest.approx(1 / 3)

    def test_below_quorum_yields_no_update(self):
        controller = _controller(min_cohort_fraction=0.75)
        round_state = controller.begin_round(0, [0, 1, 2, 3], np.ones(4))
        round_state.dropped = [0, 1]
        resolved = controller.apply_aggregate(
            round_state, [0, 1, 2, 3], [_state(i) for i in range(4)],
            [8.0] * 4, _global(REFERENCE),
        )
        assert resolved is None
        assert round_state.no_update
        assert round_state.completed == [2, 3]
        # Nothing entered an aggregate: the model did not change.
        assert round_state.effective_cohort == 0

    def test_the_global_state_is_read_only_for_a_rejoin(self):
        """Copying the global model costs a full state; a round where no
        missing worker waits to rejoin and nothing folds never asks."""
        def unread():
            raise AssertionError("global state read without a rejoin")

        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=2)
        round_state = controller.begin_round(0, [0, 1, 2], np.ones(3))
        round_state.dropped = [1]
        round_state.churn.rejoin_delays = {}
        states, __ = controller.apply_aggregate(
            round_state, [0, 1, 2], [_state(1.0), _state(2.0), _state(3.0)],
            [8.0] * 3, unread,
        )
        assert len(states) == 2
        reads = []
        round_state = controller.begin_round(1, [0, 1], np.ones(2))
        round_state.dropped = [1]
        round_state.churn.rejoin_delays = {1: 1}
        controller.apply_aggregate(
            round_state, [0, 1], [_state(1.0), _state(2.0)], [8.0] * 2,
            lambda: reads.append(1) or REFERENCE,
        )
        assert reads == [1]

    def test_only_a_missing_worker_with_a_delay_becomes_pending(self):
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=2)
        round_state = controller.begin_round(0, [0, 1, 2], np.ones(3))
        round_state.dropped = [1, 2]
        round_state.churn.rejoin_delays = {1: 2}  # 2 never rejoins
        controller.apply_aggregate(
            round_state, [0, 1, 2], [_state(1.0), _state(2.0), _state(3.0)],
            [8.0, 4.0, 8.0], _global(_state(0.5)),
        )
        assert list(controller.pending) == [1]
        entry = controller.pending[1]
        assert (entry["origin"], entry["arrival"], entry["weight"]) == (0, 2, 4.0)
        assert np.array_equal(entry["delta"]["w"], np.full(2, 1.5))

    def _drop_and_aggregate(self, controller, round_index, delay):
        """One round where worker 9 (of [8, 9]) drops with a rejoin delay."""
        round_state = controller.begin_round(round_index, [8, 9], np.ones(2))
        round_state.dropped = [9]
        round_state.churn.rejoin_delays = {9: delay}
        return controller.apply_aggregate(
            round_state, [8, 9], [_state(1.0), _state(4.0)], [8.0, 2.0],
            _global(REFERENCE),
        )

    def _healthy_round(self, controller, round_index, ids=(8,)):
        round_state = controller.begin_round(
            round_index, list(ids), np.ones(len(ids))
        )
        round_state.dropped = []  # pin the churn draw: everyone completes
        resolved = controller.apply_aggregate(
            round_state, list(ids), [_state(1.0)] * len(ids),
            [8.0] * len(ids), _global(REFERENCE),
        )
        return round_state, resolved

    def test_rejoin_folds_the_cached_delta_at_its_arrival_round(self):
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=2)
        self._drop_and_aggregate(controller, 0, delay=2)
        __, early = self._healthy_round(controller, 1)
        assert len(early[0]) == 1  # not arrived yet
        round_state, resolved = self._healthy_round(controller, 2)
        states, weights = resolved
        assert round_state.rejoined == [9]
        assert round_state.effective_cohort == 2
        # Reconstructed as reference + (state - origin reference) = 4.0.
        assert states[-1]["w"][0] == pytest.approx(4.0)
        assert weights[-1] == 2.0
        assert 9 not in controller.pending

    def test_rejoin_exactly_at_the_staleness_bound_still_folds(self):
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        self._drop_and_aggregate(controller, 0, delay=3)
        round_state, resolved = self._healthy_round(controller, 3)
        assert round_state.rejoined == [9]
        assert len(resolved[0]) == 2

    def test_rejoin_past_the_bound_is_discarded(self):
        # The update arrives at round 1, but quorum failures starve every
        # aggregate until round 4 -- staleness 4 > bound 3.
        controller = _controller(
            dropout_rate=0.5, rejoin_staleness_bound=3,
            min_cohort_fraction=1.0,
        )
        self._drop_and_aggregate(controller, 0, delay=1)
        assert 9 in controller.pending
        round_state, resolved = self._healthy_round(controller, 4)
        assert round_state.rejoined == []
        assert len(resolved[0]) == 1
        assert 9 not in controller.pending  # consumed, not retried

    def test_completion_supersedes_a_pending_rejoin(self):
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        self._drop_and_aggregate(controller, 0, delay=2)
        # Worker 9 completes round 1 itself: the stale update is obsolete.
        round_state, __ = self._healthy_round(controller, 1, ids=(9,))
        assert 9 not in controller.pending
        later, __ = self._healthy_round(controller, 2)
        assert later.rejoined == []

    def test_a_pending_rejoin_keeps_its_own_delta(self):
        # Many other updates aggregate before worker 9's arrives, and 9
        # itself dies (no rejoin delay) in between: its round-0 update
        # still folds in, against the current reference.
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        self._drop_and_aggregate(controller, 0, delay=3)
        self._healthy_round(controller, 1, ids=range(100, 200))
        round_state = controller.begin_round(2, [8, 9], np.ones(2))
        round_state.dropped = [9]
        controller.apply_aggregate(
            round_state, [8, 9], [_state(1.0), _state(7.0)], [8.0, 8.0],
            _global(REFERENCE),
        )
        round_state = controller.begin_round(3, [8], np.ones(1))
        round_state.dropped = []
        states, weights = controller.apply_aggregate(
            round_state, [8], [_state(1.0)], [8.0], _global(_state(10.0))
        )
        assert round_state.rejoined == [9]
        assert states[-1]["w"][0] == pytest.approx(14.0)
        assert weights[-1] == 2.0

    def test_a_later_drop_replaces_the_pending_rejoin(self):
        # Worker 9 drops at round 0 (arriving at 3) and again at round 1
        # (arriving at 2): only the newer update waits, and it folds at 2.
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        self._drop_and_aggregate(controller, 0, delay=3)
        round_state = controller.begin_round(1, [8, 9], np.ones(2))
        round_state.dropped = [9]
        round_state.churn.rejoin_delays = {9: 1}
        controller.apply_aggregate(
            round_state, [8, 9], [_state(1.0), _state(6.0)], [8.0, 3.0],
            _global(REFERENCE),
        )
        entry = controller.pending[9]
        assert (entry["origin"], entry["arrival"], entry["weight"]) == (1, 2, 3.0)
        round_state, (states, weights) = self._healthy_round(controller, 2)
        assert round_state.rejoined == [9]
        assert states[-1]["w"][0] == pytest.approx(6.0)
        assert weights[-1] == 3.0
        assert controller.pending == {}

    def test_a_pending_delta_does_not_alias_the_round_arrays(self):
        # Engines reuse their state buffers; writing into the trained state
        # or the reference after the round must not move the late update.
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=2)
        round_state = controller.begin_round(0, [8, 9], np.ones(2))
        round_state.dropped = [9]
        round_state.churn.rejoin_delays = {9: 1}
        trained, reference = _state(4.0), _state(1.0)
        controller.apply_aggregate(
            round_state, [8, 9], [_state(1.0), trained], [8.0, 2.0], _global(reference)
        )
        trained["w"][:] = -100.0
        reference["w"][:] = 50.0
        round_state, (states, __) = self._healthy_round(controller, 1)
        assert round_state.rejoined == [9]
        assert np.array_equal(states[-1]["w"], np.full(2, 3.0))

    def test_folding_runs_once_per_round(self):
        # SplitFed aggregates every local iteration; the rejoin must fold
        # into the first aggregate only.
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=2)
        self._drop_and_aggregate(controller, 0, delay=1)
        round_state = controller.begin_round(1, [8], np.ones(1))
        first = controller.apply_aggregate(
            round_state, [8], [_state(1.0)], [8.0], _global(REFERENCE)
        )
        second = controller.apply_aggregate(
            round_state, [8], [_state(1.0)], [8.0], _global(REFERENCE)
        )
        assert len(first[0]) == 2
        assert len(second[0]) == 1


class TestDeathsAndQuorum:
    def test_record_death_merges_and_sorts(self):
        controller = _controller()
        round_state = controller.begin_round(0, [0, 1, 2, 3], np.ones(4))
        round_state.dropped = [3]
        controller.record_death(round_state, [1, 3, 1])
        assert round_state.dropped == [1, 3]

    def test_min_cohort_never_drops_to_zero(self):
        controller = _controller(min_cohort_fraction=0.5)
        assert controller.min_cohort(1) == 1
        assert controller.min_cohort(4) == 2
        assert controller.min_cohort(5) == 3


class TestCheckpointing:
    def test_state_round_trips(self):
        controller = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        round_state = controller.begin_round(0, [0, 1], np.ones(2))
        round_state.dropped = [1]
        round_state.churn.rejoin_delays = {1: 2}
        controller.apply_aggregate(
            round_state, [0, 1], [_state(1.0), _state(2.0)], [8.0, 4.0],
            _global(REFERENCE),
        )
        restored = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        restored.load_state_dict(controller.state_dict())
        assert list(restored.pending) == [1]
        entry = restored.pending[1]
        assert (entry["origin"], entry["arrival"], entry["weight"]) == (0, 2, 4.0)
        assert np.array_equal(entry["delta"]["w"], np.full(2, 2.0))

    def test_a_checkpoint_with_a_rejoin_cache_still_loads(self):
        """Earlier checkpoints held the deltas in an LRU cache of every
        cohort member; a pending rejoin takes its delta from there, and one
        whose delta was evicted is dropped -- it could never fold in."""
        restored = _controller(dropout_rate=0.5, rejoin_staleness_bound=3)
        restored.load_state_dict({
            "pending": [[1, 0, 2, 4.0], [5, 0, 1, 8.0]],
            "cache": {
                "capacity": 2, "hits": 0, "misses": 0,
                "entries": [[0, _state(1.0)], [1, _state(2.0)]],
            },
        })
        assert list(restored.pending) == [1]
        assert restored.pending[1]["weight"] == 4.0
        assert np.array_equal(restored.pending[1]["delta"]["w"], np.full(2, 2.0))


class TestDeviceClassRates:
    """``extras['device_dropout_rates']`` maps device classes to rates."""

    def _cluster(self, num_workers=12):
        from repro.simulation.cluster import build_cluster

        return build_cluster(num_workers, bandwidth_budget_mbps=100.0, seed=3)

    def test_rates_resolve_through_the_device_class(self):
        cluster = self._cluster()
        rates = {"jetson_tx2": 0.5, "jetson_agx": 0.1}
        controller = ElasticController(
            ExperimentConfig(
                dropout_rate=0.02,
                extras={"device_dropout_rates": rates},
            ),
            cluster,
        )
        for worker_id in range(len(cluster.devices)):
            name = cluster[worker_id].profile.name
            expected = rates.get(name, 0.02)  # base rate for unlisted classes
            assert controller.churn.rate_of(worker_id) == expected

    def test_without_class_rates_the_scalar_stays(self):
        controller = ElasticController(
            ExperimentConfig(dropout_rate=0.25), self._cluster()
        )
        assert controller.churn.dropout_rate == 0.25

    def test_class_rates_without_cluster_fall_back_to_scalar(self):
        controller = ElasticController(
            ExperimentConfig(
                dropout_rate=0.25,
                extras={"device_dropout_rates": {"jetson_tx2": 0.9}},
            )
        )
        assert controller.churn.rate_of(0) == 0.25
