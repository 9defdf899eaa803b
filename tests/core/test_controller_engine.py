"""Tests for the control module (Alg. 1) and the split training engine."""

import numpy as np
import pytest

from repro.algorithms import BUILTIN_ALGORITHMS
from repro.api.components import build_components, build_algorithm
from repro.api.registry import ALGORITHMS
from repro.baselines import PyramidSelection, SelectAll
from repro.core.batching import regulate_batch_sizes
from repro.core.controller import ControlContext, ControlModule, RoundPlan
from repro.core.engine import SplitTrainingEngine
from repro.selection import GASolver, GreedySolver
from repro.utils.rng import new_rng


def _context(num_workers=6, num_classes=4, seed=0, budget=None):
    rng = new_rng(seed)
    durations = rng.uniform(0.05, 0.5, size=num_workers)
    dists = rng.dirichlet([0.3] * num_classes, size=num_workers)
    batch_budget = budget if budget is not None else 0.6 * num_workers * 16
    return ControlContext(
        round_index=0,
        per_sample_durations=durations,
        label_distributions=dists,
        participation_counts=np.zeros(num_workers),
        bandwidth_budget=batch_budget,
        bandwidth_per_sample=1.0,
        max_batch_size=16,
        base_batch_size=8,
        rng=rng,
    )


class TestControlModule:
    def test_plan_structure(self):
        plan = ControlModule().plan_round(_context())
        assert isinstance(plan, RoundPlan)
        assert plan.selected == sorted(plan.selected)
        assert set(plan.batch_sizes) == set(plan.selected)
        assert all(size >= 1 for size in plan.batch_sizes.values())
        assert plan.merged_kl >= 0.0

    def test_respects_bandwidth_budget(self):
        plan = ControlModule().plan_round(_context(budget=30.0))
        assert plan.total_batch <= 30.0 * (1 + 1e-6)

    def test_solver_defaults_to_the_ga_and_is_dropped_without_selection(self):
        assert isinstance(ControlModule().solver, GASolver)
        greedy = GreedySolver()
        assert ControlModule(greedy).solver is greedy
        assert ControlModule(greedy, select=False).solver is None
        assert len(ControlModule(greedy).plan_round(_context()).selected) >= 1

    def test_fine_tuning_records_whether_epsilon_was_reachable(self):
        # Recorded only on rounds where the solver runs (the algorithm
        # table's rows never reach it at their contexts).
        selection_only = ControlModule(finetune=False).plan_round(_context())
        reachable = ControlModule(kl_threshold=0.9 * selection_only.merged_kl)
        assert reachable.plan_round(_context()).info["finetune_feasible"] is True
        # No batch sizes make a skewed mixture exactly IID.
        unreachable = ControlModule(kl_threshold=0.0).plan_round(_context())
        assert unreachable.info["finetune_feasible"] is False

    def test_total_batch_property(self):
        plan = RoundPlan(selected=[0, 1], batch_sizes={0: 4, 1: 6})
        assert plan.total_batch == 10


#: The ControlModule switches and their MergeSFL (all steps on) values.
SWITCHES = dict(
    regulate=True, select=True, finetune=True, merge_features=True,
    aggregate_every_iteration=False, identical_batch=False,
)

#: Typical SFL, spelt out independently of ``repro.algorithms``.
SFL = dict(regulate=False, select=False, finetune=False, merge_features=False)

#: name -> (switches that differ from MergeSFL, cohort, batch sizes, info keys).
TABLE = {
    "mergesfl": ({}, "subset", "finetuned", {"feasible"}),
    "mergesfl_no_fm": (
        dict(finetune=False, merge_features=False),
        "subset", "eq9", {"feasible"},
    ),
    "mergesfl_no_br": (
        dict(identical_batch=True),
        "subset", "averaged", {"feasible", "identical_batch"},
    ),
    "splitfed": (
        dict(SFL, aggregate_every_iteration=True), "everyone", "base", set(),
    ),
    "locfedmix_sl": (SFL, "everyone", "base", set()),
    "sfl_t": (SFL, "everyone", "base", set()),
    "sfl_fm": (dict(SFL, merge_features=True), "everyone", "base", set()),
    "adasfl": (dict(SFL, regulate=True), "everyone", "eq9", set()),
    "sfl_br": (dict(SFL, regulate=True), "everyone", "eq9", set()),
}


class TestAlgorithmTable:
    """Every split algorithm is one row of switches over one ControlModule."""

    def test_table_lists_exactly_the_builtin_names(self):
        assert sorted(BUILTIN_ALGORITHMS) == ALGORITHMS.names()
        split_rows = {
            name for name, (_, row) in BUILTIN_ALGORITHMS.items()
            if isinstance(row, dict)
        }
        assert split_rows == set(TABLE)
        assert BUILTIN_ALGORITHMS["fedavg"][1] is SelectAll
        assert BUILTIN_ALGORITHMS["pyramidfl"][1] is PyramidSelection

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_row_plans_as_the_paper_describes(self, name):
        row, cohort, batches, info_keys = TABLE[name]
        switches = {**SWITCHES, **row}
        policy = ControlModule(**row)
        context = _context(budget=40.0)
        plan = policy.plan_round(context)
        regulated = regulate_batch_sizes(context.per_sample_durations, 16)

        if cohort == "everyone":
            assert plan.selected == list(range(6))
        else:
            assert 1 <= len(plan.selected) < 6
        sizes = [plan.batch_sizes[worker] for worker in plan.selected]
        if batches == "base":
            assert set(sizes) == {8}
        elif batches == "eq9":
            assert sizes == [int(regulated[worker]) for worker in plan.selected]
            assert len(set(regulated)) > 1
        elif batches == "averaged":
            assert set(sizes) == {int(round(float(regulated.mean())))}
            assert plan.info["identical_batch"] == sizes[0]
        else:  # fine-tuned and scaled into the budget
            assert all(1 <= size <= 16 for size in sizes)
            assert plan.total_batch <= 40.0 * (1 + 1e-6)
        assert set(plan.info) == info_keys
        assert policy.merge_features == switches["merge_features"]
        assert (policy.aggregate_every_iteration
                == switches["aggregate_every_iteration"])

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_registry_builds_the_engine_with_exactly_that_row(
            self, fast_config, name):
        config = fast_config.replace(algorithm=name, kl_threshold=0.07)
        components = build_components(config)
        engine = ALGORITHMS.get(name)(components)
        assert type(engine) is SplitTrainingEngine
        assert engine.executor is components.executor
        policy = engine.policy
        assert type(policy) is ControlModule
        assert {switch: getattr(policy, switch) for switch in SWITCHES} == {
            **SWITCHES, **TABLE[name][0]
        }
        assert policy.kl_threshold == 0.07
        if policy.select:
            assert policy.solver is components.selection_solver()
        else:
            assert policy.solver is None


class TestSplitTrainingEngine:
    def test_history_has_one_record_per_round(self, fast_config):
        components = build_components(fast_config)
        algorithm = build_algorithm(components)
        history = algorithm.run()
        assert len(history) == fast_config.num_rounds
        assert history.records[0].round_index == 0

    def test_clock_and_traffic_monotone(self, fast_config):
        components = build_components(fast_config)
        history = build_algorithm(components).run()
        times = history.times
        traffic = history.traffic
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a <= b for a, b in zip(traffic, traffic[1:]))

    def test_training_improves_accuracy(self, fast_config):
        config = fast_config.replace(num_rounds=5, non_iid_level=0.0)
        history = build_algorithm(build_components(config)).run()
        assert history.accuracies[-1] > 0.5

    def test_global_model_combines_halves(self, fast_config):
        components = build_components(fast_config)
        algorithm = build_algorithm(components)
        algorithm.run()
        model = algorithm.global_model()
        out = model.forward(components.data.test.data[:4])
        assert out.shape == (4, components.data.num_classes)

    def test_splitfed_aggregates_every_iteration_costs_more_traffic(self, fast_config):
        loc = build_algorithm(build_components(fast_config.replace(algorithm="locfedmix_sl"))).run()
        sf = build_algorithm(build_components(fast_config.replace(algorithm="splitfed"))).run()
        assert sf.records[-1].traffic_mb > loc.records[-1].traffic_mb

    def test_engine_rejects_empty_selection(self, fast_config):
        components = build_components(fast_config)

        class EmptyPolicy:
            merge_features = False
            aggregate_every_iteration = False

            def plan_round(self, context):
                return RoundPlan(selected=[], batch_sizes={})

        engine = SplitTrainingEngine(
            config=fast_config,
            split=components.split,
            workers=components.workers,
            cluster=components.cluster,
            data=components.data,
            policy=EmptyPolicy(),
        )
        with pytest.raises(RuntimeError):
            engine.run(1)

    def test_participation_counts_increase(self, fast_config):
        components = build_components(fast_config)
        algorithm = build_algorithm(components)
        algorithm.run()
        counts = [worker.participation_count for worker in components.workers]
        assert sum(counts) > 0
