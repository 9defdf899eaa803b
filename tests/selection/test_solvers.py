"""The SELECTION_SOLVERS registry and the individual solvers.

The load-bearing guarantees: ``ga`` is bit-exact with calling
:func:`~repro.core.selection.genetic_select` directly (same RNG, same
result), every solver's winner is never better than the fitness of the
brute-force oracle (``selection_testlib.ExactSolver``), and the
refinement solvers land close to it, and the warm-started GA's
cross-round state survives a ``state_dict`` round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import SELECTION_SOLVERS, register_selection_solver
from repro.config import ExperimentConfig
from repro.core.selection import genetic_select, greedy_select
from repro.exceptions import ConfigurationError, SelectionError
from repro.selection import (
    GASolver,
    GreedySolver,
    LocalSearchSolver,
    SelectionProblem,
    WarmGASolver,
    build_selection_solver,
)
from repro.selection.solvers import _canonicalize, _signature_groups
from repro.utils.rng import new_rng

from selection_testlib import ExactSolver, make_problem as _make_problem


class TestRegistry:
    def test_builtins_registered(self):
        """The production solvers, and nothing else: the brute-force
        oracle lives with the tests."""
        assert sorted(SELECTION_SOLVERS.names()) == [
            "ga", "ga-warm", "greedy", "local-search",
        ]

    def test_build_from_config_selector(self):
        config = ExperimentConfig(dataset="blobs", model="mlp",
                                  selector="local-search")
        solver = build_selection_solver(config)
        assert isinstance(solver, LocalSearchSolver)

    def test_build_name_overrides_config(self):
        config = ExperimentConfig(dataset="blobs", model="mlp")
        assert isinstance(build_selection_solver(config, name="greedy"),
                          GreedySolver)

    def test_ga_solver_reads_config_knobs(self):
        config = ExperimentConfig(dataset="blobs", model="mlp",
                                  ga_population=11, ga_generations=7,
                                  selection_fraction=0.25)
        solver = build_selection_solver(config)
        assert isinstance(solver, GASolver)
        assert solver.population_size == 11
        assert solver.generations == 7
        assert solver.seed_fraction == 0.25

    def test_unknown_selector_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="selection solver"):
            ExperimentConfig(dataset="blobs", model="mlp", selector="annealing")

    def test_third_party_solver_registers_and_validates(self):
        @register_selection_solver("everyone", description="test plugin")
        class EveryoneSolver(GreedySolver):
            name = "everyone"

            def solve(self, problem):
                return problem.decode(np.arange(problem.num_workers))

        try:
            config = ExperimentConfig(dataset="blobs", model="mlp",
                                      selector="everyone")
            solver = build_selection_solver(config)
            result = solver.solve(_make_problem(num_workers=6))
            assert list(result.selected) == list(range(6))
        finally:
            SELECTION_SOLVERS.unregister("everyone")


class TestGASolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_exact_with_genetic_select(self, seed):
        problem = _make_problem(num_workers=16, seed=seed)
        direct = genetic_select(
            problem.batch_sizes,
            problem.label_distributions,
            problem.target_distribution,
            problem.bandwidth_per_sample,
            problem.bandwidth_budget,
            priorities=problem.priorities,
            rng=new_rng(seed),
        )
        problem.rng = new_rng(seed)
        via_solver = GASolver().solve(problem)
        assert np.array_equal(via_solver.selected, direct.selected)
        assert via_solver.kl == direct.kl
        assert via_solver.feasible == direct.feasible

    def test_greedy_solver_matches_greedy_select(self):
        problem = _make_problem(num_workers=14, seed=5)
        direct = greedy_select(
            problem.batch_sizes,
            problem.label_distributions,
            problem.target_distribution,
            problem.bandwidth_per_sample,
            problem.bandwidth_budget,
            priorities=problem.priorities,
        )
        via_solver = GreedySolver().solve(problem)
        assert np.array_equal(via_solver.selected, direct.selected)
        assert via_solver.kl == direct.kl


def _fitness_of(problem: SelectionProblem, selected) -> float:
    mask = np.zeros(problem.num_workers, dtype=bool)
    mask[np.asarray(selected, dtype=np.int64)] = True
    return float(problem.fitness().evaluate(mask[None, :])[0])


class TestExactOracle:
    @pytest.mark.parametrize("num_workers", [2, 5, 8, 10])
    def test_oracle_lower_bounds_every_solver(self, num_workers):
        """No solver beats brute force on its own objective, and the
        search solvers land within a loose factor of the optimum."""
        for seed in range(3):
            problem = _make_problem(num_workers=num_workers, seed=seed)
            oracle = _fitness_of(problem, ExactSolver().solve(problem).selected)
            for solver in (GASolver(), WarmGASolver(), LocalSearchSolver(),
                           GreedySolver()):
                problem.rng = new_rng(seed)
                score = _fitness_of(problem, solver.solve(problem).selected)
                label = f"{solver.name} N={num_workers} seed={seed}"
                assert score >= oracle - 1e-12, label
                assert np.isfinite(score), label

    def test_local_search_reaches_oracle_on_small_instances(self):
        hits = 0
        trials = 8
        for seed in range(trials):
            problem = _make_problem(num_workers=8, seed=seed)
            oracle = _fitness_of(problem, ExactSolver().solve(problem).selected)
            score = _fitness_of(
                problem, LocalSearchSolver().solve(problem).selected
            )
            if score <= oracle + 1e-9:
                hits += 1
        # 1-flip/1-swap local optima coincide with the global optimum on
        # most tiny instances; requiring a majority keeps the test honest
        # without making it flaky.
        assert hits >= trials // 2 + 1

    def test_exact_rejects_oversized_and_empty_instances(self):
        with pytest.raises(SelectionError, match="capped"):
            ExactSolver().solve(_make_problem(num_workers=13))
        empty = _make_problem(num_workers=2)
        empty.batch_sizes = np.zeros((0,), dtype=np.int64)
        empty.label_distributions = np.zeros((0, 5))
        with pytest.raises(SelectionError, match="zero workers"):
            ExactSolver().solve(empty)


class TestWarmGASolver:
    def test_cold_round_matches_plain_ga(self):
        problem = _make_problem(num_workers=16, seed=3)
        problem.rng = new_rng(3)
        plain = GASolver().solve(problem)
        problem.rng = new_rng(3)
        warm = WarmGASolver().solve(problem)
        assert np.array_equal(warm.selected, plain.selected)
        assert warm.kl == plain.kl

    def test_records_winner_as_global_ids(self):
        solver = WarmGASolver()
        problem = _make_problem(num_workers=12, seed=1)
        problem.worker_ids = np.arange(100, 112)
        result = solver.solve(problem)
        assert solver._previous == [100 + int(w) for w in result.selected]

    def test_state_dict_round_trip_reproduces_next_round(self):
        first = _make_problem(num_workers=14, seed=4, rng_seed=40)
        second = _make_problem(num_workers=14, seed=5, rng_seed=41)

        reference = WarmGASolver()
        reference.solve(first)
        state = reference.state_dict()
        expected = reference.solve(_make_problem(num_workers=14, seed=5,
                                                 rng_seed=41))

        restored = WarmGASolver()
        restored.load_state_dict(state)
        assert restored._previous == state["previous"]
        result = restored.solve(second)
        assert np.array_equal(result.selected, expected.selected)
        assert result.kl == expected.kl

    def test_fresh_state_dict_is_empty_previous(self):
        assert WarmGASolver().state_dict() == {"previous": None}

    def test_warm_round_ignores_ids_outside_candidate_pool(self):
        solver = WarmGASolver()
        solver.load_state_dict({"previous": [900, 901]})
        problem = _make_problem(num_workers=10, seed=6)
        problem.worker_ids = np.arange(10)
        # None of the previous winners are in the pool: falls back to the
        # cold GA instead of seeding an empty mask.
        cold = _make_problem(num_workers=10, seed=6)
        result = solver.solve(problem)
        reference = GASolver().solve(cold)
        assert np.array_equal(result.selected, reference.selected)

    def test_warm_round_never_worse_than_polished_start(self):
        """Across a round sequence the warm solver stays feasible and sane."""
        solver = WarmGASolver()
        for seed in range(5):
            problem = _make_problem(num_workers=20, seed=seed, rng_seed=seed + 50)
            result = solver.solve(problem)
            assert result.selected.size >= 1
            assert np.isfinite(result.kl)
            assert result.feasible


class TestSymmetryHelpers:
    def test_signature_groups_find_interchangeable_workers(self):
        dists = np.tile(np.array([[0.5, 0.5]]), (4, 1))
        dists[3] = [0.9, 0.1]
        batch = np.array([8, 8, 8, 8])
        groups = _signature_groups(batch, dists, np.array([1., 3., 2., 4.]))
        assert len(groups) == 1
        # Ordered by descending priority: worker 1 (3.0) before 2 before 0.
        assert list(groups[0]) == [1, 2, 0]

    def test_canonicalize_keeps_count_and_fitness_shape(self):
        dists = np.tile(np.array([[0.25, 0.75]]), (5, 1))
        batch = np.full(5, 4)
        groups = _signature_groups(batch, dists, np.arange(5, dtype=float))
        mask = np.array([False, True, False, True, False])
        canon = _canonicalize(mask.copy(), groups)
        assert canon.sum() == mask.sum()
        # Canonical members are the highest-priority ones (4, then 3).
        assert list(np.flatnonzero(canon)) == [3, 4]
