"""Tests for priorities, GA/greedy worker selection and batch fine-tuning."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize._numdiff import approx_derivative

from repro.core import regulation
from repro.core.batching import occupied_bandwidth
from repro.core.divergence import iid_distribution, kl_divergence, mixed_label_distribution
from repro.core.regulation import finetune_batch_sizes, forward_difference
from repro.core.selection import (
    PopulationFitness,
    _fitness,
    genetic_select,
    greedy_select,
    selection_priorities,
)
from repro.exceptions import SelectionError
from repro.utils.rng import new_rng


def _skewed_problem(num_workers=8, num_classes=4, seed=0):
    """Workers that each hold (mostly) one class."""
    rng = new_rng(seed)
    dists = np.zeros((num_workers, num_classes))
    for worker in range(num_workers):
        dists[worker, worker % num_classes] = 0.9
        dists[worker, (worker + 1) % num_classes] = 0.1
    batch_sizes = rng.integers(4, 17, size=num_workers)
    target = iid_distribution(dists)
    return dists, batch_sizes, target


class TestPriorities:
    def test_eq13_formula(self):
        counts = np.array([0.0, 1.0, 3.0])
        priorities = selection_priorities(counts)
        total = (counts + 1).sum()
        assert np.allclose(priorities, total / (counts + 1))

    def test_less_frequent_workers_have_higher_priority(self):
        priorities = selection_priorities(np.array([0.0, 5.0]))
        assert priorities[0] > priorities[1]

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            selection_priorities(np.array([-1.0]))


class TestGeneticSelect:
    def test_selects_feasible_low_kl_set(self):
        dists, batch_sizes, target = _skewed_problem()
        budget = 0.7 * batch_sizes.sum()
        result = genetic_select(
            batch_sizes, dists, target, bandwidth_per_sample=1.0,
            bandwidth_budget=budget, rng=new_rng(0),
        )
        assert result.feasible
        assert len(result.selected) >= 1
        used = occupied_bandwidth(batch_sizes, result.selected, 1.0)
        assert used <= budget * (1 + 1e-9)

    def test_beats_random_selection_on_kl(self):
        dists, batch_sizes, target = _skewed_problem(num_workers=12)
        budget = 0.5 * batch_sizes.sum()
        result = genetic_select(
            batch_sizes, dists, target, 1.0, budget, rng=new_rng(1),
            generations=20,
        )
        rng = new_rng(2)
        random_kls = []
        for __ in range(20):
            subset = rng.choice(12, size=6, replace=False)
            phi = mixed_label_distribution(dists, batch_sizes, subset)
            random_kls.append(kl_divergence(phi, target))
        assert result.kl <= np.median(random_kls)

    def test_deterministic_given_rng(self):
        dists, batch_sizes, target = _skewed_problem()
        a = genetic_select(batch_sizes, dists, target, 1.0, 40, rng=new_rng(3))
        b = genetic_select(batch_sizes, dists, target, 1.0, 40, rng=new_rng(3))
        assert np.array_equal(a.selected, b.selected)

    def test_priority_seed_prefers_rare_workers(self):
        dists, batch_sizes, target = _skewed_problem()
        priorities = np.ones(8)
        priorities[0] = 100.0  # worker 0 almost never participated
        result = genetic_select(
            batch_sizes, dists, target, 1.0, 0.8 * batch_sizes.sum(),
            priorities=priorities, rng=new_rng(0),
        )
        assert 0 in result.selected

    def test_zero_workers_raises(self):
        with pytest.raises(SelectionError):
            genetic_select(np.array([], dtype=int), np.zeros((0, 2)), np.array([0.5, 0.5]), 1.0, 10)

    def test_mismatched_inputs_raise(self):
        with pytest.raises(SelectionError):
            genetic_select(np.array([1, 2]), np.zeros((3, 2)), np.array([0.5, 0.5]), 1.0, 10)


class TestPopulationFitness:
    """The vectorized GA fitness is bit-identical to the per-mask loop."""

    def _random_problem(self, rng, num_workers, num_classes):
        batch_sizes = rng.integers(1, 33, size=num_workers)
        dists = rng.dirichlet(np.ones(num_classes), size=num_workers)
        target = rng.dirichlet(np.ones(num_classes))
        return batch_sizes, dists, target

    @pytest.mark.parametrize("num_workers,num_classes", [
        (3, 2), (8, 4), (40, 10), (150, 10), (60, 100),
    ])
    def test_bitwise_identical_to_scalar_fitness(self, num_workers, num_classes):
        rng = new_rng(17)
        batch_sizes, dists, target = self._random_problem(rng, num_workers, num_classes)
        fitness = PopulationFitness(batch_sizes, dists, target, 0.3, 40.0)
        masks = rng.random((25, num_workers)) < 0.4
        masks[0] = False                     # empty individual
        masks[1] = True                      # full fleet (budget violation)
        masks[2] = masks[3] = masks[4]       # duplicates (dedup path)
        vectorized = fitness.evaluate(masks)
        reference = np.asarray([
            _fitness(mask, np.asarray(batch_sizes, dtype=np.int64),
                     np.atleast_2d(dists), target, 0.3, 40.0)
            for mask in masks
        ])
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize("num_workers", [13, 64, 1000])
    @pytest.mark.parametrize("duplicates", ["all", "none", "some"])
    def test_hashed_dedup_matches_scalar_fitness_row_by_row(
        self, num_workers, duplicates
    ):
        """Rows are deduplicated by their packed bits: 13 and 1000 leave
        padding bits in the last byte, 64 none.  Whatever repeats, every row
        gets the scalar fitness of its own mask."""
        rng = new_rng(29)
        batch_sizes, dists, target = self._random_problem(rng, num_workers, 10)
        budget = 0.3 * 16.0 * num_workers
        fitness = PopulationFitness(batch_sizes, dists, target, 0.3, budget)
        masks = rng.random((20, num_workers)) < 0.5
        masks[5] = False                             # an empty-mask row ...
        if duplicates == "all":
            masks[:] = masks[7]
        elif duplicates == "some":
            masks[9] = masks[5]                      # ... and its duplicate
            masks[[0, 11, 19]] = masks[3]
            masks[12] = masks[3]
            masks[12, -1] ^= True                    # differs in the last bit only
        else:
            assert len({row.tobytes() for row in masks}) == len(masks)
        reference = np.asarray([
            _fitness(mask, np.asarray(batch_sizes, dtype=np.int64),
                     np.atleast_2d(dists), target, 0.3, budget)
            for mask in masks
        ])
        assert np.array_equal(fitness.evaluate(masks), reference)

    def test_zero_batch_sizes_match_scalar_fallback(self):
        """Masks whose selected workers all have zero batch size hit the
        scalar path's uniform-mean fallback, not a NaN."""
        dists = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        batch_sizes = np.array([0, 0, 4])
        target = np.array([0.5, 0.5])
        fitness = PopulationFitness(batch_sizes, dists, target, 1.0, 10.0)
        masks = np.array([
            [True, True, False],    # selected weights sum to zero
            [True, False, True],
            [False, False, False],
        ])
        scores = fitness.evaluate(masks)
        reference = np.asarray([
            _fitness(mask, batch_sizes.astype(np.int64), dists, target, 1.0, 10.0)
            for mask in masks
        ])
        assert np.array_equal(scores, reference)
        assert np.all(np.isfinite(scores))

    def test_negative_batch_sizes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PopulationFitness(np.array([4, -1]), np.eye(2), np.array([0.5, 0.5]),
                              1.0, 10.0)

    def test_empty_population_all_penalised(self):
        rng = new_rng(5)
        batch_sizes, dists, target = self._random_problem(rng, 6, 3)
        fitness = PopulationFitness(batch_sizes, dists, target, 1.0, 30.0)
        scores = fitness.evaluate(np.zeros((4, 6), dtype=bool))
        assert np.array_equal(scores, np.full(4, 1e6))

    def test_genetic_select_identical_to_scalar_loop(self, monkeypatch):
        """Same seed, same SelectionResult, whether the population is scored
        by the vectorized evaluator or the original per-mask loop."""
        dists, batch_sizes, target = _skewed_problem(num_workers=10)
        budget = 0.6 * batch_sizes.sum()
        args = (batch_sizes, dists, target, 1.0, budget)

        vectorized = genetic_select(*args, rng=new_rng(23))

        def loop_evaluate(self, masks):
            return np.asarray([
                _fitness(mask, np.asarray(batch_sizes, dtype=np.int64),
                         np.atleast_2d(dists), target, 1.0, budget)
                for mask in np.atleast_2d(masks)
            ])

        monkeypatch.setattr(PopulationFitness, "evaluate", loop_evaluate)
        reference = genetic_select(*args, rng=new_rng(23))

        assert np.array_equal(vectorized.selected, reference.selected)
        assert vectorized.kl == reference.kl
        assert vectorized.feasible == reference.feasible


class TestGreedySelect:
    def test_selects_at_least_one_worker(self):
        dists, batch_sizes, target = _skewed_problem()
        result = greedy_select(batch_sizes, dists, target, 1.0, batch_sizes.sum())
        assert len(result.selected) >= 1

    def test_respects_budget(self):
        dists, batch_sizes, target = _skewed_problem()
        budget = 0.4 * batch_sizes.sum()
        result = greedy_select(batch_sizes, dists, target, 1.0, budget)
        assert occupied_bandwidth(batch_sizes, result.selected, 1.0) <= budget


class TestFinetuneBatchSizes:
    def test_no_change_when_already_within_threshold(self):
        dists = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (4, 1))
        batch_sizes = np.array([8, 8, 8, 8])
        target = iid_distribution(dists)
        tuned = finetune_batch_sizes(
            batch_sizes, [0, 1, 2, 3], dists, target,
            per_sample_durations=np.full(4, 0.1),
            kl_threshold=0.05, max_batch_size=16,
        )
        assert np.array_equal(tuned, batch_sizes)

    def test_reduces_kl_below_threshold_when_possible(self):
        # Two one-class workers with unbalanced batches: rebalancing fixes KL.
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch_sizes = np.array([12, 4])
        target = np.array([0.5, 0.5])
        tuned = finetune_batch_sizes(
            batch_sizes, [0, 1], dists, target,
            per_sample_durations=np.array([0.1, 0.1]),
            kl_threshold=0.01, max_batch_size=16,
        )
        phi = mixed_label_distribution(dists, tuned, [0, 1])
        assert kl_divergence(phi, target) <= 0.05

    def test_respects_bounds(self):
        dists = np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.2]])
        batch_sizes = np.array([16, 2, 10])
        target = np.array([0.5, 0.5])
        tuned = finetune_batch_sizes(
            batch_sizes, [0, 1, 2], dists, target,
            per_sample_durations=np.array([0.1, 0.3, 0.2]),
            kl_threshold=0.02, max_batch_size=16,
        )
        assert np.all(tuned >= 1) and np.all(tuned <= 16)

    def test_returns_integers(self):
        dists = np.array([[0.7, 0.3], [0.2, 0.8]])
        tuned = finetune_batch_sizes(
            np.array([10, 10]), [0, 1], dists, np.array([0.5, 0.5]),
            per_sample_durations=np.array([0.1, 0.1]),
            kl_threshold=0.001, max_batch_size=16,
        )
        assert tuned.dtype == np.int64

    def test_empty_selection_is_noop(self):
        tuned = finetune_batch_sizes(
            np.array([4, 4]), [], np.eye(2), np.array([0.5, 0.5]),
            per_sample_durations=np.array([0.1, 0.1]),
            kl_threshold=0.01, max_batch_size=8,
        )
        assert np.array_equal(tuned, [4, 4])


_FD_STEP = np.sqrt(np.finfo(np.float64).eps)


def _scalar_kl(sizes, sub_dists, target):
    """The one-point mixture KL the SLSQP constraint differences."""
    weights = np.clip(sizes, 1e-6, None)
    mixed = (weights[:, None] * sub_dists).sum(axis=0) / weights.sum()
    return kl_divergence(mixed, target)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _regulation_instance(rng):
    """A random fine-tuning problem whose threshold sits below its KL."""
    workers = int(rng.integers(2, 17))
    classes = int(rng.integers(2, 11))
    dists = rng.dirichlet([float(10.0 ** rng.uniform(-1.3, 0.5))] * classes,
                          size=workers)
    batch = rng.integers(1, 33, size=workers)
    count = int(rng.integers(2, min(workers, 12) + 1))
    selected = np.sort(rng.choice(workers, size=count, replace=False))
    durations = rng.uniform(0.01, 0.05, size=workers)
    target = iid_distribution(dists)
    cap = int(max(batch.max(), rng.integers(4, 33)))
    kl = kl_divergence(mixed_label_distribution(dists, batch, selected), target)
    return dict(
        batch_sizes=batch, selected=selected, label_distributions=dists,
        target_distribution=target, per_sample_durations=durations,
        kl_threshold=kl * float(rng.uniform(0.5, 0.99)), max_batch_size=cap,
    )


class TestForwardDifference:
    def test_matches_scipy_two_point_bit_for_bit(self):
        rng = new_rng(7)
        for __ in range(300):
            size = int(rng.integers(1, 40))
            dists = rng.dirichlet([0.3] * int(rng.integers(2, 11)), size=size)
            target = rng.dirichlet([2.0] * dists.shape[1])
            lower, upper = 1.0, float(rng.integers(2, 33))
            x = rng.uniform(lower, upper, size=size)
            # Points on either bound and within a step of the upper one.
            where = rng.integers(0, 4, size=size)
            x[where == 1] = lower
            x[where == 2] = upper
            x[where == 3] = upper - rng.uniform(0.0, 2 * _FD_STEP, size=size)[where == 3]
            durations = rng.uniform(0.01, 0.05, size=size)
            cases = [
                (lambda s: 0.05 - _scalar_kl(s, dists, target),
                 lambda rows: 0.05 - regulation._mixture_kl(
                     rows, dists, regulation._smoothed(target))),
                (lambda s: float(regulation._surrogate_waiting_cost(s, x, durations)),
                 lambda rows: regulation._surrogate_waiting_cost(rows, x, durations)),
            ]
            for fun, rows_fun in cases:
                want = approx_derivative(fun, x, method="2-point",
                                         abs_step=_FD_STEP, bounds=(lower, upper))
                got = forward_difference(rows_fun, x, fun(x), lower, upper)
                assert _bits(got) == _bits(want)

    def test_flipped_shortened_and_relative_steps(self):
        # Per-coordinate bounds: a box narrower than one step (shortened to
        # the far bound either way), steps flipped at the upper bound, and
        # |x| so large that the absolute step rounds away.
        x = np.array([1.0, 2.0 + 1e-9, 5.0, 3e17, -4e17, 0.0])
        lower = np.array([1.0, 2.0, 0.0, 0.0, -1e18, -1.0])
        upper = np.array([1.0 + 1e-9, 2.0 + 1e-9, 5.0, 1e18, 0.0, 0.0])

        def fun(s):
            return float(np.sum(np.sin(s * 1e-17) + s**2 * 1e-30))

        def rows_fun(rows):
            return np.sum(np.sin(rows * 1e-17) + rows**2 * 1e-30, axis=-1)

        want = approx_derivative(fun, x, method="2-point", abs_step=_FD_STEP,
                                 bounds=(lower, upper))
        got = forward_difference(rows_fun, x, fun(x), lower, upper)
        assert _bits(got) == _bits(want)

    def test_a_wide_selection_is_differenced_in_blocks(self):
        # 300 coordinates take two batched calls; the gradient still
        # equals SciPy's.
        rng = new_rng(9)
        dists = rng.dirichlet([0.3] * 10, size=300)
        target = rng.dirichlet([2.0] * 10)
        x = rng.integers(1, 17, size=300).astype(np.float64)
        calls = []

        def rows_fun(rows):
            calls.append(len(rows))
            return 0.05 - regulation._mixture_kl(rows, dists, regulation._smoothed(target))

        def fun(s):
            return 0.05 - _scalar_kl(s, dists, target)

        want = approx_derivative(fun, x, method="2-point", abs_step=_FD_STEP,
                                 bounds=(1.0, 16.0))
        got = forward_difference(rows_fun, x, fun(x), 1.0, 16.0)
        assert _bits(got) == _bits(want)
        assert len(calls) == 2 and sum(calls) == 300

    def test_point_outside_the_bounds_raises_like_scipy(self):
        with pytest.raises(ValueError, match="violates bound"):
            forward_difference(lambda rows: rows.sum(axis=-1), np.array([0.5]),
                               0.5, 1.0, 2.0)


class TestFinetuneSolver:
    def test_slsqp_matches_scipy_finite_differences(self, monkeypatch):
        # The SLSQP run with the batched Jacobians must be the run SciPy
        # makes when it differences the scalar functions itself: same
        # iterate bits, iterations and exit status, on 1000 instances.
        fits = []

        def recording_minimize(*args, **kwargs):
            try:
                fits.append(optimize.minimize(*args, **kwargs))
            except ValueError as error:
                fits.append(error)
                raise
            return fits[-1]

        monkeypatch.setattr(regulation, "optimize",
                            SimpleNamespace(minimize=recording_minimize))
        rng = new_rng(11)
        solved = 0
        while solved < 1000:
            problem = _regulation_instance(rng)
            tuned = finetune_batch_sizes(**problem)
            if not fits:
                continue
            fit = fits.pop()
            selected = problem["selected"]
            sub = problem["label_distributions"][selected]
            target, threshold = problem["target_distribution"], problem["kl_threshold"]
            base = problem["batch_sizes"][selected].astype(np.float64)
            durations = problem["per_sample_durations"][selected]
            try:
                reference = optimize.minimize(
                    lambda s: float(np.sum((s - base) ** 2 * durations) / len(base)),
                    x0=base,
                    method="SLSQP",
                    bounds=[(1.0, float(problem["max_batch_size"]))] * len(base),
                    constraints=[{"type": "ineq",
                                  "fun": lambda s: threshold - _scalar_kl(s, sub, target)}],
                    options={"maxiter": 200, "ftol": 1e-9},
                )
            except ValueError:
                assert isinstance(fit, ValueError)
                continue
            assert _bits(fit.x) == _bits(reference.x)
            assert (fit.nit, fit.status) == (reference.nit, reference.status)
            if reference.success and _scalar_kl(reference.x, sub, target) <= threshold * 1.05:
                expected = np.clip(np.round(reference.x), 1, problem["max_batch_size"])
                assert np.array_equal(tuned[selected], expected)
            solved += 1

    def test_fallback_never_raises_merged_kl(self, monkeypatch):
        # Shrinking the most deviating worker whether or not that helps
        # raised the merged KL on 30 of these 300 instances.
        def failing_minimize(*args, **kwargs):
            raise ValueError("forced fallback")

        monkeypatch.setattr(regulation, "optimize",
                            SimpleNamespace(minimize=failing_minimize))
        rng = new_rng(13)
        for __ in range(300):
            problem = _regulation_instance(rng)
            selected = problem["selected"]
            dists, target = problem["label_distributions"], problem["target_distribution"]
            before = kl_divergence(
                mixed_label_distribution(dists, problem["batch_sizes"], selected), target)
            tuned = finetune_batch_sizes(**problem)
            after = kl_divergence(mixed_label_distribution(dists, tuned, selected), target)
            assert after <= before
