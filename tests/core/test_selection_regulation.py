"""Tests for priorities, GA/greedy worker selection and batch fine-tuning."""

import numpy as np
import pytest

from repro.core.batching import occupied_bandwidth
from repro.core.divergence import iid_distribution, kl_divergence, mixed_label_distribution
from repro.core.regulation import finetune_batch_sizes
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
