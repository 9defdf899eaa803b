"""IncrementalFitness numerics against the from-scratch oracle.

The contract: the anchor's incremental score is *bitwise* identical to the
full vectorized evaluation (the cached terms are rebuilt with the same
sequential reductions), and every O(classes) neighbour score --
``flip_scores()[i]``, ``swap_scores(adds, r)[j]`` -- agrees with
``PopulationFitness.evaluate`` of the explicitly built mask up to
float-addition reassociation (1e-12), including after long committed-move
sequences thanks to the periodic resync.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divergence import iid_distribution
from repro.core.selection import PopulationFitness
from repro.exceptions import SelectionError
from repro.utils.rng import new_rng


def _random_fitness(seed: int, num_workers: int, num_classes: int,
                    allow_zero_batches: bool = False):
    rng = new_rng(seed)
    dists = rng.dirichlet([0.3] * num_classes, size=num_workers)
    low = 0 if allow_zero_batches else 1
    batch_sizes = rng.integers(low, 17, size=num_workers)
    bandwidth = float(rng.uniform(0.5, 2.0))
    budget = 0.5 * float((batch_sizes * bandwidth).sum()) + 1e-9
    target = iid_distribution(dists)
    fitness = PopulationFitness(batch_sizes, dists, target, bandwidth, budget)
    mask = rng.random(num_workers) < 0.5
    return fitness, mask, rng


class TestAnchorAndCommittedMoves:
    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(2, 24),
        num_classes=st.integers(2, 8),
        zeros=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_anchor_score_is_bitwise_exact(self, seed, num_workers,
                                           num_classes, zeros):
        fitness, mask, __ = _random_fitness(
            seed, num_workers, num_classes, zeros
        )
        inc = fitness.incremental(mask)
        assert inc.score() == fitness.evaluate(mask[None, :])[0]

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(3, 20),
        num_classes=st.integers(2, 6),
        moves=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_committed_moves_do_not_drift(self, seed, num_workers,
                                          num_classes, moves):
        """Random flip sequences (crossing the resync interval) stay within
        reassociation distance of a from-scratch evaluation."""
        fitness, mask, rng = _random_fitness(seed, num_workers, num_classes)
        inc = fitness.incremental(mask)
        for __ in range(moves):
            inc.flip(int(rng.integers(num_workers)))
        np.testing.assert_allclose(
            inc.score(), fitness.evaluate(inc.mask[None, :])[0],
            rtol=1e-9, atol=1e-12,
        )
        inc.resync()
        assert inc.score() == fitness.evaluate(inc.mask[None, :])[0]


class TestBatchedNeighbourhoods:
    """flip_scores / swap_scores against evaluate() of the built masks."""

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(2, 24),
        num_classes=st.integers(2, 8),
        zeros=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_flip_scores_match_from_scratch_evaluation(
            self, seed, num_workers, num_classes, zeros):
        fitness, mask, __ = _random_fitness(
            seed, num_workers, num_classes, zeros
        )
        flipped = np.tile(mask, (num_workers, 1))
        flipped[np.arange(num_workers), np.arange(num_workers)] ^= True
        np.testing.assert_allclose(
            fitness.incremental(mask).flip_scores(), fitness.evaluate(flipped),
            rtol=1e-12, atol=1e-12,
        )

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(4, 24),
        num_classes=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_scores_match_from_scratch_evaluation(
            self, seed, num_workers, num_classes):
        fitness, mask, __ = _random_fitness(seed, num_workers, num_classes)
        mask[0], mask[1] = True, False
        remove = 0
        adds = np.flatnonzero(~mask)
        swapped = np.tile(mask, (adds.shape[0], 1))
        swapped[:, remove] = False
        swapped[np.arange(adds.shape[0]), adds] = True
        np.testing.assert_allclose(
            fitness.incremental(mask).swap_scores(adds, remove),
            fitness.evaluate(swapped), rtol=1e-12, atol=1e-12,
        )

    def test_swap_scores_reject_invalid_directions(self):
        fitness, mask, __ = _random_fitness(12, 6, 4)
        mask[:] = [True, False, True, False, True, False]
        inc = fitness.incremental(mask)
        with pytest.raises(SelectionError, match="swap"):
            inc.swap_scores(np.array([1, 2]), 0)  # 2 is selected
        with pytest.raises(SelectionError, match="swap"):
            inc.swap_scores(np.array([1, 3]), 5)  # 5 is not selected

    def test_flip_scores_cover_degenerate_rows(self):
        """Zero-batch selections fall back to the scalar path per row."""
        rng = new_rng(13)
        dists = rng.dirichlet([0.3] * 4, size=6)
        batch_sizes = np.array([0, 3, 0, 5, 2, 0])
        fitness = PopulationFitness(
            batch_sizes, dists, iid_distribution(dists), 1.0,
            0.5 * float(batch_sizes.sum()),
        )
        # From the empty anchor, flipping a zero-batch worker selects a
        # count-1 / size-0 set: the uniform-mean fallback row.
        batched = fitness.incremental(np.zeros(6, dtype=bool)).flip_scores()
        # One-worker masks reduce with no reassociation: bitwise equal.
        assert np.array_equal(batched, fitness.evaluate(np.eye(6, dtype=bool)))
        assert batched[0] != 1e6  # the degenerate row was actually scored


class TestValidation:
    def test_mask_length_is_validated(self):
        fitness, __, ___ = _random_fitness(9, 8, 4)
        with pytest.raises(SelectionError, match="mask length"):
            fitness.incremental(np.ones(5, dtype=bool))

    def test_empty_mask_scores_the_penalty_constant(self):
        fitness, mask, __ = _random_fitness(10, 6, 4)
        mask[:] = False
        assert fitness.incremental(mask).score() == 1e6

