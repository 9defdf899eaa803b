"""The vectorized greedy constructor against the original scalar loop.

``greedy_select`` was rewritten from an O(N^2) Python loop over the scalar
helpers into one row-wise matrix reduction per step.  This module preserves
the original loop verbatim as the reference and pins the rewrite to it bit
for bit -- selected set, KL and feasibility -- across random instances,
degenerate zero-batch workers and tight budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import occupied_bandwidth
from repro.core.divergence import (
    iid_distribution,
    kl_divergence,
    mixed_label_distribution,
)
from repro.core.selection import SelectionResult, greedy_select
from repro.utils.rng import new_rng


def _reference_greedy_select(
    batch_sizes, label_distributions, target_distribution,
    bandwidth_per_sample, bandwidth_budget, priorities=None,
) -> SelectionResult:
    """The pre-rewrite implementation, kept verbatim as the oracle."""
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    label_distributions = np.atleast_2d(np.asarray(label_distributions))
    num_workers = batch_sizes.shape[0]
    if priorities is None:
        priorities = np.ones(num_workers)
    remaining = list(np.argsort(-np.asarray(priorities)))
    selected: list[int] = []
    while remaining:
        best_candidate = None
        best_kl = np.inf
        for candidate in remaining:
            trial = selected + [candidate]
            used = occupied_bandwidth(batch_sizes, trial, bandwidth_per_sample)
            if used > bandwidth_budget:
                continue
            phi = mixed_label_distribution(label_distributions, batch_sizes, trial)
            trial_kl = kl_divergence(phi, target_distribution)
            if trial_kl < best_kl:
                best_kl = trial_kl
                best_candidate = candidate
        if best_candidate is None:
            break
        selected.append(best_candidate)
        remaining.remove(best_candidate)
        current_phi = mixed_label_distribution(
            label_distributions, batch_sizes, selected
        )
        if kl_divergence(current_phi, target_distribution) < 1e-3 and len(selected) >= 2:
            break
    if not selected:
        selected = [int(np.argsort(-np.asarray(priorities))[0])]
    phi = mixed_label_distribution(label_distributions, batch_sizes, selected)
    used = occupied_bandwidth(batch_sizes, selected, bandwidth_per_sample)
    return SelectionResult(
        selected=np.sort(np.asarray(selected)),
        kl=kl_divergence(phi, target_distribution),
        feasible=used <= bandwidth_budget * (1.0 + 1e-9),
    )


def _instance(seed: int, num_workers: int, num_classes: int,
              zero_batches: bool, budget_fraction: float):
    rng = new_rng(seed)
    dists = rng.dirichlet([0.2] * num_classes, size=num_workers)
    low = 0 if zero_batches else 1
    batch_sizes = rng.integers(low, 17, size=num_workers)
    bandwidth = float(rng.uniform(0.5, 2.0))
    budget = budget_fraction * float((batch_sizes * bandwidth).sum()) + 1e-9
    priorities = rng.uniform(1.0, 4.0, size=num_workers)
    return (batch_sizes, dists, iid_distribution(dists), bandwidth, budget,
            priorities)


def _assert_identical(candidate: SelectionResult, reference: SelectionResult,
                      label: str) -> None:
    assert np.array_equal(candidate.selected, reference.selected), label
    assert candidate.kl == reference.kl, label
    assert candidate.feasible == reference.feasible, label


@pytest.mark.parametrize("budget_fraction", [0.1, 0.5, 2.0])
def test_vectorized_greedy_is_bit_exact_with_reference(budget_fraction):
    for seed in range(25):
        args = _instance(seed, num_workers=5 + seed % 20, num_classes=2 + seed % 6,
                         zero_batches=(seed % 7 == 0),
                         budget_fraction=budget_fraction)
        batch, dists, target, bandwidth, budget, priorities = args
        _assert_identical(
            greedy_select(batch, dists, target, bandwidth, budget,
                          priorities=priorities),
            _reference_greedy_select(batch, dists, target, bandwidth, budget,
                                     priorities=priorities),
            f"seed={seed} budget={budget_fraction}",
        )


def test_vectorized_greedy_without_priorities():
    batch, dists, target, bandwidth, budget, __ = _instance(
        99, 12, 5, zero_batches=False, budget_fraction=0.4
    )
    _assert_identical(
        greedy_select(batch, dists, target, bandwidth, budget),
        _reference_greedy_select(batch, dists, target, bandwidth, budget),
        "no-priorities",
    )


def test_infeasible_budget_falls_back_to_top_priority_worker():
    batch, dists, target, bandwidth, __, priorities = _instance(
        3, 8, 4, zero_batches=False, budget_fraction=0.5
    )
    result = greedy_select(batch, dists, target, bandwidth, 1e-12,
                           priorities=priorities)
    reference = _reference_greedy_select(batch, dists, target, bandwidth,
                                         1e-12, priorities=priorities)
    _assert_identical(result, reference, "infeasible")
    assert list(result.selected) == [int(np.argsort(-priorities)[0])]
    assert not result.feasible


def test_negative_batches_rejected():
    batch, dists, target, bandwidth, budget, __ = _instance(
        5, 6, 4, zero_batches=False, budget_fraction=0.5
    )
    batch = batch.copy()
    batch[0] = -1
    with pytest.raises(ValueError, match="non-negative"):
        greedy_select(batch, dists, target, bandwidth, budget)
