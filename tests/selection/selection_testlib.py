"""Shared instance builder and brute-force oracle for the selection tests."""

from __future__ import annotations

import numpy as np

from repro.core.divergence import iid_distribution
from repro.core.selection import SelectionResult
from repro.exceptions import SelectionError
from repro.selection.solvers import SelectionProblem, SelectionSolver
from repro.utils.rng import new_rng


def make_problem(
    num_workers: int = 10,
    num_classes: int = 5,
    seed: int = 0,
    budget_fraction: float = 0.5,
    rng_seed: int | None = None,
) -> SelectionProblem:
    """A random-but-deterministic selection instance."""
    rng = new_rng(seed)
    dists = rng.dirichlet([0.3] * num_classes, size=num_workers)
    batch_sizes = rng.integers(2, 17, size=num_workers)
    budget = budget_fraction * float(batch_sizes.sum())
    priorities = rng.uniform(1.0, 4.0, size=num_workers)
    return SelectionProblem(
        batch_sizes=batch_sizes,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=budget,
        priorities=priorities,
        rng=new_rng(seed if rng_seed is None else rng_seed),
    )


class ExactSolver(SelectionSolver):
    """Enumerates every non-empty mask; the global fitness optimum.

    Cost is ``2^N`` fitness rows, so instances are capped at
    :attr:`max_workers` workers.  The agreement oracle for the registered
    solvers; not a registry entry.
    """

    name = "exact"

    #: Enumerating beyond this many workers is refused outright.
    max_workers: int = 12

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        num_workers = problem.num_workers
        if num_workers == 0:
            raise SelectionError("cannot select from zero workers")
        if num_workers > self.max_workers:
            raise SelectionError(
                f"exact solver enumerates 2^N masks and is capped at "
                f"N <= {self.max_workers}, got N = {num_workers}"
            )
        codes = np.arange(1, 2 ** num_workers, dtype=np.int64)
        masks = ((codes[:, None] >> np.arange(num_workers)) & 1).astype(bool)
        scores = problem.fitness().evaluate(masks)
        best = masks[int(np.argmin(scores))]
        return problem.decode(np.flatnonzero(best))
