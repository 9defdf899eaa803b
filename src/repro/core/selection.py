"""Worker selection (Eq. 13 + the genetic algorithm of Alg. 1, lines 3-5).

The control module must pick a worker set ``S^h`` whose merged label
distribution is as close to IID as possible while the occupied ingress
bandwidth stays within budget.  Workers that have participated less often
get higher priority so every worker's data eventually contributes.

Everything here operates on dense metadata arrays -- per-sample durations,
label-distribution rows, participation counts -- with *positional* indices:
no live worker objects are needed to plan a round.  That makes the module
population-agnostic: a lazily-materialised registry hands the GA the rows
of its per-round candidate pool and the resulting positional selection is
remapped to global worker ids afterwards
(:meth:`repro.core.controller.RoundPlan.remapped`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batching import occupied_bandwidth
from repro.core.divergence import _EPS, kl_divergence, mixed_label_distribution
from repro.exceptions import SelectionError
from repro.utils.numeric import normalize_distribution
from repro.utils.rng import new_rng


def selection_priorities(participation_counts: np.ndarray) -> np.ndarray:
    """Selection priority p_i = sum_j (K_j + 1) / (K_i + 1)  (Eq. 13)."""
    counts = np.asarray(participation_counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("participation counts must be non-negative")
    total = (counts + 1.0).sum()
    return total / (counts + 1.0)


@dataclass
class SelectionResult:
    """Outcome of a worker-selection run.

    Attributes:
        selected: Sorted worker indices forming ``S^h``.
        kl: KL divergence of the selected set's merged label distribution.
        feasible: Whether the bandwidth constraint is satisfied.
    """

    selected: np.ndarray
    kl: float
    feasible: bool


def _fitness(
    mask: np.ndarray,
    batch_sizes: np.ndarray,
    label_distributions: np.ndarray,
    target: np.ndarray,
    bandwidth_per_sample: float,
    bandwidth_budget: float,
) -> float:
    """Penalised fitness: KL divergence + constraint violation - utilisation bonus."""
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return 1e6
    phi = mixed_label_distribution(label_distributions, batch_sizes, selected)
    kl = kl_divergence(phi, target)
    used = occupied_bandwidth(batch_sizes, selected, bandwidth_per_sample)
    violation = max(0.0, used - bandwidth_budget) / bandwidth_budget
    utilisation = min(1.0, used / bandwidth_budget)
    return kl + 10.0 * violation + 0.05 * (1.0 - utilisation)


def _smoothed_reference(target_distribution: np.ndarray) -> np.ndarray:
    """``Phi_0`` as :func:`kl_divergence` smooths it, hoisted out of the KL."""
    phi0 = normalize_distribution(np.asarray(target_distribution, dtype=np.float64))
    phi0 = phi0 + _EPS
    return phi0 / phi0.sum()


def _mixture_kl(
    numerators: np.ndarray, sizes: np.ndarray, phi0: np.ndarray
) -> np.ndarray:
    """KL to the smoothed reference of every mixture row ``numerator / size``.

    The one row-wise copy of what :func:`_fitness` computes per mask:
    :func:`mixed_label_distribution` normalises the mixture,
    :func:`kl_divergence` normalises again and applies epsilon smoothing.
    Sums run over the last (contiguous) axis, so each row reduces in the
    same order as the scalar path and the values match bit for bit.
    """
    phi = numerators / sizes[:, None].astype(np.float64)
    phi = phi / phi.sum(axis=1, keepdims=True)
    phi = phi / phi.sum(axis=1, keepdims=True)
    phi = phi + _EPS
    phi = phi / phi.sum(axis=1, keepdims=True)
    return np.sum(phi * np.log(phi / phi0[None, :]), axis=1)


def decode_selection(
    selected: "np.ndarray | list[int]",
    batch_sizes: np.ndarray,
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    bandwidth_per_sample: float,
    bandwidth_budget: float,
) -> SelectionResult:
    """Turn positional worker indices into a :class:`SelectionResult`."""
    phi = mixed_label_distribution(label_distributions, batch_sizes, selected)
    used = occupied_bandwidth(batch_sizes, selected, bandwidth_per_sample)
    return SelectionResult(
        selected=np.sort(np.asarray(selected)),
        kl=kl_divergence(phi, target_distribution),
        feasible=used <= bandwidth_budget * (1.0 + 1e-9),
    )


class PopulationFitness:
    """Vectorized GA fitness: a whole population evaluated in one pass.

    The per-worker KL contribution vectors ``d_i * V_i`` (the numerator
    terms of Eq. 11) and the smoothed reference distribution of Eq. 12 are
    precomputed once per round; evaluating a population of membership masks
    is then one masked fold over the worker axis plus a row-wise KL instead
    of a Python loop over individuals -- ``population x generations``
    scalar fitness calls collapse into ``generations`` array ops.  The fold
    runs over one wide axis, classes x population, so NumPy's inner loop is
    not a row's few classes long.

    Every reduction is arranged to be bit-identical to :func:`_fitness`:
    unselected workers contribute exact ``0.0`` terms to a sequential sum
    over the worker axis (adding ``0.0`` is a bitwise no-op), batch-size
    sums are integer-valued and therefore order-independent in float64, and
    the per-class reductions run over the same contiguous axis length as
    the scalar path.  The GA's comparisons -- and therefore its
    :class:`SelectionResult` -- are unchanged for a fixed seed.
    """

    def __init__(
        self,
        batch_sizes: np.ndarray,
        label_distributions: np.ndarray,
        target_distribution: np.ndarray,
        bandwidth_per_sample: float,
        bandwidth_budget: float,
    ) -> None:
        self._batches = np.asarray(batch_sizes, dtype=np.int64)
        if np.any(self._batches < 0):
            # Mirrors the check mixed_label_distribution applies per mask.
            raise ValueError("batch sizes must be non-negative")
        self._matrix = np.atleast_2d(np.asarray(label_distributions, dtype=np.float64))
        #: Per-worker contributions ``d_i * V_i`` to the merged mixture.
        self._contributions = self._batches.astype(np.float64)[:, None] * self._matrix
        # The smoothed reference distribution: identical for every mask, so
        # the normalisation inside ``kl_divergence`` is hoisted out.
        self._target = np.asarray(target_distribution, dtype=np.float64)
        self._phi0 = _smoothed_reference(self._target)
        self._bandwidth_per_sample = bandwidth_per_sample
        self._bandwidth_budget = bandwidth_budget

    def evaluate(self, masks: np.ndarray) -> np.ndarray:
        """Fitness of every row of ``masks`` (a ``(population, N)`` matrix).

        Duplicate individuals -- common once the GA starts converging --
        are evaluated once and their score broadcast back.  They are found
        by hashing each row's packed bits; a row's fitness does not depend
        on the other rows, so which copy is evaluated changes nothing.
        """
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        slot_of: dict[bytes, int] = {}
        inverse = [
            slot_of.setdefault(row.tobytes(), len(slot_of))
            for row in np.packbits(masks, axis=1)
        ]
        if len(slot_of) < masks.shape[0]:
            __, distinct = np.unique(inverse, return_index=True)
            return self.evaluate(masks[distinct])[inverse]
        numerators = self._numerators(masks)
        sizes = masks @ self._batches
        return self._score_rows(
            masks.sum(axis=1), numerators, sizes, lambda row: masks[row]
        )

    def _numerators(self, masks: np.ndarray) -> np.ndarray:
        """Mixture numerators ``sum_i mask_i * d_i V_i`` of every mask row.

        Unselected workers contribute exact ``0.0`` terms to a sequential
        fold over the worker axis (adding ``0.0`` is a bitwise no-op), so
        each row is the scalar path's selected-rows sum bit for bit.  The
        terms are laid out workers x (classes, population): the fold's
        inner loop runs over every class of every row at once, not over a
        row's few classes.
        """
        weights = masks.T.astype(np.float64)
        terms = self._contributions[:, :, None] * weights[:, None, :]
        return np.ascontiguousarray(terms.sum(axis=0).T)

    def _score_rows(self, counts, numerators, sizes, mask_of) -> np.ndarray:
        """Penalised fitness of every row of mixture terms.

        The one vectorized copy of :func:`_fitness`, shared by
        :meth:`evaluate` (terms reduced from masks) and
        :class:`IncrementalFitness` (terms adjusted from an anchor).  Empty
        rows score the penalty constant; rows whose selected workers all
        have zero batch size take the scalar path's uniform-mean fallback
        on ``mask_of(row)`` (degenerate; unreachable from the engines, where
        batches are >= 1).
        """
        scores = np.full(counts.shape[0], 1e6)
        live = counts > 0
        degenerate = live & (sizes <= 0)
        for row in np.flatnonzero(degenerate):
            scores[row] = _fitness(
                mask_of(int(row)), self._batches, self._matrix, self._target,
                self._bandwidth_per_sample, self._bandwidth_budget,
            )
        rows = live & ~degenerate
        if np.any(rows):
            # Integer batch sums are exact in float64, so this is the
            # scalar path's occupied_bandwidth bit for bit.
            used = sizes[rows].astype(np.float64) * self._bandwidth_per_sample
            budget = self._bandwidth_budget
            violation = np.maximum(0.0, used - budget) / budget
            utilisation = np.minimum(1.0, used / budget)
            scores[rows] = (
                _mixture_kl(numerators[rows], sizes[rows], self._phi0)
                + 10.0 * violation + 0.05 * (1.0 - utilisation)
            )
        return scores

    def incremental(self, mask: np.ndarray) -> "IncrementalFitness":
        """An O(classes)-per-flip evaluator anchored at ``mask``."""
        return IncrementalFitness(self, mask)


class IncrementalFitness:
    """O(classes) neighbourhood fitness around an anchor mask.

    Local search and warm-started GA elites evaluate many 1-flip / 1-swap
    neighbours of a single current mask.  This helper caches the anchor's
    merged-mixture numerator ``sum_i d_i V_i`` and its batch-size
    denominator (which also prices the occupied bandwidth), and scores each
    neighbour by adjusting those cached terms -- O(classes) per move
    instead of a full ``(N, classes)`` reduction.

    Numerics: after :meth:`resync` the anchor's :meth:`score` is
    bit-identical to :meth:`PopulationFitness.evaluate` (the cached terms
    are rebuilt with the same sequential worker-axis fold).  Neighbour
    scores can differ from a from-scratch evaluation only by float-addition
    reassociation in the numerator (empirically ~1e-15 relative; covered
    by a hypothesis property test).  Committed moves re-synchronise every
    :attr:`resync_interval` flips so drift never accumulates.
    """

    #: Committed flips between full recomputations of the cached terms.
    resync_interval: int = 64

    def __init__(self, parent: PopulationFitness, mask: np.ndarray) -> None:
        self._parent = parent
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != parent._batches.shape:
            raise SelectionError("mask length does not match the worker count")
        self._mask = mask.copy()
        self.resync()

    @property
    def mask(self) -> np.ndarray:
        """A copy of the current anchor mask."""
        return self._mask.copy()

    def resync(self) -> None:
        """Rebuild the cached terms from scratch (bit-exact with evaluate)."""
        parent, mask = self._parent, self._mask
        self._numerator = parent._numerators(mask[None, :])[0]
        self._size = int(mask @ parent._batches)
        self._count = int(mask.sum())
        self._commits = 0

    def score(self) -> float:
        """Fitness of the anchor mask itself (the one-row case)."""
        return float(self._parent._score_rows(
            np.array([self._count]), self._numerator[None, :],
            np.array([self._size]),
            lambda row: self._mask.copy(),
        )[0])

    def flip_scores(self) -> np.ndarray:
        """Fitness of every 1-flip neighbour, in one vectorized pass.

        Row ``i`` is the ``sign * contribution`` adjustment of the cached
        anchor terms :meth:`flip` would commit for worker ``i``.  One
        ``(N, classes)`` matrix op replaces N Python-level flip
        evaluations, which is what makes a full first-improvement sweep
        cheaper than a single GA generation.
        """
        parent = self._parent
        signs = np.where(self._mask, -1.0, 1.0)
        steps = np.where(self._mask, -1, 1).astype(np.int64)
        numerators = self._numerator[None, :] + signs[:, None] * parent._contributions
        sizes = self._size + steps * parent._batches
        counts = self._count + steps

        def degenerate_mask(row: int) -> np.ndarray:
            mask = self._mask.copy()
            mask[row] = not mask[row]
            return mask

        return parent._score_rows(counts, numerators, sizes, degenerate_mask)

    def swap_scores(self, add_indices: np.ndarray, remove_index: int) -> np.ndarray:
        """Fitness of swapping ``remove_index`` for each of ``add_indices``.

        A swap sweep costs one matrix op per removed worker instead of one
        Python-level evaluation per (add, remove) pair.
        """
        parent = self._parent
        adds = np.asarray(add_indices, dtype=np.int64)
        if not self._mask[remove_index] or bool(self._mask[adds].any()):
            raise SelectionError(
                "swap must add an unselected worker and remove a selected one"
            )
        numerators = (
            self._numerator[None, :] + parent._contributions[adds]
        ) - parent._contributions[remove_index][None, :]
        sizes = (
            self._size + parent._batches[adds]
        ) - int(parent._batches[remove_index])
        counts = np.full(adds.shape[0], self._count, dtype=np.int64)

        def degenerate_mask(row: int) -> np.ndarray:
            mask = self._mask.copy()
            mask[adds[row]] = True
            mask[remove_index] = False
            return mask

        return parent._score_rows(counts, numerators, sizes, degenerate_mask)

    def flip(self, index: int) -> None:
        """Commit a bit flip, updating the cached terms in O(classes)."""
        parent = self._parent
        adding = not self._mask[index]
        sign, step = (1.0, 1) if adding else (-1.0, -1)
        self._numerator = self._numerator + sign * parent._contributions[index]
        self._size += step * int(parent._batches[index])
        self._count += step
        self._mask[index] = adding
        self._commits += 1
        if self._commits >= self.resync_interval:
            self.resync()

    def swap(self, add_index: int, remove_index: int) -> None:
        """Commit an add/remove pair."""
        self.flip(add_index)
        self.flip(remove_index)


def genetic_select(
    batch_sizes: np.ndarray,
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    bandwidth_per_sample: float,
    bandwidth_budget: float,
    priorities: np.ndarray | None = None,
    population_size: int = 20,
    generations: int = 15,
    mutation_rate: float = 0.05,
    seed_fraction: float = 0.5,
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """Select the worker set ``S^h`` with a genetic algorithm (Alg. 1 line 5).

    Individuals are membership bit-masks over the workers.  The initial
    population is seeded with the ``m`` highest-priority workers (Eq. 13);
    evolution minimises the KL divergence of the merged label distribution
    under the ingress-bandwidth constraint (Eq. 10).

    A generation is one ``(population, N)`` bool array, scored by one
    :meth:`PopulationFitness.evaluate`.  Each child takes its tournament
    (``rng.integers``), then one ``rng.random(2 N)`` for crossover and
    mutation, then a repair draw if it came out empty: the random stream,
    and therefore the result for a fixed seed, is the one the per-child
    loop of two ``rng.random(N)`` draws consumed.

    Returns:
        The best individual found, decoded into a :class:`SelectionResult`.
    """
    rng = rng if rng is not None else new_rng()
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    label_distributions = np.atleast_2d(np.asarray(label_distributions))
    num_workers = batch_sizes.shape[0]
    if label_distributions.shape[0] != num_workers:
        raise SelectionError(
            "label_distributions and batch_sizes describe different worker counts"
        )
    if num_workers == 0:
        raise SelectionError("cannot select from zero workers")
    if priorities is None:
        priorities = np.ones(num_workers)
    priorities = np.asarray(priorities, dtype=np.float64)

    fitness = PopulationFitness(
        batch_sizes, label_distributions, target_distribution,
        bandwidth_per_sample, bandwidth_budget,
    )

    # Seed: the m highest-priority workers, plus random perturbations of it.
    seed_count = max(1, int(round(seed_fraction * num_workers)))
    priority_order = np.argsort(-priorities)
    seed_mask = np.zeros(num_workers, dtype=bool)
    seed_mask[priority_order[:seed_count]] = True

    # One (P, N) array holds a generation; a population size below one
    # still keeps the seed individual.
    population = np.repeat(seed_mask[None, :], max(1, population_size), axis=0)
    for individual in population[1:]:
        individual ^= rng.random(num_workers) < 0.25
        if not individual.any():
            individual[int(rng.integers(num_workers))] = True

    scores = fitness.evaluate(population)

    for __ in range(generations):
        ranked = scores.tolist()
        offspring = np.empty_like(population)
        offspring[0] = population[int(np.argmin(scores))]  # elitism
        for child in offspring[1:]:
            # Tournament selection of two parents: the first contender
            # wins a tie, as argmin over the pair would pick it.
            a, b, c, d = rng.integers(0, population_size, size=4).tolist()
            parent_a = population[a if ranked[a] <= ranked[b] else b]
            parent_b = population[c if ranked[c] <= ranked[d] else d]
            # One draw feeds uniform crossover, then bit-flip mutation: the
            # stream of two rng.random(num_workers) calls, in that order.
            draws = rng.random(2 * num_workers)
            child[:] = np.where(draws[:num_workers] < 0.5, parent_a, parent_b)
            child ^= draws[num_workers:] < mutation_rate
            if not child.any():
                child[int(rng.integers(num_workers))] = True
        population = offspring
        scores = fitness.evaluate(population)

    best = population[int(np.argmin(scores))]
    return decode_selection(
        np.flatnonzero(best), batch_sizes, label_distributions,
        target_distribution, bandwidth_per_sample, bandwidth_budget,
    )


def greedy_select(
    batch_sizes: np.ndarray,
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    bandwidth_per_sample: float,
    bandwidth_budget: float,
    priorities: np.ndarray | None = None,
) -> SelectionResult:
    """Greedy baseline for the selection step (used by the ablation bench).

    Workers are added in priority order while they fit in the bandwidth
    budget and do not increase the KL divergence of the running mixture by
    more than they have to (each step picks the candidate whose addition
    yields the lowest mixture KL).

    The candidate scan is vectorized onto the precomputed contribution
    matrix ``d_i * V_i``: the running mixture numerator is maintained as a
    left fold in selection order -- exactly the reduction
    :func:`mixed_label_distribution` applies to the trial list, because the
    candidate is always appended last -- so every step scores all remaining
    candidates with one row-wise matrix reduction.  Results are
    bit-identical to the original O(N^2 C) Python loop over the scalar
    helpers (pinned by a regression test against that loop).
    """
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    if np.any(batch_sizes < 0):
        # Mirrors the check mixed_label_distribution applied per trial.
        raise ValueError("batch sizes must be non-negative")
    label_distributions = np.atleast_2d(
        np.asarray(label_distributions, dtype=np.float64)
    )
    num_workers = batch_sizes.shape[0]
    if priorities is None:
        priorities = np.ones(num_workers)
    contributions = batch_sizes.astype(np.float64)[:, None] * label_distributions
    phi0 = _smoothed_reference(target_distribution)
    remaining = list(np.argsort(-np.asarray(priorities)))
    selected: list[int] = []
    # Left-fold mixture numerator over the selected workers, in selection
    # order; adding the candidate's contribution reproduces the scalar
    # path's trial-list fold bit for bit.
    numerator = np.zeros(label_distributions.shape[1], dtype=np.float64)
    size = 0
    while remaining:
        rem = np.asarray(remaining, dtype=np.int64)
        trial_sizes = size + batch_sizes[rem]
        # Integer batch sums are exact in float64, so this equals the
        # scalar loop's per-trial occupied_bandwidth exactly.
        used = trial_sizes.astype(np.float64) * bandwidth_per_sample
        feasible = used <= bandwidth_budget
        if not np.any(feasible):
            break
        kls = np.full(rem.shape[0], np.inf)
        candidates = np.flatnonzero(feasible)
        positive = trial_sizes[candidates] > 0
        good = candidates[positive]
        if good.size:
            kls[good] = _mixture_kl(
                numerator[None, :] + contributions[rem[good]],
                trial_sizes[good], phi0,
            )
        # Trials whose batches sum to zero take the scalar path's
        # uniform-mean fallback (degenerate; unreachable from the engines).
        for pos in candidates[~positive]:
            trial = selected + [remaining[int(pos)]]
            kls[pos] = kl_divergence(
                mixed_label_distribution(label_distributions, batch_sizes, trial),
                target_distribution,
            )
        # argmin returns the first occurrence, matching the sequential
        # strict-< scan of the original loop.
        best_pos = int(np.argmin(kls))
        best_candidate = remaining[best_pos]
        selected.append(best_candidate)
        remaining.pop(best_pos)
        numerator = numerator + contributions[best_candidate]
        size = int(size + batch_sizes[best_candidate])
        if float(kls[best_pos]) < 1e-3 and len(selected) >= 2:
            break
    if not selected:
        # Always select at least the single highest-priority worker.
        selected = [int(np.argsort(-np.asarray(priorities))[0])]
    return decode_selection(
        selected, batch_sizes, label_distributions, target_distribution,
        bandwidth_per_sample, bandwidth_budget,
    )
