"""Pluggable worker-selection solvers (the Eq. 10-13 combinatorial step).

Every solver sees the same :class:`SelectionProblem` -- the dense per-worker
metadata arrays the control module plans over -- and returns a
:class:`~repro.core.selection.SelectionResult`.  Solvers are registered in
:data:`repro.api.registry.SELECTION_SOLVERS` and picked by
``config.selector``:

* ``ga`` -- the paper's genetic algorithm (Alg. 1 line 5), the default.  It
  delegates to :func:`~repro.core.selection.genetic_select` verbatim, so the
  default path is bit-exact with the pre-registry code by construction.
* ``ga-warm`` -- the GA warm-started from the previous round's winning
  worker set (translated through the candidate pool via global worker ids),
  with elite-consensus variable fixing and symmetry breaking across
  interchangeable workers; runs a fraction of the cold generation budget.
* ``greedy`` -- the priority-ordered greedy constructor (the ablation
  baseline).
* ``local-search`` -- deterministic greedy construction followed by
  first-improvement 1-flip / 1-swap hill climbing on the incremental
  fitness (O(classes) per candidate move).

The warm-start tricks mirror what the districting literature applies to
graph-partition search (see ROADMAP): a previous solution seeds the
population, bits unanimous across the elite set are frozen in offspring,
and workers with identical ``(batch_size, label_row)`` signatures -- interchangeable w.r.t. the fitness, e.g. same-class devices
holding same-distribution shards -- are canonicalised so the search never
distinguishes permutations of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.registry import SELECTION_SOLVERS, register_selection_solver
from repro.core.selection import (
    PopulationFitness,
    SelectionResult,
    decode_selection,
    genetic_select,
    greedy_select,
)
from repro.exceptions import SelectionError
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ExperimentConfig


@dataclass
class SelectionProblem:
    """One round's selection instance, on dense candidate-local arrays.

    Attributes:
        batch_sizes: Regulated per-worker batch sizes ``d_i``.
        label_distributions: ``(num_workers, num_classes)`` matrix of V_i.
        target_distribution: The reference IID distribution ``Phi_0``.
        bandwidth_per_sample: ``c``, ingress bandwidth occupied per sample.
        bandwidth_budget: ``B^h``.
        priorities: Eq. 13 priorities (``None`` means uniform).
        rng: Round-specific generator for stochastic solvers.
        worker_ids: Global worker id of every candidate row, ascending
            (``None`` when candidate-local indices *are* the global ids).
            Stateful solvers key their cross-round state on these so
            per-round candidate pools remap correctly between rounds.
    """

    batch_sizes: np.ndarray
    label_distributions: np.ndarray
    target_distribution: np.ndarray
    bandwidth_per_sample: float
    bandwidth_budget: float
    priorities: np.ndarray | None = None
    rng: np.random.Generator | None = None
    worker_ids: np.ndarray | None = None

    @property
    def num_workers(self) -> int:
        return int(np.asarray(self.batch_sizes).shape[0])

    def global_ids(self) -> np.ndarray:
        """Global worker id per candidate row (identity when unset)."""
        if self.worker_ids is None:
            return np.arange(self.num_workers, dtype=np.int64)
        return np.asarray(self.worker_ids, dtype=np.int64)

    def resolved_priorities(self) -> np.ndarray:
        if self.priorities is None:
            return np.ones(self.num_workers)
        return np.asarray(self.priorities, dtype=np.float64)

    def fitness(self) -> PopulationFitness:
        """A fresh vectorized fitness for this instance."""
        return PopulationFitness(
            self.batch_sizes,
            self.label_distributions,
            self.target_distribution,
            self.bandwidth_per_sample,
            self.bandwidth_budget,
        )

    def decode(self, selected: np.ndarray) -> SelectionResult:
        """Turn candidate-local indices into a :class:`SelectionResult`."""
        return decode_selection(
            selected, self.batch_sizes, self.label_distributions,
            self.target_distribution, self.bandwidth_per_sample,
            self.bandwidth_budget,
        )


class SelectionSolver:
    """Interface for worker-selection solvers."""

    #: Registry name (also used in logs and checkpoints).
    name: str = "abstract"

    #: Stateful solvers carry cross-round state (e.g. the previous winning
    #: mask) that the engines serialise through ``state_dict`` so
    #: checkpoint/resume stays bit-exact.  Stateless solvers keep the
    #: historical checkpoint format untouched.
    stateful: bool = False

    def __init__(self, config: "ExperimentConfig | None" = None) -> None:
        self.config = config

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-serialisable solver state; ``{}`` for stateless solvers."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _knob(value, config, attr, default):
    """Explicit knob > config field > module default."""
    if value is not None:
        return value
    if config is not None:
        return getattr(config, attr, default)
    return default


@register_selection_solver(
    "ga", description="the paper's genetic algorithm (default, bit-exact)"
)
class GASolver(SelectionSolver):
    """Alg. 1 line 5 verbatim: delegates to :func:`genetic_select`."""

    name = "ga"

    def __init__(
        self,
        config: "ExperimentConfig | None" = None,
        *,
        population_size: int | None = None,
        generations: int | None = None,
        seed_fraction: float | None = None,
        mutation_rate: float = 0.05,
    ) -> None:
        super().__init__(config)
        self.population_size = int(_knob(population_size, config, "ga_population", 20))
        self.generations = int(_knob(generations, config, "ga_generations", 15))
        self.seed_fraction = float(
            _knob(seed_fraction, config, "selection_fraction", 0.5)
        )
        self.mutation_rate = float(mutation_rate)

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        return genetic_select(
            problem.batch_sizes,
            problem.label_distributions,
            problem.target_distribution,
            problem.bandwidth_per_sample,
            problem.bandwidth_budget,
            priorities=problem.priorities,
            population_size=self.population_size,
            generations=self.generations,
            mutation_rate=self.mutation_rate,
            seed_fraction=self.seed_fraction,
            rng=problem.rng,
        )


@register_selection_solver(
    "greedy", description="priority-ordered greedy construction (ablation baseline)"
)
class GreedySolver(SelectionSolver):
    """The vectorized greedy constructor, as a registry entry."""

    name = "greedy"

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        return greedy_select(
            problem.batch_sizes,
            problem.label_distributions,
            problem.target_distribution,
            problem.bandwidth_per_sample,
            problem.bandwidth_budget,
            priorities=problem.priorities,
        )


def _signature_groups(
    batch_sizes: np.ndarray,
    label_distributions: np.ndarray,
    priorities: np.ndarray,
) -> list[np.ndarray]:
    """Groups of >= 2 workers interchangeable w.r.t. the fitness.

    Two workers with identical ``(d_i, V_i)`` contribute identically to the
    merged mixture and the bandwidth constraint (the device class enters
    through the regulated batch size), so any individual selecting one of
    them has a fitness-equal twin selecting the other.  Members are ordered
    by descending priority (ties by index) -- the canonical representative
    order.
    """
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    matrix = np.atleast_2d(np.asarray(label_distributions, dtype=np.float64))
    buckets: dict[tuple, list[int]] = {}
    for worker in range(batch_sizes.shape[0]):
        key = (int(batch_sizes[worker]), matrix[worker].tobytes())
        buckets.setdefault(key, []).append(worker)
    groups = []
    for members in buckets.values():
        if len(members) >= 2:
            members.sort(key=lambda w: (-float(priorities[w]), w))
            groups.append(np.asarray(members, dtype=np.int64))
    return groups


def _canonicalize(mask: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Break symmetry: within each group keep the k canonical members.

    Fitness-preserving by construction (group members are interchangeable),
    so distinct individuals that are permutations of each other collapse to
    one representative and the population's diversity budget is spent on
    genuinely different worker sets.
    """
    for members in groups:
        count = int(mask[members].sum())
        if 0 < count < members.shape[0]:
            mask[members] = False
            mask[members[:count]] = True
    return mask


def _polish(
    fitness: PopulationFitness,
    mask: np.ndarray,
    score: float,
    max_passes: int = 2,
) -> tuple[np.ndarray, float]:
    """First-improvement 1-flip hill climbing via the incremental fitness."""
    inc = fitness.incremental(mask)
    current = float(score)
    for _ in range(max_passes):
        current, improved = _flip_sweep(inc, current)
        if not improved:
            break
    return inc.mask, current


def _flip_sweep(inc, current: float) -> tuple[float, bool]:
    """One first-improvement 1-flip pass, batched.

    Semantically identical to scoring the 1-flip neighbours 0..N-1 in order
    and committing every strict improvement as it is found: each committed flip
    re-anchors the incremental terms, so the batch of neighbour scores is
    recomputed and the scan resumes at the next index.  The number of
    vectorized evaluations is ``1 + commits`` instead of N scalar ones.
    """
    improved = False
    index = 0
    num_workers = inc.mask.shape[0]
    while index < num_workers:
        trials = inc.flip_scores()
        better = np.flatnonzero(trials[index:] < current)
        if better.size == 0:
            break
        chosen = index + int(better[0])
        inc.flip(chosen)
        current = float(trials[chosen])
        improved = True
        index = chosen + 1
    return current, improved


@register_selection_solver(
    "ga-warm",
    description="GA warm-started from the previous round's winning set",
)
class WarmGASolver(GASolver):
    """GA seeded from the previous round's winner, at a reduced budget.

    Cold rounds (no usable previous winner -- the first round, or none of
    the previous winners are in this round's candidate pool) fall back to
    the full cold GA.  Warm rounds seed the population with the translated
    previous mask plus light perturbations of it, run
    ``max(2, generations // 3)`` generations with elite-consensus variable
    fixing and symmetry canonicalisation, and finish with a 1-flip polish
    of the winner on the incremental fitness.

    State is the previous winning *global* worker ids, so a population's
    per-round candidate pools remap correctly:
    ``np.isin(candidate_ids, previous)`` rebuilds the candidate-local mask
    whatever subset of the fleet is in this round's pool.
    """

    name = "ga-warm"
    stateful = True

    #: Probability that a warm seed perturbation flips a bit (the cold
    #: seed uses 0.25; warm perturbations stay closer to the incumbent).
    warm_flip_rate: float = 0.1

    def __init__(self, config=None, **knobs) -> None:
        super().__init__(config, **knobs)
        self._previous: list[int] | None = None

    def state_dict(self) -> dict:
        return {
            "previous": None if self._previous is None
            else [int(worker) for worker in self._previous],
        }

    def load_state_dict(self, state: dict) -> None:
        previous = state.get("previous")
        self._previous = (
            None if previous is None else [int(worker) for worker in previous]
        )

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        ids = problem.global_ids()
        warm_mask = None
        if self._previous:
            warm_mask = np.isin(ids, np.asarray(self._previous, dtype=np.int64))
            if not warm_mask.any():
                warm_mask = None
        if warm_mask is None:
            result = super().solve(problem)
        else:
            result = self._warm_solve(problem, warm_mask)
        self._previous = [int(ids[local]) for local in result.selected]
        return result

    def _warm_solve(
        self, problem: SelectionProblem, warm_mask: np.ndarray
    ) -> SelectionResult:
        rng = problem.rng if problem.rng is not None else new_rng()
        batch_sizes = np.asarray(problem.batch_sizes, dtype=np.int64)
        num_workers = batch_sizes.shape[0]
        if num_workers == 0:
            raise SelectionError("cannot select from zero workers")
        priorities = problem.resolved_priorities()
        fitness = problem.fitness()
        groups = _signature_groups(
            batch_sizes, problem.label_distributions, priorities
        )

        seed_count = max(1, int(round(self.seed_fraction * num_workers)))
        priority_order = np.argsort(-priorities)
        seed_mask = np.zeros(num_workers, dtype=bool)
        seed_mask[priority_order[:seed_count]] = True

        population = [
            _canonicalize(warm_mask.copy(), groups),
            _canonicalize(seed_mask, groups),
        ][: self.population_size]
        while len(population) < self.population_size:
            individual = warm_mask.copy()
            flips = rng.random(num_workers) < self.warm_flip_rate
            individual[flips] = ~individual[flips]
            if not individual.any():
                individual[int(rng.integers(num_workers))] = True
            population.append(_canonicalize(individual, groups))
        scores = fitness.evaluate(np.stack(population))

        population_size = len(population)
        for __ in range(max(2, self.generations // 3)):
            # Safe variable fixing: bits unanimous across the elite quartile
            # are frozen in this generation's offspring (the elite itself is
            # carried over unmodified, so the freeze can always be undone by
            # a later generation's different elite set).
            elite_count = max(2, population_size // 4)
            if elite_count <= population_size:
                elite_rows = np.argsort(scores, kind="stable")[:elite_count]
                elites = np.stack([population[int(row)] for row in elite_rows])
                fixed_on = elites.all(axis=0)
                fixed_off = ~elites.any(axis=0)
            else:
                fixed_on = np.zeros(num_workers, dtype=bool)
                fixed_off = np.zeros(num_workers, dtype=bool)
            new_population = [population[int(np.argmin(scores))].copy()]
            while len(new_population) < population_size:
                contenders = rng.integers(0, population_size, size=4)
                head, tail = contenders[:2], contenders[2:]
                parent_a = population[int(head[np.argmin(scores[head])])]
                parent_b = population[int(tail[np.argmin(scores[tail])])]
                crossover = rng.random(num_workers) < 0.5
                child = np.where(crossover, parent_a, parent_b)
                flips = rng.random(num_workers) < self.mutation_rate
                child = np.where(flips, ~child, child)
                child[fixed_on] = True
                child[fixed_off] = False
                if not child.any():
                    child[int(rng.integers(num_workers))] = True
                new_population.append(_canonicalize(child, groups))
            population = new_population
            scores = fitness.evaluate(np.stack(population))

        best_row = int(np.argmin(scores))
        best, __ = _polish(fitness, population[best_row], float(scores[best_row]))
        return problem.decode(np.flatnonzero(best))


@register_selection_solver(
    "local-search",
    description="greedy construction + 1-flip/1-swap hill climbing",
)
class LocalSearchSolver(SelectionSolver):
    """Deterministic greedy construction plus first-improvement refinement.

    The refinement alternates a 1-flip sweep (every worker toggled) and a
    1-swap sweep (selected worker exchanged for an unselected one) on the
    :class:`~repro.core.selection.IncrementalFitness`, committing the first
    strict improvement found, until a full pass yields none (or the pass
    budget runs out).  No RNG anywhere: rerunning on the same problem gives
    the same answer.
    """

    name = "local-search"

    def __init__(
        self,
        config: "ExperimentConfig | None" = None,
        *,
        max_passes: int | None = None,
    ) -> None:
        super().__init__(config)
        self.max_passes = int(max_passes if max_passes is not None else 10)

    def solve(self, problem: SelectionProblem) -> SelectionResult:
        start = greedy_select(
            problem.batch_sizes,
            problem.label_distributions,
            problem.target_distribution,
            problem.bandwidth_per_sample,
            problem.bandwidth_budget,
            priorities=problem.priorities,
        )
        num_workers = problem.num_workers
        mask = np.zeros(num_workers, dtype=bool)
        mask[np.asarray(start.selected, dtype=np.int64)] = True
        inc = problem.fitness().incremental(mask)
        current = inc.score()
        for __ in range(self.max_passes):
            current, improved = _flip_sweep(inc, current)
            # Swap sweep: for each selected worker, the first unselected
            # replacement (ascending index) that strictly improves -- all
            # candidate replacements scored in one vectorized call.
            state = inc.mask
            for remove in np.flatnonzero(state):
                if not state[remove]:
                    continue
                candidates = np.flatnonzero(~state)
                if candidates.size == 0:
                    continue
                trials = inc.swap_scores(candidates, int(remove))
                better = np.flatnonzero(trials < current)
                if better.size == 0:
                    continue
                add = int(candidates[int(better[0])])
                inc.swap(add, int(remove))
                current = float(trials[int(better[0])])
                state[add] = True
                state[remove] = False
                improved = True
            if not improved:
                break
        return problem.decode(np.flatnonzero(inc.mask))


def build_selection_solver(
    config: "ExperimentConfig",
    name: str | None = None,
    **overrides,
) -> SelectionSolver:
    """Resolve ``config.selector`` (or ``name``) from the registry."""
    solver_name = name if name is not None else getattr(config, "selector", "ga")
    return SELECTION_SOLVERS.get(solver_name)(config, **overrides)
