"""Tests for priorities, GA/greedy worker selection and batch fine-tuning."""

import contextlib
import signal

import numpy as np
import pytest

from repro.core.batching import occupied_bandwidth
from repro.core.divergence import (
    _EPS, iid_distribution, kl_divergence, mixed_label_distribution,
)
from repro.core.regulation import finetune_batch_sizes, solve_finetune, tune_batch_sizes
from repro.core.selection import (
    PopulationFitness,
    _fitness,
    decode_selection,
    genetic_select,
    greedy_select,
    selection_priorities,
)
from repro.exceptions import SelectionError
from repro.utils.numeric import normalize_distribution
from repro.utils.rng import new_rng


@contextlib.contextmanager
def _deadline(seconds: float):
    """Turn a hang into a failure: SIGALRM raises after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def _reference_genetic_select(
    batch_sizes, label_distributions, target_distribution,
    bandwidth_per_sample, bandwidth_budget, priorities, population_size=20,
    generations=15, mutation_rate=0.05, seed_fraction=0.5, rng=None,
):
    """The GA as it bred before one (P, N) array held a generation: a list
    of individuals, argmin tournaments and two ``rng.random(N)`` draws per
    child.  Kept as the reference :func:`genetic_select` must equal."""
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    num_workers = batch_sizes.shape[0]
    fitness = PopulationFitness(
        batch_sizes, label_distributions, target_distribution,
        bandwidth_per_sample, bandwidth_budget,
    )
    seed_count = max(1, int(round(seed_fraction * num_workers)))
    priority_order = np.argsort(-np.asarray(priorities, dtype=np.float64))
    seed_mask = np.zeros(num_workers, dtype=bool)
    seed_mask[priority_order[:seed_count]] = True

    population = [seed_mask.copy()]
    for __ in range(population_size - 1):
        individual = seed_mask.copy()
        flips = rng.random(num_workers) < 0.25
        individual[flips] = ~individual[flips]
        if not individual.any():
            individual[int(rng.integers(num_workers))] = True
        population.append(individual)

    scores = fitness.evaluate(np.stack(population))

    for __ in range(generations):
        new_population = [population[int(np.argmin(scores))].copy()]
        while len(new_population) < population_size:
            contenders = rng.integers(0, population_size, size=4)
            parent_a = population[int(contenders[:2][np.argmin(scores[contenders[:2]])])]
            parent_b = population[int(contenders[2:][np.argmin(scores[contenders[2:]])])]
            crossover = rng.random(num_workers) < 0.5
            child = np.where(crossover, parent_a, parent_b)
            flips = rng.random(num_workers) < mutation_rate
            child = np.where(flips, ~child, child)
            if not child.any():
                child[int(rng.integers(num_workers))] = True
            new_population.append(child)
        population = new_population
        scores = fitness.evaluate(np.stack(population))

    best = population[int(np.argmin(scores))]
    return decode_selection(
        np.flatnonzero(best), batch_sizes, label_distributions,
        target_distribution, bandwidth_per_sample, bandwidth_budget,
    )


class _CountingRng:
    """A generator that counts the GA's empty-child repair draws (its only
    ``integers`` calls without ``size``)."""

    def __init__(self, seed):
        self._rng = new_rng(seed)
        self.repairs = 0

    def random(self, size):
        return self._rng.random(size)

    def integers(self, *args, **kwargs):
        if "size" not in kwargs:
            self.repairs += 1
        return self._rng.integers(*args, **kwargs)

    @property
    def state(self):
        return self._rng.bit_generator.state


def _assert_breeds_as_reference(args, priorities, seed, **knobs) -> int:
    """Same seed, same selection, KL and feasibility, and the generator
    left in the same state; returns the repair draws the run made."""
    reference_rng, rng = _CountingRng(seed), _CountingRng(seed)
    reference = _reference_genetic_select(
        *args, priorities, rng=reference_rng, **knobs
    )
    result = genetic_select(*args, priorities=priorities, rng=rng, **knobs)
    assert result.selected.tobytes() == reference.selected.tobytes()
    assert result.kl == reference.kl
    assert result.feasible == reference.feasible
    assert rng.state == reference_rng.state
    assert rng.repairs == reference_rng.repairs
    return rng.repairs


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

    @pytest.mark.parametrize("num_classes", [2, 4, 10])
    @pytest.mark.parametrize("num_workers", [1, 2, 13, 64, 1000, 1200])
    def test_breeding_matches_the_reference_loop(self, num_workers, num_classes):
        """Loose and infeasible budgets, tied and distinct priorities, and
        a population of one (the seed individual and no children)."""
        rng = new_rng(1000 * num_workers + num_classes)
        batch_sizes = rng.integers(1, 17, size=num_workers)
        dists = rng.dirichlet(np.ones(num_classes), size=num_workers)
        target = iid_distribution(dists)
        for budget in (2.0 * batch_sizes.sum(), 0.5 * batch_sizes.min()):
            args = (batch_sizes, dists, target, 1.0, budget)
            for priorities in (np.ones(num_workers),
                               selection_priorities(rng.integers(0, 3, num_workers))):
                _assert_breeds_as_reference(
                    args, priorities, seed=int(rng.integers(2**31)),
                )
            _assert_breeds_as_reference(
                args, np.ones(num_workers), seed=int(rng.integers(2**31)),
                population_size=1, generations=2,
            )

    @pytest.mark.parametrize("num_workers", [13, 64])
    def test_a_tied_tournament_picks_the_first_contender(self, num_workers):
        """Identical workers make distinct masks of one size score the same
        bits, so tournaments tie between different parents; the first
        contender wins, as argmin over the pair picks it."""
        dists = np.tile([[0.7, 0.2, 0.1]], (num_workers, 1))
        batch_sizes = np.full(num_workers, 8)
        target = np.array([0.2, 0.3, 0.5])
        # The seed selects half the workers; the budget fits three quarters.
        args = (batch_sizes, dists, target, 1.0, 6.0 * num_workers)
        for seed in range(4):
            _assert_breeds_as_reference(args, np.ones(num_workers), seed)

    @pytest.mark.parametrize("population_size,generations,mutation_rate", [
        (2, 3, 0.05), (6, 4, 0.9), (20, 15, 0.05),
    ])
    def test_the_empty_child_repair_draw_is_reproduced(
        self, population_size, generations, mutation_rate
    ):
        """One- and two-worker fleets empty a child often; each repair is
        one ``rng.integers`` draw, made at the same point of the stream."""
        repairs = 0
        for num_workers in (1, 2):
            dists, batch_sizes, target = _skewed_problem(num_workers, 2, seed=7)
            args = (batch_sizes, dists, target, 1.0, 2.0 * batch_sizes.sum())
            for seed in range(5):
                repairs += _assert_breeds_as_reference(
                    args, np.ones(num_workers), seed,
                    population_size=population_size, generations=generations,
                    mutation_rate=mutation_rate,
                )
        assert repairs > 0

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

    @pytest.mark.parametrize("num_workers,num_classes,rows", [
        (1000, 4, 20),     # a fleet_mlp plan's population
        (1000, 4, 1), (64, 10, 1), (1000, 4, 40), (1200, 10, 40), (13, 2, 40),
    ])
    def test_population_shapes_match_scalar_fitness(
        self, num_workers, num_classes, rows
    ):
        """Every row is the scalar fitness of its mask, and an incremental
        evaluator anchored at it scores it the same, bit for bit."""
        rng = new_rng(rows * num_workers + num_classes)
        batch_sizes, dists, target = self._random_problem(rng, num_workers, num_classes)
        budget = 0.3 * 16.0 * num_workers
        fitness = PopulationFitness(batch_sizes, dists, target, 0.3, budget)
        masks = rng.random((rows, num_workers)) < rng.uniform(0.05, 0.95, (rows, 1))
        scores = fitness.evaluate(masks)
        reference = np.asarray([
            _fitness(mask, np.asarray(batch_sizes, dtype=np.int64),
                     np.atleast_2d(dists), target, 0.3, budget)
            for mask in masks
        ])
        assert scores.tobytes() == reference.tobytes()
        for mask, score in zip(masks, scores):
            assert fitness.incremental(mask).score() == score

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


def _kl(sizes, sub_dists, target):
    """The merged KL of continuous batch sizes, as ``kl_divergence`` scores it."""
    weights = np.clip(sizes, 1e-6, None)
    mixed = (weights[:, None] * sub_dists).sum(axis=0) / weights.sum()
    return kl_divergence(mixed, target)


def _cost(sizes, base, durations):
    """The waiting-time surrogate of Eq. 14 the solver minimises."""
    return float(np.sum((sizes - base) ** 2 * durations) / len(base))


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


def _reduced(problem):
    """The selected rows of an instance, as ``solve_finetune`` takes them."""
    selected = problem["selected"]
    return dict(
        base=problem["batch_sizes"][selected].astype(np.float64),
        distributions=problem["label_distributions"][selected],
        target_distribution=problem["target_distribution"],
        durations=problem["per_sample_durations"][selected],
        kl_threshold=problem["kl_threshold"],
        lower=1.0, upper=float(problem["max_batch_size"]),
    )


def _penalty_fallback(base, sub_dists, target, threshold, steps=200):
    """The retired SLSQP fallback: shrink the most deviating worker's batch
    one sample at a time, among the shrinks that lower the merged KL."""
    deviations = np.asarray([kl_divergence(dist, target) for dist in sub_dists])
    sizes = base.copy()
    current = _kl(sizes, sub_dists, target)
    for __ in range(steps):
        if current <= threshold:
            break
        for idx in np.argsort(-deviations):
            if sizes[idx] <= 1:
                continue
            sizes[idx] -= 1.0
            shrunk = _kl(sizes, sub_dists, target)
            if shrunk < current:
                current = shrunk
                break
            sizes[idx] += 1.0
        else:
            break
    return sizes


#: Instances per certificate check.
CERTIFIED = 1000
#: The stated certificate tolerances: KKT residual (absolute, in units of
#: the gradient) and duality gap (relative to the cost, or to the KL when
#: the threshold is infeasible, with an absolute floor for near-zero costs).
KKT_TOL = 1e-9
GAP_TOL = 1e-8
GAP_FLOOR = 1e-11


@pytest.fixture(scope="module")
def certified():
    """``CERTIFIED`` seeded instances whose merged KL starts above epsilon
    (the rest never reach the solver), each with its solution."""
    rng = new_rng(11)
    solved = []
    while len(solved) < CERTIFIED:
        reduced = _reduced(_regulation_instance(rng))
        if _kl(reduced["base"], reduced["distributions"],
               reduced["target_distribution"]) <= reduced["kl_threshold"]:
            continue
        solved.append((reduced, solve_finetune(**reduced)))
    return solved


class TestFinetuneCertificate:
    def test_kkt_residual_and_duality_gap_are_within_tolerance(self, certified):
        for __, solution in certified:
            assert solution.kkt_residual <= KKT_TOL
            # Feasible: a bound on the cost's excess; infeasible: on the KL's.
            excess = solution.cost if solution.feasible else solution.kl
            assert solution.duality_gap <= GAP_TOL * excess + GAP_FLOOR

    def test_both_outcomes_occur(self, certified):
        # About one threshold in seven lies below the box's least KL.
        infeasible = sum(not solution.feasible for __, solution in certified)
        assert 0.05 * CERTIFIED < infeasible < 0.3 * CERTIFIED

    def test_a_feasible_solution_meets_the_threshold(self, certified):
        for reduced, solution in certified:
            if solution.feasible:
                kl = _kl(solution.sizes, reduced["distributions"],
                         reduced["target_distribution"])
                assert kl <= reduced["kl_threshold"] * (1 + 1e-9)
                assert solution.multiplier > 0
                assert solution.cost == pytest.approx(_cost(
                    solution.sizes, reduced["base"], reduced["durations"]), rel=1e-12)

    def test_an_infeasible_threshold_lies_below_the_certified_least_kl(self, certified):
        for reduced, solution in certified:
            if not solution.feasible:
                assert solution.kl - solution.duality_gap > reduced["kl_threshold"]
                assert solution.kl == pytest.approx(_kl(
                    solution.sizes, reduced["distributions"],
                    reduced["target_distribution"]), rel=1e-9)

    def test_solutions_stay_in_the_box(self, certified):
        for reduced, solution in certified:
            assert np.all(solution.sizes >= reduced["lower"])
            assert np.all(solution.sizes <= reduced["upper"])

    def test_no_worse_than_slsqp_where_slsqp_meets_the_threshold(self, certified):
        # SciPy is a test-only reference: SLSQP on the same programme, with
        # the cost's and the KL's exact gradients.
        optimize = pytest.importorskip("scipy.optimize")
        compared = 0
        for reduced, solution in certified:
            base, dists = reduced["base"], reduced["distributions"]
            target, threshold = reduced["target_distribution"], reduced["kl_threshold"]
            durations = reduced["durations"]
            weights = dists + _EPS * dists.sum(axis=1)[:, None]
            phi0 = normalize_distribution(target) + _EPS
            phi0 = phi0 / phi0.sum()

            def slack_jac(sizes):
                mass = np.clip(sizes, 1e-6, None) @ weights
                log_ratio = np.log(mass / mass.sum() / phi0)
                kl = mass @ log_ratio / mass.sum()
                return -(weights @ log_ratio - kl * weights.sum(axis=1)) / mass.sum()

            fit = optimize.minimize(
                lambda sizes: _cost(sizes, base, durations), x0=base,
                jac=lambda sizes: 2 * durations * (sizes - base) / len(base),
                method="SLSQP",
                bounds=[(reduced["lower"], reduced["upper"])] * len(base),
                constraints=[{"type": "ineq",
                              "fun": lambda sizes: threshold - _kl(sizes, dists, target),
                              "jac": slack_jac}],
                options={"maxiter": 200, "ftol": 1e-9},
            )
            overshoot = _kl(fit.x, dists, target) - threshold
            if overshoot > 1e-6 * threshold:
                continue
            compared += 1
            assert solution.feasible
            assert _kl(solution.sizes, dists, target) <= threshold * (1 + 1e-9)
            # Weak duality: f(y) + lambda g(y) >= f* >= f(x) - gap for every
            # box point y, and SLSQP's may overshoot epsilon by a rounding.
            allowance = solution.multiplier * (fit.x @ weights.sum(axis=1)) * max(overshoot, 0.0)
            assert (solution.cost
                    <= _cost(fit.x, base, durations) + allowance + solution.duality_gap
                    + GAP_FLOOR)
        assert compared >= 0.7 * CERTIFIED

    def test_an_infeasible_threshold_gets_no_higher_kl_than_the_old_fallback(
            self, certified):
        checked = 0
        for reduced, solution in certified:
            if solution.feasible:
                continue
            dists, target = reduced["distributions"], reduced["target_distribution"]
            fallback = _penalty_fallback(reduced["base"], dists, target,
                                         reduced["kl_threshold"])
            assert _kl(solution.sizes, dists, target) <= _kl(fallback, dists, target) + 1e-12
            checked += 1
        assert checked > 0

    def test_the_rounded_solution_never_raises_the_merged_kl(self):
        rng = new_rng(13)
        rounded = kept = 0
        for index in range(CERTIFIED):
            problem = _regulation_instance(rng)
            selected = problem["selected"]
            dists, target = problem["label_distributions"], problem["target_distribution"]
            tuned, solution = tune_batch_sizes(**problem)
            if index < 50:
                assert np.array_equal(tuned, finetune_batch_sizes(**problem))
            untouched = np.setdiff1d(np.arange(len(tuned)), selected)
            assert np.array_equal(tuned[untouched], problem["batch_sizes"][untouched])
            if solution is None:
                continue
            before = kl_divergence(
                mixed_label_distribution(dists, problem["batch_sizes"], selected), target)
            after = kl_divergence(mixed_label_distribution(dists, tuned, selected), target)
            assert after <= before
            expected = np.clip(np.round(solution.sizes), 1, problem["max_batch_size"])
            if np.array_equal(tuned[selected], expected):
                rounded += 1
            else:
                # Rounding raised the KL, so the sizes stayed as given.
                assert np.array_equal(tuned, problem["batch_sizes"])
                kept += 1
        assert rounded > 0.9 * CERTIFIED and kept > 0

    def test_a_nan_threshold_fails_at_once(self):
        """NaN fails every comparison, so the Armijo search never ended."""
        dists, batch_sizes, target = _skewed_problem()
        with _deadline(10), pytest.raises(ValueError, match="kl_threshold"):
            solve_finetune(batch_sizes.astype(np.float64), dists, target,
                           np.full(8, 0.1), float("nan"), 1.0, 16.0)

    def test_one_worker_cannot_move_the_mixture(self):
        # Its batch size does not change the merged distribution: the
        # threshold is infeasible and every box point is a least-KL point.
        dists = np.array([[0.9, 0.1], [0.2, 0.8]])
        solution = solve_finetune(np.array([5.0]), dists[:1], np.array([0.5, 0.5]),
                                  np.array([0.1]), 0.01, 1.0, 8.0)
        assert not solution.feasible
        assert solution.sizes.tolist() == [5.0]
        assert solution.duality_gap <= GAP_FLOOR

    def test_a_wide_selection_is_solved_and_certified(self):
        # The regulation probe's size: 200 selected workers, 10 classes.
        rng = new_rng(3)
        dists = rng.dirichlet([0.2] * 10, size=200)
        base = rng.integers(4, 17, size=200).astype(np.float64)
        target = iid_distribution(dists)
        threshold = 0.5 * _kl(base, dists, target)
        durations = rng.uniform(0.01, 0.05, size=200)
        solution = solve_finetune(base, dists, target, durations, threshold, 1.0, 16.0)
        assert solution.feasible
        assert solution.kkt_residual <= KKT_TOL
        assert solution.duality_gap <= GAP_TOL * solution.cost + GAP_FLOOR
        assert _kl(solution.sizes, dists, target) <= threshold * (1 + 1e-9)
