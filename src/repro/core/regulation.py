"""Batch-size fine-tuning under the IID constraint (Alg. 1 line 6, Eq. 14).

After selection, the merged label distribution may still miss the IID
target.  MergeSFL therefore re-adjusts the selected workers' batch sizes to
push ``KL(Phi^h || Phi_0)`` below the threshold ``epsilon`` while adding as
little extra waiting time as possible.  The paper casts this as a Lagrange
dual problem; this module solves it that way, on a smooth surrogate of
Eq. 14, and certifies the answer.

**Formulation.**  With ``P`` the selected workers' label distributions,
the merged distribution :func:`kl_divergence` scores is
``phi(b) = W^T b / r^T b`` for the smoothed rows ``W = P + eps * rowsum(P)``
and their sums ``r``: linear-fractional in the batch vector ``b``.  So the
constraint ``KL(phi(b) || phi0) <= epsilon`` is ``g(b) <= 0`` for

    g(b) = (r^T b) * (KL(phi(b) || phi0) - epsilon),

the perspective of a convex function minus a linear term: convex in ``b``.
Its gradient is ``W log(phi / phi0) - epsilon * r`` (one ``(n, C)`` pass)
and its Hessian ``M M^T`` has rank below ``C``.  The waiting-time surrogate
``f`` is a separable convex quadratic, so the programme ``min f`` over the
box ``[min_batch_size, D]^n`` subject to ``g <= 0`` is convex with one
optimum.

**Solver.**  A safeguarded Newton search on the one Lagrange multiplier
``lambda`` keeps a bracket ``g(b(lo)) > 0 >= g(b(hi))`` and bisects when a
Newton step would leave it.  Each inner problem ``min f + lambda * g`` over
the box starts from the last point moved along the solution path's tangent
and is solved by Bertsekas' projected Newton method; its Newton system is
the quadratic's diagonal plus ``lambda * M M^T``, a ``C x C`` solve by the
Woodbury identity.

**Certificate.**  Every inner problem is strongly convex (modulus
``mu = min 2 d_i / n``), so a point ``b`` with box-stationarity residual
``e`` proves the dual bound ``f* >= f(b) + lambda g(b) - |e|^2 / (2 mu)``.
The returned point is feasible, and its ``duality_gap`` is ``f(b)`` minus
the best such bound seen, an upper bound on ``f(b) - f*``.

**Infeasible thresholds.**  When ``epsilon`` lies below the box's least KL
(certified by ``g(b) + min_y grad g(b)^T (y - b) > 0``, a Frank-Wolfe bound
on ``min g``), no batch vector meets it.  The solver then returns the
least-KL box point, found by projected Newton on the KL itself (which is
pseudoconvex: a stationary point is a global minimum), and its gap bounds
``KL(b)`` minus the least KL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.divergence import _EPS, kl_divergence, mixed_label_distribution
from repro.utils.numeric import normalize_distribution

#: Relative tolerances: on the duality gap against the cost, and on the
#: box-stationarity residual against the gradient's scale.
_GAP_TOL = 1e-9
_STATIONARITY_TOL = 1e-13
#: Iteration caps of the multiplier search and of one projected-Newton solve.
_MAX_MULTIPLIER_STEPS = 100
_MAX_NEWTON_STEPS = 100
#: Armijo sufficient-decrease constant.
_ARMIJO = 1e-4
#: Relative size of a predicted decrease that function values cannot resolve.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class FinetuneSolution:
    """A certified solution of the line-6 programme, before rounding.

    Attributes:
        sizes: The selected workers' continuous batch sizes.
        multiplier: The Lagrange multiplier ``lambda`` of the KL constraint
            (``nan`` when the threshold is infeasible).
        kl: The merged KL at ``sizes``.
        cost: The waiting-cost surrogate at ``sizes``.
        feasible: Whether a box point meets the threshold.  When it is
            ``False``, ``sizes`` minimise the merged KL over the box.
        kkt_residual: Largest entry of the box-stationarity residual: of
            the Lagrangian's gradient when feasible, of the KL's otherwise.
        duality_gap: Upper bound on ``cost`` minus the optimal cost; when
            infeasible, on ``kl`` minus the least KL.
    """

    sizes: np.ndarray
    multiplier: float
    kl: float
    cost: float
    feasible: bool
    kkt_residual: float
    duality_gap: float


def _smoothed(target: np.ndarray) -> np.ndarray:
    """``target`` as :func:`kl_divergence` smooths its second argument."""
    phi0 = normalize_distribution(target) + _EPS
    return phi0 / phi0.sum()


def _surrogate_waiting_cost(
    new_sizes: np.ndarray, base_sizes: np.ndarray, durations: np.ndarray
) -> np.ndarray:
    """Smooth surrogate of the added waiting time Delta(S^h) (Eq. 14).

    One value per row of ``new_sizes``.
    """
    deltas = new_sizes - base_sizes
    return np.sum((deltas**2) * durations, axis=-1) / max(len(base_sizes), 1)


class _Mixture:
    """``phi(b) = W^T b / r^T b`` and the perspective constraint ``g``."""

    def __init__(self, distributions: np.ndarray, target: np.ndarray) -> None:
        rows = distributions.sum(axis=1)
        self.weights = distributions + _EPS * rows[:, None]
        self.totals = self.weights.sum(axis=1)
        self.log_phi0 = np.log(_smoothed(target))

    def evaluate(self, sizes: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``(KL, r^T b, log(phi / phi0))`` at ``sizes``."""
        mass = sizes @ self.weights
        total = mass.sum()
        log_ratio = np.log(mass / total) - self.log_phi0
        return float(mass @ log_ratio) / total, float(total), log_ratio

    def kl(self, sizes: np.ndarray) -> float:
        return self.evaluate(sizes)[0]

    def constraint(self, sizes: np.ndarray, threshold: float) -> tuple[float, np.ndarray]:
        """``g`` and its gradient for ``KL <= threshold``."""
        kl, total, log_ratio = self.evaluate(sizes)
        return total * (kl - threshold), self.weights @ log_ratio - threshold * self.totals

    def hessian_factor(self, sizes: np.ndarray) -> np.ndarray:
        """``M`` with ``grad^2 g = M M^T``: ``W diag(1/q) W^T - r r^T / r^T b``
        written as ``W q^(-1/2)`` projected off ``q^(1/2)``, ``q = W^T b``."""
        mass = sizes @ self.weights
        root = np.sqrt(mass)
        return self.weights / root - np.outer(self.totals, root) / mass.sum()


def _stationarity(
    x: np.ndarray, gradient: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    """The least-norm element of ``gradient + N_box(x)``."""
    residual = gradient.copy()
    at_lower, at_upper = x <= lower, x >= upper
    residual[at_lower] = np.minimum(gradient[at_lower], 0.0)
    residual[at_upper] = np.maximum(gradient[at_upper], 0.0)
    return residual


def _solve_free(
    diagonal: np.ndarray, factor: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """``(diag(diagonal) + factor factor^T)^-1 rhs`` by Woodbury."""
    scaled_rhs = rhs / diagonal
    scaled = factor / diagonal[:, None]
    capacitance = np.eye(factor.shape[1]) + factor.T @ scaled
    return scaled_rhs - scaled @ np.linalg.solve(capacitance, factor.T @ scaled_rhs)


def _projected_newton(
    x: np.ndarray,
    lower: float,
    upper: float,
    value: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    tolerance: float,
) -> np.ndarray:
    """Bertsekas' projected Newton method for a smooth function on a box.

    ``hessian(x)`` returns ``(diagonal, factor)`` of a positive definite
    ``diag(diagonal) + factor factor^T``.  Coordinates within ``delta`` of
    a bound whose gradient points out of the box take a scaled gradient
    step; the rest take a Newton step on their block, and the projected
    arc is backtracked to an Armijo decrease.  Stops at a box-stationarity
    residual of ``tolerance``, or when the Armijo search no longer finds a
    decrease (rounding level).
    """
    fx, gx = value(x), gradient(x)
    for __ in range(_MAX_NEWTON_STEPS):
        residual = _stationarity(x, gx, lower, upper)
        if np.abs(residual).max() <= tolerance:
            break
        delta = min(1.0, float(np.linalg.norm(x - np.clip(x - gx, lower, upper))))
        fixed = ((x <= lower + delta) & (gx > 0)) | ((x >= upper - delta) & (gx < 0))
        free = ~fixed
        diagonal, factor = hessian(x)
        direction = np.empty_like(x)
        direction[fixed] = -gx[fixed] / (diagonal[fixed] + (factor[fixed] ** 2).sum(axis=1))
        direction[free] = -_solve_free(diagonal[free], factor[free], gx[free])
        step = 1.0
        while True:
            trial = np.clip(x + step * direction, lower, upper)
            predicted = (-step * gx[free] @ direction[free]
                         + gx[fixed] @ (x[fixed] - trial[fixed]))
            f_trial = value(trial)
            if fx - f_trial >= _ARMIJO * predicted:
                g_trial = gradient(trial)
                break
            if predicted <= _ROUNDING * abs(fx):
                # The values no longer resolve the decrease: take the step
                # if it shrinks the residual, else stop at rounding level.
                g_trial = gradient(trial)
                if (np.abs(_stationarity(trial, g_trial, lower, upper)).max()
                        < np.abs(residual).max()):
                    break
                return x
            step *= 0.5
        x, fx, gx = trial, f_trial, g_trial
    return x


def solve_finetune(
    base: np.ndarray,
    distributions: np.ndarray,
    target_distribution: np.ndarray,
    durations: np.ndarray,
    kl_threshold: float,
    lower: float,
    upper: float,
) -> FinetuneSolution:
    """Minimise the waiting surrogate over the box subject to KL <= threshold.

    Args:
        base: The selected workers' Eq. 9 batch sizes.
        distributions: Their label distributions, ``(n, C)``.
        target_distribution: ``Phi_0``.
        durations: Their per-sample durations ``mu_i + beta_i``.
        kl_threshold: ``epsilon``.
        lower: Per-worker floor, positive.
        upper: Per-worker cap ``D``.

    Returns:
        The certified continuous solution (see :class:`FinetuneSolution`).

    Raises:
        ValueError: ``kl_threshold`` is NaN, which no Armijo test resolves.
    """
    if np.isnan(kl_threshold):
        raise ValueError(f"kl_threshold must be a number, got {kl_threshold!r}")
    base = np.clip(np.asarray(base, dtype=np.float64), lower, upper)
    mixture = _Mixture(np.asarray(distributions, dtype=np.float64), target_distribution)
    curvature = 2.0 * np.asarray(durations, dtype=np.float64) / base.size
    modulus = float(curvature.min())
    # The cost's gradient reaches this over the box.
    tolerance = _STATIONARITY_TOL * float(curvature.max()) * (upper - lower)

    def cost(x: np.ndarray) -> float:
        return float(_surrogate_waiting_cost(x, base, durations))

    def lagrangian(multiplier: float):
        def value(x):
            return cost(x) + multiplier * mixture.constraint(x, kl_threshold)[0]

        def gradient(x):
            return curvature * (x - base) + multiplier * mixture.constraint(x, kl_threshold)[1]

        def hessian(x):
            return curvature, np.sqrt(multiplier) * mixture.hessian_factor(x)

        return value, gradient, hessian

    # A Frank-Wolfe bound: min_y g(y) >= g(x) + min_y grad g(x)^T (y - x).
    def constraint_floor(x: np.ndarray, g: float, grad: np.ndarray) -> float:
        return g + float(np.minimum(grad * (lower - x), grad * (upper - x)).sum())

    lo, hi = 0.0, np.inf
    x, x_hi = base, None
    best_bound = -np.inf
    g, grad = mixture.constraint(x, kl_threshold)
    multiplier = 0.0
    for __ in range(_MAX_MULTIPLIER_STEPS):
        if g > 0 and constraint_floor(x, g, grad) > 0:
            break  # certified infeasible
        residual = _stationarity(x, curvature * (x - base) + multiplier * grad, lower, upper)
        best_bound = max(best_bound, cost(x) + multiplier * g
                         - float(residual @ residual) / (2 * modulus))
        if g <= 0:
            hi, x_hi = multiplier, x
            if cost(x) - best_bound <= _GAP_TOL * max(cost(x), 1e-300):
                break
        else:
            lo = multiplier
        if hi - lo <= 1e-15 * hi < np.inf:
            break
        # Newton on the dual.  Off the box's faces the path x(lambda) moves
        # as dx/dlambda = -H^-1 grad g, so dg/dlambda = -grad g^T H^-1 grad g.
        free = (x > lower) & (x < upper)
        tangent = np.zeros_like(x)
        if free.any():
            factor = np.sqrt(multiplier) * mixture.hessian_factor(x)
            tangent[free] = -_solve_free(curvature[free], factor[free], grad[free])
        slope = -float(grad @ tangent)
        # Aim a little inside the constraint, so the step from below lands
        # on a feasible point whose gap -lambda g is within tolerance.
        aim = -0.25 * _GAP_TOL * max(cost(x), 1e-300) / multiplier if multiplier > 0 else 0.0
        guess = multiplier + (g - aim) / slope if slope > 0 else np.inf
        if not lo < guess < hi:
            guess = 4.0 * max(lo, 1e-8) if hi == np.inf else (
                np.sqrt(lo * hi) if lo > 0 else hi / 16.0)
        # Predict along the path, then correct by projected Newton.
        x = np.clip(x + (guess - multiplier) * tangent, lower, upper)
        multiplier = guess
        value, gradient, hessian = lagrangian(multiplier)
        x = _projected_newton(x, lower, upper, value, gradient, hessian, tolerance)
        g, grad = mixture.constraint(x, kl_threshold)

    if x_hi is None:
        x, kkt_residual, kl_gap = _least_kl(x, mixture, lower, upper)
        kl = mixture.kl(x)
        if kl > kl_threshold:
            return FinetuneSolution(
                sizes=x, multiplier=float("nan"), kl=kl, cost=cost(x), feasible=False,
                kkt_residual=kkt_residual, duality_gap=kl_gap,
            )
        # The least-KL point meets a threshold at the edge of feasibility;
        # only the dual bounds seen so far certify its cost.
        hi, x_hi = lo, x
    value, gradient, __ = lagrangian(hi)
    residual = _stationarity(x_hi, gradient(x_hi), lower, upper)
    return FinetuneSolution(
        sizes=x_hi, multiplier=hi, kl=mixture.kl(x_hi), cost=cost(x_hi),
        feasible=True, kkt_residual=float(np.abs(residual).max()),
        duality_gap=max(cost(x_hi) - best_bound, 0.0),
    )


def _least_kl(
    x: np.ndarray, mixture: _Mixture, lower: float, upper: float
) -> tuple[np.ndarray, float, float]:
    """The least-KL box point from ``x``, its KKT residual and KL gap.

    Projected Newton on the KL itself, with the curvature of ``g`` at
    ``epsilon = KL(x)`` over ``r^T b`` as its Hessian, plus a small multiple
    of the identity that keeps it definite.
    """

    def gradient(x):
        kl, total, log_ratio = mixture.evaluate(x)
        return (mixture.weights @ log_ratio - kl * mixture.totals) / total

    def hessian(x):
        factor = mixture.hessian_factor(x) / np.sqrt(float(x @ mixture.totals))
        ridge = 1e-8 * float((factor**2).sum(axis=1).mean()) + 1e-300
        return np.full(x.size, ridge), factor

    # The gradient's two terms reach this size before they cancel.
    __, total, log_ratio = mixture.evaluate(x)
    scale = float(np.abs(log_ratio).max() * mixture.totals.max()) / total
    x = _projected_newton(x, lower, upper, mixture.kl, gradient, hessian,
                          _STATIONARITY_TOL * scale)
    grad = gradient(x)
    # KL(y) - KL(x) = g(y) / r^T y at epsilon = KL(x), and g's Frank-Wolfe
    # bound is (r^T x) min_y grad^T (y - x), over min_y r^T y.
    floor = float(np.minimum(grad * (lower - x), grad * (upper - x)).sum())
    kl_gap = max(-floor * float(x @ mixture.totals) / (lower * mixture.totals.sum()), 0.0)
    return x, float(np.abs(_stationarity(x, grad, lower, upper)).max()), kl_gap


def tune_batch_sizes(
    batch_sizes: np.ndarray,
    selected: np.ndarray | list[int],
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    per_sample_durations: np.ndarray,
    kl_threshold: float,
    max_batch_size: int,
    min_batch_size: int = 1,
) -> tuple[np.ndarray, FinetuneSolution | None]:
    """:func:`finetune_batch_sizes` and the solution it rounded.

    The solution is ``None`` when the merged KL already meets the threshold
    (or nothing is selected), so the solver did not run.
    """
    result = np.asarray(batch_sizes, dtype=np.float64).copy()
    selected = np.asarray(list(selected), dtype=np.int64)
    if selected.size == 0:
        return result.astype(np.int64), None
    label_distributions = np.atleast_2d(np.asarray(label_distributions))
    current_phi = mixed_label_distribution(label_distributions, result, selected)
    current_kl = kl_divergence(current_phi, target_distribution)
    if current_kl <= kl_threshold:
        return result.astype(np.int64), None

    solution = solve_finetune(
        result[selected], label_distributions[selected], target_distribution,
        np.asarray(per_sample_durations, dtype=np.float64)[selected], kl_threshold,
        # The mixture weights floor batch sizes at 1e-6 (kl_divergence of
        # an all-zero mixture is not the perspective's limit).
        max(float(min_batch_size), 1e-6), float(max_batch_size),
    )
    tuned = result.copy()
    tuned[selected] = np.clip(np.round(solution.sizes), min_batch_size, max_batch_size)
    # Rounding can undo a small continuous gain; line 6 never raises the KL.
    tuned_phi = mixed_label_distribution(label_distributions, tuned, selected)
    if kl_divergence(tuned_phi, target_distribution) > current_kl:
        tuned = result
    return tuned.astype(np.int64), solution


def finetune_batch_sizes(
    batch_sizes: np.ndarray,
    selected: np.ndarray | list[int],
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    per_sample_durations: np.ndarray,
    kl_threshold: float,
    max_batch_size: int,
    min_batch_size: int = 1,
) -> np.ndarray:
    """Fine-tune the selected workers' batch sizes so KL <= threshold.

    Args:
        batch_sizes: Full-length batch-size vector from Eq. 9.
        selected: Worker indices in ``S^h``.
        label_distributions: ``(num_workers, num_classes)`` matrix of V_i.
        target_distribution: ``Phi_0``.
        per_sample_durations: Estimated ``mu_i + beta_i`` per worker.
        kl_threshold: ``epsilon``.
        max_batch_size: Per-worker cap ``D``.
        min_batch_size: Per-worker floor.

    Returns:
        A copy of ``batch_sizes`` with the selected entries adjusted
        (integers within ``[min_batch_size, max_batch_size]``): the
        rounded optimum of Eq. 14's surrogate, or the rounded least-KL
        point when no batch sizes in the box meet the threshold.  When
        rounding would raise the merged KL, the sizes stay as given.
    """
    return tune_batch_sizes(
        batch_sizes, selected, label_distributions, target_distribution,
        per_sample_durations, kl_threshold, max_batch_size, min_batch_size,
    )[0]
