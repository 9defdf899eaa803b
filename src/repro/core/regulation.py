"""Batch-size fine-tuning under the IID constraint (Alg. 1 line 6, Eq. 14).

After selection, the merged label distribution may still miss the IID
target.  MergeSFL therefore re-adjusts the selected workers' batch sizes to
push ``KL(Phi^h || Phi_0)`` below the threshold ``epsilon`` while adding as
little extra waiting time as possible.  The paper casts this as a Lagrange
dual problem; this implementation solves the equivalent constrained
programme with SciPy's SLSQP on a smooth surrogate of Eq. 14.

SLSQP is handed the gradients of the surrogate and of the KL constraint.
Both are forward differences that take SciPy's own 2-point steps
(:func:`forward_difference`), with all ``n`` perturbed points evaluated in
one batched pass, so the solver walks exactly the iterates it would walk
differencing the scalar functions point by point, without a Python call
per point.  An analytic gradient would be cheaper still, but it moves the
rounded batch sizes.

When SLSQP fails, a penalty search shrinks batches one sample at a time:
the most deviating worker first, among the shrinks that lower the mixture
KL, and it stops when none does, so the fallback never raises the merged
KL.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import optimize

from repro.core.divergence import _EPS, kl_divergence, mixed_label_distribution
from repro.utils.numeric import normalize_distribution

# SLSQP's default finite-difference step, ``sqrt(machine epsilon)``.
_FD_STEP = float(np.sqrt(np.finfo(np.float64).eps))
# Perturbed points per batched call, times the dimension: bounds the
# ``(rows, n, classes)`` temporaries of a wide selection.
_FD_CHUNK = 1 << 16


def forward_difference(
    rows_fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    f0: float,
    lower: float | np.ndarray,
    upper: float | np.ndarray,
) -> np.ndarray:
    """Bounded 2-point gradient of a scalar function, in one batched call.

    Takes the steps of SciPy's ``approx_derivative(fun, x, method="2-point",
    abs_step=sqrt(eps), bounds=(lower, upper))`` and returns the same
    array bit for bit.  A step that would leave the box is flipped when
    the flipped step fits, and otherwise becomes the whole distance to
    the farther bound.

    Args:
        rows_fun: Maps a ``(k, n)`` matrix of points to their ``k`` values;
            it is called on blocks of the ``n`` perturbed points.
        x: The point, inside the bounds.
        f0: The function's value at ``x``.
        lower: Lower bounds (scalar or per coordinate).
        upper: Upper bounds (scalar or per coordinate).

    Returns:
        The ``(n,)`` forward-difference gradient.

    Raises:
        ValueError: If ``x`` lies outside the bounds, as SciPy does.
    """
    x = np.asarray(x, dtype=np.float64)
    if ((x < lower) | (x > upper)).any():
        raise ValueError("`x0` violates bound constraints.")
    # A step lost to rounding at large |x| falls back to a relative one.
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where(
        (x + _FD_STEP) - x == 0, _FD_STEP * sign * np.maximum(1.0, np.abs(x)),
        _FD_STEP,
    )
    below, above = x - lower, upper - x
    fitting = np.abs(h) <= np.maximum(below, above)
    violated = ((x + h) < lower) | ((x + h) > upper)
    h = np.where(violated & fitting, -h, h)
    h = np.where(~fitting & (above >= below), above, h)
    h = np.where(~fitting & (above < below), -below, h)

    diagonal = np.arange(x.size)
    points = np.repeat(x[None, :], x.size, axis=0)
    points[diagonal, diagonal] = x + h
    rows = max(1, _FD_CHUNK // x.size)
    values = np.concatenate([
        rows_fun(points[start:start + rows])
        for start in range(0, x.size, rows)
    ])
    return (values - f0) / ((x + h) - x)


def _smoothed(target: np.ndarray) -> np.ndarray:
    """``target`` as :func:`kl_divergence` smooths its second argument."""
    phi0 = normalize_distribution(target) + _EPS
    return phi0 / phi0.sum()


def _mixture_kl(
    sizes: np.ndarray, distributions: np.ndarray, phi0: np.ndarray
) -> np.ndarray:
    """``KL(mixture || target)`` for each row of ``sizes``.

    Row ``r`` weights ``distributions`` by ``sizes[r]`` (floored at
    ``1e-6``) and takes :func:`kl_divergence` of the mixture against
    ``phi0 = _smoothed(target)``, with the same reductions in the same
    order, so a row's value equals the one-point value bit for bit.
    """
    weights = np.maximum(sizes, 1e-6)
    mixed = (weights[..., None] * distributions).sum(axis=-2)
    mixed = mixed / weights.sum(axis=-1)[..., None]
    if (mixed < 0).any():
        raise ValueError("distribution entries must be non-negative")
    total = mixed.sum(axis=-1, keepdims=True)
    phi = np.divide(
        mixed, total, out=np.full_like(mixed, 1.0 / mixed.shape[-1]),
        where=total > 0,
    )
    phi = phi + _EPS
    phi = phi / phi.sum(axis=-1, keepdims=True)
    return (phi * np.log(phi / phi0)).sum(axis=-1)


def _surrogate_waiting_cost(
    new_sizes: np.ndarray, base_sizes: np.ndarray, durations: np.ndarray
) -> np.ndarray:
    """Smooth surrogate of the added waiting time Delta(S^h) (Eq. 14).

    One value per row of ``new_sizes``.
    """
    deltas = new_sizes - base_sizes
    return np.sum((deltas**2) * durations, axis=-1) / max(len(base_sizes), 1)


def finetune_batch_sizes(
    batch_sizes: np.ndarray,
    selected: np.ndarray | list[int],
    label_distributions: np.ndarray,
    target_distribution: np.ndarray,
    per_sample_durations: np.ndarray,
    kl_threshold: float,
    max_batch_size: int,
    min_batch_size: int = 1,
    penalty_steps: int = 200,
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
        penalty_steps: Iterations of the fallback penalty search.

    Returns:
        A copy of ``batch_sizes`` with the selected entries adjusted
        (integers within ``[min_batch_size, max_batch_size]``).
    """
    result = np.asarray(batch_sizes, dtype=np.float64).copy()
    selected = np.asarray(list(selected), dtype=np.int64)
    if selected.size == 0:
        return result.astype(np.int64)
    label_distributions = np.atleast_2d(np.asarray(label_distributions))
    durations = np.asarray(per_sample_durations, dtype=np.float64)[selected]
    base = result[selected].copy()

    current_phi = mixed_label_distribution(label_distributions, result, selected)
    if kl_divergence(current_phi, target_distribution) <= kl_threshold:
        return result.astype(np.int64)

    sub_dists = label_distributions[selected]
    phi0 = _smoothed(target_distribution)
    lower, upper = float(min_batch_size), float(max_batch_size)

    def slack(sizes: np.ndarray) -> np.ndarray:
        return kl_threshold - _mixture_kl(sizes, sub_dists, phi0)

    def kl_of(sizes: np.ndarray) -> float:
        return float(_mixture_kl(sizes, sub_dists, phi0))

    def objective(sizes: np.ndarray) -> float:
        return float(_surrogate_waiting_cost(sizes, base, durations))

    def objective_jac(sizes: np.ndarray) -> np.ndarray:
        return forward_difference(
            lambda rows: _surrogate_waiting_cost(rows, base, durations),
            sizes, objective(sizes), lower, upper,
        )

    def slack_jac(sizes: np.ndarray) -> np.ndarray:
        # SLSQP may overshoot a bound by an ulp; SciPy clips before it
        # differences a constraint.
        sizes = np.clip(sizes, lower, upper)
        return forward_difference(slack, sizes, float(slack(sizes)), lower, upper)

    solution = None
    try:
        fit = optimize.minimize(
            objective,
            x0=base,
            jac=objective_jac,
            method="SLSQP",
            bounds=[(lower, upper)] * selected.size,
            constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
            options={"maxiter": 200, "ftol": 1e-9},
        )
        if fit.success and kl_of(fit.x) <= kl_threshold * 1.05:
            solution = fit.x
    except (ValueError, RuntimeError):
        solution = None

    if solution is None:
        # Penalty fallback: shrink the batch of the worker whose label
        # distribution deviates most from the target, among the shrinks
        # that lower the mixture KL; stop when none does.
        deviations = np.asarray([
            kl_divergence(dist, target_distribution) for dist in sub_dists
        ])
        order = np.argsort(-deviations)
        sizes = base.copy()
        current = kl_of(sizes)
        for __ in range(penalty_steps):
            if current <= kl_threshold:
                break
            for idx in order:
                if sizes[idx] <= min_batch_size:
                    continue
                sizes[idx] -= 1.0
                shrunk = kl_of(sizes)
                if shrunk < current:
                    current = shrunk
                    break
                sizes[idx] += 1.0
            else:
                break
        solution = sizes

    result[selected] = np.clip(np.round(solution), min_batch_size, max_batch_size)
    return result.astype(np.int64)
