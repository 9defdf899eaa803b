"""Small numeric helpers shared across subsystems."""

from __future__ import annotations

import numpy as np


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Normalise a non-negative vector so it sums to one.

    Returns a probability vector of the same shape; the uniform one when
    ``vector`` sums to zero.
    """
    vec = np.asarray(vector, dtype=np.float64)
    if np.any(vec < 0):
        raise ValueError("distribution entries must be non-negative")
    total = vec.sum()
    if total <= 0:
        return np.full_like(vec, 1.0 / max(vec.size, 1))
    return vec / total


def clamp(value: float, lower: float, upper: float) -> float:
    """``value`` limited to ``[lower, upper]``: ``float(np.clip(value, lower,
    upper))`` for a scalar, NaN included, without NumPy's dispatch."""
    return float(min(max(value, lower), upper))


def safe_divide(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Divide two scalars, returning ``default`` when the denominator is zero."""
    if denominator == 0:
        return default
    return numerator / denominator


def moving_average(previous: float, observation: float, alpha: float) -> float:
    """Exponential moving average used for worker state estimation (Eq. 5-6).

    ``alpha`` weights the previous estimate: ``alpha * previous +
    (1 - alpha) * observation``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * previous + (1.0 - alpha) * observation
