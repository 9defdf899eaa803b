"""Batch size regulation (Eq. 9) and bandwidth scaling (Eq. 10 / Alg. 1 line 7)."""

from __future__ import annotations

import numpy as np


def regulate_batch_sizes(
    per_sample_durations: np.ndarray,
    max_batch_size: int,
    min_batch_size: int = 1,
) -> np.ndarray:
    """Assign per-worker batch sizes proportional to worker speed (Eq. 9).

    The fastest worker ``l`` (smallest ``mu_l + beta_l``) receives the
    default maximum batch size ``D``; every other worker receives
    ``D * floor((mu_l + beta_l) / (mu_i + beta_i))`` so all workers finish an
    iteration in roughly the same time.  The paper's floor is applied to the
    whole product so slow workers still receive at least ``min_batch_size``.

    Args:
        per_sample_durations: Estimated ``mu_i + beta_i`` per worker (seconds).
        max_batch_size: ``D``, given to the fastest worker.
        min_batch_size: Lower clamp (paper implicitly uses >= 1).

    Returns:
        Integer batch sizes, one per worker.
    """
    durations = np.asarray(per_sample_durations, dtype=np.float64)
    if durations.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(durations <= 0):
        raise ValueError("per-sample durations must be positive")
    if max_batch_size < min_batch_size:
        raise ValueError("max_batch_size must be >= min_batch_size")
    fastest = durations.min()
    # The small epsilon absorbs floating-point error so the fastest worker's
    # ratio of exactly 1.0 is not floored down to D - 1.
    raw = np.floor(max_batch_size * fastest / durations + 1e-9)
    return np.clip(raw, min_batch_size, max_batch_size).astype(np.int64)


def scale_to_bandwidth(
    batch_sizes: np.ndarray,
    selected: np.ndarray | list[int],
    bandwidth_per_sample: float,
    bandwidth_budget: float,
    max_batch_size: int,
    min_batch_size: int = 1,
) -> np.ndarray:
    """Proportionally rescale selected workers' batches to fill the budget.

    Implements line 7 of Alg. 1: after fine-tuning, batch sizes are scaled
    up or down by a common factor so the occupied ingress bandwidth
    ``c * sum_i d_i`` approaches, but never exceeds, the budget ``B^h``.

    Args:
        batch_sizes: Current per-worker batch sizes (full-length vector).
        selected: Worker indices in ``S^h``.
        bandwidth_per_sample: ``c`` -- ingress bandwidth occupied per sample.
        bandwidth_budget: ``B^h``.
        max_batch_size: Per-worker cap ``D``.
        min_batch_size: Per-worker floor.

    Returns:
        A copy of ``batch_sizes`` with the selected entries rescaled.
    """
    if bandwidth_per_sample <= 0:
        raise ValueError("bandwidth_per_sample must be positive")
    if bandwidth_budget <= 0:
        raise ValueError("bandwidth_budget must be positive")
    result = np.asarray(batch_sizes, dtype=np.int64).copy()
    selected = np.asarray(list(selected), dtype=np.int64)
    if selected.size == 0:
        return result
    current = float(result[selected].sum()) * bandwidth_per_sample
    if current <= 0:
        return result
    factor = bandwidth_budget / current
    scaled = np.floor(result[selected] * factor).astype(np.int64)
    scaled = np.clip(scaled, min_batch_size, max_batch_size)
    # Flooring may overshoot after clipping upward; trim greedily if needed.
    while scaled.sum() * bandwidth_per_sample > bandwidth_budget and scaled.max() > min_batch_size:
        scaled[int(np.argmax(scaled))] -= 1
    result[selected] = scaled
    return result


def occupied_bandwidth(
    batch_sizes: np.ndarray,
    selected: np.ndarray | list[int],
    bandwidth_per_sample: float,
) -> float:
    """Ingress bandwidth consumed by the selected workers (lhs of Eq. 10)."""
    selected = np.asarray(list(selected), dtype=np.int64)
    if selected.size == 0:
        return 0.0
    return float(np.asarray(batch_sizes)[selected].sum()) * bandwidth_per_sample
