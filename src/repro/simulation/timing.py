"""Round timing model (Eq. 7-8 of the paper, plus the model exchange).

A worker's simulated round has two parts, both computed by
:func:`round_times` and nowhere else: the **regulated** part, Eq. 7's
``tau * d_i * (mu_i + beta_i)`` for ``tau`` local iterations at batch size
``d_i``, on which batch-size regulation (Eq. 9) acts; and the **fixed**
part, ``2 * aggregations * m_i`` for swapping the (bottom) model with the
PS, which Eq. 7 leaves out and every engine here charges.  Whether
regulation should equalise the regulated part alone, as Eq. 9 does, or the
whole round is an open question about the paper (ROADMAP item 4).

The round ends when the slowest worker finishes, or at the straggler
deadline when one is set; every worker that finished earlier idles until
then (Eq. 8).
"""

from __future__ import annotations

import numpy as np


def round_times(per_sample, moves, batches, tau: int, aggregations: int):
    """``(regulated, fixed)`` simulated round times; a round takes their sum.

    ``per_sample`` is ``mu_i + beta_i``, ``moves`` the time ``m_i`` of one
    model move and ``batches`` the batch size ``d_i``, each a scalar or an
    array aligned with the cohort.
    """
    return tau * batches * per_sample, 2 * aggregations * moves


def round_duration(worker_durations, deadline: float | None = None) -> float:
    """Completion time of a round: the slowest worker, capped at the
    deadline, where the server stops waiting and aggregates what arrived."""
    durations = np.asarray(worker_durations, dtype=np.float64)
    if np.any(durations < 0) or (deadline is not None and deadline < 0):
        raise ValueError("durations and deadline must be non-negative")
    if durations.size == 0:
        return 0.0
    full = float(durations.max())
    return full if deadline is None else min(full, float(deadline))


def average_waiting_time(
    worker_durations, deadline: float | None = None
) -> float:
    """Average idle time across workers until the round ends (Eq. 8); a
    worker still running at the deadline does not idle."""
    durations = np.asarray(worker_durations, dtype=np.float64)
    end = round_duration(durations, deadline)
    if durations.size == 0:
        return 0.0
    return float(np.maximum(end - durations, 0.0).mean())
