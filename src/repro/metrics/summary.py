"""Summary statistics over training histories (the paper's three metrics)."""

from __future__ import annotations

import numpy as np

from repro.metrics.history import History


def final_accuracy(history: History) -> float:
    """Test accuracy after the last round (the paper's 'final test accuracy')."""
    if not history.records:
        return 0.0
    return history.records[-1].test_accuracy


def best_accuracy(history: History) -> float:
    """Best test accuracy observed during training."""
    if not history.records:
        return 0.0
    return max(history.accuracies)


def time_to_accuracy(history: History, target: float) -> float | None:
    """Simulated seconds until the target accuracy is first reached.

    Returns ``None`` if the target was never reached.
    """
    for record in history.records:
        if record.test_accuracy >= target:
            return record.sim_time
    return None


def traffic_to_accuracy(history: History, target: float) -> float | None:
    """Cumulative traffic (MB) when the target accuracy is first reached."""
    for record in history.records:
        if record.test_accuracy >= target:
            return record.traffic_mb
    return None


def mean_waiting_time(history: History) -> float:
    """Average per-round waiting time over the whole run."""
    if not history.records:
        return 0.0
    return float(np.mean(history.waiting_times))


def speedup(baseline: History, candidate: History, target: float) -> float | None:
    """Ratio of baseline to candidate time-to-accuracy (>1 means faster).

    Returns ``None`` if either run never reaches the target.
    """
    baseline_time = time_to_accuracy(baseline, target)
    candidate_time = time_to_accuracy(candidate, target)
    if baseline_time is None or candidate_time is None or candidate_time == 0:
        return None
    return baseline_time / candidate_time


def participation_summary(history: History) -> dict:
    """Aggregate the per-round participation history of a run.

    Uses the ``selected_ids`` recorded per round, so it works for eager and
    lazy populations alike (and for histories loaded from checkpoints).

    Returns:
        ``distinct_workers`` (how many workers ever participated),
        ``total_selections`` (sum of cohort sizes), ``mean_cohort`` /
        ``max_cohort`` (per-round cohort statistics) and ``selections``
        (mapping from worker id to times selected).
    """
    selections: dict[int, int] = {}
    cohorts = []
    for record in history.records:
        cohorts.append(len(record.selected_ids))
        for worker_id in record.selected_ids:
            selections[worker_id] = selections.get(worker_id, 0) + 1
    return {
        "distinct_workers": len(selections),
        "total_selections": int(np.sum(cohorts)) if cohorts else 0,
        "mean_cohort": float(np.mean(cohorts)) if cohorts else 0.0,
        "max_cohort": int(np.max(cohorts)) if cohorts else 0,
        "selections": selections,
    }


def cache_hit_rate(history: History) -> float:
    """Fraction of worker materialisations served by the delta cache.

    ``0.0`` when the run recorded no cache events (eager populations,
    disabled caches, or an empty history).
    """
    hits = sum(record.cache_hits for record in history.records)
    misses = sum(record.cache_misses for record in history.records)
    if hits + misses == 0:
        return 0.0
    return hits / (hits + misses)


def mean_dropout_rate(history: History) -> float:
    """Average per-round dropout rate (0.0 for non-elastic runs)."""
    if not history.records:
        return 0.0
    return float(np.mean([record.dropout_rate for record in history.records]))


def mean_effective_cohort(history: History) -> float:
    """Average number of updates entering the per-round aggregate.

    Records written before elasticity existed (or by non-elastic runs of
    older versions) carry ``effective_cohort == 0``; those fall back to
    ``num_selected``, which is what the synchronous engines aggregated.
    """
    if not history.records:
        return 0.0
    return float(
        np.mean([
            record.effective_cohort if record.effective_cohort > 0
            else record.num_selected
            for record in history.records
        ])
    )


def schedule_divergence(relaxed: History, exact: History) -> dict:
    """Convergence delta of a relaxed run against its exact reference.

    Compares per-round test accuracy of a run under a relaxation (a lossy
    codec, churn) against the exact run of the same configuration, so the
    relaxation's cost is a measured number rather than a hope.

    Returns:
        ``per_round`` (absolute accuracy deltas over the common prefix),
        ``max`` (worst per-round delta) and ``final`` (absolute delta of the
        final accuracies).
    """
    rounds = min(len(relaxed.records), len(exact.records))
    per_round = [
        abs(relaxed.records[i].test_accuracy - exact.records[i].test_accuracy)
        for i in range(rounds)
    ]
    return {
        "per_round": per_round,
        "max": max(per_round) if per_round else 0.0,
        "final": abs(final_accuracy(relaxed) - final_accuracy(exact)),
    }


def compare_histories(
    histories: dict[str, History], target: float | None = None
) -> dict[str, dict[str, float | None]]:
    """Tabulate final accuracy, waiting time and time/traffic-to-accuracy.

    Args:
        histories: Mapping from approach name to its history.
        target: Accuracy target; when omitted, the highest accuracy reached
            by every approach is used, so every row is populated.

    Returns:
        Mapping from approach name to a metric dictionary.
    """
    if target is None and histories:
        ceilings = [best_accuracy(history) for history in histories.values()]
        target = min(ceilings) if ceilings else 0.0
    table: dict[str, dict[str, float | None]] = {}
    for name, history in histories.items():
        table[name] = {
            "final_accuracy": final_accuracy(history),
            "best_accuracy": best_accuracy(history),
            "time_to_target_s": time_to_accuracy(history, target),
            "traffic_to_target_mb": traffic_to_accuracy(history, target),
            "mean_waiting_time_s": mean_waiting_time(history),
            "total_time_s": history.records[-1].sim_time if history.records else 0.0,
            "total_traffic_mb": history.records[-1].traffic_mb if history.records else 0.0,
        }
    return table
