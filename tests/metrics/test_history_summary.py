"""Tests for training history and summary metrics."""

import pytest

from repro.metrics.history import History, RoundRecord
from repro.metrics.summary import (
    best_accuracy,
    compare_histories,
    final_accuracy,
    mean_waiting_time,
    schedule_divergence,
    speedup,
    time_to_accuracy,
    traffic_to_accuracy,
)


def _history(accuracies, algorithm="test"):
    history = History(algorithm=algorithm)
    for index, accuracy in enumerate(accuracies):
        history.append(RoundRecord(
            round_index=index,
            sim_time=10.0 * (index + 1),
            duration=10.0,
            waiting_time=1.0 + index,
            traffic_mb=5.0 * (index + 1),
            train_loss=1.0 / (index + 1),
            test_loss=1.0,
            test_accuracy=accuracy,
            num_selected=4,
            total_batch=32,
        ))
    return history


class TestHistory:
    def test_append_len_iter_getitem(self):
        history = _history([0.1, 0.2])
        assert len(history) == 2
        assert history[1].test_accuracy == 0.2
        assert [r.round_index for r in history] == [0, 1]

    def test_accessors(self):
        history = _history([0.1, 0.4])
        assert history.accuracies == [0.1, 0.4]
        assert history.times == [10.0, 20.0]
        assert history.traffic == [5.0, 10.0]
        assert history.waiting_times == [1.0, 2.0]

    def test_dict_roundtrip(self):
        history = _history([0.3, 0.6], algorithm="mergesfl")
        clone = History.from_dict(history.to_dict())
        assert clone.algorithm == "mergesfl"
        assert clone.accuracies == history.accuracies

    def test_a_relaxed_record_fails_by_name(self):
        """An exact ``effective_staleness`` (0.0) is dropped on load; any other
        value is a bounded-staleness trajectory, which no longer exists."""
        from repro.exceptions import ConfigurationError

        payload = _history([0.3, 0.6]).to_dict()
        payload["records"][0]["effective_staleness"] = 0.0
        payload["records"][1]["effective_staleness"] = 0.5
        with pytest.raises(ConfigurationError, match="effective_staleness 0.5"):
            History.from_dict(payload)

    @pytest.mark.parametrize("retired", [
        {"cache_hits": 4, "cache_misses": 1},
        {"completed_ids": [0, 1, 2, 3]},
    ], ids=["cache-counters", "completed-ids"])
    def test_the_retired_fields_are_dropped_on_load(self, retired):
        """Earlier records carry the lazy pool's delta-cache hit/miss
        counters and the completed cohort (``selected_ids`` minus
        ``dropped_ids``); they load, whatever their value, as today's
        records."""
        history = _history([0.3, 0.6])
        payload = history.to_dict()
        for record in payload["records"]:
            record.update(retired)
        loaded = History.from_dict(payload)
        assert loaded.to_dict() == history.to_dict()


class TestSummary:
    def test_final_and_best_accuracy(self):
        history = _history([0.2, 0.8, 0.6])
        assert final_accuracy(history) == 0.6
        assert best_accuracy(history) == 0.8

    def test_empty_history(self):
        empty = History()
        assert final_accuracy(empty) == 0.0
        assert best_accuracy(empty) == 0.0
        assert mean_waiting_time(empty) == 0.0

    def test_time_to_accuracy(self):
        history = _history([0.2, 0.5, 0.9])
        assert time_to_accuracy(history, 0.5) == 20.0
        assert time_to_accuracy(history, 0.95) is None

    def test_traffic_to_accuracy(self):
        history = _history([0.2, 0.5, 0.9])
        assert traffic_to_accuracy(history, 0.9) == 15.0

    def test_mean_waiting_time(self):
        assert mean_waiting_time(_history([0.1, 0.2])) == pytest.approx(1.5)

    def test_speedup(self):
        slow = _history([0.1, 0.2, 0.9])
        fast = _history([0.9, 0.95, 0.99])
        assert speedup(slow, fast, target=0.9) == pytest.approx(3.0)
        assert speedup(slow, fast, target=2.0) is None

    def test_compare_histories_uses_common_target(self):
        table = compare_histories({
            "a": _history([0.3, 0.6]),
            "b": _history([0.5, 0.9]),
        })
        assert set(table) == {"a", "b"}
        # Common target is min of best accuracies (0.6) so both rows resolve.
        assert table["a"]["time_to_target_s"] is not None
        assert table["b"]["time_to_target_s"] is not None

    def test_compare_histories_explicit_target(self):
        table = compare_histories({"a": _history([0.3, 0.6])}, target=0.5)
        assert table["a"]["time_to_target_s"] == 20.0

    def test_schedule_divergence_over_the_common_rounds(self):
        divergence = schedule_divergence(
            _history([0.3, 0.6, 0.7]), _history([0.2, 0.8])
        )
        assert set(divergence) == {"per_round", "max", "final"}
        assert divergence["per_round"] == pytest.approx([0.1, 0.2])
        assert divergence["max"] == pytest.approx(0.2)
        assert divergence["final"] == pytest.approx(0.1)
