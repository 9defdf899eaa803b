"""Tests for the on-disk study store."""

import json

from repro.metrics.history import History, RoundRecord
from repro.study import StudyStore, TrialResult


def _result(name: str, rounds: int = 2) -> TrialResult:
    history = History(algorithm="mergesfl")
    for index in range(rounds):
        history.append(RoundRecord(
            round_index=index, sim_time=1.0 * (index + 1), duration=1.0,
            waiting_time=0.1, traffic_mb=2.0, train_loss=1.0, test_loss=1.1,
            test_accuracy=0.5 + 0.1 * index, num_selected=4, total_batch=16,
        ))
    return TrialResult(name=name, tags={"algorithm": "mergesfl"},
                       config={"seed": 3}, history=history)


class TestTrialResult:
    def test_dict_roundtrip(self):
        result = _result("a")
        clone = TrialResult.from_dict(result.to_dict())
        assert clone.name == "a"
        assert clone.tags == result.tags
        assert clone.config == result.config
        assert clone.history.to_dict() == result.history.to_dict()


class TestStudyStore:
    def test_record_then_completed_roundtrip(self, tmp_path):
        store = StudyStore(tmp_path / "results")
        store.record("s", _result("a"))
        store.record("s", _result("b", rounds=1))
        completed = store.completed("s")
        assert sorted(completed) == ["a", "b"]
        assert len(completed["a"].history) == 2
        assert len(completed["b"].history) == 1

    def test_missing_study_is_empty(self, tmp_path):
        assert StudyStore(tmp_path).completed("nope") == {}

    def test_studies_are_isolated(self, tmp_path):
        store = StudyStore(tmp_path)
        store.record("s1", _result("a"))
        assert store.completed("s2") == {}

    def test_later_record_wins(self, tmp_path):
        store = StudyStore(tmp_path)
        store.record("s", _result("a", rounds=1))
        store.record("s", _result("a", rounds=3))
        assert len(store.completed("s")["a"].history) == 3

    def test_truncated_final_line_is_skipped(self, tmp_path):
        """The signature a kill leaves behind: a partial last append."""
        store = StudyStore(tmp_path)
        store.record("s", _result("a"))
        path = store.records_path("s")
        with path.open("a") as stream:
            stream.write(json.dumps(_result("b").to_dict())[:40])
        completed = store.completed("s")
        assert sorted(completed) == ["a"]

    def test_a_row_written_with_bounded_staleness_loads(self, tmp_path):
        """Rows written while bounded staleness existed carry ``staleness``
        in the config and ``effective_staleness`` in every record, both at
        their exact value."""
        from repro.config import ExperimentConfig

        config = ExperimentConfig(dataset="blobs", model="mlp")
        row = dict(_result("a").to_dict(), config=config.to_dict())
        row["config"]["staleness"] = 0
        for record in row["history"]["records"]:
            record["effective_staleness"] = 0.0
        store = StudyStore(tmp_path)
        path = store.records_path("s")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(row) + "\n")
        loaded = store.completed("s")["a"]
        assert loaded.history.to_dict() == _result("a").history.to_dict()
        assert ExperimentConfig.from_dict(loaded.config) == config

    def test_checkpoint_path_and_clear(self, tmp_path):
        store = StudyStore(tmp_path)
        path = store.checkpoint_path("s", "trial=1")
        assert path.name == "trial=1.ckpt.json"
        path.parent.mkdir(parents=True)
        path.write_text("{}")
        store.clear_checkpoint("s", "trial=1")
        assert not path.exists()
        store.clear_checkpoint("s", "trial=1")  # idempotent
