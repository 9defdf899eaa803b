"""Tests for parallel, resumable study execution.

Covers the acceptance criteria of the Study API: a parallel grid run is
bit-identical to serial ``run_experiment`` per config, and ``resume()``
after a simulated interruption (both between trials and mid-trial) skips
completed trials and finishes the rest bit-exactly.
"""

import json
from dataclasses import asdict

import pytest

from repro.api.session import Session
from repro.exceptions import CallbackError, ConfigurationError, StudyError
from repro.experiments.runner import run_experiment
from repro.study import (
    EarlyStopping,
    JSONLLogger,
    PeriodicCheckpoint,
    Study,
    StudyRunner,
    StudyStore,
    Trial,
    run_study,
)


def _records(history):
    return [asdict(record) for record in history.records]


class _Boom(EarlyStopping):
    """Picklable always-raising callback (module level so fork workers
    resolve it when the payload crosses the process boundary)."""

    def __init__(self):
        super().__init__(target=1.0)

    def on_round_end(self, session, event):
        raise RuntimeError("boom")


@pytest.fixture
def tiny_config(fast_config):
    """Two-round variant of fast_config to keep multi-trial tests quick."""
    return fast_config.replace(num_rounds=2)


@pytest.fixture
def grid_study(tiny_config):
    """A 2x2 grid (algorithm x seed): the acceptance-criterion sweep."""
    return Study.grid("grid", tiny_config, axes={
        "algorithm": ("mergesfl", "fedavg"),
        "seed": (3, 4),
    })


class TestSerialRun:
    def test_results_match_run_experiment(self, grid_study):
        results = StudyRunner(grid_study).run()
        assert list(results) == grid_study.names()
        for trial in grid_study:
            reference = run_experiment(trial.config)
            assert _records(results[trial.name].history) == _records(reference)

    def test_result_carries_tags_and_config(self, grid_study):
        results = run_study(grid_study)
        trial = grid_study.trials[0]
        result = results[trial.name]
        assert result.tags == trial.tags
        assert result.config == trial.config.to_dict()

    def test_invalid_arguments(self, grid_study, tmp_path):
        with pytest.raises(StudyError, match="n_jobs"):
            StudyRunner(grid_study, n_jobs=0)
        with pytest.raises(StudyError, match="requires a store"):
            StudyRunner(grid_study, checkpoint_every=1)
        with pytest.raises(StudyError, match="checkpoint_every"):
            StudyRunner(grid_study, store=StudyStore(tmp_path), checkpoint_every=0)
        with pytest.raises(StudyError, match="max_trials"):
            StudyRunner(grid_study).run(max_trials=-1)
        with pytest.raises(StudyError, match="resume"):
            StudyRunner(grid_study).resume()


class TestParallelRun:
    def test_n_jobs_2_bit_identical_to_serial_run_experiment(self, grid_study):
        """Acceptance: >= 4 trials, n_jobs > 1, per-trial histories
        bit-identical to run_experiment on each config serially."""
        assert len(grid_study) >= 4
        results = StudyRunner(grid_study, n_jobs=2).run()
        assert list(results) == grid_study.names()
        for trial in grid_study:
            reference = run_experiment(trial.config)
            assert _records(results[trial.name].history) == _records(reference)

    def test_trial_failure_propagates_from_worker_process(self, tiny_config):
        study = Study.grid("bad", tiny_config, axes={"seed": (3, 4)})
        with pytest.raises(CallbackError, match="boom"):
            StudyRunner(study, n_jobs=2, callbacks=[_Boom()]).run()


class TestResume:
    def test_interrupted_sweep_resumes_bit_exactly(self, grid_study, tmp_path):
        """Acceptance: kill a parallel sweep mid-way; resume() skips the
        recorded trials and the final results equal an uninterrupted run."""
        uninterrupted = StudyRunner(grid_study, n_jobs=2).run()

        store = StudyStore(tmp_path / "results")
        interrupted = StudyRunner(grid_study, store=store, n_jobs=2)
        partial = interrupted.run(max_trials=2)
        assert len(partial) == 2

        # A fresh runner (fresh process after the kill) picks up the store.
        resumed = StudyRunner(grid_study, store=StudyStore(tmp_path / "results"),
                              n_jobs=2).resume()
        assert list(resumed) == grid_study.names()
        for name in grid_study.names():
            assert _records(resumed[name].history) == _records(
                uninterrupted[name].history
            )

    def test_completed_trials_are_not_rerun(self, grid_study, tmp_path, monkeypatch):
        store = StudyStore(tmp_path)
        StudyRunner(grid_study, store=store).run()
        import repro.study.runner as runner_module

        def explode(payload):
            raise AssertionError(f"re-ran trial {payload['trial_name']}")

        monkeypatch.setattr(runner_module, "_execute_trial", explode)
        results = StudyRunner(grid_study, store=store).resume()
        assert list(results) == grid_study.names()

    def test_mid_trial_checkpoint_resumes_bit_exactly(self, tiny_config, tmp_path):
        """A trial interrupted mid-run continues from its session
        checkpoint instead of restarting, and stays bit-exact."""
        study = Study("mid", [Trial("only", tiny_config)])
        store = StudyStore(tmp_path)
        reference = run_experiment(tiny_config)

        # Simulate the kill: one round ran and was checkpointed, then the
        # sweep died before the trial completed (nothing recorded).
        session = Session.from_config(tiny_config)
        session.step()
        path = store.checkpoint_path("mid", "only")
        path.parent.mkdir(parents=True, exist_ok=True)
        session.save_checkpoint(path)
        session.close()

        results = StudyRunner(study, store=store, checkpoint_every=1).resume()
        assert _records(results["only"].history) == _records(reference)
        # The trial completed, so its in-flight checkpoint is gone.
        assert not path.exists()

    def test_checkpoint_every_writes_and_clears(self, tiny_config, tmp_path):
        study = Study("ck", [Trial("only", tiny_config)])
        store = StudyStore(tmp_path)
        StudyRunner(study, store=store, checkpoint_every=1).run()
        assert not store.checkpoint_path("ck", "only").exists()
        assert sorted(store.completed("ck")) == ["only"]

    def test_stale_store_rejected(self, grid_study, tmp_path):
        store = StudyStore(tmp_path)
        StudyRunner(grid_study, store=store).run()
        renamed = Study("grid", [
            Trial(trial.name, trial.config.replace(num_rounds=1), trial.tags)
            for trial in grid_study
        ])
        with pytest.raises(StudyError, match="different configuration"):
            StudyRunner(renamed, store=store).run()

    @pytest.mark.parametrize("retired", [
        {"population_cache": 64},
        {"pipeline": "sync", "transport": "pipe"},
        {"pipeline": "pipelined", "transport": "shm", "staleness": 0},
        {"elastic": False},
        {"elastic": True},
        {"population": "lazy"},
        {"population_shard_size": 4096},
    ], ids=["population-cache", "sync-pipe", "pipelined-shm", "elastic-off",
            "elastic-on", "population-lazy", "population-shard-size"])
    def test_a_row_written_before_a_field_was_retired_resumes(
        self, tiny_config, tmp_path, monkeypatch, retired
    ):
        """A stored config is compared as it loads today: a row that still
        carries a retired field at a value that loads is the same trial,
        and resume() does not re-run it."""
        study = Study("old", [Trial("only", tiny_config)])
        store = StudyStore(tmp_path)
        StudyRunner(study, store=store).run()
        path = store.records_path("old")
        row = json.loads(path.read_text())
        row["config"].update(retired)
        # Rows of that era also listed each round's completed workers.
        for record in row["history"]["records"]:
            record["completed_ids"] = record["selected_ids"]
        path.write_text(json.dumps(row) + "\n")
        import repro.study.runner as runner_module

        def explode(payload):
            raise AssertionError(f"re-ran trial {payload['trial_name']}")

        monkeypatch.setattr(runner_module, "_execute_trial", explode)
        results = StudyRunner(study, store=store).resume()
        assert list(results) == ["only"]

    def test_a_retired_field_at_a_value_that_never_loaded_fails_by_name(
        self, tiny_config, tmp_path
    ):
        study = Study("old", [Trial("only", tiny_config)])
        store = StudyStore(tmp_path)
        StudyRunner(study, store=store).run()
        path = store.records_path("old")
        row = json.loads(path.read_text())
        row["config"].update(elastic="yes")
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ConfigurationError, match="'elastic' field was removed"):
            StudyRunner(study, store=store).resume()

    def test_a_retired_field_does_not_hide_a_changed_one(
        self, tiny_config, tmp_path
    ):
        study = Study("old", [Trial("only", tiny_config)])
        store = StudyStore(tmp_path)
        StudyRunner(study, store=store).run()
        path = store.records_path("old")
        row = json.loads(path.read_text())
        row["config"].update(population_cache=64, num_rounds=1)
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(StudyError, match="different configuration"):
            StudyRunner(study, store=store).run()


class TestCallbacksThroughStudies:
    def test_early_stopping_wired_into_every_trial(self, tiny_config):
        study = Study.grid("es", tiny_config.replace(num_rounds=3),
                           axes={"seed": (3, 4)})
        results = StudyRunner(
            study, callbacks=[EarlyStopping(metric="train_loss", mode="min",
                                            target=100.0)],
        ).run()
        # train_loss is trivially below the target, so every trial stops
        # after its first round -- proving per-trial wiring, including for
        # the second trial (callback state must not leak between trials).
        for result in results.values():
            assert len(result.history) == 1

    def test_periodic_checkpoint_through_parallel_study_run(
        self, tiny_config, tmp_path
    ):
        study = Study.grid("pc", tiny_config, axes={"seed": (3, 4)})
        store = StudyStore(tmp_path)
        results = StudyRunner(
            study, store=store, n_jobs=2, checkpoint_every=1
        ).run()
        assert sorted(results) == sorted(study.names())
        for trial in study:
            reference = run_experiment(trial.config)
            assert _records(results[trial.name].history) == _records(reference)

    def test_per_trial_callback_factory(self, tiny_config, tmp_path):
        study = Study.grid("fac", tiny_config, axes={"seed": (3, 4)})
        results = StudyRunner(
            study,
            callbacks=lambda trial: [JSONLLogger(tmp_path / f"{trial.name}.jsonl")],
        ).run()
        for trial in study:
            lines = (tmp_path / f"{trial.name}.jsonl").read_text().splitlines()
            assert len(lines) == len(results[trial.name].history)

    def test_mid_trial_resume_restores_callback_state(self, fast_config, tmp_path):
        """An early stopper's best/patience counters ride in the trial
        checkpoint: a mid-trial interruption must not reset them, or the
        resumed trial stops later than the uninterrupted one."""
        config = fast_config.replace(num_rounds=8)
        study = Study("es-resume", [Trial("only", config)])
        # sim_time never "improves" under min mode with a huge min_delta,
        # so the run stops after round 0 + patience stale rounds = round 2.
        stopper = EarlyStopping(metric="sim_time", mode="min", patience=2,
                                min_delta=1e9)

        uninterrupted = StudyRunner(study, callbacks=[stopper]).run()
        assert len(uninterrupted["only"].history) == 3

        # Simulate the interrupted trial exactly as _execute_trial wires
        # it (user callbacks, then the periodic checkpointer), killed
        # after round 1 with one stale round already counted.
        store = StudyStore(tmp_path)
        path = store.checkpoint_path("es-resume", "only")
        path.parent.mkdir(parents=True, exist_ok=True)
        session = Session.from_config(config)
        session.add_callback(EarlyStopping(metric="sim_time", mode="min",
                                           patience=2, min_delta=1e9))
        session.add_callback(PeriodicCheckpoint(path, every=1))
        session.run(2)
        session.close()

        resumed = StudyRunner(study, store=store, callbacks=[stopper],
                              checkpoint_every=1).resume()
        assert _records(resumed["only"].history) == _records(
            uninterrupted["only"].history
        )

    def test_mid_trial_resume_truncates_jsonl_log(self, fast_config, tmp_path):
        """Rounds logged after the last checkpoint are replayed on resume;
        the logger's checkpointed line count drops them so the log has
        exactly one line per round."""
        config = fast_config.replace(num_rounds=4)
        study = Study("log-resume", [Trial("only", config)])
        store = StudyStore(tmp_path)
        log_path = tmp_path / "records.jsonl"
        ckpt_path = store.checkpoint_path("log-resume", "only")
        ckpt_path.parent.mkdir(parents=True, exist_ok=True)

        # Interrupted run: checkpoint every 2 rounds, killed after round 3
        # -- one logged round (index 2) lies beyond the checkpoint.
        session = Session.from_config(config)
        session.add_callback(JSONLLogger(log_path))
        session.add_callback(PeriodicCheckpoint(ckpt_path, every=2))
        session.run(3)
        session.close()
        assert len(log_path.read_text().splitlines()) == 3

        resumed = StudyRunner(
            study, store=store, checkpoint_every=2,
            callbacks=lambda trial: [JSONLLogger(log_path)],
        ).resume()
        lines = log_path.read_text().splitlines()
        assert len(lines) == 4
        import json as json_module

        assert [json_module.loads(line)["round_index"] for line in lines] == [0, 1, 2, 3]
        assert len(resumed["only"].history) == 4

    def test_callback_state_mismatch_fails_loudly(self, fast_config, tmp_path):
        path = tmp_path / "ck.json"
        session = Session.from_config(fast_config)
        session.add_callback(EarlyStopping(target=2.0))
        session.step()
        session.save_checkpoint(path)
        session.close()

        from repro.api.checkpoint import load_checkpoint_payload
        from repro.exceptions import ConfigurationError
        from repro.study import Timing

        fresh = Session.from_config(fast_config)
        fresh.add_callback(Timing())
        with pytest.raises(ConfigurationError, match="same callbacks"):
            fresh.load_state_dict(load_checkpoint_payload(path))

    def test_sibling_failure_keeps_finished_trials(self, tiny_config, tmp_path):
        """One failing trial must not discard concurrently completed
        siblings: they are recorded, so resume() only re-runs the rest."""
        study = Study("salvage", [
            Trial("good-1", tiny_config),
            Trial("good-2", tiny_config.replace(seed=4)),
            Trial("bad", tiny_config.replace(seed=5)),
            Trial("good-3", tiny_config.replace(seed=6)),
        ])
        store = StudyStore(tmp_path)
        failing = StudyRunner(
            study, store=store, n_jobs=2,
            callbacks=lambda trial: [_Boom()] if trial.name == "bad" else [],
        )
        with pytest.raises(CallbackError, match="boom"):
            failing.run()
        # At least one good trial finished (before or alongside the
        # failure) and was persisted rather than thrown away.
        assert len(store.completed("salvage")) >= 1
        assert "bad" not in store.completed("salvage")

    def test_raising_callback_aborts_with_callback_error(self, tiny_config):
        study = Study("err", [Trial("only", tiny_config)])

        class Exploding(EarlyStopping):
            def on_round_end(self, session, event):
                raise RuntimeError("boom")

        with pytest.raises(CallbackError, match="on_round_end"):
            StudyRunner(study, callbacks=[Exploding(target=1.0)]).run()


class TestWorkerBudget:
    """Study-level worker budget: n_jobs x executor_processes is capped."""

    @staticmethod
    def _study(tiny_config, executor_processes):
        config = tiny_config.replace(
            executor="process",
            extras={"executor_processes": executor_processes},
        )
        return Study.grid("budget", config, axes={"seed": (3, 4, 5, 6)})

    def test_effective_n_jobs_clamps_to_the_budget(self, tiny_config, caplog):
        runner = StudyRunner(
            self._study(tiny_config, executor_processes=3),
            n_jobs=4, max_processes=8,
        )
        with caplog.at_level("WARNING", logger="repro.study.runner"):
            # Each trial = 1 worker + 3 children; two fit in a budget of 8.
            assert runner.effective_n_jobs() == 2
        assert any("clamping n_jobs" in message for message in caplog.messages)

    def test_budget_never_clamps_below_one(self, tiny_config):
        runner = StudyRunner(
            self._study(tiny_config, executor_processes=16),
            n_jobs=4, max_processes=2,
        )
        assert runner.effective_n_jobs() == 1

    def test_within_budget_is_untouched(self, tiny_config, caplog):
        runner = StudyRunner(
            self._study(tiny_config, executor_processes=2),
            n_jobs=2, max_processes=6,
        )
        with caplog.at_level("WARNING", logger="repro.study.runner"):
            assert runner.effective_n_jobs() == 2
        assert not any("clamping" in message for message in caplog.messages)

    def test_in_process_trials_cost_one_each(self, tiny_config):
        study = Study.grid("serial-budget", tiny_config, axes={"seed": (3, 4)})
        runner = StudyRunner(study, n_jobs=2, max_processes=2)
        assert runner.effective_n_jobs() == 2

    def test_no_budget_leaves_n_jobs_alone(self, tiny_config):
        runner = StudyRunner(self._study(tiny_config, 8), n_jobs=4)
        assert runner.effective_n_jobs() == 4

    def test_invalid_budget_rejected(self, tiny_config):
        with pytest.raises(StudyError, match="max_processes"):
            StudyRunner(
                self._study(tiny_config, 2), n_jobs=2, max_processes=0
            )

    def test_footprint_reads_the_executor_config(self, tiny_config):
        from repro.study import trial_process_footprint

        assert trial_process_footprint(tiny_config) == 1
        # A process-executor trial costs its worker plus its pool.
        assert trial_process_footprint(
            tiny_config.replace(
                executor="process", extras={"executor_processes": 5}
            )
        ) == 6

    def test_clamped_parallel_run_still_completes(self, tiny_config):
        """End to end: a clamped run produces the same results, just with
        fewer concurrent trial workers."""
        study = Study.grid("clamped", tiny_config, axes={"seed": (3, 4)})
        reference = {
            name: _records(result.history)
            for name, result in StudyRunner(study).run().items()
        }
        clamped = StudyRunner(study, n_jobs=2, max_processes=1).run()
        assert {
            name: _records(result.history) for name, result in clamped.items()
        } == reference
