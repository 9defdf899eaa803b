"""Parallel, resumable execution of studies.

A :class:`StudyRunner` executes every trial of a
:class:`~repro.study.study.Study`, either in-process (``n_jobs=1``) or
across worker processes (``n_jobs>1``).  Trial-level parallelism is
embarrassingly parallel and complements the intra-round executors of
:mod:`repro.parallel`: each trial is an ordinary
:class:`~repro.api.session.Session` run, so every executor works
unchanged inside a trial worker process.

With a :class:`~repro.study.store.StudyStore` attached, each completed
trial is persisted the moment it finishes and :meth:`StudyRunner.resume`
(or simply calling :meth:`StudyRunner.run` again) skips recorded trials.
With ``checkpoint_every`` set, in-flight trials additionally checkpoint
every N rounds, so a killed sweep continues interrupted trials bit-exactly
from their last checkpoint instead of restarting them::

    store = StudyStore("results")
    runner = StudyRunner(study, store=store, n_jobs=4, checkpoint_every=1)
    try:
        results = runner.run()
    except KeyboardInterrupt:
        ...                      # later, possibly in a fresh process:
    results = runner.resume()    # finishes only what is missing

All executed trials are bit-identical to ``run_experiment(trial.config)``:
the runner adds no hidden config mutation, and per-trial RNG streams are
fully determined by each trial's config.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.api.checkpoint import encode_state, load_checkpoint_payload
from repro.api.events import Callback
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.exceptions import StudyError
from repro.metrics.history import History
from repro.parallel.process import DEFAULT_MAX_PROCESSES
from repro.study.callbacks import PeriodicCheckpoint
from repro.study.store import StudyStore, TrialResult
from repro.study.study import Study, Trial
from repro.utils.logging import get_logger
from repro.utils.mp import get_mp_context

logger = get_logger("study.runner")


def trial_process_footprint(config: ExperimentConfig) -> int:
    """Worker processes one trial of ``config`` occupies.

    Trials on in-process executors cost one process (the trial worker
    itself); trials on the ``process`` executor additionally fan out to the
    executor's pool, sized by ``extras["executor_processes"]`` or its
    host-dependent default -- so their footprint is ``1 + pool size``.
    """
    if config.executor != "process":
        return 1
    requested = config.extras.get("executor_processes")
    if requested is not None:
        return 1 + int(requested)
    return 1 + max(1, min(os.cpu_count() or 1, DEFAULT_MAX_PROCESSES))

#: Either a list of callbacks cloned into every trial, or a factory
#: ``(trial) -> sequence of callbacks`` for per-trial wiring (e.g. per-trial
#: log paths).  The factory runs in the parent process; only the returned
#: callbacks cross the process boundary.
TrialCallbacks = Sequence[Callback] | Callable[[Trial], Sequence[Callback]]


def _execute_trial(payload: dict) -> dict:
    """Run one trial to completion; the unit shipped to worker processes.

    Resumes from the trial's session checkpoint when one exists (a sweep
    interrupted mid-trial), otherwise starts fresh.  Returns the history as
    a plain dict so the result pickles compactly.
    """
    config = ExperimentConfig.from_dict(payload["config"])
    session = Session.from_config(config)
    checkpoint_path = payload.get("checkpoint_path")
    # Callbacks attach before any restore so the checkpoint's callback
    # state (early-stopping bests, log line counts) lands back in them;
    # the periodic checkpointer goes last so its saves capture the other
    # callbacks' post-round updates.
    for callback in payload.get("callbacks", ()):
        session.add_callback(callback)
    if checkpoint_path is not None:
        if payload.get("checkpoint_every"):
            session.add_callback(
                PeriodicCheckpoint(checkpoint_path, every=payload["checkpoint_every"])
            )
        if os.path.exists(checkpoint_path):
            # load_state_dict cross-checks the saved config, so a stale
            # checkpoint from an edited study fails loudly instead of
            # silently resuming the wrong run.
            session.load_state_dict(load_checkpoint_payload(checkpoint_path))
    with session:
        history = session.run()
    return history.to_dict()


class StudyRunner:
    """Executes a study's trials, optionally in parallel and resumably.

    Args:
        study: The study to execute.
        store: Persists completed trials and in-flight checkpoints; without
            it every :meth:`run` starts from scratch and :meth:`resume` is
            unavailable.
        n_jobs: Number of concurrent trial worker processes; ``1`` runs
            in-process (no multiprocessing involved at the trial level).
        callbacks: Callbacks wired into every trial -- a sequence (cloned
            per trial so state never leaks across trials) or a per-trial
            factory.  With ``n_jobs > 1`` the callbacks must pickle.
        checkpoint_every: When set (requires ``store``), every trial saves
            a session checkpoint each N rounds, making in-flight trials
            resumable mid-run.
        start_method: Multiprocessing start method for ``n_jobs > 1``;
            defaults to ``fork`` where available (cheap on Linux), matching
            :class:`repro.parallel.process.ProcessExecutor`.
        max_processes: Study-level worker budget.  Trial-level parallelism
            multiplies with each trial's intra-round executor pool: a
            process-executor trial occupies its trial worker *plus* its
            executor children (``1 + executor_processes``).  When
            ``n_jobs`` times that footprint would exceed this budget the
            runner clamps ``n_jobs`` (with a warning) so the two pool
            layers never oversubscribe the host.  ``None`` leaves
            ``n_jobs`` untouched.
    """

    def __init__(
        self,
        study: Study,
        store: StudyStore | None = None,
        n_jobs: int = 1,
        callbacks: TrialCallbacks = (),
        checkpoint_every: int | None = None,
        start_method: str | None = None,
        max_processes: int | None = None,
    ) -> None:
        if n_jobs < 1:
            raise StudyError(f"n_jobs must be >= 1, got {n_jobs}")
        if max_processes is not None and max_processes < 1:
            raise StudyError(f"max_processes must be >= 1, got {max_processes}")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise StudyError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if store is None:
                raise StudyError("checkpoint_every requires a store")
        self.study = study
        self.store = store
        self.n_jobs = n_jobs
        self.callbacks = callbacks
        self.checkpoint_every = checkpoint_every
        self.start_method = start_method
        self.max_processes = max_processes

    def effective_n_jobs(self) -> int:
        """``n_jobs`` after applying the study-level worker budget.

        The budget divides by the *largest* trial footprint in the study:
        trials run in arbitrary interleavings, so any concurrent pair must
        fit, and sizing for the worst keeps the bound sound.
        """
        if self.max_processes is None or self.n_jobs == 1:
            return self.n_jobs
        footprint = max(
            trial_process_footprint(trial.config) for trial in self.study
        )
        allowed = max(1, self.max_processes // footprint)
        if allowed < self.n_jobs:
            logger.warning(
                "study %r: clamping n_jobs %d -> %d (largest trial occupies "
                "%d process(es) incl. its executor pool; budget "
                "max_processes=%d)",
                self.study.name, self.n_jobs, allowed, footprint,
                self.max_processes,
            )
        return min(self.n_jobs, allowed)

    # -- public API ----------------------------------------------------------
    def run(self, max_trials: int | None = None) -> dict[str, TrialResult]:
        """Execute the study and return ``{trial name: TrialResult}``.

        Trials already recorded in the store are returned without
        re-running (their stored config must still match the study's --
        a stale store fails loudly).  ``max_trials`` bounds how many *new*
        trials execute before returning, leaving the rest for a later
        :meth:`resume`; the returned mapping is then partial.
        """
        results = self._completed_results()
        pending = [t for t in self.study if t.name not in results]
        if max_trials is not None:
            if max_trials < 0:
                raise StudyError(f"max_trials must be >= 0, got {max_trials}")
            pending = pending[:max_trials]
        n_jobs = self.effective_n_jobs()
        if pending:
            logger.info(
                "study %r: running %d trial(s) (%d already recorded, n_jobs=%d)",
                self.study.name, len(pending),
                len(results), n_jobs,
            )
        if n_jobs == 1 or len(pending) <= 1:
            for trial in pending:
                history = _execute_trial(self._payload(trial))
                results[trial.name] = self._record(trial, history)
        else:
            self._run_parallel(pending, results, n_jobs)
        # Definition order, independent of completion order.
        return {
            trial.name: results[trial.name]
            for trial in self.study
            if trial.name in results
        }

    def resume(self) -> dict[str, TrialResult]:
        """Finish an interrupted sweep: run only what the store is missing.

        Completed trials are skipped; a trial interrupted mid-run (one
        with a checkpoint but no record) continues bit-exactly from its
        last checkpoint.  Requires a store.
        """
        if self.store is None:
            raise StudyError("resume() requires a StudyRunner with a store")
        return self.run()

    def histories(self, results: dict[str, TrialResult] | None = None) -> dict[str, History]:
        """Convenience view of :meth:`run` output as ``{name: History}``."""
        if results is None:
            results = self.run()
        return {name: result.history for name, result in results.items()}

    # -- internals -----------------------------------------------------------
    def _completed_results(self) -> dict[str, TrialResult]:
        """Stored results for this study's trials, config-checked.

        A stored config is compared as it loads today
        (:meth:`ExperimentConfig.from_dict`), so a row written before a
        field was retired still matches its trial.
        """
        if self.store is None:
            return {}
        recorded = self.store.completed(self.study.name)
        results: dict[str, TrialResult] = {}
        for trial in self.study:
            result = recorded.get(trial.name)
            if result is None:
                continue
            stored = ExperimentConfig.from_dict(result.config).to_dict()
            if encode_state(stored) != encode_state(trial.config.to_dict()):
                raise StudyError(
                    f"store records trial {trial.name!r} of study "
                    f"{self.study.name!r} with a different configuration; "
                    f"point the runner at a fresh store or rename the study"
                )
            results[trial.name] = result
        return results

    def _payload(self, trial: Trial) -> dict:
        """Self-contained work order for one trial (picklable)."""
        factory = self.callbacks
        resolved = factory(trial) if callable(factory) else factory
        payload = {
            "trial_name": trial.name,
            "config": trial.config.to_dict(),
            # Cloned so per-trial callback state (best metric, save
            # counters) never leaks between trials of a serial run.
            "callbacks": [copy.deepcopy(cb) for cb in resolved],
        }
        if self.store is not None:
            path = self.store.checkpoint_path(self.study.name, trial.name)
            payload["checkpoint_path"] = str(path)
            payload["checkpoint_every"] = self.checkpoint_every
        return payload

    def _record(self, trial: Trial, history_dict: dict) -> TrialResult:
        """Persist one finished trial and drop its in-flight checkpoint."""
        result = TrialResult(
            name=trial.name,
            tags=dict(trial.tags),
            config=trial.config.to_dict(),
            history=History.from_dict(history_dict),
        )
        if self.store is not None:
            self.store.record(self.study.name, result)
            self.store.clear_checkpoint(self.study.name, trial.name)
        return result

    def _run_parallel(
        self,
        pending: list[Trial],
        results: dict[str, TrialResult],
        n_jobs: int,
    ) -> None:
        """Fan pending trials out over a process pool, recording as they land."""
        workers = min(n_jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_mp_context(self.start_method)
        ) as pool:
            futures = {
                pool.submit(_execute_trial, self._payload(trial)): trial
                for trial in pending
            }
            outstanding = set(futures)
            try:
                while outstanding:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    done = list(done)
                    for index, future in enumerate(done):
                        trial = futures[future]
                        try:
                            history = future.result()
                        except Exception:
                            logger.error(
                                "trial %r of study %r failed",
                                trial.name, self.study.name,
                            )
                            # Siblings that completed in the same wait()
                            # batch still get salvaged below.
                            outstanding |= set(done[index + 1:])
                            raise
                        results[trial.name] = self._record(trial, history)
            except BaseException:
                self._salvage(futures, outstanding, results)
                raise

    def _salvage(self, futures, outstanding, results) -> None:
        """On failure, keep every other trial that still finished.

        Not-yet-started trials are cancelled, but trials already running
        when a sibling failed are allowed to finish (the pool shutdown
        waits for them regardless) and their results are recorded -- as
        are trials that had already completed -- so a later ``resume()``
        only re-runs what genuinely never completed.
        """
        running = [future for future in outstanding if not future.cancel()]
        for future in running:
            trial = futures[future]
            try:
                history = future.result()
            except BaseException:
                continue
            results[trial.name] = self._record(trial, history)
