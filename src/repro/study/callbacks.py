"""Shipped session callbacks.

Packaged :class:`~repro.api.events.Callback` implementations covering the
recurring needs of sweep runs -- stop early, checkpoint periodically, log
records, time rounds.  Attach them to any session with
``session.add_callback(...)``; :class:`~repro.study.runner.StudyRunner`
wires them into every trial (they are plain-attribute objects, so they
pickle into trial worker processes).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

from repro.api.events import Callback, RoundEnd, RoundStart
from repro.exceptions import ConfigurationError


class EarlyStopping(Callback):
    """Stop a run on a reached target or a stalled metric.

    Args:
        metric: A :class:`~repro.metrics.history.RoundRecord` field name
            (e.g. ``"test_accuracy"``, ``"train_loss"``).
        target: Stop as soon as the metric reaches this value.
        patience: Stop after this many consecutive rounds without
            improvement over the best value seen.
        min_delta: Minimum change that counts as an improvement.
        mode: ``"max"`` when larger is better, ``"min"`` when smaller is.

    At least one of ``target`` and ``patience`` must be given.
    """

    def __init__(
        self,
        metric: str = "test_accuracy",
        target: float | None = None,
        patience: int | None = None,
        min_delta: float = 0.0,
        mode: str = "max",
    ) -> None:
        if target is None and patience is None:
            raise ConfigurationError(
                "EarlyStopping needs a target and/or a patience"
            )
        if mode not in ("max", "min"):
            raise ConfigurationError(f"mode must be 'max' or 'min', got {mode!r}")
        if patience is not None and patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.metric = metric
        self.target = target
        self.patience = patience
        self.min_delta = min_delta
        self.mode = mode
        self.best: float | None = None
        self.stale_rounds = 0
        self.stopped_round: int | None = None

    def _value(self, record) -> float:
        try:
            return float(getattr(record, self.metric))
        except AttributeError:
            raise ConfigurationError(
                f"RoundRecord has no metric {self.metric!r}"
            ) from None

    def on_round_end(self, session, event: RoundEnd) -> bool:
        value = self._value(event.record)
        signed = value if self.mode == "max" else -value
        if self.target is not None:
            signed_target = self.target if self.mode == "max" else -self.target
            if signed >= signed_target:
                self.stopped_round = event.record.round_index
                return True
        if self.best is None or signed > self.best + self.min_delta:
            self.best = signed
            self.stale_rounds = 0
        else:
            self.stale_rounds += 1
            if self.patience is not None and self.stale_rounds >= self.patience:
                self.stopped_round = event.record.round_index
                return True
        return False

    def state_dict(self) -> dict:
        return {
            "best": self.best,
            "stale_rounds": self.stale_rounds,
            "stopped_round": self.stopped_round,
        }

    def load_state_dict(self, state: dict) -> None:
        self.best = state["best"]
        self.stale_rounds = state["stale_rounds"]
        self.stopped_round = state["stopped_round"]


class PeriodicCheckpoint(Callback):
    """Save a session checkpoint every ``every`` completed rounds.

    The write goes through :meth:`Session.save_checkpoint`, so it is atomic
    and emits ``checkpoint_saved``.  A sweep killed mid-trial resumes from
    the last such checkpoint instead of restarting the trial (see
    :meth:`repro.study.runner.StudyRunner.resume`).
    """

    def __init__(self, path: str | Path, every: int = 1) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.path = str(path)
        self.every = every
        self.saves = 0

    def on_round_end(self, session, event: RoundEnd) -> None:
        if session.rounds_completed % self.every == 0:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            # Count first: the save serialises this callback's state, and
            # the recorded counter must include the write in progress or a
            # resumed run ends one save short of an uninterrupted one.
            self.saves += 1
            session.save_checkpoint(self.path)

    def state_dict(self) -> dict:
        return {"saves": self.saves}

    def load_state_dict(self, state: dict) -> None:
        self.saves = state["saves"]


class JSONLLogger(Callback):
    """Append every round record to a JSONL file as it is produced."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self.lines = 0

    def on_round_end(self, session, event: RoundEnd) -> None:
        path = Path(self.path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as stream:
            stream.write(json.dumps(asdict(event.record)) + "\n")
        self.lines += 1

    def state_dict(self) -> dict:
        return {"lines": self.lines}

    def load_state_dict(self, state: dict) -> None:
        """Restore the line counter and drop post-checkpoint lines.

        A run killed between a checkpoint and the next one may have
        appended records the resumed run will re-produce; truncating the
        file back to the checkpointed line count keeps the log duplicate-
        free and identical to an uninterrupted run's.
        """
        self.lines = state["lines"]
        path = Path(self.path)
        if path.exists():
            lines = path.read_text().splitlines(keepends=True)
            if len(lines) > self.lines:
                path.write_text("".join(lines[:self.lines]))


class Timing(Callback):
    """Measure real (host) wall-clock time per round.

    The simulated round durations live in the history records; this
    callback measures how long the *simulation itself* takes, which is
    what executor benchmarking wants.  It is the benchmark
    suite's single wall-clock source: round windows are contiguous
    (``round_start`` fires immediately after the previous ``round_end``),
    so under the aggregate window any work still in flight at a round
    boundary lands in exactly one round's window and ``total`` never
    double-counts overlapped stages.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._started: float | None = None

    def on_round_start(self, session, event: RoundStart) -> None:
        self._started = time.perf_counter()

    def on_round_end(self, session, event: RoundEnd) -> None:
        if self._started is not None:
            self.durations.append(time.perf_counter() - self._started)
            self._started = None

    @property
    def total(self) -> float:
        """Total measured wall-clock seconds across recorded rounds."""
        return sum(self.durations)

    def state_dict(self) -> dict:
        return {"durations": list(self.durations)}

    def load_state_dict(self, state: dict) -> None:
        self.durations = list(state["durations"])
        self._started = None
