"""Steppable, checkpointable experiment sessions.

A :class:`Session` wraps the assembled components and the configured
algorithm behind an incremental execution surface::

    session = Session.from_config(config)
    record = session.step()          # one communication round
    session.run(5)                   # five more rounds
    session.run()                    # the rest of config.num_rounds

Typed events stream progress and implement early stopping (see
:mod:`repro.api.events` for the vocabulary)::

    @session.on("round_end")
    def watch(session, event):
        print(event.record.round_index, event.record.test_accuracy)
        return event.record.test_accuracy >= 0.9   # truthy return stops run()

    session.add_callback(EarlyStopping(target=0.9))   # packaged handlers

Checkpoints are plain JSON files carrying the configuration plus the full
mutable algorithm state (weights, optimizer buffers, RNG streams, clock,
traffic and history), so a restored session continues bit-exactly where the
saved one stopped::

    session.save_checkpoint("run.ckpt.json")
    resumed = Session.load_checkpoint("run.ckpt.json")
    resumed.run()
"""

from __future__ import annotations

from pathlib import Path

from repro.api.algorithm import Algorithm
from repro.api.checkpoint import dump_checkpoint, encode_state, load_checkpoint_payload
from repro.api.components import ExperimentComponents, build_algorithm, build_components
from repro.api.events import (
    Callback,
    CheckpointSaved,
    Evaluation,
    EventBus,
    RoundEnd,
    RoundStart,
)
from repro.config import ExperimentConfig
from repro.exceptions import ConfigurationError
from repro.metrics.history import History, RoundRecord
from repro.utils.logging import get_logger

logger = get_logger("api.session")

#: Format version stamped into checkpoints.
CHECKPOINT_VERSION = 1

#: The keys :meth:`Session.state_dict` writes; a checkpoint has them all.
CHECKPOINT_KEYS = (
    "version", "config", "custom_wiring", "rounds_completed", "algorithm",
    "callbacks",
)


class Session:
    """Drives one experiment incrementally, with hooks and checkpointing.

    Args:
        config: The experiment configuration.
        components: Pre-assembled components; built from ``config`` when
            omitted and needed to construct the algorithm.
        algorithm: A pre-built algorithm; resolved from the
            :data:`~repro.api.registry.ALGORITHMS` registry when omitted.
            When an algorithm is supplied without components,
            ``session.components`` is ``None`` -- the caller wired the
            algorithm itself, so no (possibly unrelated) component set is
            materialised.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        components: ExperimentComponents | None = None,
        algorithm: Algorithm | None = None,
    ) -> None:
        self.config = config
        #: Whether the caller supplied the components or the algorithm
        #: instead of the registry; such wiring cannot be reproduced from
        #: the config alone, so checkpoints record it and refuse a
        #: registry-based rebuild.
        self._custom_wiring = algorithm is not None or components is not None
        if algorithm is None:
            components = components if components is not None else build_components(config)
            algorithm = build_algorithm(components)
        self.components = components
        self.algorithm = algorithm
        self.events = EventBus()
        #: Callbacks attached via :meth:`add_callback`, in order; their
        #: state rides in checkpoints so resumed runs behave identically.
        self.callbacks: list[Callback] = []
        self._stop_requested = False

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "Session":
        """Assemble components and algorithm for ``config``."""
        return cls(config)

    # -- observation ---------------------------------------------------------
    @property
    def history(self) -> History:
        """Per-round records accumulated so far."""
        return self.algorithm.history

    @property
    def rounds_completed(self) -> int:
        """Number of communication rounds executed so far."""
        return self.algorithm.rounds_completed

    def global_model(self):
        """A copy of the current global model, in evaluation mode."""
        return self.algorithm.global_model()

    # -- hooks ---------------------------------------------------------------
    def on(self, event: str, handler=None):
        """Subscribe a handler ``(session, event)`` to a typed session event.

        Usable as a decorator: ``@session.on("round_end")``.  See
        :mod:`repro.api.events` for the event vocabulary; a truthy return
        from a ``round_end``/``evaluation`` handler requests early stop of
        the current :meth:`run` loop.
        """
        return self.events.on(event, handler)

    def add_callback(self, callback: Callback) -> Callback:
        """Attach a packaged :class:`~repro.api.events.Callback` instance.

        Checkpoints capture every attached callback's
        :meth:`~repro.api.events.Callback.state_dict`; to restore it, attach
        the same callbacks (same order) *before* loading the checkpoint.
        """
        callback.subscribe(self.events)
        self.callbacks.append(callback)
        return callback

    # -- execution -----------------------------------------------------------
    def step(self) -> RoundRecord:
        """Execute exactly one communication round and fire its events.

        Emits ``round_start`` before the round, then ``evaluation`` and
        ``round_end`` with the resulting record.  One raising handler does
        not suppress the others (see :meth:`EventBus.emit`).
        """
        self.events.emit("round_start", self, RoundStart(self.rounds_completed))
        record = self.algorithm.step_round()
        stop = self.events.emit("evaluation", self, Evaluation(record))
        if self.events.emit("round_end", self, RoundEnd(record)):
            stop = True
        if stop:
            self._stop_requested = True
        return record

    def run(self, num_rounds: int | None = None) -> History:
        """Execute ``num_rounds`` additional rounds and return the history.

        When ``num_rounds`` is omitted the session runs up to
        ``config.num_rounds`` total rounds -- i.e. the remainder, which
        makes ``Session.from_config(c).run()`` equivalent to the classic
        ``run_experiment(c)`` and makes ``run()`` after a checkpoint resume
        finish the originally configured schedule.
        """
        if num_rounds is None:
            num_rounds = max(0, self.config.num_rounds - self.rounds_completed)
        elif num_rounds < 0:
            raise ValueError(f"num_rounds must be non-negative, got {num_rounds}")
        self._stop_requested = False
        for _ in range(num_rounds):
            self.step()
            if self._stop_requested:
                logger.info(
                    "early stop requested after round %d", self.rounds_completed - 1
                )
                break
        return self.history

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release execution resources (e.g. executor process pools).

        The session stays usable for observation afterwards; idempotent.
        Sessions also work as context managers::

            with Session.from_config(config) as session:
                session.run()
        """
        self.algorithm.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Configuration plus full mutable algorithm state.

        Drains the algorithm first: an aggregate-window round (see
        :mod:`repro.parallel.pipeline`) may have work dispatched without a
        wait still in flight on the executor, and the capture must not race
        it.  Cross-round artifacts that survive the drain -- the
        scheduler's prefetched next-round plan -- are *serialized* by the
        engine's ``state_dict`` instead, so resume is exact.
        """
        self.algorithm.drain()
        return {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "custom_wiring": self._custom_wiring,
            "rounds_completed": self.rounds_completed,
            "algorithm": self.algorithm.state_dict(),
            "callbacks": [
                {"type": type(callback).__name__, "state": callback.state_dict()}
                for callback in self.callbacks
            ],
        }

    @staticmethod
    def _checkpoint_config(state: dict, source: str) -> ExperimentConfig:
        """Validate the keys and version of the checkpoint ``source`` names
        (by path, in every error) and parse its configuration."""
        missing = [key for key in CHECKPOINT_KEYS if key not in state]
        if missing:
            raise ConfigurationError(f"{source} is missing the keys {missing}")
        version = state["version"]
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"{source}: unsupported checkpoint version {version!r}; "
                f"expected {CHECKPOINT_VERSION}"
            )
        return ExperimentConfig.from_dict(state["config"])

    def load_state_dict(self, state: dict) -> None:
        """Restore a state dict captured from a session with the same config."""
        saved_config = self._checkpoint_config(state, "state dict")
        # Compare through the checkpoint encoding so JSON-lossy values
        # (tuples decode as lists) do not fail the equality check.
        if encode_state(saved_config.to_dict()) != encode_state(self.config.to_dict()):
            raise ConfigurationError(
                "checkpoint was saved from a different configuration; "
                "rebuild the session with Session.load_checkpoint instead"
            )
        self._restore(state, "state dict")

    def _restore(self, state: dict, source: str) -> None:
        """Load the algorithm state and cross-check the round counter."""
        try:
            self.algorithm.load_state_dict(state["algorithm"])
        except KeyError as error:
            raise ConfigurationError(
                f"{source}: the algorithm state is missing the key "
                f"{error.args[0]!r}"
            ) from error
        expected_rounds = state["rounds_completed"]
        if expected_rounds != self.rounds_completed:
            raise ConfigurationError(
                f"{source} is inconsistent: rounds_completed says "
                f"{expected_rounds} but the restored algorithm reports "
                f"{self.rounds_completed}"
            )
        self._restore_callbacks(state["callbacks"])

    def _restore_callbacks(self, saved: list) -> None:
        """Match saved callback states to the attached callbacks by position.

        Restoring without re-attaching callbacks is allowed (the caller
        opted out of them), as is attaching callbacks to a checkpoint that
        never recorded any (they simply start fresh).  But when both sides
        have callbacks and they do not line up -- wrong count or wrong
        types -- that is an error: silently continuing with fresh callback
        state would break the resumed-equals-uninterrupted guarantee.
        """
        if not self.callbacks or not saved:
            return
        saved_types = [entry.get("type") for entry in saved]
        attached_types = [type(callback).__name__ for callback in self.callbacks]
        if saved_types != attached_types:
            raise ConfigurationError(
                f"checkpoint carries callback state for {saved_types} but "
                f"the session has {attached_types} attached; attach the "
                f"same callbacks in the same order before restoring"
            )
        for callback, entry in zip(self.callbacks, saved):
            callback.load_state_dict(entry.get("state", {}))

    def save_checkpoint(self, path: str | Path) -> None:
        """Write a JSON checkpoint that :meth:`load_checkpoint` can resume."""
        dump_checkpoint(self.state_dict(), path)
        logger.info(
            "checkpointed %s after %d rounds to %s",
            self.config.algorithm, self.rounds_completed, path,
        )
        self.events.emit(
            "checkpoint_saved", self,
            CheckpointSaved(str(path), self.rounds_completed),
        )

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "Session":
        """Rebuild a session from a checkpoint and restore its state.

        Components are reconstructed deterministically from the saved
        configuration (everything construction-time is seeded), then the
        saved mutable state overwrites weights, RNG streams and accounting,
        so the resumed run continues bit-exactly.
        """
        payload = load_checkpoint_payload(path)
        source = f"checkpoint {path}"
        if payload.get("custom_wiring"):
            raise ConfigurationError(
                f"{source} was saved from a session with hand-wired "
                "components or algorithm, which the registry cannot "
                "rebuild; reconstruct the wiring yourself and restore it "
                "with Session(config, ...).load_state_dict(...)"
            )
        session = cls.from_config(cls._checkpoint_config(payload, source))
        session._restore(payload, source)
        return session
