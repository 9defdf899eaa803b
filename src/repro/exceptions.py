"""Exception hierarchy for the MergeSFL reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An experiment or model configuration is invalid."""


class ShapeError(ReproError):
    """A tensor has an unexpected shape."""


class SplitError(ReproError):
    """A model cannot be split at the requested layer."""


class SelectionError(ReproError):
    """Worker selection could not produce a feasible worker set."""


class DataError(ReproError):
    """A dataset or partition is malformed."""


class TransportError(ReproError):
    """An inter-process feature transport failed (corrupt frame, dead peer)."""


class ExecutorDeathError(ReproError, RuntimeError):
    """A pooled executor process died with work in flight.

    Subclasses :class:`RuntimeError` so callers matching the historical
    ``"died"`` message keep working; additionally carries the worker ids
    that were homed on the dead process, which is what lets the engine
    re-plan the round with the survivors instead of failing it.
    """

    def __init__(self, message: str, worker_ids=()) -> None:
        super().__init__(message)
        self.worker_ids = [int(worker_id) for worker_id in worker_ids]


class BatchSizeMismatchError(ReproError, ValueError):
    """A forward asked for other batch sizes than the rows its install drew.

    An executor told how many forwards follow an install draws the round's
    mini-batches at the first of them; every later forward of the round
    must ask for the same per-worker batch sizes.
    """


class CallbackError(ReproError):
    """A session event callback raised; the message names the callback."""


class StudyError(ReproError):
    """A study definition or a study run is invalid or inconsistent."""
