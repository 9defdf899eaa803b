"""The unified algorithm interface.

Every trainable algorithm in the repository -- the split engine that is
MergeSFL and the SFL baselines, the FL engine that is FedAvg/PyramidFL, and
any out-of-tree plugin -- implements :class:`Algorithm`: incremental
execution via :meth:`Algorithm.step_round`, batch execution via
:meth:`Algorithm.run`, and full state capture via
:meth:`Algorithm.state_dict` / :meth:`Algorithm.load_state_dict` so a
:class:`repro.api.session.Session` can checkpoint and resume it.

There is no facade layer: an :data:`~repro.api.registry.ALGORITHMS` factory
returns the engine itself (see :mod:`repro.algorithms`), so
``session.algorithm`` is a :class:`~repro.core.round_engine.RoundEngine`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.metrics.history import History, RoundRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.config import ExperimentConfig
    from repro.nn.module import Sequential


class Algorithm(abc.ABC):
    """Abstract base over every training algorithm.

    Implementations expose two attributes in addition to the methods below:

    * ``config`` -- the :class:`~repro.config.ExperimentConfig` driving the
      run (used for the default round count of :meth:`run`).
    * ``history`` -- the :class:`~repro.metrics.history.History` accumulating
      one :class:`~repro.metrics.history.RoundRecord` per executed round.
    """

    config: "ExperimentConfig"
    history: History

    @abc.abstractmethod
    def step_round(self) -> RoundRecord:
        """Execute exactly one communication round and return its record.

        Round indexing is monotonic: each call continues where the previous
        one stopped, also across interleaved :meth:`run` calls and
        ``state_dict`` round trips.
        """

    @abc.abstractmethod
    def global_model(self) -> "Sequential":
        """A copy of the current global model, in evaluation mode."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """All mutable state needed to resume training after a rebuild.

        The result contains only JSON-encodable scalars, lists, string-keyed
        dicts and numpy arrays (see :mod:`repro.api.checkpoint`).
        """

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        The algorithm must have been built from the same configuration; only
        the mutable training state is restored, not the component wiring.
        """

    @property
    def rounds_completed(self) -> int:
        """Number of communication rounds executed so far."""
        return len(self.history)

    def drain(self) -> None:
        """Wait until no round work dispatched without a wait is in flight.

        Called by :class:`~repro.api.session.Session` before checkpointing
        so such a round (see :mod:`repro.parallel.pipeline`) can never race
        the state capture.  The default is a no-op; engines that own
        an :class:`~repro.parallel.base.Executor` forward the call to it.
        """

    def close(self) -> None:
        """Release execution resources (process pools, ...); idempotent.

        The default is a no-op; engines that own an
        :class:`~repro.parallel.base.Executor` forward the call to it.
        """

    def run(self, num_rounds: int | None = None) -> History:
        """Execute ``num_rounds`` additional rounds (default: ``config.num_rounds``).

        Unlike the historical behaviour, repeated calls do not restart at
        round zero -- they extend the same run, so ``run(2)`` followed by
        ``run(3)`` equals one ``run(5)``.
        """
        rounds = num_rounds if num_rounds is not None else self.config.num_rounds
        if rounds < 0:
            raise ValueError(f"num_rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.step_round()
        return self.history
