"""The one-shot experiment entry point.

:func:`run_experiment` runs a configuration to the end through a
:class:`repro.api.session.Session`.  Component assembly
(:func:`repro.api.components.build_components`), algorithm construction
(the :data:`repro.api.registry.ALGORITHMS` registry) and incremental,
checkpointable execution all live in :mod:`repro.api`.
"""

from __future__ import annotations

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import History
from repro.utils.logging import get_logger

logger = get_logger("experiments.runner")


def run_experiment(config: ExperimentConfig) -> History:
    """Run one experiment end to end and return its history.

    Equivalent to ``Session.from_config(config).run()``; use a
    :class:`~repro.api.session.Session` directly for incremental execution,
    round callbacks or checkpointing.
    """
    logger.info(
        "running %s on %s/%s (%d workers, %d rounds, non-IID p=%s)",
        config.algorithm, config.dataset, config.model,
        config.num_workers, config.num_rounds, config.non_iid_level,
    )
    with Session.from_config(config) as session:
        return session.run()
