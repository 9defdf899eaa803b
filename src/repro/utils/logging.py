"""Logging helpers.

The package logs through the standard :mod:`logging` module under the
``repro`` namespace.  Library code never configures handlers; applications
(examples, scripts) call :func:`configure_logging` once.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger in the package namespace.

    Args:
        name: Sub-logger name (e.g. ``"core.round_engine"``); ``None`` returns
            the package root logger.
    """
    if name is None:
        return logging.getLogger(_ROOT_NAME)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def configure_logging(level: int = logging.INFO) -> None:
    """Attach a simple stream handler to the package root logger.

    Safe to call multiple times; only one handler is installed.
    """
    logger = logging.getLogger(_ROOT_NAME)
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        logger.addHandler(handler)
