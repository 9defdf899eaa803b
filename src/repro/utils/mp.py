"""Shared multiprocessing helpers."""

from __future__ import annotations

import ctypes
import multiprocessing


def release_free_heap() -> None:
    """Hand the C allocator's free heap pages back to the OS before a fork.

    A forked child maps every page resident in its parent and counts it in
    its own resident set from the start.  glibc returns freed memory only
    from the top of its heap and only past a threshold, so whether the pages
    of arrays the parent already dropped (a closed session's data, say) are
    still resident when it forks depends on the order of earlier frees, and
    the children's size changed from one run of the same config to the next.
    ``malloc_trim(0)`` releases every free page, so children start from the
    parent's live memory.  A no-op where the C library has no
    ``malloc_trim`` (macOS, musl, Windows).
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def get_mp_context(start_method: str | None = None):
    """A multiprocessing context, preferring ``fork`` where available.

    Fork is the cheap option on Linux (no re-import, copy-on-write pages);
    platforms without it (Windows, and macOS defaults) fall back to their
    first supported method.  Both the intra-round
    :class:`~repro.parallel.process.ProcessExecutor` and the trial-level
    :class:`~repro.study.runner.StudyRunner` resolve their context here so
    the policy cannot diverge between the two process layers.
    """
    if start_method is None:
        available = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in available else available[0]
    return multiprocessing.get_context(start_method)
