"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (fewer workers, rounds and samples than the 80-Jetson testbed) so the
whole suite finishes on a CPU-only machine.  EXPERIMENTS.md records the
measured numbers next to the paper's and discusses where the shape holds.

Each benchmark runs its experiment exactly once (``benchmark.pedantic`` with
one round/iteration): the interesting output is the reproduced table, not
the harness's own wall-clock variance.

Environment variables tune the suite without editing code; they are read
when a benchmark calls :func:`bench_overrides` (never at import time, so
importing this module has no side effects and tests cannot contaminate
each other through a shared dict):

* ``BENCH_SMOKE=1`` -- shrink every experiment to a near-trivial size, so CI
  can assert that all benchmark entry points still *run* in a couple of
  minutes (the numbers are meaningless at that scale).
* ``BENCH_EXECUTOR=serial|batched|process`` -- select the execution backend
  (see :mod:`repro.parallel`) for every benchmark.  All backends are
  bit-exact, so this only changes wall-clock time.
* ``BENCH_TRANSPORT=pipe|shm`` -- select the process executor's feature
  transport (see :mod:`repro.parallel.transport`); ignored by in-process
  executors.
* ``BENCH_PIPELINE=sync|pipelined`` -- select the round scheduler (see
  :mod:`repro.parallel.pipeline`).  Also bit-exact.
* ``BENCH_N_JOBS=k`` -- run the trials of study-backed benchmarks in ``k``
  parallel worker processes (see :mod:`repro.study`).  Bit-exact as well:
  trial-level parallelism only reorders wall-clock, never results.
* ``BENCH_POPULATION=eager|lazy`` -- select the worker-population mode
  (see :mod:`repro.population`).  ``lazy`` registers workers as metadata
  rows and materialises only each round's cohort; bit-exact against
  ``eager``, so this only changes memory and wall-clock.
* ``BENCH_CODEC=none|fp16|bf16|int8|topk`` -- select the transport codec
  (see :mod:`repro.parallel.codec`) compressing features and gradients on
  the wire.  Only meaningful with ``BENCH_EXECUTOR=process`` (in-process
  executors have no wire).  ``none`` is bit-exact; the lossy codecs are
  deterministic but measured relaxations.
* ``BENCH_SPLITPOINT=uniform|profile|adaptive`` -- select the per-worker
  split-point policy (see :mod:`repro.splitpoint`).  ``uniform`` is the
  bit-exact global-cut anchor; ``profile`` and ``adaptive`` assign
  per-worker cut depths and are deterministic, measured relaxations of the
  exact trajectory.
* ``BENCH_SELECTION=ga|ga-warm|local-search|greedy`` -- select the
  worker-selection solver (see :mod:`repro.selection`).  ``ga`` is the
  bit-exact paper GA; the alternatives trade search budget for warm starts
  or deterministic local refinement and are measured relaxations of the
  exact trajectory (``exact`` exists too, but only for tiny test
  instances -- never point a benchmark fleet at it).
* ``BENCH_PRESET=name`` -- point the scalability benchmark at a
  :mod:`repro.study.presets` study (e.g. ``paper-scalability`` for the
  paper's 100/200/400-worker axis) instead of the scaled-down default.
* ``BENCH_CHURN=rate`` -- run every benchmark under elastic rounds (see
  :mod:`repro.core.elastic`) with that per-round dropout probability and
  over-selection 1.25.  Like the lossy codecs, this is a measured
  relaxation: deterministic for a fixed seed, but a different trajectory
  than the exact synchronous runs (``BENCH_CHURN=0`` keeps elasticity on
  with zero churn, which *is* bit-exact).
"""

from __future__ import annotations

import os

from repro.experiments import figures
from repro.metrics.history import History
from repro.study import Study, StudyRunner

#: Overrides applied to every figure entry point to keep the suite fast.
_BASE_OVERRIDES = {
    "num_workers": 6,
    "num_rounds": 4,
    "local_iterations": 6,
    "train_samples": 480,
    "test_samples": 160,
    "max_batch_size": 16,
    "base_batch_size": 8,
    "model_width": 0.4,
    "learning_rate": 0.08,
    "seed": 7,
}

#: Further reductions applied when ``BENCH_SMOKE`` is set: just enough
#: signal to prove the entry point still assembles and runs.
_SMOKE_OVERRIDES = {
    "num_workers": 4,
    "num_rounds": 2,
    "local_iterations": 2,
    "train_samples": 160,
    "test_samples": 64,
    "model_width": 0.25,
    "ga_population": 8,
    "ga_generations": 4,
}


def smoke_mode() -> bool:
    """Whether ``BENCH_SMOKE`` requests near-trivial experiment sizes."""
    return bool(os.environ.get("BENCH_SMOKE"))


def bench_n_jobs() -> int:
    """Trial-level parallelism requested through ``BENCH_N_JOBS``."""
    return int(os.environ.get("BENCH_N_JOBS") or "1")


def bench_preset() -> str | None:
    """Preset study name requested through ``BENCH_PRESET`` (or ``None``)."""
    return os.environ.get("BENCH_PRESET") or None


def bench_churn_rate() -> float | None:
    """Dropout rate requested through ``BENCH_CHURN`` (``None`` = off).

    ``BENCH_CHURN=0`` is distinct from unset: it enables elastic rounds
    with zero churn, the neutral mode that must stay bit-exact with the
    synchronous protocol.
    """
    value = os.environ.get("BENCH_CHURN")
    return None if value is None or value == "" else float(value)


def bench_overrides() -> dict:
    """The suite's config overrides, built fresh from the environment.

    Pure in the sense that matters here: every call returns a new dict
    assembled from the current environment, so callers may mutate their
    copy and test processes cannot contaminate one another through shared
    module state.
    """
    overrides = dict(_BASE_OVERRIDES)
    if smoke_mode():
        overrides.update(_SMOKE_OVERRIDES)
    for env, key in (("BENCH_EXECUTOR", "executor"),
                     ("BENCH_TRANSPORT", "transport"),
                     ("BENCH_PIPELINE", "pipeline"),
                     ("BENCH_POPULATION", "population"),
                     ("BENCH_CODEC", "codec"),
                     ("BENCH_SPLITPOINT", "split_policy"),
                     ("BENCH_SELECTION", "selector")):
        value = os.environ.get(env)
        if value:
            overrides[key] = value
    churn = bench_churn_rate()
    if churn is not None:
        overrides["elastic"] = True
        overrides["dropout_rate"] = churn
        if churn > 0:
            overrides["over_select_factor"] = 1.25
    return overrides


def bench_study(name: str, dataset: str, axes: dict,
                algorithm: str = "mergesfl", non_iid_level: float = 0.0,
                **overrides) -> Study:
    """Build a grid :class:`Study` at benchmark scale.

    ``axes`` sweeps config fields (e.g. ``{"algorithm": (...)}`` or
    ``{"num_workers": (4, 8)}``) over a base config assembled from the
    figure defaults, :func:`bench_overrides` and ``overrides``.
    """
    merged = bench_overrides()
    merged.update(overrides)
    for axis in axes:
        merged.pop(axis, None)
    base = figures.figure_config(dataset, algorithm, non_iid_level, **merged)
    return Study.grid(name, base, axes)


def run_bench_study(study: Study) -> dict[str, History]:
    """Execute a benchmark study (``BENCH_N_JOBS`` workers) -> histories."""
    runner = StudyRunner(study, n_jobs=bench_n_jobs())
    return runner.histories()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
