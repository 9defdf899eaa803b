"""Parallel execution backends for the training engines.

Every engine describes *what* each selected worker computes per round; an
:class:`~repro.parallel.base.Executor` decides *how*:

* ``serial`` -- one worker after another (the reference semantics).
* ``batched`` -- all workers vectorized into stacked numpy kernels
  (dense layers only; other models run per worker).
* ``process`` -- workers fanned out to a pool of OS processes.

All three produce bit-identical training trajectories for a fixed seed.
The default ``ExperimentConfig(executor="auto")`` resolves to ``batched``
on dense models and to ``serial`` otherwise (:func:`resolve_executor`);
force one with ``ExperimentConfig(executor="process")`` or register your
own with :func:`~repro.api.registry.register_executor`.  Executor factories
receive the full :class:`~repro.config.ExperimentConfig` so backends can
read tuning knobs from ``config.extras`` (the process pool size, for
example, comes from ``extras["executor_processes"]``).

The process executor runs each round in the scheduler's **aggregate
window** (:mod:`repro.parallel.pipeline`): no acknowledgements, and the
round's accounting and the next round's plan overlap the children's tail
compute.  Its arrays cross the process boundary raw, through
shared-memory ring buffers (:mod:`repro.parallel.transport`), each sized
to the largest message a round can carry unless
``extras["transport_capacity"]`` fixes the per-direction ring size.  The
in-process executors run the blocking order.

Every executor is bit-exact with every other.  The link codec
(``config.codec``, :mod:`repro.parallel.codec`) is not an execution axis:
the round applies it, identically on every executor, so a lossy run is
the same trajectory on all of them.
"""

from repro.api.registry import register_executor
from repro.config import AUTO_EXECUTOR
from repro.parallel.base import Executor
from repro.parallel.batched import BatchedExecutor, uniform_worker_hyperparams
from repro.parallel.codec import (
    CODECS,
    Codec,
    CodecPolicy,
    build_codec_policy,
)
from repro.parallel.kernels import unsupported_layers
from repro.parallel.pipeline import (
    FullRoundOps,
    PipelineScheduler,
    RoundReport,
    RoundStage,
    SplitRoundOps,
)
from repro.parallel.process import ProcessExecutor
from repro.parallel.serial import SerialExecutor
from repro.parallel.transport import SharedMemoryTransport

__all__ = [
    "BatchedExecutor",
    "CODECS",
    "Codec",
    "CodecPolicy",
    "Executor",
    "FullRoundOps",
    "PipelineScheduler",
    "ProcessExecutor",
    "RoundReport",
    "RoundStage",
    "SerialExecutor",
    "SharedMemoryTransport",
    "SplitRoundOps",
    "build_codec_policy",
    "build_executor",
    "resolve_executor",
]


@register_executor("serial", description="one worker after another, in-thread")
def _build_serial(config) -> SerialExecutor:
    return SerialExecutor()


@register_executor("batched", description="workers stacked into vectorized numpy kernels")
def _build_batched(config) -> BatchedExecutor:
    return BatchedExecutor()


@register_executor("process", description="workers fanned out to a process pool")
def _build_process(config) -> ProcessExecutor:
    processes = config.extras.get("executor_processes")
    # Without an explicit capacity the pool fits its rings to the largest
    # message a round can carry when it starts.
    capacity = config.extras.get("transport_capacity")
    return ProcessExecutor(
        processes=int(processes) if processes is not None else None,
        start_method=config.extras.get("executor_start_method"),
        capacity=int(capacity) if capacity is not None else None,
        max_batch_size=config.max_batch_size,
        max_cohort=config.num_workers,
    )


def resolve_executor(config, model=None, workers=()) -> str:
    """The registered backend ``config.executor`` stands for.

    An explicit name is returned as is.  The ``"auto"`` default picks
    between the two in-process backends from what is observable when the
    components are built: ``"batched"`` exactly where the batched executor
    would not fall back to its per-worker loop -- every layer of ``model``
    has a stacked kernel (:func:`~repro.parallel.kernels.unsupported_layers`
    is empty: the dense layers, where one numpy call per layer replaces
    per-worker Python) and the workers share their optimizer
    hyper-parameters -- and ``"serial"`` otherwise: conv/pool models,
    third-party layers and no ``model`` to look at.  ``model`` is the full
    model: every worker-side model (the bottom, a per-depth prefix,
    FedAvg's whole model) is a slice of it.
    """
    if config.executor != AUTO_EXECUTOR:
        return config.executor
    if (
        model is None
        or unsupported_layers(model)
        or (workers and uniform_worker_hyperparams(workers) is None)
    ):
        return "serial"
    return "batched"


def build_executor(config, model=None, workers=()) -> Executor:
    """Instantiate the executor ``config.executor`` resolves to.

    ``model`` and ``workers`` only inform the ``"auto"`` default (see
    :func:`resolve_executor`); the result's ``name`` says which backend
    was built.
    """
    from repro.api.registry import EXECUTORS

    return EXECUTORS.get(resolve_executor(config, model, workers))(config)

