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

Two further axes compose with the executor choice:

* the **round pipeline** (``config.pipeline``, :mod:`repro.parallel.pipeline`)
  schedules the stages of each round with one scheduler class -- ``sync``
  waits for every install and backward, ``pipelined`` adds the aggregate
  window on capable executors (``process`` over ``shm``): no
  acknowledgements, and the round's accounting and the next round's plan
  overlap the executor's tail compute;
* the **feature transport** (``config.transport``,
  :mod:`repro.parallel.transport`) moves tensors, raw, across the process
  executor's process boundary -- ``pipe`` pickles them, ``shm`` ships them
  through shared-memory ring buffers (``extras["transport_capacity"]``
  tunes the per-direction ring size).

Every combination is bit-exact with every other.  The link codec
(``config.codec``, :mod:`repro.parallel.codec`) is not an execution axis:
the round applies it, identically on every executor, so a lossy run is
the same trajectory on all of them.
"""

from repro.api.registry import (
    register_executor,
    register_pipeline,
    register_transport,
)
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
    build_pipeline,
)
from repro.parallel.process import ProcessExecutor
from repro.parallel.serial import SerialExecutor
from repro.parallel.transport import (
    DEFAULT_RING_CAPACITY,
    PipeTransport,
    SharedMemoryTransport,
    Transport,
)

__all__ = [
    "BatchedExecutor",
    "CODECS",
    "Codec",
    "CodecPolicy",
    "Executor",
    "FullRoundOps",
    "PipeTransport",
    "PipelineScheduler",
    "ProcessExecutor",
    "RoundReport",
    "RoundStage",
    "SerialExecutor",
    "SharedMemoryTransport",
    "SplitRoundOps",
    "Transport",
    "build_codec_policy",
    "build_executor",
    "build_pipeline",
    "build_transport",
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
    return ProcessExecutor(
        processes=int(processes) if processes is not None else None,
        start_method=config.extras.get("executor_start_method"),
        transport=build_transport(config),
    )


@register_transport("pipe", description="pickle whole messages over a pipe")
def _build_pipe_transport(config) -> PipeTransport:
    return PipeTransport()


@register_transport("shm", description="arrays via shared-memory ring buffers")
def _build_shm_transport(config) -> SharedMemoryTransport:
    capacity = config.extras.get("transport_capacity")
    return SharedMemoryTransport(
        capacity=int(capacity) if capacity is not None else DEFAULT_RING_CAPACITY,
    )


@register_pipeline("sync", description="blocking reference order")
def _build_sync_pipeline(config) -> PipelineScheduler:
    return PipelineScheduler()


@register_pipeline(
    "pipelined", description="the aggregate window on capable executors (exact)"
)
def _build_pipelined_pipeline(config) -> PipelineScheduler:
    return PipelineScheduler(asynchronous=True)


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


def build_transport(config) -> Transport:
    """Instantiate the transport named in ``config.transport`` via the registry."""
    from repro.api.registry import TRANSPORTS

    return TRANSPORTS.get(config.transport)(config)
