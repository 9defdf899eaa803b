"""Layer probes: timed calls into each layer's public functions.

Every probe is a plain function over public APIs with inputs generated from
the seed and fixed shapes; it returns ``{metric name: value}``.  Timings are
the median of ``calls`` calls after ``warmups`` warm-ups.  A probe that
raises (for instance because a refactor moved what it imports) reports
``None`` for its metrics with the reason, instead of aborting the run.

Each probe names, in ``perfbench/README.md``, the end-to-end number it
bounds; none of them feeds an end-to-end metric.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

#: ``(function, metric names)`` in execution order; filled by ``@probe``.
PROBES: list[tuple] = []

#: Fixed probe shapes: the conv workloads' 16-worker cohort, a 512-worker MLP
#: fleet, kernels at batch 16, cohorts at batch 8 for 5 local iterations.
CONV_WORKERS = 16
MLP_WORKERS = 512
BATCH = 16
COHORT_BATCH = 8
ITERATIONS = 5
CODEC_NAMES = ("fp16", "bf16", "int8", "topk")
SOLVER_NAMES = ("ga", "ga-warm", "local-search", "greedy")
#: Backends whose install cost is reported (pipe and shm installs ship the
#: same pickled bottom, so one process row is enough).
INSTALL_BACKENDS = ("serial", "batched", "process-shm")
EXECUTOR_BACKENDS = {
    "serial": dict(executor="serial"),
    "batched": dict(executor="batched"),
    "process-pipe": dict(executor="process", transport="pipe",
                         extras={"executor_processes": 2}),
    "process-shm": dict(executor="process", transport="shm",
                        extras={"executor_processes": 2}),
}


def probe(*metrics: str):
    """Register a probe and the metric names it reports."""
    def register(function):
        PROBES.append((function, metrics))
        return function
    return register


class Context:
    """Seeded inputs shared by the probes, built on first use."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.calls, self.warmups = (2, 1) if smoke else (20, 3)
        self.rng = np.random.default_rng(seed)

    def time_ms(self, function, calls: int | None = None,
                warmups: int | None = None) -> float:
        """Median milliseconds of ``function()``."""
        for __ in range(self.warmups if warmups is None else warmups):
            function()
        samples = []
        # Slow probes ask for fewer calls; smoke's own count caps them all.
        for __ in range(min(calls or self.calls, self.calls)):
            start = time.perf_counter()
            function()
            samples.append(time.perf_counter() - start)
        return 1e3 * statistics.median(samples)

    def components(self, **overrides):
        from repro import ExperimentConfig
        from repro.api.components import build_components

        return build_components(ExperimentConfig(seed=self.seed, **overrides))

    @functools.cached_property
    def conv(self):
        """Components of the conv workloads' task (AlexNet-S @0.4)."""
        from perfbench.workloads import WORKLOADS, smoke

        workload = WORKLOADS["conv_serial"]
        config = (smoke(workload) if self.smoke else workload).config
        return self.components(**config)

    @functools.cached_property
    def mlp(self):
        """Components of a ``MLP_WORKERS``-worker blobs/MLP fleet."""
        workers = 8 if self.smoke else MLP_WORKERS
        return self.components(
            algorithm="mergesfl", dataset="blobs", model="mlp",
            non_iid_level=5, num_workers=workers, train_samples=20 * workers,
            test_samples=40, max_batch_size=16, base_batch_size=8,
        )

    def images(self, batch: int = BATCH) -> np.ndarray:
        return self.rng.normal(size=(batch, *self.conv.data.feature_shape))

    def cohort_features(self, components, count: int):
        """``count`` workers' batch-8 features and labels of one iteration."""
        bottom = components.split.bottom.clone()
        shape = components.data.feature_shape
        features = [
            bottom.forward(self.rng.normal(size=(COHORT_BATCH, *shape)))
            for __ in range(count)
        ]
        labels = [
            self.rng.integers(0, components.data.num_classes, size=COHORT_BATCH)
            for __ in range(count)
        ]
        return features, labels


# -- nn ------------------------------------------------------------------------
@probe("nn.conv2d_fwd_ms", "nn.conv2d_bwd_ms", "nn.im2col_ms", "nn.col2im_ms",
       "nn.maxpool_fwd_ms", "nn.maxpool_bwd_ms", "nn.linear_fwdbwd_ms",
       "nn.bottom_fwdbwd_ms", "nn.conv_gflops", "nn.sgd_step_ms")
def nn_kernels(ctx: Context) -> dict:
    """AlexNet-S @0.4 bottom and its 2nd conv/pool at batch 16."""
    from repro.nn import SGD, Conv2d, Linear, MaxPool2d
    from repro.nn.layers.conv import col2im, im2col
    from repro.nn.models import estimate_forward_flops

    bottom = ctx.conv.split.bottom.clone()
    images = ctx.images()
    # Inputs of the 2nd conv and the 2nd pool, from one real forward.
    inputs, convs, pools = images, [], []
    for layer in bottom.layers:
        if isinstance(layer, Conv2d):
            convs.append((layer, inputs))
        elif isinstance(layer, MaxPool2d):
            pools.append((layer, inputs))
        inputs = layer.forward(inputs)
    feature_grad = ctx.rng.normal(size=inputs.shape)
    conv, conv_in = convs[1]
    pool, pool_in = pools[1]
    conv_grad = ctx.rng.normal(size=conv.forward(conv_in).shape)
    pool_grad = ctx.rng.normal(size=pool.forward(pool_in).shape)
    geometry = (conv.kernel_size, conv.stride, conv.padding)
    cols, out_size = im2col(conv_in, *geometry)
    linear = next(
        layer for layer in ctx.conv.split.top.clone().layers
        if isinstance(layer, Linear)
    )
    linear_in = ctx.rng.normal(size=(BATCH, linear.in_features))
    linear_grad = ctx.rng.normal(size=(BATCH, linear.out_features))
    optimizer = SGD(bottom.parameters(), lr=0.01, max_grad_norm=5.0)

    def linear_fwdbwd():
        linear.forward(linear_in)
        linear.backward(linear_grad)

    def bottom_fwdbwd():
        bottom.forward(images)
        bottom.backward(feature_grad)

    forward_ms = ctx.time_ms(lambda: bottom.forward(images))
    flops = estimate_forward_flops(bottom, ctx.conv.data.feature_shape) * BATCH
    return {
        "nn.conv2d_fwd_ms": ctx.time_ms(lambda: conv.forward(conv_in)),
        "nn.conv2d_bwd_ms": ctx.time_ms(lambda: conv.backward(conv_grad)),
        "nn.im2col_ms": ctx.time_ms(lambda: im2col(conv_in, *geometry)),
        "nn.col2im_ms": ctx.time_ms(
            lambda: col2im(cols, conv_in.shape, *geometry, out_size)),
        "nn.maxpool_fwd_ms": ctx.time_ms(lambda: pool.forward(pool_in)),
        "nn.maxpool_bwd_ms": ctx.time_ms(lambda: pool.backward(pool_grad)),
        "nn.linear_fwdbwd_ms": ctx.time_ms(linear_fwdbwd),
        "nn.bottom_fwdbwd_ms": ctx.time_ms(bottom_fwdbwd),
        "nn.conv_gflops": flops / (forward_ms * 1e-3) / 1e9,
        "nn.sgd_step_ms": ctx.time_ms(optimizer.step),
    }


@probe("nn.clone_cold_ms", "nn.clone_warm_ms", "nn.clone_warm_mb",
       "nn.state_dict_ms", "nn.load_state_dict_ms", "nn.average_states_ms")
def nn_state(ctx: Context) -> dict:
    """``Module.clone()`` on a fresh bottom vs after one batch-16 forward
    (the cached-columns case), and the state-dict paths of aggregation."""
    from repro.nn import average_state_dicts

    cold = ctx.conv.split.bottom.clone()
    warm = cold.clone()
    warm.forward(ctx.images())
    state = cold.state_dict()
    states = [cold.state_dict() for __ in range(CONV_WORKERS)]
    weights = [float(w) for w in ctx.rng.integers(4, 17, size=CONV_WORKERS)]
    return {
        "nn.clone_cold_ms": ctx.time_ms(cold.clone),
        "nn.clone_warm_ms": ctx.time_ms(warm.clone),
        "nn.clone_warm_mb": len(pickle.dumps(warm.clone())) / 1e6,
        "nn.state_dict_ms": ctx.time_ms(cold.state_dict),
        "nn.load_state_dict_ms": ctx.time_ms(lambda: cold.load_state_dict(state)),
        "nn.average_states_ms": ctx.time_ms(
            lambda: average_state_dicts(states, weights)),
    }


# -- core ----------------------------------------------------------------------
@probe("core.merge_ms.conv16", "core.dispatch_ms.conv16",
       "core.top_update_ms.conv16", "core.merge_ms.mlp512",
       "core.dispatch_ms.mlp512", "core.top_update_ms.mlp512")
def core_merge(ctx: Context) -> dict:
    """Feature merging, gradient dispatch and the merged top update."""
    from repro.core.merging import FeatureMerger
    from repro.core.server import SplitServer

    values = {}
    for tag, components, count in (
        ("conv16", ctx.conv, len(ctx.conv.workers)),
        ("mlp512", ctx.mlp, len(ctx.mlp.workers)),
    ):
        features, labels = ctx.cohort_features(components, count)
        ids = list(range(count))
        merger = FeatureMerger()
        merged = merger.merge(ids, features, labels)
        gradient = ctx.rng.normal(size=merged.features.shape)
        server = SplitServer(
            components.split.bottom, components.split.top, learning_rate=0.01
        )
        values[f"core.merge_ms.{tag}"] = ctx.time_ms(
            lambda: merger.merge(ids, features, labels))
        values[f"core.dispatch_ms.{tag}"] = ctx.time_ms(
            lambda: merger.dispatch(merged, gradient))
        values[f"core.top_update_ms.{tag}"] = ctx.time_ms(
            lambda: server.update_top_merged(ids, features, labels))
    return values


@probe("core.regulation_ms")
def core_regulation(ctx: Context) -> dict:
    """``finetune_batch_sizes`` (Alg. 1 line 6) at N=400, half selected.

    The threshold is half the selection's own merged KL, so the solver has
    to move batch sizes instead of returning at the entry check.
    """
    from repro.core.divergence import (
        iid_distribution, kl_divergence, mixed_label_distribution,
    )
    from repro.core.regulation import finetune_batch_sizes

    workers = 24 if ctx.smoke else 400
    dists = ctx.rng.dirichlet([0.2] * 10, size=workers)
    batch = ctx.rng.integers(4, 17, size=workers)
    selected = np.sort(ctx.rng.choice(workers, size=workers // 2, replace=False))
    durations = ctx.rng.uniform(0.01, 0.05, size=workers)
    target = iid_distribution(dists)
    threshold = 0.5 * kl_divergence(
        mixed_label_distribution(dists, batch.astype(np.float64), selected),
        target,
    )
    return {"core.regulation_ms": ctx.time_ms(
        lambda: finetune_batch_sizes(
            batch, selected, dists, target, durations,
            kl_threshold=threshold, max_batch_size=16,
        ), calls=3, warmups=1)}


# -- selection -----------------------------------------------------------------
def selection_problem(ctx: Context, round_index: int, dists, base, counts):
    """One round of the ``bench_selection`` drifting 400-worker sequence."""
    from repro.core.divergence import iid_distribution
    from repro.core.selection import selection_priorities
    from repro.selection.solvers import SelectionProblem
    from repro.utils.rng import new_rng

    drift = new_rng(ctx.seed + 100 + round_index)
    batch = np.clip(base + drift.integers(-2, 3, size=base.shape[0]), 1, None)
    return SelectionProblem(
        batch_sizes=batch,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=0.4 * float(batch.sum()),
        priorities=selection_priorities(counts),
        rng=new_rng(ctx.seed + 200 + round_index),
    )


@probe(*(f"selection.{name}_{kind}" for name in SOLVER_NAMES
         for kind in ("ms", "kl")))
def selection_solvers(ctx: Context) -> dict:
    """Every production solver on a 4-round drifting 400-worker sequence;
    ``_kl`` guards quality (useful outcome per attempt)."""
    from repro.selection.solvers import SELECTION_SOLVERS

    workers, rounds = (24, 2) if ctx.smoke else (400, 4)
    dists = ctx.rng.dirichlet([0.2] * 10, size=workers)
    base = ctx.rng.integers(4, 17, size=workers)
    values = {}
    for name in SOLVER_NAMES:
        solver = SELECTION_SOLVERS.get(name)()
        counts = np.zeros(workers)
        seconds, kls = [], []
        for round_index in range(rounds):
            problem = selection_problem(ctx, round_index, dists, base, counts)
            start = time.perf_counter()
            result = solver.solve(problem)
            seconds.append(time.perf_counter() - start)
            kls.append(result.kl)
            counts[result.selected] += 1
        values[f"selection.{name}_ms"] = 1e3 * statistics.median(seconds)
        values[f"selection.{name}_kl"] = statistics.fmean(kls)
    return values


# -- executors -----------------------------------------------------------------
def task_config(components) -> dict:
    """The plain-dict config of ``components`` without execution knobs."""
    config = components.config.to_dict()
    for knob in ("executor", "transport", "pipeline", "extras"):
        config.pop(knob)
    return config


@probe(*(f"executor.{backend}_iter_ms.{cohort}"
         for backend in EXECUTOR_BACKENDS for cohort in ("conv16", "mlp512")),
       *(f"executor.{backend}_install_ms.conv16"
         for backend in INSTALL_BACKENDS))
def executor_matrix(ctx: Context) -> dict:
    """install -> 5 x (forward, top stub, backward_step) -> bottom_states on
    a fixed cohort, per backend: what ROADMAP item 2 needs to keep or delete
    a backend."""
    from repro import ExperimentConfig
    from repro.parallel import build_executor

    values = {}
    for cohort, components in (("conv16", ctx.conv), ("mlp512", ctx.mlp)):
        workers = components.workers
        bottom = components.split.bottom
        rates = [0.01] * len(workers)
        sizes = [COHORT_BATCH] * len(workers)
        for backend, knobs in EXECUTOR_BACKENDS.items():
            config = ExperimentConfig(**{**task_config(components), **knobs})
            with build_executor(config) as executor:
                def iteration():
                    features, __ = executor.forward(workers, sizes)
                    # Top stub: any gradient of the right shape will do.
                    executor.backward_step(
                        workers, [0.01 * f for f in features])

                # Warm-up pass: pool spawn, shard shipping, first install.
                executor.install(workers, bottom, rates)
                iteration()
                start = time.perf_counter()
                executor.install(workers, bottom, rates)
                install_ms = 1e3 * (time.perf_counter() - start)
                samples = []
                for __ in range(1 if ctx.smoke else ITERATIONS):
                    start = time.perf_counter()
                    iteration()
                    samples.append(time.perf_counter() - start)
                if len(executor.bottom_states(workers)) != len(workers):
                    raise RuntimeError(f"{backend}: a worker's state is missing")
            values[f"executor.{backend}_iter_ms.{cohort}"] = (
                1e3 * statistics.median(samples))
            if cohort == "conv16" and backend in INSTALL_BACKENDS:
                values[f"executor.{backend}_install_ms.conv16"] = install_ms
    return values


# -- transport and codec ---------------------------------------------------------
def _echo_child(connector) -> None:
    """Child loop: echo every payload back until told to stop."""
    endpoint = connector.connect()
    try:
        while True:
            try:
                message = endpoint.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            endpoint.send(message, klass="features")
    finally:
        endpoint.close()


def _round_trip_seconds(transport, payload: dict, repeats: int) -> float:
    """Median seconds of one send+echo of ``payload`` through one child."""
    from repro.utils.mp import get_mp_context

    context = get_mp_context()
    endpoint, connector = transport.pair(context)
    process = context.Process(target=_echo_child, args=(connector,), daemon=True)
    process.start()
    connector.conn.close()
    try:
        endpoint.send(payload, klass="features")  # warm-up
        endpoint.recv()
        samples = []
        for __ in range(repeats):
            start = time.perf_counter()
            endpoint.send(payload, klass="features")
            received = endpoint.recv()
            samples.append(time.perf_counter() - start)
        if not np.array_equal(received[0], payload[0]):
            raise RuntimeError(f"{transport.name}: echoed payload differs")
        endpoint.send(None, count=False)
    finally:
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
            process.join()
        endpoint.close(unlink=True)
    return statistics.median(samples)


@probe("transport.pipe_mbps", "transport.shm_mbps", "transport.pipe_small_us",
       "transport.shm_small_us")
def transport_echo(ctx: Context) -> dict:
    """Echo child over ``Transport.pair``: 4 x 1 MB (throughput, both ways
    counted) and 4 x 2 KB (per-message latency)."""
    from repro.parallel.transport import PipeTransport, SharedMemoryTransport

    repeats = 2 if ctx.smoke else 20
    big = {worker: ctx.rng.normal(size=131072) for worker in range(4)}
    small = {worker: ctx.rng.normal(size=256) for worker in range(4)}
    megabytes = sum(array.nbytes for array in big.values()) / 1e6
    values = {}
    for transport_type in (PipeTransport, SharedMemoryTransport):
        name = transport_type.name
        seconds = _round_trip_seconds(transport_type(), big, repeats)
        values[f"transport.{name}_mbps"] = 2.0 * megabytes / seconds
        values[f"transport.{name}_small_us"] = 1e6 * _round_trip_seconds(
            transport_type(), small, 5 * repeats)
    return values


@probe(*(f"codec.{name}_{kind}" for name in CODEC_NAMES
         for kind in ("encode_mbps", "decode_mbps", "ratio")))
def codec_passes(ctx: Context) -> dict:
    """``Codec.encode``/``decode`` on a 1 MB feature tensor."""
    from repro.api.registry import CODECS

    tensor = ctx.rng.normal(size=(64, 2048) if not ctx.smoke else (8, 64))
    megabytes = tensor.nbytes / 1e6
    values = {}
    for name in CODEC_NAMES:
        codec = CODECS.get(name)()
        payload, meta = codec.encode(tensor, key=("features", 0))
        dtype = str(tensor.dtype)
        encode_ms = ctx.time_ms(
            lambda: codec.encode(tensor, key=("features", 0)))
        decode_ms = ctx.time_ms(
            lambda: codec.decode(payload, tensor.shape, dtype, meta))
        values[f"codec.{name}_encode_mbps"] = megabytes / (encode_ms * 1e-3)
        values[f"codec.{name}_decode_mbps"] = megabytes / (decode_ms * 1e-3)
        values[f"codec.{name}_ratio"] = tensor.nbytes / payload.nbytes
    return values


# -- api -------------------------------------------------------------------------
@probe("api.checkpoint_save_ms", "api.checkpoint_load_ms", "api.checkpoint_mb")
def checkpoint(ctx: Context) -> dict:
    """``Session.save_checkpoint``/``load_checkpoint`` after round 1 of
    conv_serial: the stall one checkpoint costs."""
    from repro import Session

    directory = Path(__file__).resolve().parent / "results"
    directory.mkdir(exist_ok=True)
    with Session.from_config(ctx.conv.config) as session, \
            tempfile.TemporaryDirectory(dir=directory) as scratch:
        session.step()
        path = Path(scratch) / "probe.ckpt.json"
        save_ms = ctx.time_ms(lambda: session.save_checkpoint(path), calls=3)
        load_ms = ctx.time_ms(
            lambda: Session.load_checkpoint(path).close(), calls=3)
        size_mb = path.stat().st_size / 1e6
    return {"api.checkpoint_save_ms": save_ms,
            "api.checkpoint_load_ms": load_ms, "api.checkpoint_mb": size_mb}


# -- population, splitpoint, simulation, data, study -----------------------------
@probe("population.registry_build_ms", "population.checkout_ms",
       "population.release_ms")
def population(ctx: Context) -> dict:
    """Registry build at 1e5 rows; checkout/release of a 64-worker cohort."""
    from repro.population.registry import SampledShards, WorkerRegistry

    rows = 1000 if ctx.smoke else 100_000
    components = ctx.components(
        dataset="blobs", model="mlp", num_workers=rows, population="lazy",
        population_candidates=64, train_samples=2000, test_samples=40,
        extras={"population_sharding": "sampled", "auto_budget": False},
    )
    train = components.data.train

    def build():
        return WorkerRegistry(
            num_workers=rows, num_classes=components.data.num_classes,
            targets=train.targets,
            source=SampledShards(len(train), 16, seed=ctx.seed),
        )

    pool = components.pool
    cohort = ctx.rng.choice(rows, size=64, replace=False)
    checkout_s, release_s = [], []
    for __ in range(ctx.calls):
        start = time.perf_counter()
        workers = pool.checkout(cohort)
        middle = time.perf_counter()
        pool.release(workers)
        checkout_s.append(middle - start)
        release_s.append(time.perf_counter() - middle)
    return {
        "population.registry_build_ms": ctx.time_ms(build),
        "population.checkout_ms": 1e3 * statistics.median(checkout_s),
        "population.release_ms": 1e3 * statistics.median(release_s),
    }


@probe("splitpoint.profile_assign_ms", "splitpoint.adaptive_assign_ms")
def splitpoint(ctx: Context) -> dict:
    """Per-worker cut-depth assignment for 64 workers of the conv bottom."""
    from repro.api.registry import SPLIT_POLICIES
    from repro.nn import Sequential, model_size_bytes
    from repro.nn.models import estimate_forward_flops
    from repro.nn.split import candidate_split_depths
    from repro.simulation.cluster import build_cluster
    from repro.simulation.traffic import feature_bytes
    from repro.splitpoint import SplitContext

    bottom = ctx.conv.split.bottom.clone()
    shape = ctx.conv.data.feature_shape
    depths = candidate_split_depths(bottom)
    prefixes = {depth: Sequential(bottom.layers[:depth]) for depth in depths}
    sample = np.zeros((1, *shape))
    workers = list(range(64))
    context = SplitContext(
        depths=depths,
        flops={d: estimate_forward_flops(p, shape) for d, p in prefixes.items()},
        exchange_bytes={
            d: 2 * feature_bytes(tuple(p.forward(sample).shape[1:]), 1)
            for d, p in prefixes.items()
        },
        model_bytes={d: model_size_bytes(p) for d, p in prefixes.items()},
        cluster=build_cluster(64, 120.0, seed=ctx.seed),
        batch_sizes={w: COHORT_BATCH for w in workers},
        base_batch_size=COHORT_BATCH, local_iterations=ITERATIONS,
    )
    values = {}
    for name in ("profile", "adaptive"):
        policy = SPLIT_POLICIES.get(name)(ctx.conv.config)
        values[f"splitpoint.{name}_assign_ms"] = ctx.time_ms(
            lambda: policy.assign_depths(0, workers, context))
    return values


@probe("simulation.advance_round_ms")
def simulation(ctx: Context) -> dict:
    """``Cluster.advance_round`` over 1000 simulated devices."""
    from repro.simulation.cluster import build_cluster

    cluster = build_cluster(50 if ctx.smoke else 1000, 120.0, seed=ctx.seed)
    rounds = iter(range(10_000))
    return {"simulation.advance_round_ms": ctx.time_ms(
        lambda: cluster.advance_round(next(rounds)))}


@probe("data.make_dataset_ms", "data.partition_ms")
def data(ctx: Context) -> dict:
    """Dataset synthesis and non-IID partition at ``fleet_mlp`` sizes."""
    from repro.data.partition import partition_dataset
    from repro.data.synthetic import make_dataset

    train, workers = (400, 20) if ctx.smoke else (20000, 1000)
    split = make_dataset("blobs", train, 200, seed=ctx.seed)
    return {
        "data.make_dataset_ms": ctx.time_ms(
            lambda: make_dataset("blobs", train, 200, seed=ctx.seed), calls=5),
        "data.partition_ms": ctx.time_ms(
            lambda: partition_dataset(split.train, workers, 5, seed=ctx.seed),
            calls=5),
    }


@probe("study.sweep_s.jobs1", "study.sweep_s.jobs2")
def study(ctx: Context) -> dict:
    """A 4-trial smoke sweep through ``StudyRunner`` at 1 and 2 jobs."""
    from repro import ExperimentConfig
    from repro.study import Study, StudyRunner

    base = ExperimentConfig(
        dataset="blobs", model="mlp", num_workers=4, num_rounds=2,
        train_samples=160, test_samples=40, seed=ctx.seed,
    )
    sweep = Study.grid("perfbench-probe", base, axes={
        "algorithm": ("mergesfl", "fedavg"), "non_iid_level": (0.0, 5.0),
    })
    values = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        results = StudyRunner(sweep, n_jobs=jobs).run()
        values[f"study.sweep_s.jobs{jobs}"] = time.perf_counter() - start
        if len(results) != 4:
            raise RuntimeError(f"study ran {len(results)} of 4 trials")
    return values


def metric_names() -> set[str]:
    """Every metric some registered probe reports."""
    return {name for __, metrics in PROBES for name in metrics}


def run_all(seed: int, smoke: bool = False) -> tuple[dict, dict]:
    """Run every probe; returns ``(values, errors)``.

    ``values`` maps every probe metric to its value or ``None``; ``errors``
    maps the metrics of a failed probe to the reason.
    """
    context = Context(seed, smoke)
    values: dict[str, float | None] = {}
    errors: dict[str, str] = {}
    for function, metrics in PROBES:
        try:
            measured = function(context)
            values.update({name: measured[name] for name in metrics})
        except Exception as error:  # a broken probe must not abort the run
            values.update({name: None for name in metrics})
            errors.update({name: f"{type(error).__name__}: {error}"
                           for name in metrics})
    return values, errors


if __name__ == "__main__":
    import json
    import sys

    probed, failures = run_all(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
    print(json.dumps({"values": probed, "errors": failures}, indent=1))
