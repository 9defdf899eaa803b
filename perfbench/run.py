"""One benchmark run: one workload, one seed, one process.

    python3 perfbench/run.py --workload conv_serial --seed 7 --seconds 20 --trace 0

This is the command named in ``BENCHMARK.json``.  It builds the workload's
``ExperimentConfig`` from ``--seed``, drives it through ``Session`` only,
checks the outputs, and prints one JSON object as the last line of stdout:
every end-to-end metric with ``--trace 0``, every per-layer metric (stage
spans, counts, layer probes) with ``--trace 1``.  ``python -m perfbench``
runs this file once per (workload, repeat) and aggregates.

Closed loop, single driver: round ``r+1`` starts when round ``r`` returned.
Round 0 is warm-up (lazy pool spawn, cold caches).  The simulated metrics
come from exactly ``1 + workload.rounds`` rounds, so they depend on the seed
alone; further rounds up to ``--seconds`` only add host-time samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script from a checkout: nothing is installed, so make the
    # benchmark package and the program under test importable.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: Unpinned BLAS oversubscribes a 2-core host (conv_serial 217-251 samples/s
#: unpinned vs 284-304 pinned), so every measured process runs one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: ``Session.from_config`` is timed this many times before the rounds (the
#: first, cold with lazy imports, builds the session that runs and counts
#: towards ``wall_s``) and this many times after them.  ``setup_s`` is the
#: fastest of all: on this VM a set-up that touches fresh guest pages pays
#: host page faults (0.44, 0.33, 0.43, 0.27, 0.11 s within one run of the same
#: config) and the host's speed drifts for tens of seconds at a time, noise
#: that only ever adds, so the minimum over samples spread across the whole
#: run is the steady estimate of what the code costs.  The first four or so
#: after the rounds still fault (0.10, 0.23, 0.18, 0.10 s), the ones after
#: them settle (0.088-0.10 s); with 4 after, ``fedavg_conv``'s ten-seed median
#: moved 0.109 -> 0.092 s between two sets, so 9 are taken.
SETUPS_BEFORE = 3
SETUPS_AFTER = 9

RESULTS = ROOT / "perfbench" / "results"

#: End-to-end metrics of the full report (``python -m perfbench``) beyond the
#: ones ``BENCHMARK.json`` bounds.  The contract compares runs of *different*
#: seeds, and across seeds these move by more than any admissible bound
#: (time/traffic to target 18-47 %, waiting 9-48 %, and round/wall time with
#: the seed's cohort size), so they are reported and compared only between
#: repeats of one seed, where the simulated ones repeat exactly.
REPORT_ONLY = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_time_to_target_s", "unit": "sim_s", "better": "lower",
     "bound": 0.10},
    {"name": "traffic_to_target_mb", "unit": "MB", "better": "lower",
     "bound": 0.10},
    {"name": "waiting_s", "unit": "sim_s", "better": "lower", "bound": 0.10},
)


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units every run must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report_metrics() -> list[dict]:
    """Every end-to-end metric of the full report, with unit and bound."""
    return [*load_contract()["end_to_end"], *REPORT_ONLY]


def strip_wire(record) -> dict:
    """A ``RoundRecord`` without the topology-dependent wire fields."""
    from repro.metrics.history import WIRE_FIELDS

    return {k: v for k, v in asdict(record).items() if k not in WIRE_FIELDS}


def peak_rss_mb() -> float:
    """High-water RSS of this process plus the largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def simulated_metrics(records: list, workload, tau: int) -> dict:
    """The paper's metrics and the exact-repeat counts of the fixed rounds."""
    from repro.metrics.history import History
    from repro.metrics.summary import (
        mean_waiting_time, time_to_accuracy, traffic_to_accuracy,
    )

    history = History(records=list(records))
    measured = records[1:]
    reached = time_to_accuracy(history, workload.target)
    wire = sum(r.bytes_on_wire for r in measured)
    logical = sum(r.logical_bytes for r in measured)
    return {
        "final_accuracy": records[-1].test_accuracy,
        "sim_traffic_mb": records[-1].traffic_mb,
        "sim_time_s": records[-1].sim_time,
        "target_reached": 0 if reached is None else 1,
        # A missed target is censored at the end of the run (and counted
        # as a failure by the caller), so the value stays a number.
        "sim_time_to_target_s":
            records[-1].sim_time if reached is None else reached,
        "traffic_to_target_mb":
            records[-1].traffic_mb if reached is None
            else traffic_to_accuracy(history, workload.target),
        "waiting_s": mean_waiting_time(history),
        "api.rounds": len(measured),
        "parallel.iterations": len(measured) * tau,
        "core.samples": sum(r.total_batch for r in measured) * tau,
        "core.selected_mean": statistics.fmean(r.num_selected for r in measured),
        "core.merged_kl_mean": statistics.fmean(r.merged_kl for r in measured),
        "parallel.bytes_on_wire": wire,
        "parallel.logical_bytes": logical,
        "parallel.compression_ratio": logical / wire if wire else 0.0,
    }


def check_records(records: list) -> dict[str, bool]:
    """Structural checks on the fixed rounds' records."""
    return {
        "finite": all(
            math.isfinite(value) for r in records
            for value in (r.train_loss, r.test_loss, r.test_accuracy,
                          r.sim_time, r.traffic_mb)
        ),
        "round_index": [r.round_index for r in records]
        == list(range(len(records))),
        "sim_time_increases": all(
            a.sim_time < b.sim_time for a, b in zip(records, records[1:])
        ),
        "traffic_increases": all(
            a.traffic_mb < b.traffic_mb for a, b in zip(records, records[1:])
        ),
        "accuracy_in_range": all(0.0 <= r.test_accuracy <= 1.0 for r in records),
    }


def replay_matches(workload, seed: int, records: list) -> bool:
    """Re-run the leading rounds on a fresh reference session and compare."""
    from repro import ExperimentConfig, Session

    config = ExperimentConfig(
        **{**workload.config, **workload.reference}, seed=seed,
        num_rounds=workload.rounds + 1,
    )
    with Session.from_config(config) as session:
        replayed = [session.step() for __ in range(workload.replay_rounds)]
    return [strip_wire(r) for r in replayed] == [
        strip_wire(r) for r in records[:workload.replay_rounds]
    ]


def timed_setup(config) -> tuple[object, float]:
    """A session built by ``Session.from_config`` and the seconds it took."""
    from repro import Session

    start = time.perf_counter()
    session = Session.from_config(config)
    return session, time.perf_counter() - start


def spare_setups(config, count: int) -> list[float]:
    """Seconds of ``count`` further set-ups, each closed before the next."""
    seconds = []
    for __ in range(count):
        session, elapsed = timed_setup(config)
        session.close()
        seconds.append(elapsed)
    return seconds


def build_session(config, tracer):
    """The session that runs, and the host seconds of each timed set-up.

    Untraced: the first (cold) of ``SETUPS_BEFORE`` timed set-ups runs.
    Traced: the executor is wrapped between ``build_components`` and
    ``Session``, the engine's server and policy after it; set-up is not a
    per-layer metric, so it is built once.
    """
    from repro import Session
    from repro.api.components import build_components

    if tracer is not None:
        components = build_components(config)
        tracer.attach(components, "executor")
        session = Session(config, components=components)
        tracer.attach_engine(session)
        return session, []
    session, cold = timed_setup(config)
    return session, [cold, *spare_setups(config, SETUPS_BEFORE - 1)]


def traced_round(index: int) -> bool:
    """Traced runs alternate: round 0 and the odd rounds record spans, the
    even rounds run untraced next to them as the base of the overhead."""
    return index == 0 or index % 2 == 1


def layer_metrics(tracer, round_s: list[float], records: list, tau: int) -> dict:
    """Per-layer seconds per traced round (median), tail and overhead."""
    from perfbench.trace import LAYERS, STEP_LAYER, layer_seconds, tail_percentile

    measured = range(1, len(records))
    traced = [index for index in measured if traced_round(index)]
    per_layer = layer_seconds(tracer.spans, traced)
    values = {
        f"{layer}_s": statistics.median(per_layer.get(layer, [0.0]))
        if layer == STEP_LAYER or tracer.layer_known(layer) else None
        for layer in (*LAYERS, STEP_LAYER)
    }
    tail, percentile = tail_percentile([round_s[index] for index in measured])
    # Rounds differ in cohort size, so compare seconds per trained sample.
    per_sample = {
        flag: statistics.median(
            round_s[index] / (records[index].total_batch * tau)
            for index in measured if traced_round(index) is flag
        )
        for flag in (True, False)
    }
    values.update({
        "round_s": statistics.median(round_s[index] for index in measured),
        "api.first_round_s": round_s[0],
        "api.round_tail_s": tail,
        "api.round_tail_pct": percentile,
        "trace.overhead_pct": 100.0 * (per_sample[True] / per_sample[False] - 1.0),
    })
    return values


def host_metrics(round_s: list[float], history: list, tau: int) -> dict:
    """Round time and throughput over the measured rounds (round 0 excluded).

    ``samples_per_s`` is the fastest measured round's trained samples over
    its seconds, not the total: this VM's speed shifts by up to 40 % for tens
    of seconds at a time, which only ever slows a round, and the best round
    is the estimate that stays steady from run to run (spread over ten seeds
    6-13 % against 8-26 % for the total).  ``round_s`` keeps the median.
    """
    measured = round_s[1:]
    return {
        "round_s": statistics.median(measured),
        "samples_per_s": max(
            record.total_batch * tau / seconds
            for record, seconds in zip(history[1:], measured)
        ),
    }


def contract_metrics(values: dict, trace: bool, with_probes: bool,
                     checks: dict) -> dict:
    """The metrics ``BENCHMARK.json`` names for this kind of run, with units.

    A name the run did not produce fails a check; one it produced as ``None``
    (missing attach point, failed probe) is counted by ``trace.unmeasured``.
    """
    wanted = load_contract()["per_layer" if trace else "end_to_end"]
    if trace and not with_probes:
        from perfbench import probes

        skipped = probes.metric_names()
        wanted = [metric for metric in wanted if metric["name"] not in skipped]
    if trace:
        values["trace.unmeasured"] = sum(
            values.get(metric["name"], 0) is None for metric in wanted
        )
    for metric in wanted:
        if metric["name"] not in values:
            checks[f"metric:{metric['name']}"] = False
    return {
        metric["name"]: {"value": values.get(metric["name"]),
                         "unit": metric["unit"]}
        for metric in wanted
    }


def measure(workload, seed: int, seconds: float, trace: bool,
            with_probes: bool = True, smoke: bool = False) -> dict:
    """Run ``workload`` once and return the full result (see module doc)."""
    from repro import ExperimentConfig

    from perfbench.trace import Tracer

    started = time.perf_counter()
    config = ExperimentConfig(
        **workload.config, seed=seed, num_rounds=workload.rounds + 1
    )
    tracer = Tracer() if trace else None
    session, setups = build_session(config, tracer)

    round_s: list[float] = []
    failed = 0
    fixed = workload.rounds + 1
    run_started = time.perf_counter()
    fixed_seconds = sync_points = None
    while len(round_s) < fixed or time.perf_counter() - run_started < seconds:
        index = len(round_s)
        start = time.perf_counter()
        try:
            if trace and traced_round(index):
                with tracer.step(index):
                    session.step()
            else:
                session.step()
        except Exception:  # a failed round is a counted outcome, not a crash
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        round_s.append(time.perf_counter() - start)
        if len(round_s) == fixed:
            fixed_seconds = time.perf_counter() - run_started
            engine = getattr(session.algorithm, "engine", session.algorithm)
            sync_points = getattr(
                getattr(engine, "pipeline", None), "sync_points", None)
    attempted = len(round_s) + failed
    start = time.perf_counter()
    session.close()
    close_seconds = time.perf_counter() - start
    rss = peak_rss_mb()
    if not trace:
        setups += spare_setups(config, SETUPS_AFTER)

    history = list(session.history.records)
    records = history[:fixed]
    tau = config.local_iterations
    del session
    checks = {"rounds_completed": len(records) == fixed}
    values: dict[str, float | None] = {}
    exact: dict = {}
    if checks["rounds_completed"]:
        checks.update(check_records(records))
        exact = simulated_metrics(records, workload, tau)
        values.update(exact)
        checks["target_reached"] = bool(values["target_reached"])
        failed += (not checks["finite"]) + (not checks["target_reached"])
        checks["replay_matches"] = replay_matches(workload, seed, records)
        if trace:
            values.update(layer_metrics(tracer, round_s, history, tau))
            values["parallel.sync_points"] = exact["parallel.sync_points"] = sync_points
            if sync_points is None:
                tracer.unattached.append("pipeline.sync_points")
        else:
            values.update(host_metrics(round_s, history, tau))
            values.update({
                "wall_s": setups[0] + fixed_seconds + close_seconds,
                "setup_s": min(setups),
                "peak_rss_mb": rss,
            })

    probe_errors: dict[str, str] = {}
    if trace and with_probes:
        from perfbench import probes

        probed, probe_errors = probes.run_all(seed, smoke=smoke)
        values.update(probed)
    metrics = contract_metrics(values, trace, with_probes, checks)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "traced": trace, "smoke": smoke,
        "correct": all(checks.values()), "checks": checks,
        "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "values": values,
        # What depends on the seed alone and must repeat exactly.
        "exact": exact,
        "samples": {
            "round_s": round_s, "setup_s": setups,
            "round_samples": [r.total_batch * tau for r in history],
        },
        "records": [strip_wire(r) for r in records],
        "run_wall_s": time.perf_counter() - started,
    }
    if trace:
        result["trace"] = dict(
            tracer.to_dict(), workload=workload.name, seed=seed,
            probe_errors=probe_errors,
        )
    return result


def contract_line(result: dict) -> str:
    """The last stdout line the driver reads.

    Every value is a number: a per-layer metric whose attach point or probe
    is missing reads 0 here and is counted by ``trace.unmeasured`` (the
    ``--out`` file keeps the ``null`` and names the reason).
    """
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": 0.0 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the tests")
    parser.add_argument("--no-probes", action="store_true",
                        help="with --trace 1: skip the layer probes")
    parser.add_argument("--out", type=Path, help="write the full result here")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    from perfbench.workloads import WORKLOADS, smoke

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    result = measure(
        workload, args.seed, 0.0 if args.smoke else args.seconds,
        trace=bool(args.trace), with_probes=not args.no_probes,
        smoke=args.smoke,
    )
    if args.trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"trace_{workload.name}.json").write_text(
            json.dumps(result["trace"])
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result))
    for name, metric in result["metrics"].items():
        print(f"{workload.name:>13} {name:<40} {metric['value']!s:>22} "
              f"{metric['unit']}")
    for name, ok in result["checks"].items():
        if not ok:
            print(f"CHECK FAILED: {name}", file=sys.stderr)
    print(contract_line(result))
    # A run that produced a result exits 0; the verdict is in the result.
    return 0


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant (Linux).

    A grandchild whose parent died would otherwise go to init, out of this
    run's reach; as sub-reaper the run inherits it and :func:`stop_children`
    ends it.  Elsewhere ``prctl`` is missing and direct children are all
    the run can wait for.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Live and zombie children of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # ended while we looked
                continue
            # "pid (comm) state ppid ..."; comm may itself hold ") ".
            if int(stat.rpartition(") ")[2].split()[1]) == me:
                found.append(int(entry))
    return found


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The shm transport starts ``multiprocessing``'s resource tracker, which
    outlives its parent (it exits on the parent's EOF, is then reaped by
    nobody and stays a zombie under an init that does not wait); pool and
    probe children are closed by their owners but a failed run may skip that.
    So: drop what still holds shared memory, stop the tracker, terminate
    what is left, and wait for all of it.
    """
    import gc
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    gc.collect()  # an executor closed by __del__ after this would respawn the tracker
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
    for process in left:
        process.join(grace)
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass
    # Whatever is left was not started through multiprocessing (or was
    # adopted): give it ``grace`` seconds, kill it, and give up after as
    # many again rather than hang past the driver's time limit.
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # none left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                return
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + grace
        time.sleep(0.01)


if __name__ == "__main__":
    import signal

    adopt_orphans()
    # A terminated run unwinds through ``finally`` like a failed one.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    try:
        code = main()
    finally:
        sys.stdout.flush()
        stop_children()
    sys.exit(code)
