"""The whole benchmark in one command.

    PYTHONPATH=src python -m perfbench [--seed 7] [--repeats 3]
        [--workload NAME] [--smoke] [--out FILE] [--selfcheck]

Every (workload, repeat) is one fresh ``perfbench/run.py`` subprocess with
BLAS pinned to one thread; repeats are interleaved across workloads
(A B C D A B C D ...) so host drift hits all equally.  After the untraced
repeats each workload runs once more traced (``--trace 1``; the first of
them also runs the layer probes).  Prints every metric by name with its
unit, runs the checks, writes the full result to ``--out`` and exits
non-zero when a check fails.  ``--selfcheck`` runs two full sets of the same
code and feeds them to ``perfbench/compare.py`` (the A/A test).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from perfbench import compare
from perfbench.run import (
    RESULTS, ROOT, THREAD_VARS, load_contract, report_metrics,
)
from perfbench.trace import tail_percentile
from perfbench.workloads import WORKLOADS

def host_block() -> dict:
    """Where the numbers were taken."""
    import numpy

    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or None,
        "thread_pinning": {var: "1" for var in THREAD_VARS},
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, probes: bool, out: Path) -> dict:
    """One fresh subprocess of ``perfbench/run.py``; its full result."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--out", str(out),
    ]
    if smoke:
        command.append("--smoke")
    if trace and not probes:
        command.append("--no-probes")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=900,
    )
    if completed.returncode != 0 or not out.exists():
        raise RuntimeError(
            f"{workload} (trace={trace:d}) exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(out.read_text())


def summarise(runs: list[dict], traced: dict, probe_names: set[str]) -> dict:
    """Medians, pooled round times, per-layer numbers and the exact values."""
    end_to_end = {}
    for metric in report_metrics():
        values = [run["values"][metric["name"]] for run in runs]
        q1, median, q3 = compare.quartiles(values)
        end_to_end[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "unit": metric["unit"],
            "values": values,
        }
    pooled = [s for run in runs for s in run["samples"]["round_s"][1:]]
    tail, percentile = tail_percentile(pooled)
    per_layer = {
        key: metric for key, metric in traced["metrics"].items()
        if key not in probe_names
    }
    return {
        "end_to_end": end_to_end,
        "round_s_pooled": {
            "median": statistics.median(pooled), "tail": tail,
            "tail_percentile": percentile, "samples": len(pooled),
        },
        "rounds_attempted": sum(run["attempted"] for run in runs),
        "rounds_failed": sum(run["failed"] for run in runs),
        "per_layer": per_layer,
        "exact": traced["exact"],
        "unattached": traced["trace"]["unattached"],
        "runs": [
            {key: run[key] for key in
             ("correct", "checks", "attempted", "failed", "samples", "run_wall_s")}
            for run in runs
        ],
    }


def run_set(seed: int, repeats: int, seconds: float, names: list[str],
            smoke: bool) -> dict:
    """All untraced repeats (interleaved), then one traced run per workload."""
    from perfbench import probes

    probe_names = probes.metric_names()
    with tempfile.TemporaryDirectory(dir=RESULTS) as directory:
        scratch = Path(directory)
        runs: dict[str, list[dict]] = {name: [] for name in names}
        for repeat in range(repeats):
            for name in names:
                print(f"[perfbench] {name} repeat {repeat + 1}/{repeats}",
                      file=sys.stderr)
                runs[name].append(run_child(
                    name, seed, seconds, False, smoke, False,
                    scratch / f"{name}-{repeat}.json"))
        traced = {}
        for index, name in enumerate(names):
            print(f"[perfbench] {name} traced", file=sys.stderr)
            traced[name] = run_child(
                name, seed, seconds, True, smoke, index == 0,
                scratch / f"{name}-traced.json")

    checks = {}
    for name in names:
        every = [*runs[name], traced[name]]
        checks[f"{name}:correct"] = all(run["correct"] for run in every)
        checks[f"{name}:no_failed_rounds"] = not any(run["failed"] for run in every)
        checks[f"{name}:repeats_identical"] = all(
            run["records"] == every[0]["records"] for run in every
        )
    if {"conv_serial", "conv_process"} <= set(names):
        checks["conv_process_equals_conv_serial"] = (
            runs["conv_process"][0]["records"] == runs["conv_serial"][0]["records"]
        )
    first = traced[names[0]]
    result = {
        "host": host_block(), "seed": seed, "repeats": repeats,
        "seconds": seconds, "smoke": smoke,
        "workloads": {
            name: summarise(runs[name], traced[name], probe_names)
            for name in names
        },
        "probes": {
            key: metric for key, metric in first["metrics"].items()
            if key in probe_names
        },
        "probe_errors": first["trace"]["probe_errors"],
        "checks": checks,
    }
    result["ok"] = all(checks.values())
    return result


def shown(value) -> str:
    """A metric value for the report; ``null`` when it could not be measured."""
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    for name, workload in result["workloads"].items():
        print(f"== {name}: rounds_attempted={workload['rounds_attempted']} "
              f"rounds_failed={workload['rounds_failed']}")
        for key, metric in workload["end_to_end"].items():
            print(f"  {key:<28} {metric['median']:>14.6g} {metric['unit']:<10}"
                  f" [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g},"
                  f" n={len(metric['values'])}]")
        pooled = workload["round_s_pooled"]
        print(f"  {'round_s (pooled)':<28} {pooled['median']:>14.6g} s"
              f"          [p{pooled['tail_percentile']:.0f} {pooled['tail']:.6g},"
              f" n={pooled['samples']}]")
        for key, metric in workload["per_layer"].items():
            print(f"  {key:<28} {shown(metric['value']):>14} {metric['unit']}")
        if workload["unattached"]:
            print(f"  trace.unattached: {', '.join(workload['unattached'])}")
    print("== probes")
    for key, metric in result["probes"].items():
        print(f"  {key:<40} {shown(metric['value']):>14} {metric['unit']}")
    for key, reason in result["probe_errors"].items():
        print(f"  {key}: null ({reason})")
    print("== checks")
    for key, passed in result["checks"].items():
        print(f"  {'ok    ' if passed else 'FAILED'} {key}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()["run_seconds"])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: seconds instead of minutes")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets of the same code and compare them")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = args.workload or list(WORKLOADS)
    RESULTS.mkdir(parents=True, exist_ok=True)

    result = run_set(args.seed, args.repeats, args.seconds, names, args.smoke)
    report(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"wrote {args.out}")
    status = 0 if result["ok"] else 1
    if args.selfcheck:
        second = run_set(args.seed, args.repeats, args.seconds, names, args.smoke)
        other = args.out.with_name(args.out.stem + ".selfcheck.json")
        other.write_text(json.dumps(second, indent=1))
        rows, regressed = compare.compare(result, second, report_metrics())
        print(compare.format_rows(rows))
        differs = [row for row in rows if row["verdict"] == "differs"]
        if regressed or differs or not second["ok"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
