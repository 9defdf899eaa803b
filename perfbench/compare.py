"""Compare two benchmark results: one row per (workload, end-to-end metric).

    python perfbench/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both are result files written by
``python -m perfbench``.  Each row shows both medians and quartiles, the
fixed regression bound (``BENCHMARK.json`` and ``run.REPORT_ONLY``) and a
verdict:

* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, so "no change" cannot be claimed --
  unless every run of B reads better than every run of A;
* ``ok`` -- otherwise.

Simulated and count metrics must repeat exactly for one seed, so with equal
seeds they get ``same``/``differs`` rows.  Exit status is non-zero on any
``worse`` row or when B failed a larger share of its rounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a script: make the benchmark package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    if sign * (median_b - median_a) > bound * abs(median_a):
        return "worse"
    if max(spread(a), spread(b)) > bound:
        b_wins_every_pair = all(
            sign * (run_b - run_a) < 0 for run_a in a for run_b in b
        )
        return "ok" if b_wins_every_pair else "unresolved"
    return "ok"


def failed_share(workload: dict) -> float:
    return workload["rounds_failed"] / max(1, workload["rounds_attempted"])


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[list[dict], bool]:
    """Rows for every pairing of workload and metric, and whether B regressed."""
    rows, regressed = [], False
    same_seed = a.get("seed") == b.get("seed")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in metrics:
            values_a = side_a["end_to_end"][metric["name"]]["values"]
            values_b = side_b["end_to_end"][metric["name"]]["values"]
            q1_a, median_a, q3_a = quartiles(values_a)
            q1_b, median_b, q3_b = quartiles(values_b)
            outcome = verdict(values_a, values_b, metric["better"], metric["bound"])
            regressed |= outcome == "worse"
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "a": {"q1": q1_a, "median": median_a, "q3": q3_a},
                "b": {"q1": q1_b, "median": median_b, "q3": q3_b},
                "verdict": outcome,
            })
        if same_seed:
            exact_a, exact_b = side_a.get("exact", {}), side_b.get("exact", {})
            for key in exact_a:
                if key in exact_b:
                    rows.append({
                        "workload": name, "metric": key,
                        "a": {"median": exact_a[key]},
                        "b": {"median": exact_b[key]},
                        "verdict":
                            "same" if exact_a[key] == exact_b[key] else "differs",
                    })
        if failed_share(side_b) > failed_share(side_a):
            regressed = True
            rows.append({
                "workload": name, "metric": "rounds_failed",
                "a": {"median": failed_share(side_a)},
                "b": {"median": failed_share(side_b)}, "verdict": "worse",
            })
    return rows, regressed


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<13} {'metric':<28} {'A median [q1, q3]':<38} "
             f"{'B median [q1, q3]':<38} {'bound':>6}  verdict"]
    for row in rows:
        cells = []
        for side in (row["a"], row["b"]):
            cell = f"{side['median']:.6g}"
            if "q1" in side:
                cell += f" [{side['q1']:.6g}, {side['q3']:.6g}]"
            cells.append(cell)
        bound = f"{row['bound']:.0%}" if "bound" in row else ""
        lines.append(
            f"{row['workload']:<13} {row['metric']:<28} {cells[0]:<38} "
            f"{cells[1]:<38} {bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    from perfbench.run import report_metrics

    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows, regressed = compare(a, b, report_metrics())
    print(format_rows(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
