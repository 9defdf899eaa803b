"""Fig. 9: average per-round waiting time of the five approaches.

Paper: AdaSFL has the smallest waiting time, MergeSFL is close behind, and
the fixed-batch approaches (LocFedMix-SL, FedAvg) wait the longest.
"""

import pytest

from repro.experiments import figures
from repro.experiments.reporting import format_table

from benchmarks.common import bench_overrides, run_once


def test_fig09_waiting_time_cifar10(benchmark):
    result = run_once(
        benchmark, figures.figure9_waiting_time, datasets=("cifar10",),
        **bench_overrides(),
    )
    rows = [
        [row["dataset"], row["approach"], row["mean_waiting_time_s"]]
        for row in result["rows"]
    ]
    print()
    print(format_table(
        ["dataset", "approach", "avg_waiting_time_s"], rows,
        title="Fig. 9: average per-round waiting time (CIFAR-10 analogue)",
    ))
    waits = {row["approach"]: row["mean_waiting_time_s"] for row in result["rows"]}
    # Shape checks: batch-size regulation (AdaSFL, MergeSFL) waits less than
    # the fixed-batch SFL baseline.
    assert waits["adasfl"] < waits["locfedmix_sl"]
    if (bench_overrides().get("codec", "none") != "none"
            and waits["mergesfl"] >= waits["locfedmix_sl"]):
        # Known failure, kept visible: under a compressing codec the
        # bandwidth budget stops binding, Alg. 1 line 7 scales every
        # MergeSFL batch up to max_batch_size, and MergeSFL waits longer
        # than LocFedMix-SL (EXPERIMENTS.md; ROADMAP item 3).  AdaSFL runs
        # no line 7.
        pytest.xfail(
            f"MergeSFL waits {waits['mergesfl']:.3f} s >= LocFedMix-SL "
            f"{waits['locfedmix_sl']:.3f} s under a compressing codec "
            "(ROADMAP item 3: Alg. 1 line 7 on a cheap link)"
        )
    assert waits["mergesfl"] < waits["locfedmix_sl"]
