"""Per-worker split points: straggler waiting time under heterogeneity.

The paper's protocol cuts every worker's model at the same global layer,
so on heterogeneous devices the slow compute classes (Jetson TX2 at
2 GFLOPS vs AGX at 30) set every round's clock.  :mod:`repro.splitpoint`
lets a policy choose a *per-worker* cut depth -- slow devices keep a
shallow bottom model and push more of the network onto the server -- and
this benchmark measures the claim that subsystem makes: on the Table-2
device mix, the ``profile`` policy (static depth per device class) reduces
the average per-round straggler waiting time against the ``uniform``
global cut, with the ``adaptive`` controller (depths re-selected each
round from observed durations and wire traffic) alongside.

``BENCH_SPLITPOINT`` is not consulted here -- this benchmark *is* the
split-point sweep; the env knob exists to run every other benchmark under
a chosen policy.
"""

from repro.api.session import Session
from repro.experiments.figures import figure_config
from repro.experiments.reporting import format_table
from repro.metrics.summary import final_accuracy, mean_waiting_time

from benchmarks.common import bench_overrides, run_once

#: Split-point policies of the sweep (``uniform`` is the exact anchor).
SPLIT_POLICY_NAMES = ("uniform", "profile", "adaptive")


def _splitpoint_config(policy: str, **overrides):
    params = bench_overrides()
    # BENCH_SPLITPOINT applies to every *other* benchmark; this one sweeps
    # the policy itself, against a genuinely uniform anchor.
    params.pop("split_policy", None)
    # More workers than the suite default so the 30/40/10 TX2/NX/AGX mix is
    # actually represented; full width so AlexNet-S's dense top layers give
    # the depth choice a real model-transfer stake; few local iterations so
    # the per-round model exchange (what a shallow cut shrinks ~100x) is not
    # amortised away against the feature stream.
    params.update(num_workers=10, model_width=1.0, local_iterations=2,
                  **overrides)
    return figure_config("cifar10", "mergesfl", split_policy=policy, **params)


def _run(config):
    with Session.from_config(config) as session:
        return session.run()


def _policy_sweep() -> list[dict]:
    return [
        {"policy": policy, "history": _run(_splitpoint_config(policy))}
        for policy in SPLIT_POLICY_NAMES
    ]


def test_splitpoint_policies(benchmark):
    rows = run_once(benchmark, _policy_sweep)
    print()
    print(format_table(
        ["policy", "avg_waiting_time_s", "sim_time_s", "traffic_mb",
         "final_acc"],
        [[row["policy"],
          f"{mean_waiting_time(row['history']):.3f}",
          f"{row['history'].records[-1].sim_time:.3f}",
          f"{row['history'].records[-1].traffic_mb:.2f}",
          f"{final_accuracy(row['history']):.3f}"] for row in rows],
        title="Split-point policies on the Table-2 device mix "
              "(CIFAR-10 / AlexNet-S)",
    ))
    waits = {row["policy"]: mean_waiting_time(row["history"]) for row in rows}
    # The headline claim: matching each device class's cut depth to its
    # compute/bandwidth profile shrinks the straggler gap the uniform
    # global cut leaves open.
    assert waits["profile"] < waits["uniform"]
