"""System heterogeneity: compare waiting time and completion time.

Reproduces the spirit of the paper's Fig. 9 on one dataset: the fixed-batch
approaches (LocFedMix-SL, FedAvg) leave fast workers idle, while batch-size
regulation (AdaSFL, MergeSFL) aligns per-worker iteration times on the
heterogeneous Jetson cluster.

Usage::

    python examples/heterogeneous_edge.py
"""

from repro import ExperimentConfig, run_experiment
from repro.experiments.reporting import format_table
from repro.metrics.summary import final_accuracy, mean_waiting_time
from repro.simulation.cluster import build_cluster


def show_cluster_heterogeneity() -> None:
    """Print the per-sample compute-time spread of a simulated cluster."""
    cluster = build_cluster(num_workers=12, bandwidth_budget_mbps=100, seed=1)
    times, __ = cluster.per_sample_times(
        range(len(cluster)), forward_flops=2e6, bytes_per_sample=0
    )
    rows = [
        [device.worker_id, device.profile.name, device.mode,
         f"{device.bandwidth_mbps:.1f}", f"{1000 * mu:.2f}"]
        for device, mu in zip(cluster.devices, times)
    ]
    print(format_table(
        ["worker", "device", "mode", "bandwidth (Mb/s)", "ms / sample"],
        rows, title="Simulated heterogeneous edge cluster",
    ))
    print(f"compute-time spread: {times.max() / times.min():.1f}x\n")


def main() -> None:
    show_cluster_heterogeneity()

    config = ExperimentConfig(
        dataset="har",
        model="cnn_h",
        num_workers=10,
        num_rounds=5,
        local_iterations=6,
        non_iid_level=0.0,
        max_batch_size=16,
        base_batch_size=8,
        learning_rate=0.08,
        model_width=0.5,
        train_samples=800,
        test_samples=200,
        seed=21,
    )

    rows = []
    for algorithm in ("mergesfl", "adasfl", "locfedmix_sl", "fedavg"):
        history = run_experiment(config.replace(algorithm=algorithm))
        rows.append([
            algorithm,
            f"{final_accuracy(history):.3f}",
            f"{mean_waiting_time(history):.2f}",
            f"{history.records[-1].sim_time:.1f}",
            f"{history.records[-1].traffic_mb:.1f}",
        ])
    print(format_table(
        ["approach", "final acc", "avg wait (s)", "total time (s)", "traffic (MB)"],
        rows, title="System heterogeneity on the HAR analogue (IID)",
    ))


if __name__ == "__main__":
    main()
