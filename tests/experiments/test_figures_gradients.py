"""Tests for the per-figure entry points and the Fig. 4 gradient analysis."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.experiments import figures
from repro.experiments.gradients import compare_gradient_directions
from repro.experiments.reporting import format_table
from repro.nn.models import build_mlp
from repro.nn.split import split_model
from repro.utils.rng import new_rng

#: Overrides that make figure entry points fast enough for unit tests.
TINY = {
    "num_workers": 4,
    "num_rounds": 2,
    "local_iterations": 2,
    "train_samples": 200,
    "test_samples": 60,
    "model_width": 0.25,
}


def _skewed_batches(num_workers=4, batch=8, seed=0):
    data = make_blobs(train_samples=400, test_samples=50, seed=seed)
    rng = new_rng(seed)
    batches = []
    for worker in range(num_workers):
        cls = worker % data.num_classes
        pool = np.flatnonzero(data.train.targets == cls)
        picked = rng.choice(pool, size=batch, replace=False)
        batches.append((data.train.data[picked], data.train.targets[picked]))
    return batches


class TestGradientComparison:
    def test_merged_gradient_aligns_better_than_sequential(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        result = compare_gradient_directions(split, _skewed_batches())
        assert -1.0 <= result.cosine_t <= 1.0
        assert result.cosine_fm >= result.cosine_t - 1e-9
        assert result.cosine_fm > 0.95

    def test_pca_points_are_2d(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        result = compare_gradient_directions(split, _skewed_batches())
        assert {"sgd", "sfl_fm", "sfl_t"} <= set(result.pca_points)
        assert all(point.shape == (2,) for point in result.pca_points.values())

    def test_bottom_cosines_one_per_worker(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        result = compare_gradient_directions(split, _skewed_batches(num_workers=3))
        assert len(result.bottom_cosines) == 3

    def test_requires_two_batches(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        with pytest.raises(ValueError):
            compare_gradient_directions(split, _skewed_batches(num_workers=1))


class TestFigureEntryPoints:
    def test_table2_rows(self):
        rows = figures.table2_device_specifications()
        print()
        print(format_table(
            ["device", "ai_performance", "gpu", "cpu", "memory_gb", "train_gflops", "modes"],
            [[r["device"], r["ai_performance"], r["gpu"], r["cpu"], r["memory_gb"],
              r["train_gflops"], r["num_modes"]] for r in rows],
            title="Table II: device technical specifications (simulator profiles)",
        ))
        assert len(rows) == 3
        assert {row["device"] for row in rows} == {
            "jetson_tx2", "jetson_nx", "jetson_agx",
        }
        assert all(row["memory_gb"] > 0 for row in rows)

    def test_figure2_3_motivation_rows(self):
        result = figures.figure2_3_motivation(dataset="har", **TINY)
        assert {row["variant"] for row in result["rows"]} == set(figures.MOTIVATION_VARIANTS)
        assert all(row["total_time_s"] > 0 for row in result["rows"])

    @pytest.mark.parametrize("num_workers, batch_size, model_width", [
        (3, 8, 0.25),
        (5, 12, 0.4),
    ])
    def test_figure4_runs_on_cifar_analogue(self, num_workers, batch_size, model_width):
        """Fig. 4: the merged-feature gradient is much closer to standalone
        SGD's than typical SFL's per-worker gradients."""
        result = figures.figure4_gradient_directions(
            num_workers=num_workers, batch_size=batch_size, model_width=model_width
        )
        print()
        print(format_table(
            ["approach", "cosine_to_standalone_sgd"],
            [["SFL-FM (merged)", result.cosine_fm], ["SFL-T (per-worker)", result.cosine_t]],
            title="Fig. 4: top-model gradient alignment with centralized SGD",
        ))
        assert result.cosine_fm >= result.cosine_t
        assert result.cosine_fm > 0.9

    def test_figure6_structure(self):
        result = figures.figure6_iid_accuracy(datasets=("har",), **TINY)
        assert "har" in result
        assert set(result["har"]["histories"]) == set(figures.FIVE_APPROACHES)

    def test_figure10_rows_cover_levels_and_approaches(self):
        result = figures.figure10_noniid_levels(
            dataset="har", levels=(0.0, 10.0),
            approaches=("mergesfl", "fedavg"), **TINY,
        )
        rows = result["rows"]
        assert len(rows) == 4
        assert {row["non_iid_level"] for row in rows} == {0.0, 10.0}

    def test_figure11_ablation_structure(self):
        result = figures.figure11_ablation(dataset="har", **TINY)
        assert set(result) == {"iid", "non_iid"}
        assert set(result["iid"]["histories"]) == {
            "mergesfl", "mergesfl_no_fm", "mergesfl_no_br",
        }

    def test_figure12_scalability_rows(self):
        result = figures.figure12_scalability(dataset="har", scales=(4, 6), **{
            key: value for key, value in TINY.items() if key != "num_workers"
        })
        assert [row["num_workers"] for row in result["rows"]] == [4, 6]
        assert all(row["final_accuracy"] >= 0 for row in result["rows"])

    def test_figure7_structure(self):
        result = figures.figure7_noniid_accuracy(
            datasets=("har",), approaches=("mergesfl", "fedavg"), **TINY
        )
        assert set(result["har"]["histories"]) == {"mergesfl", "fedavg"}
        assert set(result["har"]["comparison"]) == {"mergesfl", "fedavg"}

    def test_figure8_reuses_supplied_histories(self):
        histories = figures.run_approaches(
            "har", approaches=("mergesfl", "fedavg"), non_iid_level=10.0, **TINY
        )
        result = figures.figure8_network_traffic({"har": histories})
        assert result["histories"] == {"har": histories}
        assert {row["approach"] for row in result["rows"]} == {"mergesfl", "fedavg"}
        # Three targets (50%, 75%, 100% of the common ceiling) per approach.
        assert len(result["rows"]) == 6

    def test_figure9_rows_one_per_approach(self):
        histories = figures.run_approaches(
            "har", approaches=("mergesfl", "fedavg"), non_iid_level=10.0, **TINY
        )
        result = figures.figure9_waiting_time({"har": histories})
        assert [row["approach"] for row in result["rows"]] == ["mergesfl", "fedavg"]
        assert all(row["mean_waiting_time_s"] >= 0 for row in result["rows"])


class TestStudyBackedFigures:
    """The figure entry points are Studies underneath (same shapes, and
    n_jobs > 1 must not change any result)."""

    def test_approaches_study_trials_and_tags(self):
        study = figures.approaches_study(
            "har", approaches=("mergesfl", "fedavg"), non_iid_level=10.0, **TINY
        )
        assert study.names() == ["mergesfl", "fedavg"]
        trial = study.trial("fedavg")
        assert trial.config.algorithm == "fedavg"
        assert trial.config.non_iid_level == 10.0
        assert trial.tags["dataset"] == "har"

    def test_run_approaches_parallel_matches_serial(self):
        from dataclasses import asdict

        serial = figures.run_approaches(
            "blobs", approaches=("mergesfl", "fedavg"), **TINY
        )
        parallel = figures.run_approaches(
            "blobs", approaches=("mergesfl", "fedavg"), n_jobs=2, **TINY
        )
        for name in serial:
            assert ([asdict(r) for r in serial[name].records]
                    == [asdict(r) for r in parallel[name].records])

    def test_run_approaches_with_store_is_resumable(self, tmp_path):
        from repro.study import StudyStore

        store = StudyStore(tmp_path)
        first = figures.run_approaches(
            "blobs", approaches=("mergesfl",), store=store, **TINY
        )
        again = figures.run_approaches(
            "blobs", approaches=("mergesfl",), store=store, **TINY
        )
        assert first["mergesfl"].to_dict() == again["mergesfl"].to_dict()
