"""Paper-scale sweep presets: construction, axes and the bench hook."""

from __future__ import annotations

import pytest

from repro.exceptions import StudyError
from repro.study import PRESETS, get_preset, preset_scales, scalability_study
from repro.study.presets import PAPER_WORKER_SCALES, SMOKE_WORKER_SCALES


class TestScalabilityStudy:
    def test_paper_preset_sweeps_the_paper_axis(self):
        study = get_preset("paper-scalability")
        assert preset_scales("paper-scalability") == PAPER_WORKER_SCALES == (100, 200, 400)
        assert len(study) == 3
        for trial, scale in zip(study, PAPER_WORKER_SCALES):
            assert trial.config.num_workers == scale
            assert trial.config.algorithm == "mergesfl"
            assert trial.tags["num_workers"] == scale

    def test_noniid_preset_sets_the_level(self):
        study = get_preset("paper-scalability-noniid")
        assert all(trial.config.non_iid_level == 10.0 for trial in study)

    def test_smoke_preset_has_the_same_shape(self):
        assert preset_scales("smoke-scalability") == SMOKE_WORKER_SCALES
        smoke = get_preset("smoke-scalability")
        paper = get_preset("paper-scalability")
        assert len(smoke) == len(paper)

    def test_overrides_apply_to_every_trial(self):
        study = get_preset("paper-scalability", num_rounds=2, seed=42)
        for trial in study:
            assert trial.config.num_rounds == 2
            assert trial.config.seed == 42

    def test_num_workers_override_cannot_clobber_the_axis(self):
        study = scalability_study(scales=(10, 20), num_workers=999)
        assert [t.config.num_workers for t in study] == [10, 20]

    def test_unknown_preset_fails_loudly(self):
        with pytest.raises(StudyError, match="unknown study preset"):
            get_preset("paper-warp-speed")

    def test_registry_is_complete(self):
        assert {"paper-scalability", "paper-scalability-noniid",
                "smoke-scalability", "paper-churn",
                "smoke-churn", "paper-codec", "smoke-codec"} <= set(PRESETS)


class TestChurnStudy:
    def test_paper_preset_sweeps_the_dropout_axis(self):
        from repro.study.presets import PAPER_CHURN_RATES

        study = get_preset("paper-churn")
        assert [t.config.dropout_rate for t in study] == list(PAPER_CHURN_RATES)
        for trial in study:
            assert trial.config.over_select_factor == 1.25
            assert trial.config.rejoin_staleness_bound == 2
            assert trial.tags["dropout_rate"] == trial.config.dropout_rate

    def test_smoke_preset_runs_end_to_end(self):
        from repro.study import StudyRunner
        from repro.study.presets import churn_study

        study = churn_study(
            dataset="blobs", rates=(0.0, 0.5), num_workers=4, num_rounds=2,
            local_iterations=1, train_samples=60, test_samples=30,
            max_batch_size=8, base_batch_size=4,
        )
        histories = StudyRunner(study).histories()
        assert len(histories) == 2
        lossy = histories[study.trials[1].name]
        assert any(record.dropped_ids for record in lossy.records)


class TestCodecStudy:
    def test_paper_preset_crosses_codec_and_algorithm(self):
        from repro.config import AUTO_EXECUTOR
        from repro.study.presets import PAPER_CODEC_ALGORITHMS, PAPER_CODECS

        study = get_preset("paper-codec")
        assert len(study) == len(PAPER_CODECS) * len(PAPER_CODEC_ALGORITHMS)
        combos = {(t.config.algorithm, t.config.codec) for t in study}
        assert combos == {
            (algorithm, codec)
            for algorithm in PAPER_CODEC_ALGORITHMS
            for codec in PAPER_CODECS
        }
        for trial in study:
            # The round applies the codec on every executor: none is forced.
            assert trial.config.executor == AUTO_EXECUTOR
            assert trial.tags["codec"] == trial.config.codec

    def test_smoke_preset_runs_end_to_end(self):
        from repro.study import StudyRunner
        from repro.study.presets import codec_study

        study = codec_study(
            dataset="blobs", codecs=("none", "int8"),
            algorithms=("mergesfl",), num_workers=4, num_rounds=2,
            local_iterations=1, train_samples=60, test_samples=30,
            max_batch_size=8, base_batch_size=4,
        )
        histories = StudyRunner(study).histories()
        assert len(histories) == 2
        exact = histories["algorithm=mergesfl,codec=none"]
        lossy = histories["algorithm=mergesfl,codec=int8"]
        assert any(
            r.train_loss != e.train_loss
            for r, e in zip(lossy.records, exact.records)
        )

        def traffic_per_sample(history):
            samples = sum(record.total_batch for record in history.records)
            return history.records[-1].traffic_mb / samples

        # The simulated link carries int8 features and gradients.
        assert traffic_per_sample(lossy) < traffic_per_sample(exact)


class TestPresetExecution:
    def test_preset_study_runs_through_figure12(self):
        """A (tiny) preset-shaped study flows through the figure12 entry
        point, which reports on a prebuilt study without re-shaping it."""
        from repro.experiments import figures

        study = scalability_study(
            dataset="blobs", scales=(3, 4), num_rounds=1, local_iterations=1,
            train_samples=60, test_samples=30, max_batch_size=8,
            base_batch_size=4, model_width=0.25,
        )
        result = figures.figure12_scalability(study=study)
        assert [row["num_workers"] for row in result["rows"]] == [3, 4]


class TestSplitpointStudy:
    def test_paper_preset_sweeps_the_policy_axis(self):
        from repro.study.presets import PAPER_SPLIT_POLICIES

        study = get_preset("paper-splitpoint")
        assert len(study) == len(PAPER_SPLIT_POLICIES)
        assert tuple(t.config.split_policy for t in study) == PAPER_SPLIT_POLICIES
        for trial in study:
            assert trial.tags["split_policy"] == trial.config.split_policy

    def test_smoke_preset_has_the_same_shape(self):
        from repro.study.presets import SMOKE_SPLIT_POLICIES

        study = get_preset("smoke-splitpoint")
        assert tuple(t.config.split_policy for t in study) == SMOKE_SPLIT_POLICIES
        assert study.trials[0].config.split_policy == "uniform"

    def test_split_policy_override_cannot_clobber_the_axis(self):
        from repro.study.presets import splitpoint_study

        study = splitpoint_study(policies=("uniform", "adaptive"),
                                 split_policy="profile", num_workers=4)
        assert [t.config.split_policy for t in study] == ["uniform", "adaptive"]

    def test_smoke_preset_runs_end_to_end(self):
        from repro.study import StudyRunner
        from repro.study.presets import splitpoint_study

        study = splitpoint_study(
            dataset="har", policies=("uniform", "profile"),
            num_workers=4, num_rounds=2, local_iterations=2,
            train_samples=120, test_samples=40, max_batch_size=8,
            base_batch_size=4, model_width=0.3,
        )
        histories = StudyRunner(study).histories()
        assert len(histories) == 2
        for history in histories.values():
            assert len(history.records) == 2
