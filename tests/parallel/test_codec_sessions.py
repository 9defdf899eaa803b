"""End-to-end codec behaviour: exactness, one trajectory on every executor,
bounded loss, checkpoint/resume.

``codec="none"`` must leave every executor bit-exact (it builds no codec
machinery at all).  The round applies a lossy codec in the parent, so a
lossy run must be the same trajectory on every executor; the simulated network must charge each payload class its
encoded size; the run must stay within a measured accuracy epsilon of the
exact run; and the ``topk`` error-feedback residuals must survive a mid-run
checkpoint so a resumed lossy run reproduces the uninterrupted one bit for
bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS
from repro.metrics.summary import schedule_divergence

#: Lossy-codec convergence budget on the seed config below: final accuracy
#: may differ from the exact serial run's by at most this much.  Measured
#: headroom on this container: 0.0 for int8 and topk@0.3.
CONVERGENCE_EPSILON = 0.05

#: Where the workers compute: every executor.
TOPOLOGIES = {
    "serial": dict(executor="serial"),
    "batched": dict(executor="batched"),
    "process": dict(executor="process", extras={"executor_processes": 2}),
}

#: The lossy cases: a codec on features and gradients, a stateful one, and
#: one on the FL engine's weight states.
LOSSY_CASES = {
    "int8": dict(codec="int8"),
    "topk": dict(codec="topk", extras={"codec_topk_ratio": 0.3}),
    "fedavg-fp16-weights": dict(
        algorithm="fedavg", extras={"codec_policy": {"weights": "fp16"}}
    ),
}


def _config(*overrides: dict) -> ExperimentConfig:
    """The seed configuration with ``overrides`` applied in order; their
    ``extras`` merge instead of replacing each other."""
    params = dict(
        algorithm="mergesfl",
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=4,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        seed=3,
        executor="serial",
        extras={},
    )
    for override in overrides:
        extras = {**params["extras"], **override.get("extras", {})}
        params.update(override, extras=extras)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history, session.global_model().state_dict()


def _traffic_per_sample(config: ExperimentConfig) -> tuple[dict, int]:
    """Per-category simulated bytes per trained sample, and the samples."""
    with Session.from_config(config) as session:
        history = session.run()
        traffic = session.algorithm.traffic.breakdown()
    samples = config.local_iterations * sum(r.total_batch for r in history.records)
    return {category: value / samples for category, value in traffic.items()}, samples


def _records(history, ignore=()):
    return [
        {k: v for k, v in dataclasses.asdict(r).items() if k not in ignore}
        for r in history.records
    ]


class TestNoneCodecExactness:
    @pytest.mark.parametrize("rings", [{}, {"transport_capacity": 4096}],
                             ids=["fitted-ring", "4KiB-ring"])
    def test_bit_exact_against_serial_with_unit_ratio(self, rings):
        """Also when the arrays overflow a 4 KiB ring into the pipe: the
        overflow is counted on the wire like the rest."""
        reference, ref_state = _run(_config())
        history, state = _run(_config(
            TOPOLOGIES["process"], {"codec": "none", "extras": rings}
        ))
        assert _records(history, WIRE_FIELDS) == _records(reference, WIRE_FIELDS)
        for key in ref_state:
            assert np.array_equal(state[key], ref_state[key])
        # Raw transport: every byte on the wire is a logical byte.
        for record in history.records:
            assert record.bytes_on_wire == record.logical_bytes > 0
            assert record.compression_ratio == 1.0
        # In-process executors have no wire at all.
        for record in reference.records:
            assert (record.bytes_on_wire, record.compression_ratio) == (0, 0.0)


class TestLossyTrajectory:
    @pytest.mark.parametrize("case", sorted(LOSSY_CASES))
    def test_one_trajectory_on_every_executor(self, case):
        """The codec runs in the round, so where the workers compute
        changes host bytes only: records and final weights agree."""
        reference, ref_state = _run(_config(LOSSY_CASES[case]))
        for name, topology in TOPOLOGIES.items():
            history, state = _run(_config(LOSSY_CASES[case], topology))
            assert _records(history, WIRE_FIELDS) == _records(
                reference, WIRE_FIELDS
            ), name
            for key in ref_state:
                assert np.array_equal(state[key], ref_state[key]), (name, key)

    @pytest.mark.parametrize("case", sorted(LOSSY_CASES))
    def test_within_epsilon_of_the_exact_run(self, case):
        algorithm = LOSSY_CASES[case].get("algorithm", "mergesfl")
        exact, __ = _run(_config({"algorithm": algorithm}))
        history, __ = _run(_config(LOSSY_CASES[case]))
        divergence = schedule_divergence(history, exact)
        assert divergence["final"] <= CONVERGENCE_EPSILON
        assert divergence["max"] <= 2 * CONVERGENCE_EPSILON
        # The lossy trajectory is genuinely different -- the epsilon bound
        # is doing work, not comparing identical runs.
        assert any(
            r.train_loss != e.train_loss
            for r, e in zip(history.records, exact.records)
        )

    def test_process_has_raw_wire_under_a_lossy_codec(self):
        """Host bytes are raw whatever the codec: compression is the
        simulated link's, not the process boundary's."""
        history, __ = _run(_config(
            LOSSY_CASES["int8"], TOPOLOGIES["process"]
        ))
        for record in history.records:
            assert record.bytes_on_wire == record.logical_bytes > 0
            assert record.compression_ratio == 1.0


class TestSimulatedTraffic:
    """The simulated element is float32: a class's link bytes scale by its
    codec's ``bits_per_value / 32``."""

    def test_int8_exchange_costs_a_quarter_per_sample(self):
        exact, exact_samples = _traffic_per_sample(_config())
        lossy, lossy_samples = _traffic_per_sample(_config(LOSSY_CASES["int8"]))
        for category in ("feature", "gradient"):
            assert lossy[category] == exact[category] / 4
        # Eq. 9 sees the cheaper link: bandwidth-bound workers are
        # regulated to larger batches.
        assert lossy_samples > exact_samples

    def test_topk_exchange_costs_its_ratio_per_sample(self):
        exact, __ = _traffic_per_sample(_config({"algorithm": "sfl_t"}))
        lossy, __ = _traffic_per_sample(
            _config({"algorithm": "sfl_t"}, LOSSY_CASES["topk"])
        )
        for category in ("feature", "gradient"):
            assert lossy[category] == pytest.approx(exact[category] * 96 * 0.3 / 32)
        assert lossy["model"] == exact["model"]

    def test_fp16_weights_halve_only_the_model_upload(self):
        """The global model goes down raw and the trained state comes back
        at fp16: a model swap costs 1 + 1/2 of its raw 2 moves."""
        exact, __ = _traffic_per_sample(_config({"algorithm": "fedavg"}))
        lossy, __ = _traffic_per_sample(_config(LOSSY_CASES["fedavg-fp16-weights"]))
        assert lossy["model"] == pytest.approx(exact["model"] * 3 / 4)
        assert lossy["feature"] == exact["feature"] == 0


class TestTopKCheckpoint:
    def test_checkpoint_mid_run_resumes_bit_exact_on_another_executor(
        self, tmp_path
    ):
        """Error-feedback residuals live in the parent and ride the
        checkpoint: stopping a lossy process run after round 2 and resuming
        it on the serial executor reproduces the uninterrupted run."""
        config = _config(LOSSY_CASES["topk"], TOPOLOGIES["process"])
        path = tmp_path / "topk.ckpt.json"
        with Session.from_config(config) as session:
            session.run(2)
            session.save_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["config"]["executor"] = "serial"
        path.write_text(json.dumps(payload))
        with Session.load_checkpoint(path) as resumed:
            assert resumed.config.codec == "topk"
            resumed.run()
            candidate = (
                _records(resumed.history, WIRE_FIELDS),
                resumed.global_model().state_dict(),
            )
        reference, ref_state = _run(config)
        assert candidate[0] == _records(reference, WIRE_FIELDS)
        for key in ref_state:
            assert np.array_equal(candidate[1][key], ref_state[key])

    def test_checkpoint_carries_residual_state(self, tmp_path):
        path = tmp_path / "topk.ckpt.json"
        with Session.from_config(_config(LOSSY_CASES["topk"])) as session:
            session.run(1)
            session.save_checkpoint(path)
        payload = json.loads(path.read_text())
        keys = list(payload["algorithm"]["codec"])
        assert keys, "stateful codec must checkpoint its residuals"
        assert all(k.startswith(("features|", "gradients|")) for k in keys)

    def test_stateless_codecs_checkpoint_no_residuals(self, tmp_path):
        path = tmp_path / "int8.ckpt.json"
        with Session.from_config(_config(LOSSY_CASES["int8"])) as session:
            session.run(1)
            session.save_checkpoint(path)
        assert json.loads(path.read_text())["algorithm"]["codec"] is None
