"""Tests for cluster construction, state estimation, traffic and timing."""

import numpy as np
import pytest

from repro.simulation.cluster import Cluster, build_cluster
from repro.simulation.device import sample_device_profile
from repro.simulation.estimator import BandwidthEstimator, WorkerStateEstimator
from repro.simulation.network import WifiNetworkModel, assign_distance
from repro.simulation.timing import (
    average_waiting_time,
    round_duration,
    round_times,
)
from repro.simulation.traffic import TrafficMeter, feature_bytes
from repro.simulation.worker_device import WorkerDevice
from repro.utils.rng import spawn_rngs


class TestCluster:
    def test_build_cluster_size_and_types(self):
        cluster = build_cluster(num_workers=12, bandwidth_budget_mbps=100, seed=0)
        assert len(cluster) == 12
        assert {d.profile.name for d in cluster.devices} <= {
            "jetson_tx2", "jetson_nx", "jetson_agx",
        }

    def test_compute_and_comm_time_vectors(self):
        cluster = build_cluster(num_workers=6, bandwidth_budget_mbps=100, seed=0)
        mus, betas = cluster.per_sample_times(range(6), 1e6, 2048)
        assert mus.shape == (6,) and betas.shape == (6,)
        assert np.all(mus > 0) and np.all(betas > 0)
        # Each pair is its device's mu and beta.
        for device, mu, beta in zip(cluster.devices, mus, betas):
            assert mu == device.compute_time_per_sample(1e6)
            assert beta == device.comm_time_per_sample(2048)
        # Any subset, in the order asked for.
        subset = cluster.per_sample_times([4, 1], 1e6, 2048)
        assert np.array_equal(subset[0], mus[[4, 1]])
        assert np.array_equal(subset[1], betas[[4, 1]])

    def test_per_worker_costs(self, monkeypatch):
        # Workers cut at different depths: one cost per worker, and the
        # model move time from the same device lookup.
        cluster = build_cluster(num_workers=6, bandwidth_budget_mbps=100, seed=0)
        ids = [5, 0, 3]
        flops = np.array([1e6, 2e6, 4e5])
        exchange = np.array([2048, 0, 512])
        model_bytes = np.array([4e4, 1e5, 0.0])
        mus, betas, moves = cluster.per_sample_times(
            ids, flops, exchange, model_bytes
        )
        for index, worker_id in enumerate(ids):
            device = cluster[worker_id]
            assert mus[index] == device.compute_time_per_sample(flops[index])
            assert betas[index] == device.comm_time_per_sample(exchange[index])
            assert moves[index] == device.model_transfer_time(model_bytes[index])
        # A scalar cost is every worker's, with or without the move times.
        shared = cluster.per_sample_times(ids, 1e6, exchange, 4e4)
        assert np.array_equal(shared[1], betas)
        assert np.array_equal(
            shared[0], cluster.per_sample_times(ids, 1e6, 2048)[0]
        )
        assert shared[2][0] == moves[0]
        # Each worker is looked up once.
        lookups = []
        lookup = Cluster.__getitem__

        def counted(self, worker_id):
            lookups.append(int(worker_id))
            return lookup(self, worker_id)

        monkeypatch.setattr(Cluster, "__getitem__", counted)
        cluster.per_sample_times(ids, flops, exchange, model_bytes)
        assert lookups == ids

    def test_heterogeneity_present(self):
        cluster = build_cluster(num_workers=30, bandwidth_budget_mbps=100, seed=0)
        mus, __ = cluster.per_sample_times(range(30), 1e6, 2048)
        assert mus.max() / mus.min() > 3.0

    def test_advance_round_refreshes_budget(self):
        cluster = build_cluster(num_workers=4, bandwidth_budget_mbps=100, seed=0)
        budgets = set()
        for round_index in range(5):
            cluster.advance_round(round_index)
            budgets.add(round(cluster.current_budget_mbps, 4))
        assert len(budgets) > 1
        assert all(b > 0 for b in budgets)

    def test_deterministic_given_seed(self):
        a = build_cluster(num_workers=5, bandwidth_budget_mbps=50, seed=9)
        b = build_cluster(num_workers=5, bandwidth_budget_mbps=50, seed=9)
        assert [d.profile.name for d in a.devices] == [d.profile.name for d in b.devices]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_cluster(num_workers=0, bandwidth_budget_mbps=10)

    @staticmethod
    def _always_live(num_workers, seed):
        """The testbed as a list of devices that every round advances."""
        rngs = spawn_rngs(seed, num_workers + 2)
        return [
            WorkerDevice(worker_id, sample_device_profile(rngs[worker_id]),
                         WifiNetworkModel(distance_m=assign_distance(worker_id)),
                         rngs[worker_id], mode_change_interval=3)
            for worker_id in range(num_workers)
        ]

    @pytest.mark.parametrize("max_live_devices", [0, 2])
    def test_devices_touched_on_demand_match_an_always_live_fleet(
        self, max_live_devices
    ):
        """A device is built on first touch and replays the rounds it
        missed, so any touch pattern (and any cache eviction) reads the
        devices an always-advanced fleet holds."""
        live = self._always_live(6, seed=4)
        cluster = Cluster(6, 100.0, seed=4, mode_change_interval=3,
                          max_live_devices=max_live_devices)
        touches = np.random.default_rng(0)
        for round_index in range(12):
            for device in live:
                device.advance_round(round_index)
            cluster.advance_round(round_index)
            for worker_id in touches.choice(6, size=2, replace=False):
                assert (cluster[worker_id].state_dict()
                        == live[worker_id].state_dict()), (round_index, worker_id)
        assert cluster.live_devices <= (max_live_devices or 6)

    def test_a_device_list_checkpoint_restores_every_device(self):
        """Checkpoints of the retired all-live cluster hold every device and
        no round; restored as of ``last_round``, the cluster continues as
        the one that wrote them."""
        saved = build_cluster(num_workers=5, bandwidth_budget_mbps=50, seed=9)
        for round_index in range(4):
            saved.advance_round(round_index)
        state = saved.state_dict()
        legacy = {
            "rng": state["rng"],
            "current_budget_mbps": state["current_budget_mbps"],
            "devices": [device.state_dict() for device in saved.devices],
        }
        restored = build_cluster(num_workers=5, bandwidth_budget_mbps=50, seed=9)
        restored.load_state_dict(legacy, last_round=3)
        assert restored.live_devices == 5
        assert restored.state_dict() == state
        for round_index in range(4, 8):
            saved.advance_round(round_index)
            restored.advance_round(round_index)
            assert restored.current_budget_mbps == saved.current_budget_mbps
            assert ([d.state_dict() for d in restored.devices]
                    == [d.state_dict() for d in saved.devices])
        with pytest.raises(ValueError, match="last_round"):
            restored.load_state_dict(legacy)
        with pytest.raises(ValueError, match="4 devices"):
            restored.load_state_dict(dict(legacy, devices=legacy["devices"][:4]),
                                     last_round=3)


class TestWorkerStateEstimator:
    def test_first_observation_taken_verbatim(self):
        est = WorkerStateEstimator(num_workers=2, alpha=0.8)
        est.update(0, mu=1.0, beta=2.0)
        mus, betas = est.estimates()
        assert mus[0] == 1.0 and betas[0] == 2.0

    def test_moving_average_eq5_eq6(self):
        est = WorkerStateEstimator(num_workers=1, alpha=0.8)
        est.update(0, mu=1.0, beta=1.0)
        est.update(0, mu=2.0, beta=3.0)
        mus, betas = est.estimates()
        assert mus[0] == pytest.approx(0.8 * 1.0 + 0.2 * 2.0)
        assert betas[0] == pytest.approx(0.8 * 1.0 + 0.2 * 3.0)

    def test_per_sample_duration_is_sum(self):
        est = WorkerStateEstimator(num_workers=1, alpha=0.5)
        est.update(0, mu=0.4, beta=0.6)
        assert est.per_sample_duration([0])[0] == pytest.approx(1.0)

    def test_update_ids_and_initialised(self):
        est = WorkerStateEstimator(num_workers=3, alpha=0.5)
        assert not est.is_initialised()
        est.update_ids(np.arange(3), np.ones(3), np.ones(3))
        assert est.is_initialised()

    def test_update_ids_is_the_scalar_update_loop_bit_for_bit(self, rng):
        """First observation and moving average, everyone and a subset."""
        vector = WorkerStateEstimator(num_workers=5, alpha=0.8)
        scalar = WorkerStateEstimator(num_workers=5, alpha=0.8)
        for ids in (np.arange(5), np.array([3, 0]), np.arange(5)):
            mus, betas = rng.random(len(ids)), rng.random(len(ids))
            vector.update_ids(ids, mus, betas)
            for worker_id, mu, beta in zip(ids, mus, betas):
                scalar.update(int(worker_id), float(mu), float(beta))
        for got, want in zip(vector.estimates(), scalar.estimates()):
            assert np.array_equal(got, want)
        mus, betas = scalar.estimates()
        assert np.array_equal(
            vector.per_sample_duration([4, 2]), (mus + betas)[[4, 2]]
        )

    def test_negative_observation_raises(self):
        est = WorkerStateEstimator(num_workers=1)
        with pytest.raises(ValueError):
            est.update(0, mu=-1.0, beta=0.0)


class TestBandwidthEstimator:
    def test_estimate_tracks_observations(self):
        est = BandwidthEstimator(initial_mbps=100)
        for __ in range(10):
            est.observe(50.0)
        assert 45 <= est.estimate() <= 60

    def test_estimate_is_conservative(self):
        est = BandwidthEstimator(initial_mbps=100, quantile=0.25)
        for value in (80, 90, 100, 110, 120):
            est.observe(value)
        assert est.estimate() <= 100

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BandwidthEstimator(initial_mbps=0)
        est = BandwidthEstimator(initial_mbps=10)
        with pytest.raises(ValueError):
            est.observe(0)


class TestTraffic:
    def test_feature_bytes(self):
        assert feature_bytes((8, 4, 4), batch_size=2) == 8 * 4 * 4 * 4 * 2

    def test_meter_accumulates_by_category(self):
        meter = TrafficMeter()
        meter.add("model", 1000)
        meter.add_feature_exchange(2000)
        assert meter.total_bytes == pytest.approx(3000)
        breakdown = meter.breakdown()
        assert breakdown["feature"] == pytest.approx(1000)
        assert breakdown["gradient"] == pytest.approx(1000)

    def test_model_exchange_counts_both_directions(self):
        meter = TrafficMeter()
        meter.add_model_exchange(500, num_workers=3)
        assert meter.total_bytes == pytest.approx(3000)

    def test_megabytes(self):
        meter = TrafficMeter()
        meter.add("model", 2e6)
        assert meter.total_megabytes == pytest.approx(2.0)

    def test_invalid_category_and_negative(self):
        meter = TrafficMeter()
        with pytest.raises(ValueError):
            meter.add("unknown", 10)
        with pytest.raises(ValueError):
            meter.add("model", -1)


class TestTiming:
    def test_round_times_parts(self):
        # One iteration, no model moves: d * (mu + beta).
        assert round_times(0.1 + 0.2, 0.0, 10, 1, 1) == pytest.approx((3.0, 0.0))
        # tau iterations and two moves per aggregation.
        regulated, fixed = round_times(0.1 + 0.2, 0.5, 10, 5, 3)
        assert regulated == pytest.approx(15.0)
        assert fixed == pytest.approx(3.0)
        # A cohort in one call.
        regulated, fixed = round_times(
            np.array([0.3, 0.1]), np.array([0.5, 0.0]), np.array([10, 4]), 5, 1
        )
        assert regulated == pytest.approx([15.0, 2.0])
        assert fixed == pytest.approx([1.0, 0.0])

    def test_round_duration_is_max(self):
        assert round_duration(np.array([1.0, 5.0, 3.0])) == 5.0

    def test_average_waiting_time_eq8(self):
        durations = np.array([1.0, 3.0, 5.0])
        assert average_waiting_time(durations) == pytest.approx((4 + 2 + 0) / 3)

    def test_equal_durations_have_zero_waiting(self):
        assert average_waiting_time(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_deadline_caps_the_round_and_its_waiting(self):
        durations = np.array([1.0, 10.0])
        assert round_duration(durations, deadline=1.5) == 1.5
        # The fast worker idles until the deadline; the straggler, still
        # running when the server stops waiting, does not idle at all.
        assert average_waiting_time(durations, deadline=1.5) == 0.25
        # A deadline past the slowest worker changes nothing.
        assert round_duration(durations, deadline=20.0) == 10.0
        assert average_waiting_time(durations, deadline=20.0) == 4.5
        assert average_waiting_time(durations) == 4.5

    def test_empty_inputs(self):
        assert round_duration(np.array([])) == 0.0
        assert average_waiting_time(np.array([])) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            round_duration(np.array([-1.0]))
        with pytest.raises(ValueError):
            round_duration(np.array([1.0]), deadline=-1.0)
