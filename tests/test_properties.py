"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.batching import regulate_batch_sizes
from repro.core.divergence import iid_distribution, kl_divergence, mixed_label_distribution
from repro.core.merging import FeatureMerger
from repro.core.selection import selection_priorities
from repro.data.partition import dirichlet_partition, iid_partition, label_distribution
from repro.nn.losses import one_hot, softmax
from repro.nn.models import build_mlp
from repro.nn.serialization import average_state_dicts, get_flat_params, set_flat_params
from repro.simulation.timing import average_waiting_time, round_duration
from repro.utils.numeric import normalize_distribution
from repro.utils.rng import new_rng

# Strategies -----------------------------------------------------------------

positive_floats = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
distributions = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=0.0, max_value=10.0),
).filter(lambda arr: arr.sum() > 1e-6)


class TestDistributionProperties:
    @given(distributions)
    @settings(max_examples=50, deadline=None)
    def test_normalize_sums_to_one(self, vector):
        assert np.isclose(normalize_distribution(vector).sum(), 1.0)

    @given(distributions)
    @settings(max_examples=50, deadline=None)
    def test_kl_self_divergence_is_zero(self, vector):
        phi = normalize_distribution(vector)
        assert kl_divergence(phi, phi) < 1e-9

    @given(distributions, distributions)
    @settings(max_examples=50, deadline=None)
    def test_kl_is_non_negative(self, first, second):
        if first.shape != second.shape:
            return
        assert kl_divergence(first, second) >= -1e-12

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_mixed_distribution_is_a_distribution(self, workers, classes):
        rng = new_rng(workers * 10 + classes)
        dists = rng.dirichlet([0.5] * classes, size=workers)
        batches = rng.integers(1, 32, size=workers)
        phi = mixed_label_distribution(dists, batches, list(range(workers)))
        assert np.isclose(phi.sum(), 1.0)
        assert np.all(phi >= 0)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_iid_distribution_of_identical_rows_is_that_row(self, workers):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        dists = np.tile(row, (workers, 1))
        assert np.allclose(iid_distribution(dists), row)


class TestBatchRegulationProperties:
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 16),
                      elements=st.floats(min_value=1e-3, max_value=10.0)),
           st.integers(min_value=1, max_value=128))
    @settings(max_examples=50, deadline=None)
    def test_batches_bounded_and_fastest_gets_max(self, durations, max_batch):
        sizes = regulate_batch_sizes(durations, max_batch)
        assert np.all(sizes >= 1)
        assert np.all(sizes <= max_batch)
        assert sizes[int(np.argmin(durations))] == max_batch

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(2, 16),
                      elements=st.floats(min_value=1e-3, max_value=10.0)))
    @settings(max_examples=50, deadline=None)
    def test_slower_workers_never_get_larger_batches(self, durations):
        sizes = regulate_batch_sizes(durations, 64)
        order = np.argsort(durations)
        sorted_sizes = sizes[order]
        assert np.all(np.diff(sorted_sizes) <= 0)


class TestSelectionProperties:
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 20),
                      elements=st.floats(min_value=0, max_value=100)))
    @settings(max_examples=50, deadline=None)
    def test_priorities_positive_and_anti_monotone(self, counts):
        priorities = selection_priorities(counts)
        assert np.all(priorities > 0)
        order = np.argsort(counts)
        assert np.all(np.diff(priorities[order]) <= 1e-9)


class TestPartitionProperties:
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=20, max_value=200),
           st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_dirichlet_partition_is_a_partition(self, workers, samples, alpha):
        rng = new_rng(workers + samples)
        targets = rng.integers(0, 4, size=samples)
        shards = dirichlet_partition(targets, workers, alpha, rng, min_samples=1)
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(samples))

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=10, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_iid_partition_is_a_partition(self, workers, samples):
        targets = np.zeros(samples, dtype=int)
        shards = iid_partition(targets, workers, new_rng(0))
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(samples))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=10, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_label_distribution_is_normalised(self, classes, samples):
        rng = new_rng(classes * samples)
        targets = rng.integers(0, classes, size=samples)
        dist = label_distribution(targets, np.arange(samples), classes)
        assert np.isclose(dist.sum(), 1.0)


class TestNNProperties:
    @given(hnp.arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 8), st.integers(2, 10)),
                      elements=st.floats(min_value=-50, max_value=50)))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_are_distributions(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_one_hot_rows_sum_to_one(self, batch, classes):
        labels = new_rng(batch * classes).integers(0, classes, size=batch)
        encoded = one_hot(labels, classes)
        assert np.allclose(encoded.sum(axis=1), 1.0)
        assert np.array_equal(encoded.argmax(axis=1), labels)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_flat_params_roundtrip(self, seed):
        model = build_mlp(input_dim=6, num_classes=3, hidden_dims=(4,), seed=seed)
        flat = get_flat_params(model)
        clone = build_mlp(input_dim=6, num_classes=3, hidden_dims=(4,), seed=seed + 1)
        set_flat_params(clone, flat)
        assert np.allclose(get_flat_params(clone), flat)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_average_state_dicts_stays_within_envelope(self, weights):
        states = [
            {"w": np.full(3, float(index))} for index in range(len(weights))
        ]
        averaged = average_state_dicts(states, weights)
        assert np.all(averaged["w"] >= 0.0)
        assert np.all(averaged["w"] <= len(weights) - 1 + 1e-12)


class TestMergingProperties:
    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_merge_dispatch_roundtrip(self, batch_sizes, feature_dim):
        rng = new_rng(sum(batch_sizes) + feature_dim)
        merger = FeatureMerger()
        features = [rng.normal(size=(size, feature_dim)) for size in batch_sizes]
        labels = [rng.integers(0, 3, size=size) for size in batch_sizes]
        ids = list(range(len(batch_sizes)))
        merged = merger.merge(ids, features, labels)
        assert merged.total_samples == sum(batch_sizes)
        gradient = rng.normal(size=merged.features.shape)
        segments = merger.dispatch(merged, gradient)
        reassembled = np.concatenate([segments[worker] for worker in ids], axis=0)
        assert np.allclose(reassembled, gradient)


class TestTimingProperties:
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 20),
                      elements=st.floats(min_value=0.0, max_value=1e4)))
    @settings(max_examples=50, deadline=None)
    def test_waiting_time_bounded_by_round_duration(self, durations):
        duration = round_duration(durations)
        waiting = average_waiting_time(durations)
        assert 0.0 <= waiting <= duration

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 20),
                      elements=st.floats(min_value=0.0, max_value=1e4)),
           st.floats(min_value=0.0, max_value=2e4))
    @settings(max_examples=50, deadline=None)
    def test_waiting_time_bounded_by_deadline_round(self, durations, deadline):
        duration = round_duration(durations, deadline)
        waiting = average_waiting_time(durations, deadline)
        assert duration <= deadline
        assert 0.0 <= waiting <= duration
        assert waiting <= average_waiting_time(durations)
