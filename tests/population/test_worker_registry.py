"""Registry round-trips and shard determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.partition import label_distribution, partition_dataset
from repro.population import (
    PartitionShards,
    SampledShards,
    WorkerRegistry,
    sample_distinct,
)
from repro.utils.rng import spawned_rng


def _targets(n=200, classes=4, seed=0):
    return spawned_rng(seed, 0).integers(0, classes, size=n)


# -- sample_distinct ----------------------------------------------------------
def test_sample_distinct_is_sorted_distinct_and_in_range():
    ids = sample_distinct(spawned_rng(3, 0), population=1_000_000, count=64)
    assert ids.shape == (64,)
    assert ids.dtype == np.int64
    assert len(set(ids.tolist())) == 64
    assert np.array_equal(ids, np.sort(ids))
    assert ids.min() >= 0 and ids.max() < 1_000_000


def test_sample_distinct_is_deterministic():
    a = sample_distinct(spawned_rng(3, 7), 10_000, 32)
    b = sample_distinct(spawned_rng(3, 7), 10_000, 32)
    assert np.array_equal(a, b)


def test_sample_distinct_saturates_to_full_population():
    assert np.array_equal(sample_distinct(spawned_rng(0, 0), 5, 9), np.arange(5))
    assert np.array_equal(sample_distinct(spawned_rng(0, 0), 5, 5), np.arange(5))


# -- shard sources ------------------------------------------------------------
def test_sampled_shards_deterministic_sorted_distinct():
    source = SampledShards(train_size=500, samples_per_worker=40, seed=11)
    for worker_id in (0, 1, 999_999):
        shard = source.shard_indices(worker_id)
        again = source.shard_indices(worker_id)
        assert np.array_equal(shard, again)
        assert shard.shape == (40,)
        assert len(set(shard.tolist())) == 40
        assert np.array_equal(shard, np.sort(shard))
        assert source.num_samples(worker_id) == 40
    assert not np.array_equal(source.shard_indices(0), source.shard_indices(1))


def test_sampled_shards_clamped_to_train_size():
    source = SampledShards(train_size=10, samples_per_worker=50, seed=0)
    assert np.array_equal(source.shard_indices(3), np.arange(10))


def test_partition_shards_match_partitioner_verbatim():
    import types

    targets = _targets()
    shards = partition_dataset(types.SimpleNamespace(targets=targets),
                               num_workers=6, non_iid_level=2.0, seed=5)
    source = PartitionShards(shards)
    assert len(source) == 6
    for worker_id, shard in enumerate(shards):
        assert np.array_equal(source.shard_indices(worker_id), shard)
        assert source.num_samples(worker_id) == len(shard)


# -- registry -----------------------------------------------------------------
def _registry(num_workers=50, shard_size=8, seed=11):
    targets = _targets()
    source = SampledShards(len(targets), samples_per_worker=20, seed=seed)
    return WorkerRegistry(num_workers, 4, targets, source, shard_size=shard_size), targets


def test_registry_label_rows_match_direct_computation():
    registry, targets = _registry()
    for worker_id in (0, 7, 49):
        expected = label_distribution(
            targets, registry.shard_indices(worker_id), 4
        )
        row = registry.label_distributions(np.array([worker_id]))[0]
        assert np.array_equal(row, expected)


def test_registry_builds_label_rows_lazily():
    registry, _ = _registry(num_workers=64, shard_size=8)
    assert registry.built_label_shards == 0
    registry.label_distributions(np.array([0]))
    assert registry.built_label_shards == 1
    # A row in a far shard allocates that shard only.
    registry.label_distributions(np.array([63]))
    assert registry.built_label_shards == 2


def test_registry_full_matrix_matches_row_queries():
    registry, _ = _registry(num_workers=10)
    full = registry.label_distributions()
    rows = registry.label_distributions(np.arange(10))
    assert np.array_equal(full, rows)


def test_registry_state_roundtrip_is_sparse():
    registry, _ = _registry()
    registry.store_worker_state(3, 2, {"cursor": 7})
    registry.store_worker_state(17, 1, {"cursor": 1})
    state = registry.state_dict()
    assert set(state["participation"]) == {"3", "17"}
    fresh, _ = _registry()
    fresh.load_state_dict(state)
    assert fresh.participation_count(3) == 2
    assert fresh.participation_count(17) == 1
    assert fresh.participation_count(0) == 0
    assert fresh.loader_state(3) == {"cursor": 7}
    assert fresh.loader_state(0) is None
    assert np.array_equal(fresh.participation_counts(),
                          registry.participation_counts())


def test_registry_ignores_the_retired_depths_column():
    """Earlier checkpoints carried each worker's last policy-assigned cut
    depth; nothing read it, so it loads as if absent and is not written."""
    registry, _ = _registry()
    registry.store_worker_state(3, 2, {"cursor": 7})
    state = registry.state_dict()
    assert "depths" not in state
    fresh, _ = _registry()
    fresh.load_state_dict(dict(state, depths={"3": 2, "17": 1}))
    assert fresh.state_dict() == state


def test_registry_rejects_population_mismatch_and_bad_ids():
    registry, _ = _registry(num_workers=50)
    other, _ = _registry(num_workers=10)
    with pytest.raises(ValueError, match="50 workers"):
        other.load_state_dict(registry.state_dict())
    with pytest.raises(IndexError):
        registry.shard_indices(50)
    with pytest.raises(IndexError):
        registry.participation_count(-1)


def _reference_label_distributions(registry, ids):
    """The per-id read ``label_distributions`` replaced: check each id,
    build its row if missing, copy it out."""
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty((ids.shape[0], registry.num_classes), dtype=np.float64)
    for position, worker_id in enumerate(ids):
        worker_id = int(worker_id)
        if not 0 <= worker_id < registry.num_workers:
            raise IndexError(
                f"worker id {worker_id} outside registry of {registry.num_workers}"
            )
        out[position] = label_distribution(
            registry._targets, registry.source.shard_indices(worker_id),
            registry.num_classes,
        )
    return out


@pytest.mark.parametrize("ids", [
    [7, 8, 9, 15, 16, 0, 49],        # across shard boundaries, unsorted
    [3, 3, 40, 3, 40, 41, 41],        # repeated ids
    list(range(50)),                  # every row
    [],                               # nothing
])
def test_label_distributions_equal_the_per_id_read(ids):
    registry, _ = _registry(num_workers=50, shard_size=8)
    expected = _reference_label_distributions(registry, ids)
    for __ in range(2):               # rows built on first read, then cached
        got = registry.label_distributions(np.asarray(ids, dtype=np.int64))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    # Rows the first reads left unbuilt, beside cached ones in their shards.
    every = np.arange(50)
    assert registry.label_distributions(every).tobytes() == (
        _reference_label_distributions(registry, every).tobytes()
    )


@pytest.mark.parametrize("bad", [50, -1])
def test_label_distributions_reject_an_out_of_range_id_like_the_per_id_read(bad):
    registry, _ = _registry(num_workers=50, shard_size=8)
    ids = np.array([1, 9, bad, 60, 2])
    with pytest.raises(IndexError) as expected:
        _reference_label_distributions(registry, ids)
    with pytest.raises(IndexError) as got:
        registry.label_distributions(ids)
    assert str(got.value) == str(expected.value)
