"""The data plane: one read-only dataset and partition per key per process.

:func:`~repro.api.components.build_components` generates the configured
dataset only when its key (the registered generator, ``train_samples``,
``test_samples``, ``seed``) differs from the previous set-up's, and
partitions it only when, under that data, ``num_workers`` or
``non_iid_level`` differ.  Sessions of one key share the arrays, so they
are read-only, and a set-up of another key frees the held plane before it
generates the next.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from repro.api.components import build_components
from repro.api.registry import DATASETS, register_dataset
from repro.api.session import Session
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_blobs
from repro.population.registry import SampledShards
from repro.study import Study, StudyRunner


def _shards(components) -> list[np.ndarray]:
    source = components.pool.registry.source
    return [source.shard_indices(worker) for worker in range(len(source))]


def _plane_arrays(components) -> list[np.ndarray]:
    data = components.data
    return [data.train.data, data.train.targets, data.test.data,
            data.test.targets, *_shards(components)]


def _records(history) -> list[dict]:
    return [asdict(record) for record in history.records]


@pytest.fixture
def counting_dataset():
    """A registered blobs generator that logs the seed of every call."""
    calls: list[int] = []

    @register_dataset("plane_counting")
    def make_counting(train_samples=300, test_samples=80, seed=0):
        calls.append(seed)
        return make_blobs(train_samples, test_samples, seed)

    yield calls
    DATASETS.unregister("plane_counting")


class TestSharing:
    def test_one_key_shares_the_data_and_the_shards(self, fast_config):
        first = build_components(fast_config)
        second = build_components(fast_config)
        assert second.data is first.data
        assert second.data.train.data is first.data.train.data
        for mine, theirs in zip(_shards(first), _shards(second), strict=True):
            assert mine is theirs

    def test_every_array_of_the_plane_is_read_only(self, fast_config):
        components = build_components(fast_config)
        arrays = _plane_arrays(components)
        assert len(arrays) == 4 + fast_config.num_workers
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_a_workers_shard_is_its_own(self, fast_config):
        """What a worker derives from the plane -- its shard's rows and
        labels, a gathered batch -- is its own, writeable copy."""
        with Session.from_config(fast_config) as session:
            shard = session.components.workers[0].dataset
            assert shard.source is session.components.data.train
            assert shard.rows.flags.writeable and shard.targets.flags.writeable
            assert shard.source.gather(shard.rows[:4]).flags.writeable


class TestMisses:
    @pytest.mark.parametrize("change", [
        {"seed": 4}, {"train_samples": 320}, {"test_samples": 60},
        {"dataset": "har", "model": "cnn_h", "model_width": 0.3},
    ])
    def test_the_data_misses_on_another_key(self, fast_config, change):
        first = build_components(fast_config)
        second = build_components(fast_config.replace(**change))
        assert second.data is not first.data
        assert second.data.train.data is not first.data.train.data

    def test_the_data_misses_on_a_re_registered_generator(
        self, fast_config, counting_dataset
    ):
        config = fast_config.replace(dataset="plane_counting")
        first = build_components(config)
        assert build_components(config).data is first.data
        assert counting_dataset == [3]

        @register_dataset("plane_counting", override=True)
        def make_again(train_samples=300, test_samples=80, seed=0):
            counting_dataset.append(-seed)
            return make_blobs(train_samples, test_samples, seed)

        again = build_components(config)
        assert again.data is not first.data
        assert counting_dataset == [3, -3]
        # The two generators are one function of the key: same samples.
        assert np.array_equal(again.data.train.data, first.data.train.data)

    @pytest.mark.parametrize("change", [{"num_workers": 6}, {"non_iid_level": 5.0}])
    def test_the_partition_alone_misses_under_held_data(self, fast_config, change):
        first = build_components(fast_config)
        second = build_components(fast_config.replace(**change))
        assert second.data is first.data
        assert not any(
            mine is theirs
            for mine in _shards(first) for theirs in _shards(second)
        )
        for shard in _shards(second):
            assert not shard.flags.writeable

    def test_sampled_sharding_bypasses_the_partition(self, fast_config):
        partitioned = build_components(fast_config)
        sampled = build_components(fast_config.replace(
            extras={"population_sharding": "sampled"}
        ))
        assert isinstance(sampled.pool.registry.source, SampledShards)
        assert sampled.data is partitioned.data
        again = build_components(fast_config)
        for mine, theirs in zip(_shards(partitioned), _shards(again), strict=True):
            assert mine is theirs

    def test_the_held_plane_is_freed_before_the_next_key_generates(
        self, fast_config
    ):
        held: list[weakref.ref] = []
        alive_at_generation: list[list[bool]] = []

        @register_dataset("plane_probe")
        def make_probe(train_samples=300, test_samples=80, seed=0):
            gc.collect()
            alive_at_generation.append([ref() is not None for ref in held])
            split = make_blobs(train_samples, test_samples, seed)
            held.extend(weakref.ref(array) for array in (
                split.train.data, split.train.targets,
                split.test.data, split.test.targets,
            ))
            return split

        try:
            config = fast_config.replace(dataset="plane_probe")
            components = build_components(config)
            shards = weakref.ref(_shards(components)[0])
            del components
            gc.collect()
            assert all(ref() is not None for ref in held)  # the memo holds it
            assert shards() is not None
            build_components(config.replace(seed=4))
            assert alive_at_generation == [[], [False] * 4]
            assert shards() is None
        finally:
            DATASETS.unregister("plane_probe")


def test_set_ups_in_threads_each_get_their_own_keys_plane(
    fast_config, monkeypatch
):
    """Threads alternating two keys never get the other key's data or
    shards.  Generating and partitioning sleep, so that set-ups overlap
    at every step of the memo."""
    import repro.api.components as components_module

    configs = [fast_config, fast_config.replace(seed=4)]
    reference = []
    for config in configs:
        split = make_blobs(300, 80, config.seed)
        reference.append((split.train.data, partition_dataset(
            split.train, config.num_workers, config.non_iid_level,
            seed=config.seed,
        )))

    def slowly(function):
        def slow(*args, **kwargs):
            time.sleep(0.002)
            return function(*args, **kwargs)
        return slow

    for name in ("make_dataset", "partition_dataset"):
        monkeypatch.setattr(
            components_module, name, slowly(getattr(components_module, name))
        )
    wrong: list = []

    def set_up(which: int) -> None:
        for step in range(8):
            key = (which + step) % 2
            data, shards = reference[key]
            try:
                components = build_components(configs[key])
                if not (
                    np.array_equal(components.data.train.data, data)
                    and all(np.array_equal(mine, theirs) for mine, theirs
                            in zip(_shards(components), shards, strict=True))
                ):
                    wrong.append(key)
            except Exception as error:  # a lost update may raise instead
                wrong.append(error)

    threads = [threading.Thread(target=set_up, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


class TestRecords:
    @pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg"])
    def test_a_hit_gives_the_records_of_a_miss(self, fast_config, algorithm):
        config = fast_config.replace(algorithm=algorithm)
        build_components(config.replace(seed=config.seed + 1))
        with Session.from_config(config) as missed:
            expected = _records(missed.run())
            with Session.from_config(config) as hit:
                assert hit.components.data is missed.components.data
                assert _records(hit.run()) == expected

    @pytest.mark.parametrize("executor,extras", [
        ("serial", {}), ("batched", {}), ("process", {"executor_processes": 2}),
    ])
    def test_two_rounds_run_on_the_read_only_plane(
        self, fast_config, executor, extras
    ):
        config = fast_config.replace(num_rounds=2, executor=executor, extras=extras)
        held = build_components(config)
        with Session.from_config(config) as session:
            assert session.components.data is held.data
            history = session.run()
        assert len(history.records) == 2
        assert all(not array.flags.writeable for array in _plane_arrays(held))


def test_a_sweep_over_one_dataset_generates_it_once(fast_config, counting_dataset):
    study = Study.grid(
        "plane_sweep",
        fast_config.replace(dataset="plane_counting", num_rounds=1),
        axes={"algorithm": ("mergesfl", "fedavg", "splitfed")},
    )
    results = StudyRunner(study, n_jobs=1).run()
    assert len(results) == 3
    assert counting_dataset == [fast_config.seed]
