"""Feature-transport framing: ring buffers, corruption, death, fallback."""

from __future__ import annotations

import multiprocessing
import struct

import numpy as np
import pytest

from repro.exceptions import TransportError
from repro.parallel.transport import (
    _FRAME,
    _MAGIC,
    DEFAULT_RING_CAPACITY,
    INLINE_FLOOR_BYTES,
    MIN_RING_CAPACITY,
    ChildConnector,
    Endpoint,
    PipeTransport,
    RingBuffer,
    SharedMemoryTransport,
    ring_capacity_for,
)


@pytest.fixture
def ring():
    buffer = RingBuffer.create(capacity=256)
    yield buffer
    buffer.close(unlink=True)


def _shmem_resident_kib() -> int | None:
    """Shared-memory pages mapped into this process (KiB), where Linux
    reports them."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _loopback(capacity: int = 1 << 16) -> tuple[Endpoint, Endpoint]:
    """Parent and child endpoints of one shm channel, both in-process."""
    transport = SharedMemoryTransport(capacity=capacity)
    parent, connector = transport.pair(multiprocessing.get_context())
    child = connector.connect()
    return parent, child


class TestRingBuffer:
    def test_roundtrip(self, ring):
        payload = np.frombuffer(b"hello ring", dtype=np.uint8)
        ring.write(payload)
        assert ring.read(payload.nbytes).tobytes() == b"hello ring"

    def test_wraparound(self, ring):
        """Writes crossing the end of the data region split into two copies
        and read back intact -- for every offset within one lap."""
        rng = np.random.default_rng(3)
        chunk = 96  # capacity (256) is not a multiple: offsets drift each lap
        for __ in range(20):
            data = rng.integers(0, 256, size=chunk).astype(np.uint8)
            ring.write(data)
            assert np.array_equal(ring.read(chunk), data)

    def test_interleaved_sizes_wrap(self, ring):
        rng = np.random.default_rng(4)
        pending = []
        written = consumed = 0
        for step in range(200):
            size = int(rng.integers(1, 64))
            if written - consumed + size <= ring.capacity:
                data = rng.integers(0, 256, size=size).astype(np.uint8)
                ring.write(data)
                pending.append(data)
                written += size
            while pending and (step % 3 == 0 or written - consumed > 128):
                expected = pending.pop(0)
                assert np.array_equal(ring.read(expected.nbytes), expected)
                consumed += expected.nbytes
        for expected in pending:
            assert np.array_equal(ring.read(expected.nbytes), expected)

    def test_oversized_payload_rejected(self, ring):
        with pytest.raises(TransportError, match="exceeds ring capacity"):
            ring.write(np.zeros(ring.capacity + 1, dtype=np.uint8))
        with pytest.raises(TransportError, match="exceeds ring capacity"):
            ring.read(ring.capacity + 1)

    def test_blocked_write_polls_liveness(self, ring):
        ring.write(np.zeros(ring.capacity, dtype=np.uint8))  # full

        def dead_peer():
            raise TransportError("peer died")

        with pytest.raises(TransportError, match="peer died"):
            ring.write(np.zeros(1, dtype=np.uint8), poll=dead_peer)

    def test_attach_sees_creator_writes(self, ring):
        attached = RingBuffer.attach(ring.name, ring.capacity)
        try:
            ring.write(np.frombuffer(b"shared", dtype=np.uint8))
            assert attached.read(6).tobytes() == b"shared"
        finally:
            attached.close()

    @pytest.mark.skipif(
        _shmem_resident_kib() is None, reason="needs Linux /proc/self/status"
    )
    def test_both_ends_map_every_page_when_opened(self):
        """A ring is resident in the creator and in a peer from the moment
        each opens it, so no round pays for pages the traffic reaches late;
        the peer's pass only reads, leaving frames already written intact."""
        capacity = 4 << 20
        before = _shmem_resident_kib()
        ring = RingBuffer.create(capacity)
        try:
            assert _shmem_resident_kib() - before >= capacity // 1024
            ring.write(np.frombuffer(b"early", dtype=np.uint8))
            created = _shmem_resident_kib()
            attached = RingBuffer.attach(ring.name, capacity)
            try:
                assert _shmem_resident_kib() - created >= capacity // 1024
                assert attached.free() == capacity - 5
                assert attached.read(5).tobytes() == b"early"
            finally:
                attached.close()
        finally:
            ring.close(unlink=True)


class TestSharedMemoryEndpoint:
    def test_nested_payload_roundtrip(self):
        parent, child = _loopback()
        try:
            rng = np.random.default_rng(0)
            message = (
                "forward",
                {
                    3: rng.normal(size=(8, 4)),
                    7: {"weight": rng.normal(size=(2, 3, 3)),
                        "ints": np.arange(5, dtype=np.int64)},
                    "meta": [1.5, "tag", (rng.normal(size=2), None)],
                },
            )
            parent.send(message)
            command, payload = child.recv()
            assert command == "forward"
            assert np.array_equal(payload[3], message[1][3])
            assert np.array_equal(payload[7]["weight"], message[1][7]["weight"])
            assert payload[7]["ints"].dtype == np.int64
            assert np.array_equal(payload["meta"][2][0], message[1]["meta"][2][0])
            assert payload["meta"][:2] == [1.5, "tag"]
        finally:
            parent.close(unlink=True)
            child.close()

    def test_many_messages_wrap_the_ring(self):
        """A long send/recv exchange cycles the small ring many times; the
        head/tail counters and wrapped copies never lose a byte."""
        parent, child = _loopback(capacity=1 << 12)
        try:
            rng = np.random.default_rng(1)
            for __ in range(50):
                arrays = [rng.normal(size=(int(rng.integers(260, 400)),)) for _ in range(4)]
                parent.send(("cmd", arrays))
                command, received = child.recv()
                for sent, got in zip(arrays, received):
                    assert np.array_equal(sent, got)
        finally:
            parent.close(unlink=True)
            child.close()

    def test_array_larger_than_ring_goes_inline(self):
        parent, child = _loopback(capacity=1 << 10)
        try:
            big = np.random.default_rng(2).normal(size=(1024,))  # 8 KiB > ring budget
            parent.send(("cmd", {"big": big, "small": np.ones(3)}))
            __, payload = child.recv()
            assert np.array_equal(payload["big"], big)
            assert np.array_equal(payload["small"], np.ones(3))
        finally:
            parent.close(unlink=True)
            child.close()

    def test_corrupt_frame_header_detected(self):
        parent, child = _loopback()
        try:
            parent.send(("cmd", np.arange(512.0)))
            # Overwrite the frame header (first bytes of the child's inbound
            # ring) with garbage before the child reads it.
            ring = child._ring_in
            ring._data[: _FRAME.size] = np.frombuffer(
                struct.pack("<4sIQ", b"XXXX", 99, 4), dtype=np.uint8
            )
            with pytest.raises(TransportError, match="corrupt ring frame"):
                child.recv()
        finally:
            parent.close(unlink=True)
            child.close()

    def test_wrong_sequence_number_detected(self):
        parent, child = _loopback()
        try:
            parent.send(("cmd", np.arange(512.0)))
            child.recv()
            parent.send(("cmd", np.arange(512.0)))
            child._seq_in = 0  # receiver desynchronised
            with pytest.raises(TransportError, match="corrupt ring frame"):
                child.recv()
        finally:
            parent.close(unlink=True)
            child.close()

    def test_wrong_byte_count_detected(self):
        parent, child = _loopback()
        try:
            parent.send(("cmd", np.arange(512.0)))
            ring = child._ring_in
            header = _FRAME.pack(_MAGIC, 1, 9999)
            ring._data[: _FRAME.size] = np.frombuffer(header, dtype=np.uint8)
            with pytest.raises(TransportError, match="corrupt ring frame"):
                child.recv()
        finally:
            parent.close(unlink=True)
            child.close()

    def test_pipe_transport_passthrough(self):
        transport = PipeTransport()
        parent, connector = transport.pair(multiprocessing.get_context())
        child = connector.connect()
        try:
            payload = {"x": np.arange(6.0).reshape(2, 3)}
            parent.send(("cmd", payload))
            command, received = child.recv()
            assert command == "cmd" and np.array_equal(received["x"], payload["x"])
        finally:
            parent.close()
            child.close()


class TestCounters:
    def test_plain_pipe_counts_the_array_bytes(self):
        """The pipe endpoint tallies array traffic too (measured, not
        intercepted -- the pickle stream is unchanged)."""
        transport = PipeTransport()
        parent, connector = transport.pair(multiprocessing.get_context())
        child = connector.connect()
        try:
            array = np.arange(512.0)
            parent.send(("cmd", {"x": array}))
            child.recv()
            for end in (parent, child):
                assert end.bytes_on_wire == array.nbytes
        finally:
            parent.close()
            child.close()

    def test_count_false_skips_the_tally(self):
        parent, child = _loopback()
        try:
            parent.send(("load_shard", np.arange(256.0)), count=False)
            child.recv(count=False)
            assert parent.bytes_on_wire == child.bytes_on_wire == 0
        finally:
            parent.close(unlink=True)
            child.close()

    def test_a_payload_class_tag_is_ignored(self):
        """Senders written against the earlier signature still tag messages
        with a payload class; the arrays cross raw either way."""
        parent, child = _loopback()
        try:
            array = np.random.default_rng(4).normal(size=(64, 128))
            parent.send(("forward", {3: array}), klass="features")
            __, payload = child.recv()
            assert np.array_equal(payload[3], array)
            assert parent.bytes_on_wire == child.bytes_on_wire == array.nbytes
        finally:
            parent.close(unlink=True)
            child.close()

    def test_an_array_that_misses_the_ring_counts_as_overflow(self):
        """Both ends tally the array bytes pickled through the pipe because
        the ring budget ran out -- not the small arrays that are always
        inline, and not an uncounted message."""
        parent, child = _loopback(capacity=1 << 14)
        try:
            fits = np.arange(1280.0)     # 10 KiB + frame: in the 16 KiB ring
            spills = np.arange(4096.0)   # 32 KiB: over the whole ring
            small = np.arange(8.0)       # below the inline floor
            assert small.nbytes <= INLINE_FLOOR_BYTES < fits.nbytes
            parent.send(("cmd", {"a": fits, "b": spills, "c": small}))
            __, payload = child.recv()
            assert np.array_equal(payload["b"], spills)
            assert parent.bytes_overflowed == child.bytes_overflowed == spills.nbytes
            child.send(("ok", [fits, fits]))  # the second misses the budget
            parent.recv()
            assert parent.bytes_overflowed == child.bytes_overflowed == (
                spills.nbytes + fits.nbytes)
            parent.send(("load_source", spills), count=False)
            child.recv(count=False)
            assert parent.bytes_overflowed == spills.nbytes + fits.nbytes
        finally:
            parent.close(unlink=True)
            child.close()

    def test_the_pipe_transport_never_overflows(self):
        transport = PipeTransport()
        parent, connector = transport.pair(multiprocessing.get_context())
        child = connector.connect()
        try:
            parent.send(("cmd", np.arange(4096.0)))  # 32 KiB, fits the pipe
            child.recv()
            assert parent.bytes_overflowed == child.bytes_overflowed == 0
        finally:
            parent.close()
            child.close()

    def test_a_misspelt_keyword_is_rejected(self):
        """Only ``klass`` is ignored: a typo of ``count`` must not silently
        count bytes that were meant to be exempt."""
        parent, child = _loopback()
        try:
            with pytest.raises(TypeError):
                parent.send(("load_source", np.arange(8.0)), cout=False)
            assert parent.bytes_on_wire == 0
        finally:
            parent.close(unlink=True)
            child.close()


def _process_rings(**extras) -> SharedMemoryTransport:
    """The channel factory of a configured process executor."""
    from repro.config import ExperimentConfig
    from repro.parallel import build_executor

    return build_executor(ExperimentConfig(
        executor="process", extras={"executor_processes": 1, **extras}
    ))._transport


class TestTransportConfig:
    """The process executor always opens ring channels; only their size is
    configured."""

    def test_the_process_executor_opens_ring_channels(self):
        assert isinstance(_process_rings(), SharedMemoryTransport)

    def test_no_transport_registry_remains(self):
        import repro
        from repro.api import registry

        for name in ("TRANSPORTS", "register_transport"):
            assert not hasattr(registry, name) and not hasattr(repro, name)

    def test_unknown_transport_rejected_by_name(self):
        from repro.config import ExperimentConfig
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="'transport' field was removed"):
            ExperimentConfig(transport="carrier-pigeon")

    @pytest.mark.parametrize("spelling", ["pipe", "shm"])
    def test_a_retired_spelling_opens_the_same_rings(self, spelling):
        from repro.config import ExperimentConfig
        from repro.parallel import build_executor

        executor = build_executor(ExperimentConfig(
            executor="process", transport=spelling,
            extras={"transport_capacity": 8192},
        ))
        assert isinstance(executor._transport, SharedMemoryTransport)
        assert executor._transport.capacity == 8192

    def test_capacity_knob(self):
        assert _process_rings(transport_capacity=4096).capacity == 4096

    def test_an_invalid_capacity_knob_is_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="'transport_capacity'"):
            _process_rings(transport_capacity=0)
        with pytest.raises(ValueError, match="capacity must be positive"):
            SharedMemoryTransport(capacity=0)

    def test_without_the_knob_the_capacity_is_left_to_fit(self):
        transport = _process_rings()
        assert transport.capacity == DEFAULT_RING_CAPACITY  # until fitted
        transport.fit(300_000)
        assert transport.capacity == 1 << 20

    def test_an_explicit_capacity_is_not_refitted(self):
        transport = SharedMemoryTransport(capacity=4096)
        transport.fit(300_000)
        assert transport.capacity == 4096

    @pytest.mark.parametrize("message, capacity", [
        (0, MIN_RING_CAPACITY),
        (100_000, MIN_RING_CAPACITY),          # 2x = 200 KB, under the floor
        (MIN_RING_CAPACITY // 2, MIN_RING_CAPACITY),
        (MIN_RING_CAPACITY // 2 + 1, 2 * MIN_RING_CAPACITY),
        (441_280, 1 << 20),                    # 2x = 862 KiB -> 1 MiB
        (1 << 20, 1 << 21),
        (DEFAULT_RING_CAPACITY, DEFAULT_RING_CAPACITY),  # the ceiling
    ])
    def test_ring_capacity_is_twice_the_message_as_a_power_of_two(
            self, message, capacity):
        assert ring_capacity_for(message) == capacity

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity must be positive"):
            SharedMemoryTransport(capacity=0)
