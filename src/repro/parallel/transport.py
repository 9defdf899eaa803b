"""Pluggable feature transports for the process executor.

The :class:`~repro.parallel.process.ProcessExecutor` exchanges messages with
its child processes through a :class:`Transport`.  A message is an arbitrary
picklable ``(command, payload)`` structure; what differs between transports
is how the *bulk* of the payload -- the feature, gradient and mini-batch
arrays -- crosses the process boundary:

* :class:`PipeTransport` pickles the whole message over a
  :func:`multiprocessing.Pipe` (the historical path).  Every array is
  serialised, copied through the OS pipe in 64 KiB chunks and deserialised
  on the far side.
* :class:`SharedMemoryTransport` moves every numpy array through a pair of
  single-producer/single-consumer ring buffers backed by
  :mod:`multiprocessing.shared_memory`; only a small control message --
  the command plus per-array headers (shape, dtype, byte count) -- crosses
  the pipe.  Arrays are written/read with two ``memcpy``-like slice
  assignments, so the per-byte cost is a fraction of pickling.

Each array in the ring is preceded by a 16-byte frame header (magic,
sequence number, byte count) that the receiver validates against the
control message, so a desynchronised or corrupted ring fails loudly with
:class:`~repro.exceptions.TransportError` instead of silently reading
garbage into the training state.

Either transport may additionally carry a
:class:`~repro.parallel.codec.CodecPolicy`: senders tag messages with a
payload class (``features`` / ``gradients`` / ``weights``) and the policy's
codec compresses each eligible array before it is framed (ring) or pickled
(pipe), with the codec name and metadata travelling in the frame header so
the receiver can decode without shared state.  Both endpoints also keep
``bytes_on_wire`` / ``logical_bytes`` counters -- on the pipe transport
too -- so pipe-vs-shm comparisons report wire volume on both backends.

Transports are registered in :data:`repro.api.registry.TRANSPORTS`
(``"pipe"`` and ``"shm"``) and selected with
``ExperimentConfig(transport=...)``; see :mod:`repro.parallel`.
"""

from __future__ import annotations

import abc
import mmap
import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import TransportError
from repro.parallel.codec import CodecPolicy, decode_array
from repro.utils.logging import get_logger

logger = get_logger("parallel.transport")

#: Default per-direction ring-buffer capacity (bytes).  Sized so several
#: iterations of staged mini-batches plus feature/gradient replies fit
#: without ever blocking at simulation scale.
DEFAULT_RING_CAPACITY = 1 << 24  # 16 MiB

#: Frame header: magic, monotonically increasing sequence number, payload
#: byte count.  Written before every array in the ring.
_FRAME = struct.Struct("<4sIQ")
_MAGIC = b"SFRB"

#: How long a blocked ring read/write waits before declaring the peer hung.
_RING_TIMEOUT_S = 300.0

#: Arrays at or below this size stay inline in the pickled control message:
#: for a few hundred bytes (drawn index vectors, scalars) the fixed cost of
#: ring framing exceeds the pickling it avoids.
INLINE_FLOOR_BYTES = 2048

_MASK64 = (1 << 64) - 1


class RingBuffer:
    """A single-producer/single-consumer byte ring over shared memory.

    Layout of the backing block: ``head`` (uint64, bytes ever written),
    ``tail`` (uint64, bytes ever read), then ``capacity`` data bytes.  The
    producer only writes ``head``, the consumer only writes ``tail``, so no
    lock is needed; both counters grow without bound (mod 2^64) and the
    write position is ``head % capacity``.  Writes and reads wrap around
    the end of the data region by splitting into two slice copies.  Each
    counter gets its own cache line (and the data region starts on a
    third), so the producer's head stores, the consumer's tail stores and
    the payload copies never false-share a line across the two processes.

    Both ends map every page of the block when they open it
    (:meth:`_map_pages`), not when the traffic first reaches it.
    """

    _COUNTERS = 128
    _TAIL_OFFSET = 64

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int) -> None:
        self._shm = shm
        self.capacity = capacity
        self._head = np.frombuffer(shm.buf, dtype=np.uint64, count=1, offset=0)
        self._tail = np.frombuffer(
            shm.buf, dtype=np.uint64, count=1, offset=self._TAIL_OFFSET
        )
        self._data = np.frombuffer(
            shm.buf, dtype=np.uint8, count=capacity, offset=self._COUNTERS
        )

    # -- construction ---------------------------------------------------------
    @classmethod
    def create(cls, capacity: int) -> "RingBuffer":
        """Allocate a fresh shared-memory ring (owned by the caller)."""
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        shm = shared_memory.SharedMemory(
            create=True, size=cls._COUNTERS + capacity
        )
        shm.buf[: cls._COUNTERS] = bytes(cls._COUNTERS)
        ring = cls(shm, capacity)
        ring._map_pages(write=True)
        return ring

    @classmethod
    def attach(cls, name: str, capacity: int) -> "RingBuffer":
        """Attach to an existing ring by shared-memory name (child side).

        The creator owns the segment's lifetime, so the attachment must not
        be registered with the child's resource tracker -- otherwise the
        tracker unlinks (or warns about) the segment when the child exits.
        Python 3.13+ supports this directly via ``track=False``; earlier
        versions need the registration suppressed during construction.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            from multiprocessing import resource_tracker

            original = resource_tracker.register

            def _skip_tracking(res_name, rtype):
                if rtype != "shared_memory":  # pragma: no cover - other types
                    original(res_name, rtype)

            resource_tracker.register = _skip_tracking
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        ring = cls(shm, capacity)
        ring._map_pages(write=False)
        return ring

    def _map_pages(self, write: bool) -> None:
        """Touch one byte of every page of the block, mapping it in now.

        A shared-memory page is allocated the first time any process
        touches it, and mapped into each process the first time that one
        does.  Left to the traffic, that would happen a few hundred pages a
        round until the head first wraps -- tens of rounds for a 16 MiB
        ring -- and the early rounds would pay page faults the later ones
        do not.  The
        creator writes the (already zero) byte, which allocates the page;
        the attaching peer only reads, since the producer may already have
        written frames.
        """
        pages = np.frombuffer(self._shm.buf, dtype=np.uint8)[::mmap.PAGESIZE]
        if write:
            pages[:] = 0
        else:
            pages.max()

    @property
    def name(self) -> str:
        """Shared-memory block name, for :meth:`attach` in the child."""
        return self._shm.name

    # -- byte I/O -------------------------------------------------------------
    def _used(self) -> int:
        return (int(self._head[0]) - int(self._tail[0])) & _MASK64

    def free(self) -> int:
        """Bytes that can be written right now without blocking."""
        return self.capacity - self._used()

    def wait_free(self, nbytes: int, poll=None) -> None:
        """Block until ``nbytes`` of contiguous ring budget are available."""
        if nbytes > self.capacity:
            raise TransportError(
                f"payload of {nbytes} bytes exceeds ring capacity {self.capacity}"
            )
        self._wait(lambda: self.free() >= nbytes, poll, "write")

    def _wait(self, ready, poll, what: str) -> None:
        deadline = time.monotonic() + _RING_TIMEOUT_S
        spins = 0
        while not ready():
            spins += 1
            if poll is not None and spins % 64 == 0:
                poll()
            if time.monotonic() > deadline:
                raise TransportError(
                    f"shared-memory ring {what} timed out after "
                    f"{_RING_TIMEOUT_S:.0f}s (peer hung?)"
                )
            time.sleep(0.0 if spins < 256 else 0.0002)

    def write(self, data: np.ndarray, poll=None) -> None:
        """Append raw bytes (a uint8 array), blocking while the ring is full.

        ``poll`` is called periodically while waiting so the caller can
        raise (e.g. when the peer process died) instead of spinning forever.
        """
        n = int(data.nbytes)
        if n > self.capacity:
            raise TransportError(
                f"payload of {n} bytes exceeds ring capacity {self.capacity}"
            )
        self._wait(lambda: self.capacity - self._used() >= n, poll, "write")
        pos = int(self._head[0]) % self.capacity
        first = min(n, self.capacity - pos)
        self._data[pos : pos + first] = data[:first]
        if n > first:
            self._data[: n - first] = data[first:]
        self._head[0] = (int(self._head[0]) + n) & _MASK64

    def read(self, n: int, poll=None) -> np.ndarray:
        """Consume exactly ``n`` bytes, blocking until they are available."""
        if n > self.capacity:
            raise TransportError(
                f"frame of {n} bytes exceeds ring capacity {self.capacity}"
            )
        self._wait(lambda: self._used() >= n, poll, "read")
        out = np.empty(n, dtype=np.uint8)
        pos = int(self._tail[0]) % self.capacity
        first = min(n, self.capacity - pos)
        out[:first] = self._data[pos : pos + first]
        if n > first:
            out[first:] = self._data[: n - first]
        self._tail[0] = (int(self._tail[0]) + n) & _MASK64
        return out

    # -- lifecycle ------------------------------------------------------------
    def close(self, unlink: bool = False) -> None:
        """Release the mapping; ``unlink`` destroys the block (owner only)."""
        # The numpy views hold buffer exports into the mapping; they must be
        # dropped before SharedMemory.close() or it raises BufferError.
        self._head = self._tail = self._data = None
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover - defensive
            pass


@dataclass
class _RingRef:
    """Placeholder left in the control message for an array in the ring.

    ``shape``/``dtype`` always describe the *logical* array; ``nbytes`` is
    what actually sits in the ring (the encoded payload size when ``codec``
    is set), and ``meta`` carries the codec's frame metadata (e.g. the int8
    scale/zero-point), so every frame is self-describing.
    """

    index: int
    shape: tuple
    dtype: str
    nbytes: int
    codec: str | None = None
    meta: object = None


@dataclass
class _EncodedInline:
    """A codec-encoded array small enough to stay in the control message.

    The inline-fallback threshold applies to the *encoded* size: a large
    tensor that a codec shrinks under :data:`INLINE_FLOOR_BYTES` (top-k
    typically does) takes the cheap inline path instead of burning ring
    capacity on framing.
    """

    codec: str
    payload: np.ndarray
    shape: tuple
    dtype: str
    meta: object = None


def _logical_nbytes(shape, dtype: str) -> int:
    """Byte count of the dense logical array a frame reconstructs."""
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _pack(obj, arrays: list, budget: list, codec=None, stats=None, key=()):
    """Replace ring-eligible arrays in ``obj`` with :class:`_RingRef` markers.

    Walks dicts/lists/tuples (the executor's payload containers); anything
    else -- arrays too small to be worth framing, arrays that no longer fit
    this message's ring ``budget`` (a single-element mutable so recursion
    can consume it), and non-numeric arrays -- stays inline in the pickled
    control message.  Capping one message's framed bytes at the ring
    capacity is what lets :meth:`Endpoint.send` always write the payload
    *before* the control message.

    When ``codec`` (a :class:`~repro.parallel.codec.Codec`) is given, each
    eligible float array is encoded first; the inline-vs-ring decision then
    applies to the encoded size, and arrays the codec shrinks below the
    inline floor travel as :class:`_EncodedInline`.  ``key`` accumulates
    the dict-key path (prefixed with the payload class) that stateful
    codecs key their error-feedback residuals by.  ``stats`` (an object
    with ``count_bytes(wire, logical)``) tallies payload bytes.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return obj
        if codec is not None and codec.applies_to(obj):
            payload, meta = codec.encode(obj, key=key)
            if stats is not None:
                stats.count_bytes(payload.nbytes, obj.nbytes)
            framed = payload.nbytes + _FRAME.size
            if payload.nbytes <= INLINE_FLOOR_BYTES or framed > budget[0]:
                return _EncodedInline(
                    codec.name, payload, obj.shape, obj.dtype.str, meta
                )
            budget[0] -= framed
            ref = _RingRef(
                len(arrays), obj.shape, obj.dtype.str, payload.nbytes,
                codec.name, meta,
            )
            arrays.append(payload)
            return ref
        if stats is not None:
            stats.count_bytes(obj.nbytes, obj.nbytes)
        framed = obj.nbytes + _FRAME.size
        if obj.nbytes <= INLINE_FLOOR_BYTES or framed > budget[0]:
            return obj
        budget[0] -= framed
        flat = np.ascontiguousarray(obj)
        ref = _RingRef(len(arrays), obj.shape, flat.dtype.str, flat.nbytes)
        arrays.append(flat.reshape(-1).view(np.uint8))
        return ref
    if isinstance(obj, dict):
        return {
            k: _pack(v, arrays, budget, codec, stats, key + (k,))
            for k, v in obj.items()
        }
    if isinstance(obj, tuple):
        return tuple(_pack(v, arrays, budget, codec, stats, key) for v in obj)
    if isinstance(obj, list):
        return [_pack(v, arrays, budget, codec, stats, key) for v in obj]
    return obj


def _measure(obj, stats) -> None:
    """Count-only walk for paths that move the message as-is (pipe, raw)."""
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            stats.count_bytes(obj.nbytes, obj.nbytes)
    elif isinstance(obj, dict):
        for value in obj.values():
            _measure(value, stats)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _measure(value, stats)


def _unpack(obj, arrays: list, stats=None):
    """Inverse of :func:`_pack`: splice ring arrays back into the payload,
    decode inline-encoded frames, and tally received payload bytes."""
    if isinstance(obj, _RingRef):
        if stats is not None:
            logical = (_logical_nbytes(obj.shape, obj.dtype)
                       if obj.codec is not None else obj.nbytes)
            stats.count_bytes(obj.nbytes, logical)
        return arrays[obj.index]
    if isinstance(obj, _EncodedInline):
        if stats is not None:
            stats.count_bytes(
                obj.payload.nbytes, _logical_nbytes(obj.shape, obj.dtype)
            )
        return decode_array(obj.codec, obj.payload, obj.shape, obj.dtype,
                            obj.meta)
    if isinstance(obj, np.ndarray):
        if stats is not None and not obj.dtype.hasobject:
            stats.count_bytes(obj.nbytes, obj.nbytes)
        return obj
    if isinstance(obj, dict):
        return {key: _unpack(value, arrays, stats) for key, value in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_unpack(value, arrays, stats) for value in obj)
    if isinstance(obj, list):
        return [_unpack(value, arrays, stats) for value in obj]
    return obj


class Endpoint:
    """One side of a transport channel: a full-duplex message port.

    With no rings attached this is a plain pickle-over-pipe port.  With
    rings, :meth:`send` splits every message into a small control message
    (sent over the pipe) and framed array payloads (written to the outgoing
    ring); :meth:`recv` reassembles them.  ``peer_check`` may be set to a
    callable that raises when the peer is known dead, so blocked ring
    operations fail fast instead of timing out.

    ``codec`` attaches a :class:`~repro.parallel.codec.CodecPolicy`: senders
    tag each message with its payload class (``send(msg, klass="features")``)
    and the class's codec encodes eligible arrays before framing or
    pickling; the receiver decodes from the self-describing frames.  With no
    policy the wire format is byte-identical to the historical one.

    Every endpoint tallies ``bytes_on_wire`` / ``logical_bytes`` over the
    array payloads it sends *and* receives (``count=False`` exempts
    one-time traffic such as sending a dataset, keeping per-round deltas
    comparable across pool restarts).  Pickle framing overhead of the
    control messages is not counted on either transport.
    """

    def __init__(self, conn, ring_out: RingBuffer | None = None,
                 ring_in: RingBuffer | None = None,
                 codec: CodecPolicy | None = None) -> None:
        self._conn = conn
        self._ring_out = ring_out
        self._ring_in = ring_in
        self._codec = codec
        self._seq_out = 0
        self._seq_in = 0
        #: Array payload bytes that actually crossed the process boundary.
        self.bytes_on_wire = 0
        #: Dense float/int bytes those payloads represent.
        self.logical_bytes = 0
        #: Optional liveness probe, polled while ring operations block.
        self.peer_check = None

    @property
    def codec_policy(self) -> CodecPolicy | None:
        """The negotiated codec policy (``None`` = raw passthrough)."""
        return self._codec

    def count_bytes(self, wire: int, logical: int) -> None:
        """Tally one payload (called by the pack/unpack walks)."""
        self.bytes_on_wire += int(wire)
        self.logical_bytes += int(logical)

    # -- error-feedback state --------------------------------------------------
    def codec_state_dict(self) -> dict:
        """Residual state of this endpoint's stateful codecs (may be empty)."""
        if self._codec is None:
            return {}
        return self._codec.state_dict()

    def codec_load(self, state: dict, merge: bool = True) -> None:
        """Restore codec residuals (no-op without a policy)."""
        if self._codec is not None and state:
            self._codec.load_state_dict(state, merge=merge)

    # -- messaging ------------------------------------------------------------
    def send(self, message, klass: str | None = None, count: bool = True) -> None:
        stats = self if count else None
        codec = self._codec.codec_for(klass) if self._codec is not None else None
        root_key = (klass,) if klass is not None else ()
        if self._ring_out is None:
            if codec is None:
                if stats is not None:
                    _measure(message, stats)
                self._conn.send(message)
                return
            # Encode in place: a zero ring budget routes every encoded
            # array through the inline (_EncodedInline) path.
            packed = _pack(message, [], [0], codec, stats, root_key)
            self._conn.send(packed)
            return
        arrays: list[np.ndarray] = []
        budget = [self._ring_out.capacity]
        packed = _pack(message, arrays, budget, codec, stats, root_key)
        # The payload is always written to the ring *before* the control
        # message goes through the pipe.  This is load-bearing on two
        # counts: the receiver finds the frames ready the moment the
        # control message lands (no spin-waiting on an empty ring), and --
        # since the lock-free ring itself carries no memory barriers -- the
        # producer's pipe-write syscall / consumer's pipe-read syscall pair
        # is what orders the payload stores before the reads on weakly
        # ordered CPUs.  ``_pack`` caps one message's frames at the ring
        # capacity, so waiting for that much free space cannot wedge.
        if arrays:
            total = sum(data.nbytes + _FRAME.size for data in arrays)
            self._ring_out.wait_free(total, self.peer_check)
            for data in arrays:
                self._seq_out = (self._seq_out + 1) & 0xFFFFFFFF
                header = _FRAME.pack(_MAGIC, self._seq_out, data.nbytes)
                self._ring_out.write(
                    np.frombuffer(header, dtype=np.uint8), self.peer_check
                )
                self._ring_out.write(data, self.peer_check)
        self._conn.send((packed, [data.nbytes for data in arrays]))

    def recv(self, count: bool = True):
        stats = self if count else None
        if self._ring_in is None:
            message = self._conn.recv()
            if self._codec is None:
                if stats is not None:
                    _measure(message, stats)
                return message
            # The peer may have inlined encoded frames; decode (and count)
            # them on the way out.
            return _unpack(message, [], stats)
        packed, sizes = self._conn.recv()
        arrays = []
        for expected in sizes:
            self._seq_in = (self._seq_in + 1) & 0xFFFFFFFF
            raw = self._ring_in.read(_FRAME.size, self.peer_check)
            magic, seq, nbytes = _FRAME.unpack(raw.tobytes())
            if magic != _MAGIC or seq != self._seq_in or nbytes != expected:
                raise TransportError(
                    f"corrupt ring frame: magic={magic!r} seq={seq} "
                    f"(expected {self._seq_in}) nbytes={nbytes} "
                    f"(expected {expected})"
                )
            arrays.append(self._ring_in.read(nbytes, self.peer_check))
        hydrated = [
            decode_array(ref.codec, raw, ref.shape, ref.dtype, ref.meta)
            if ref.codec is not None
            else raw.view(np.dtype(ref.dtype)).reshape(ref.shape)
            for raw, ref in zip(arrays, _iter_refs(packed))
        ]
        return _unpack(packed, hydrated, stats)

    # -- lifecycle ------------------------------------------------------------
    def close(self, unlink: bool = False) -> None:
        """Close the pipe and release the rings; idempotent."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for ring in (self._ring_out, self._ring_in):
            if ring is not None:
                ring.close(unlink=unlink)
        self._ring_out = self._ring_in = None


def _iter_refs(packed):
    """Yield the :class:`_RingRef` markers of a packed message, in order."""
    refs: list[_RingRef] = []

    def walk(obj):
        if isinstance(obj, _RingRef):
            refs.append(obj)
        elif isinstance(obj, dict):
            for value in obj.values():
                walk(value)
        elif isinstance(obj, (list, tuple)):
            for value in obj:
                walk(value)

    walk(packed)
    refs.sort(key=lambda ref: ref.index)
    return refs


@dataclass
class ChildConnector:
    """Picklable recipe the child process uses to build its endpoint.

    Passed as a ``Process`` argument: the pipe connection is inherited by
    the multiprocessing machinery and the rings are re-attached by name.
    """

    conn: object
    ring_in_name: str | None = None
    ring_out_name: str | None = None
    capacity: int = DEFAULT_RING_CAPACITY
    codec_spec: dict | None = None

    def connect(self) -> Endpoint:
        """Open the child side of the channel (call inside the child)."""
        ring_in = ring_out = None
        if self.ring_in_name is not None:
            ring_in = RingBuffer.attach(self.ring_in_name, self.capacity)
        if self.ring_out_name is not None:
            ring_out = RingBuffer.attach(self.ring_out_name, self.capacity)
        codec = (CodecPolicy.from_spec(self.codec_spec)
                 if self.codec_spec else None)
        return Endpoint(self.conn, ring_out=ring_out, ring_in=ring_in,
                        codec=codec)


class Transport(abc.ABC):
    """Factory for parent/child endpoint pairs of one channel."""

    #: Registry name of the transport (also used in logs and errors).
    name: str = "abstract"

    #: Whether bulk array payloads travel out-of-band (rings) rather than
    #: through the pipe.  The process executor offers the scheduler's
    #: aggregate window (``supports_async_dispatch``) only when this is
    #: ``True``.
    supports_async_bulk: bool = False

    #: Codec policy applied to every channel this transport creates.  One
    #: policy instance is shared across all parent endpoints (so a stateful
    #: codec sees a single residual store keyed by worker id); each child
    #: rebuilds a fresh instance from the policy's spec.
    codec: CodecPolicy | None = None

    def _codec_spec(self) -> dict | None:
        """Child-side recipe of the policy (``None`` without one)."""
        return self.codec.spec() if self.codec is not None else None

    @abc.abstractmethod
    def pair(self, context) -> tuple[Endpoint, ChildConnector]:
        """Create one channel: the parent endpoint plus the child's recipe.

        Args:
            context: The multiprocessing context the executor spawns
                children with (start-method aware ``Pipe``).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PipeTransport(Transport):
    """Pickle whole messages over a multiprocessing pipe (the classic path)."""

    name = "pipe"

    def __init__(self, codec: CodecPolicy | None = None) -> None:
        self.codec = codec

    def pair(self, context) -> tuple[Endpoint, ChildConnector]:
        parent_conn, child_conn = context.Pipe()
        parent = Endpoint(parent_conn, codec=self.codec)
        connector = ChildConnector(conn=child_conn,
                                   codec_spec=self._codec_spec())
        return parent, connector


class SharedMemoryTransport(Transport):
    """Ship arrays through shared-memory rings; only headers cross the pipe."""

    name = "shm"
    supports_async_bulk = True

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 codec: CodecPolicy | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.codec = codec

    def pair(self, context) -> tuple[Endpoint, ChildConnector]:
        parent_conn, child_conn = context.Pipe()
        to_child = RingBuffer.create(self.capacity)
        to_parent = RingBuffer.create(self.capacity)
        parent = Endpoint(parent_conn, ring_out=to_child, ring_in=to_parent,
                          codec=self.codec)
        connector = ChildConnector(
            conn=child_conn,
            ring_in_name=to_child.name,
            ring_out_name=to_parent.name,
            capacity=self.capacity,
            codec_spec=self._codec_spec(),
        )
        logger.debug(
            "shared-memory channel: rings %s/%s, %d bytes each",
            to_child.name, to_parent.name, self.capacity,
        )
        return parent, connector
