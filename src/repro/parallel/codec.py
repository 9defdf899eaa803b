"""Payload codecs for the feature transport.

MergeSFL's workers ship split-layer features up and gradients down on
every iteration, so in a real deployment the link -- not compute -- is the
bottleneck.  A :class:`Codec` compresses the float arrays crossing a
:class:`~repro.parallel.transport.Endpoint` before they are framed into
the shared-memory rings (or pickled over the pipe) and decompresses them
on the far side, trading numerical precision for wire bytes:

========  ============  ========================================================
codec     bits/value    semantics
========  ============  ========================================================
``none``  64            bit-exact passthrough (the default; no codec object is
                        even constructed, so the hot path is untouched)
``fp16``  16            IEEE half-precision cast; exact for fp16-representable
                        values, relative error <= 2^-11 inside +/-65504
``bf16``  16            bfloat16 emulation (upper half of float32 with
                        round-to-nearest-even); fp32's range at ~3 significant
                        digits
``int8``  8             per-tensor affine quantization; minimum and scale
                        travel in the frame metadata, absolute error <=
                        (max-min)/510 per tensor
``topk``  ~1.2 at 10%   magnitude top-k sparsification (int32 indices +
                        float64 values) with per-key error-feedback residual
                        accumulators, so dropped mass re-enters later messages
========  ============  ========================================================

Codecs only touch floating-point arrays; integer payloads (drawn source
rows, worker ids) always pass through raw, as does a dataset sent to a
child once per pool lifetime.  Which codec applies to which message is
decided per *payload class* -- ``features`` (child -> parent activations),
``gradients`` (parent -> child split-layer gradients) and ``weights``
(collected bottom/full state dicts) -- by a :class:`CodecPolicy` negotiated
per :data:`~repro.api.registry.TRANSPORTS` endpoint: ``config.codec`` sets
the default for features and gradients (weights stay ``none`` unless asked)
and ``config.extras["codec_policy"]`` overrides individual classes, e.g.
``{"features": "topk", "weights": "fp16"}``.

The ``topk`` codec is *stateful*: every encoded tensor keeps a residual of
the mass it dropped, keyed by payload class and worker id, and adds it back
before the next top-k selection (error feedback).  Residuals serialize
through ``state_dict()`` / ``load_state_dict()`` -- the process executor
collects them from its children at checkpoint time and re-ships them on
resume -- so a checkpoint/resume cycle reproduces the lossy trajectory
bit-exactly.  Residuals held by a child that dies are reset (the lossy
trajectory after an executor death is deterministic given the death).

Register additional codecs with
:func:`~repro.api.registry.register_codec`; entries are :class:`Codec`
subclasses, looked up both to build policies and to decode self-describing
frames on the receiving side.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.api.registry import CODECS, register_codec
from repro.exceptions import ConfigurationError

#: Payload classes a :class:`CodecPolicy` can target.
FEATURES = "features"
GRADIENTS = "gradients"
WEIGHTS = "weights"
PAYLOAD_CLASSES = (FEATURES, GRADIENTS, WEIGHTS)

#: Classes ``config.codec`` applies to by default.  Weight state dicts are
#: aggregated into the global model, so they stay exact unless a policy
#: override asks for compression explicitly.
DEFAULT_CODEC_CLASSES = (FEATURES, GRADIENTS)

#: Default kept-coefficient fraction of the ``topk`` codec
#: (``extras["codec_topk_ratio"]`` overrides it).
DEFAULT_TOPK_RATIO = 0.1

#: Separator of the serialized residual-key segments (JSON checkpoints need
#: string keys).  Key segments are payload classes, worker ids and state-
#: dict parameter names, none of which contain it.
_KEY_SEP = "|"


def encode_key(key: tuple) -> str:
    """Serialize a residual key (tuple of str/int segments) to a string."""
    return _KEY_SEP.join(str(part) for part in key)


def decode_key(text: str) -> tuple:
    """Inverse of :func:`encode_key`; numeric segments become ints again."""
    return tuple(
        int(part) if part.lstrip("-").isdigit() and part.lstrip("-") else part
        for part in text.split(_KEY_SEP)
    )


class Codec(abc.ABC):
    """One compression scheme for float arrays crossing a transport.

    ``encode`` turns an array into a flat ``uint8`` payload plus a small
    picklable ``meta`` object that travels in the frame header (the control
    message); ``decode`` is a *static* inverse so the receiving side can
    reconstruct any frame from its codec name alone -- frames are
    self-describing and no receiver-side state is needed.
    """

    #: Registry name (also stamped into every encoded frame).
    name: str = "abstract"
    #: Whether ``decode(encode(x)) == x`` bit for bit.
    lossless: bool = False
    #: Nominal payload bits per encoded value (documentation/benchmarks).
    bits_per_value: float = 64.0
    #: Whether the codec carries cross-message state (error feedback).
    stateful: bool = False

    def applies_to(self, array: np.ndarray) -> bool:
        """Whether this codec should encode ``array`` (floats only)."""
        return array.dtype.kind == "f" and array.size > 0

    def params(self) -> dict:
        """Constructor kwargs that rebuild this codec in a child process."""
        return {}

    @abc.abstractmethod
    def encode(self, array: np.ndarray, key: tuple | None = None
               ) -> tuple[np.ndarray, object]:
        """Compress ``array`` into ``(uint8 payload, meta)``.

        ``key`` identifies the tensor's slot in the protocol (payload
        class, worker id, parameter name); stateful codecs key their
        residual accumulators by it.
        """

    @staticmethod
    @abc.abstractmethod
    def decode(payload: np.ndarray, shape: tuple, dtype: str, meta
               ) -> np.ndarray:
        """Reconstruct the (possibly approximated) array from a payload."""

    # -- error-feedback state (stateless codecs keep the defaults) -----------
    def state_dict(self) -> dict:
        """Residual accumulators keyed by raw tuple keys (empty if stateless)."""
        return {}

    def load_state_dict(self, state: dict, merge: bool = False) -> None:
        """Restore residuals; ``merge`` keeps accumulators not in ``state``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register_codec("none", description="bit-exact passthrough (no codec)",
                bits_per_value=64, lossless=True)
class NoneCodec(Codec):
    """Identity codec.

    Registered so ``codec="none"`` validates and lists like every other
    name, but :func:`build_codec_policy` resolves ``"none"`` to *no codec
    at all* -- the transport's historical raw-array path -- so this class
    never runs in the hot path.  It still round-trips correctly for
    uniformity in property tests.
    """

    name = "none"
    lossless = True
    bits_per_value = 64.0

    def encode(self, array, key=None):
        flat = np.ascontiguousarray(array)
        return flat.reshape(-1).view(np.uint8), None

    @staticmethod
    def decode(payload, shape, dtype, meta):
        return payload.view(np.dtype(dtype)).reshape(shape).copy()


@register_codec("fp16", description="IEEE half-precision cast",
                bits_per_value=16, lossless=False)
class Fp16Codec(Codec):
    """Cast to float16 on the wire; exact for fp16-representable inputs."""

    name = "fp16"
    bits_per_value = 16.0

    def encode(self, array, key=None):
        half = np.ascontiguousarray(array, dtype=np.float16)
        return half.reshape(-1).view(np.uint8), None

    @staticmethod
    def decode(payload, shape, dtype, meta):
        half = payload.view(np.float16).reshape(shape)
        return half.astype(np.dtype(dtype))


@register_codec("bf16", description="bfloat16 (upper half of float32), "
                                    "round-to-nearest-even",
                bits_per_value=16, lossless=False)
class Bf16Codec(Codec):
    """bfloat16 emulation: float32's exponent range at 8 significand bits.

    numpy has no native bfloat16, so the cast keeps the upper 16 bits of
    the float32 representation with round-to-nearest-even on the dropped
    half -- the same rounding hardware bf16 units apply.
    """

    name = "bf16"
    bits_per_value = 16.0

    def encode(self, array, key=None):
        bits = np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)
        rounded = (bits.astype(np.uint64) + 0x7FFF + ((bits >> 16) & 1)) >> 16
        upper = (rounded & 0xFFFF).astype(np.uint16)
        return upper.reshape(-1).view(np.uint8), None

    @staticmethod
    def decode(payload, shape, dtype, meta):
        bits = payload.view(np.uint16).astype(np.uint32) << 16
        return bits.view(np.float32).reshape(shape).astype(np.dtype(dtype))


@register_codec("int8", description="per-tensor affine uint8 quantization",
                bits_per_value=8, lossless=False)
class Int8Codec(Codec):
    """Per-tensor affine quantization to 256 levels.

    The tensor's minimum and scale ``(max - min) / 255`` travel in the
    frame metadata; absolute reconstruction error is at most half a
    quantization step, i.e. ``(max - min) / 510``.
    """

    name = "int8"
    bits_per_value = 8.0

    def encode(self, array, key=None):
        values = np.ascontiguousarray(array, dtype=np.float64)
        lo = float(values.min())
        hi = float(values.max())
        scale = (hi - lo) / 255.0
        if scale == 0.0 or not np.isfinite(scale):
            # Constant (or degenerate) tensors quantize to a single level.
            scale = 1.0
        levels = np.clip(np.rint((values - lo) / scale), 0.0, 255.0)
        return levels.astype(np.uint8).reshape(-1), (lo, scale)

    @staticmethod
    def decode(payload, shape, dtype, meta):
        lo, scale = meta
        values = payload.astype(np.float64) * scale + lo
        return values.reshape(shape).astype(np.dtype(dtype))


@register_codec("topk", description="top-k magnitude sparsification with "
                                    "error-feedback residuals",
                bits_per_value=1.2, lossless=False)
class TopKCodec(Codec):
    """Keep the ``ratio`` largest-magnitude coefficients of each tensor.

    The payload is ``k`` int32 flat indices followed by ``k`` float64
    values (~12 bytes per kept coefficient, i.e. ~1.2 bits/value at the
    default 10% ratio on float64 tensors).  With ``error_feedback`` (the
    default, EF-SGD style) the dropped mass accumulates in a per-key
    residual that is added back before the next selection, so no signal is
    permanently lost -- only delayed.  Residuals are the codec's
    checkpointable state; see :meth:`state_dict`.
    """

    name = "topk"
    bits_per_value = 1.2
    stateful = True

    def __init__(self, ratio: float = DEFAULT_TOPK_RATIO,
                 error_feedback: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(
                f"topk codec ratio must be in (0, 1], got {ratio}"
            )
        self.ratio = float(ratio)
        self.error_feedback = bool(error_feedback)
        self._residuals: dict[tuple, np.ndarray] = {}

    def params(self) -> dict:
        return {"ratio": self.ratio, "error_feedback": self.error_feedback}

    def encode(self, array, key=None):
        flat = np.ascontiguousarray(array, dtype=np.float64).reshape(-1)
        if self.error_feedback and key is not None:
            residual = self._residuals.get(key)
            if residual is not None and residual.shape == flat.shape:
                flat = flat + residual
        k = max(1, int(np.ceil(self.ratio * flat.size)))
        if k >= flat.size:
            top = np.arange(flat.size, dtype=np.int32)
        else:
            top = np.argpartition(np.abs(flat), flat.size - k)[flat.size - k:]
            top = np.sort(top).astype(np.int32)
        values = flat[top]
        if self.error_feedback and key is not None:
            residual = flat.copy()
            residual[top] = 0.0
            self._residuals[key] = residual
        payload = np.frombuffer(
            top.astype("<i4").tobytes() + values.astype("<f8").tobytes(),
            dtype=np.uint8,
        )
        return payload, (int(k),)

    @staticmethod
    def decode(payload, shape, dtype, meta):
        (k,) = meta
        raw = payload.tobytes()
        top = np.frombuffer(raw, dtype="<i4", count=k)
        values = np.frombuffer(raw, dtype="<f8", count=k, offset=4 * k)
        dense = np.zeros(int(np.prod(shape, dtype=np.int64)), dtype=np.float64)
        dense[top] = values
        return dense.reshape(shape).astype(np.dtype(dtype))

    def state_dict(self) -> dict:
        return {key: value.copy() for key, value in self._residuals.items()}

    def load_state_dict(self, state: dict, merge: bool = False) -> None:
        if not merge:
            self._residuals.clear()
        for key, value in state.items():
            self._residuals[tuple(key)] = np.asarray(value, dtype=np.float64)


def decode_array(name: str, payload: np.ndarray, shape: tuple, dtype: str,
                 meta) -> np.ndarray:
    """Decode one self-describing frame via the codec registry."""
    return CODECS.get(name).decode(payload, shape, dtype, meta)


class CodecPolicy:
    """Which codec (if any) encodes each payload class of one transport.

    One policy instance is shared by every parent-side endpoint of an
    executor (so a stateful codec keys residuals across all children) and
    one fresh instance is rebuilt from :meth:`spec` inside each child.
    Classes without an entry pass through raw.
    """

    def __init__(self, codecs: dict[str, Codec]) -> None:
        for klass in codecs:
            if klass not in PAYLOAD_CLASSES:
                raise ConfigurationError(
                    f"unknown payload class {klass!r} "
                    f"(known: {', '.join(PAYLOAD_CLASSES)})"
                )
        self._codecs = dict(codecs)

    def codec_for(self, klass: str | None) -> Codec | None:
        """The codec encoding one payload class (``None`` = raw)."""
        if klass is None:
            return None
        return self._codecs.get(klass)

    @property
    def stateful(self) -> bool:
        """Whether any class's codec carries checkpointable state."""
        return any(codec.stateful for codec in self._codecs.values())

    def spec(self) -> dict:
        """Picklable recipe a child process rebuilds the policy from."""
        return {
            klass: (codec.name, codec.params())
            for klass, codec in self._codecs.items()
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "CodecPolicy":
        """Inverse of :meth:`spec` (fresh codec instances, empty state)."""
        return cls({
            klass: CODECS.get(name)(**params)
            for klass, (name, params) in spec.items()
        })

    def describe(self) -> dict[str, str]:
        """Class -> codec-name mapping, for logs and round metadata."""
        return {klass: codec.name for klass, codec in self._codecs.items()}

    # -- error-feedback state --------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``{serialized key: residual}`` over every stateful codec.

        Keys start with the payload class (see :func:`encode_key`), so the
        merged dict is collision-free and JSON-checkpoint friendly.
        """
        state: dict[str, np.ndarray] = {}
        for codec in self._codecs.values():
            for key, value in codec.state_dict().items():
                state[encode_key(key)] = value
        return state

    def load_state_dict(self, state: dict, merge: bool = False) -> None:
        """Route serialized residuals back to each class's codec.

        Keys whose class has no stateful codec here (the policy changed
        between checkpoint and resume) are dropped silently -- a different
        codec has no use for another codec's residuals.
        """
        grouped: dict[str, dict[tuple, np.ndarray]] = {}
        for text, value in state.items():
            key = decode_key(text)
            grouped.setdefault(str(key[0]), {})[key] = value
        for klass, codec in self._codecs.items():
            if codec.stateful:
                codec.load_state_dict(grouped.get(klass, {}), merge=merge)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={c.name}" for k, c in self._codecs.items())
        return f"CodecPolicy({inner})"


def build_codec_policy(config) -> CodecPolicy | None:
    """Build the transport codec policy an ``ExperimentConfig`` describes.

    ``config.codec`` applies to features and gradients; weight state dicts
    default to ``none``.  ``extras["codec_policy"]`` overrides individual
    classes and ``extras["codec_topk_ratio"]`` tunes the ``topk`` codec.
    Returns ``None`` when every class resolves to ``"none"``, so the
    default configuration constructs no codec machinery at all.
    """
    extras = getattr(config, "extras", None) or {}
    default = getattr(config, "codec", "none") or "none"
    names = {klass: "none" for klass in PAYLOAD_CLASSES}
    for klass in DEFAULT_CODEC_CLASSES:
        names[klass] = default
    overrides = extras.get("codec_policy") or {}
    if not isinstance(overrides, dict):
        raise ConfigurationError(
            f"extras['codec_policy'] must be a dict of payload class -> "
            f"codec name, got {overrides!r}"
        )
    names.update(overrides)
    codecs: dict[str, Codec] = {}
    for klass, name in names.items():
        if name == "none":
            continue
        cls = CODECS.get(name)
        params = {}
        if name == "topk":
            ratio = extras.get("codec_topk_ratio")
            if ratio is not None:
                params["ratio"] = float(ratio)
        codecs[klass] = cls(**params)
    if not codecs:
        return None
    return CodecPolicy(codecs)
