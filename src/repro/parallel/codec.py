"""Payload codecs: the compression of the simulated worker <-> PS link.

MergeSFL's workers ship split-layer features up and gradients down on
every iteration, so in a real deployment the link -- not compute -- is the
bottleneck.  A :class:`Codec` models a compressed link: the round passes
every payload that crosses it through ``decode(encode(x))``, trading
numerical precision for link bytes.  This happens in the round itself
(:class:`~repro.core.round_engine.RoundEngine`), identically on every
executor, and the simulated network charges each payload class its
encoded size:

========  ===================  ================================================
codec     bits/value           semantics
========  ===================  ================================================
``none``  32                   bit-exact passthrough (the default; no codec
                               object is even constructed, so the round is
                               untouched)
``fp16``  16                   IEEE half-precision cast; exact for
                               fp16-representable values, relative error <=
                               2^-11 inside +/-65504
``bf16``  16                   bfloat16 emulation (upper half of float32 with
                               round-to-nearest-even); fp32's range at ~3
                               significant digits
``int8``  8                    per-tensor affine quantization; minimum and
                               scale travel beside the payload, absolute error
                               <= (max-min)/510 per tensor
``topk``  96 x ratio (9.6 at   magnitude top-k sparsification (int32 index +
          the default 10%)     float64 value per kept coefficient) with
                               per-key error-feedback residual accumulators,
                               so dropped mass re-enters later messages
========  ===================  ================================================

Bits per value are those of a float32 tensor, the element the simulated
network moves (:data:`~repro.simulation.traffic.BYTES_PER_ELEMENT`).

Codecs only touch floating-point arrays.  Which codec applies to which
payload is decided per *payload class* -- ``features`` (bottom -> PS
activations), ``gradients`` (PS -> bottom split-layer gradients) and
``weights`` (collected bottom/full state dicts) -- by a
:class:`CodecPolicy`: ``config.codec`` sets the default for features and
gradients (weights stay ``none`` unless asked) and
``config.extras["codec_policy"]`` overrides individual classes, e.g.
``{"features": "topk", "weights": "fp16"}``.

The ``topk`` codec is *stateful*: every encoded tensor keeps a residual of
the mass it dropped, keyed by payload class and worker id (and parameter
name, for weights), and adds it back before the next top-k selection
(error feedback).  The round's one policy holds every residual, in the
parent process, so the death of a process executor's child loses none of
them; they serialize through ``state_dict()`` /
``load_state_dict()`` under the engine checkpoint's ``"codec"`` key, so a
checkpoint/resume cycle reproduces the lossy trajectory bit-exactly.

Register additional codecs with
:func:`~repro.api.registry.register_codec`; entries are :class:`Codec`
subclasses.
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
    """One compression scheme for the float arrays crossing the link.

    ``encode`` turns an array into a flat ``uint8`` payload plus a small
    ``meta`` object (e.g. the int8 scale); ``decode`` is a *static*
    inverse that needs nothing but the payload, the array's shape and
    dtype, and ``meta``.
    """

    #: Registry name.
    name: str = "abstract"
    #: Whether ``decode(encode(x)) == x`` bit for bit.
    lossless: bool = False
    #: Payload bits per value of an encoded float32 tensor; the simulated
    #: link charges a payload class ``bits_per_value / 32`` of its bytes.
    bits_per_value: float = 32.0
    #: Whether the codec carries cross-message state (error feedback).
    stateful: bool = False

    def applies_to(self, array: np.ndarray) -> bool:
        """Whether this codec should encode ``array`` (floats only)."""
        return array.dtype.kind == "f" and array.size > 0

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

    def load_state_dict(self, state: dict) -> None:
        """Replace the residuals with ``state``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register_codec("none", description="bit-exact passthrough (no codec)")
class NoneCodec(Codec):
    """Identity codec.

    Registered so ``codec="none"`` validates and lists like every other
    name, but :func:`build_codec_policy` resolves ``"none"`` to *no codec
    at all*, so this class never runs in the round.  It still round-trips
    correctly for uniformity in property tests.
    """

    name = "none"
    lossless = True

    def encode(self, array, key=None):
        flat = np.ascontiguousarray(array)
        return flat.reshape(-1).view(np.uint8), None

    @staticmethod
    def decode(payload, shape, dtype, meta):
        return payload.view(np.dtype(dtype)).reshape(shape).copy()


@register_codec("fp16", description="IEEE half-precision cast")
class Fp16Codec(Codec):
    """Cast to float16 on the link; exact for fp16-representable inputs."""

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
                                    "round-to-nearest-even")
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


@register_codec("int8", description="per-tensor affine uint8 quantization")
class Int8Codec(Codec):
    """Per-tensor affine quantization to 256 levels.

    The tensor's minimum and scale ``(max - min) / 255`` travel as the
    metadata; absolute reconstruction error is at most half a quantization
    step, i.e. ``(max - min) / 510``.
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
                                    "error-feedback residuals")
class TopKCodec(Codec):
    """Keep the ``ratio`` largest-magnitude coefficients of each tensor.

    The payload is ``k`` int32 flat indices followed by ``k`` float64
    values: 96 bits per kept coefficient, so ``96 * ratio`` bits per value
    (9.6 at the default 10%).  With ``error_feedback`` (the default, EF-SGD
    style) the dropped mass accumulates in a per-key residual that is added
    back before the next selection, so no signal is permanently lost --
    only delayed.  Residuals are the codec's checkpointable state; see
    :meth:`state_dict`.
    """

    name = "topk"
    stateful = True

    def __init__(self, ratio: float = DEFAULT_TOPK_RATIO,
                 error_feedback: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(
                f"topk codec ratio must be in (0, 1], got {ratio}"
            )
        self.ratio = float(ratio)
        self.bits_per_value = 96.0 * self.ratio
        self.error_feedback = bool(error_feedback)
        self._residuals: dict[tuple, np.ndarray] = {}

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

    def load_state_dict(self, state: dict) -> None:
        self._residuals = {
            tuple(key): np.asarray(value, dtype=np.float64)
            for key, value in state.items()
        }


class CodecPolicy:
    """Which codec (if any) encodes each payload class of the link.

    The round holds one policy for the whole run, so a stateful codec
    keeps every worker's residuals in one place.  Classes without an entry
    pass through untouched.
    """

    def __init__(self, codecs: dict[str, Codec]) -> None:
        for klass in codecs:
            if klass not in PAYLOAD_CLASSES:
                raise ConfigurationError(
                    f"unknown payload class {klass!r} "
                    f"(known: {', '.join(PAYLOAD_CLASSES)})"
                )
        self._codecs = dict(codecs)

    def codec_for(self, klass: str) -> Codec | None:
        """The codec encoding one payload class (``None`` = untouched)."""
        return self._codecs.get(klass)

    @property
    def stateful(self) -> bool:
        """Whether any class's codec carries checkpointable state."""
        return any(codec.stateful for codec in self._codecs.values())

    def apply(self, klass: str, worker_id: int, value):
        """``value`` as one worker's link delivers it: ``decode(encode(.))``.

        ``value`` is an array or a state dict; in a state dict every float
        array is encoded on its own.  Residual keys are ``(klass,
        worker_id)`` for an array and ``(klass, worker_id, parameter name)``
        for a state-dict entry.  A class without a codec, and a non-float
        array, come back as they are.
        """
        codec = self._codecs.get(klass)
        if codec is None:
            return value
        if isinstance(value, dict):
            return {
                name: _roundtrip(codec, array, (klass, worker_id, name))
                for name, array in value.items()
            }
        return _roundtrip(codec, value, (klass, worker_id))

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

    def load_state_dict(self, state: dict) -> None:
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
                codec.load_state_dict(grouped.get(klass, {}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={c.name}" for k, c in self._codecs.items())
        return f"CodecPolicy({inner})"


def _roundtrip(codec: Codec, array: np.ndarray, key: tuple) -> np.ndarray:
    """``decode(encode(array))``, keyed for error feedback."""
    if not codec.applies_to(array):
        return array
    payload, meta = codec.encode(array, key=key)
    return codec.decode(payload, array.shape, array.dtype.str, meta)


def build_codec_policy(config) -> CodecPolicy | None:
    """Build the link codec policy an ``ExperimentConfig`` describes.

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
