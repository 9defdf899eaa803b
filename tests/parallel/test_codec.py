"""Codec round-trips, error-feedback state and policy negotiation.

Every codec must honour its documented tolerance on arbitrary float
tensors (hypothesis drives the shapes and values), ``none`` must be
bit-exact, every codec's ``bits_per_value`` must be what its payload
really holds, and the ``topk`` error-feedback residual must conserve mass
exactly and survive a ``state_dict`` round-trip -- that invariant is what
makes lossy checkpoint/resume reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.registry import CODECS
from repro.config import ExperimentConfig
from repro.exceptions import ConfigurationError
from repro.parallel.codec import (
    FEATURES,
    GRADIENTS,
    WEIGHTS,
    CodecPolicy,
    TopKCodec,
    build_codec_policy,
    decode_key,
    encode_key,
)

# Strategies -----------------------------------------------------------------

float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)

#: Residual-key segments: payload classes, worker ids, parameter names.
key_segments = st.lists(
    st.integers(min_value=-1000, max_value=10**6)
    | st.text(
        alphabet=st.characters(
            codec="ascii", categories=("L", "N"), include_characters="._-"
        ),
        min_size=1,
        max_size=12,
    ).filter(lambda s: not s.lstrip("-").isdigit()),
    min_size=1,
    max_size=4,
)


def _roundtrip(name: str, array: np.ndarray, codec=None) -> np.ndarray:
    codec = codec if codec is not None else CODECS.get(name)()
    payload, meta = codec.encode(array)
    assert payload.dtype == np.uint8 and payload.ndim == 1
    return type(codec).decode(payload, array.shape, str(array.dtype), meta)


def _names(policy: CodecPolicy) -> dict:
    """Payload class -> codec name of the classes a policy encodes."""
    return {
        klass: policy.codec_for(klass).name
        for klass in (FEATURES, GRADIENTS, WEIGHTS)
        if policy.codec_for(klass) is not None
    }


class TestRoundTripTolerances:
    @given(float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_none_is_bit_exact(self, array):
        decoded = _roundtrip("none", array)
        assert decoded.dtype == array.dtype
        assert np.array_equal(decoded, array)

    @given(float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_fp16_within_half_precision(self, array):
        decoded = _roundtrip("fp16", array)
        # Relative error of round-to-nearest fp16 is 2^-11; the absolute
        # floor covers values that land in the subnormal range.
        assert np.all(np.abs(decoded - array)
                      <= 2.0 ** -11 * np.abs(array) + 2.0 ** -24)

    @given(float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_bf16_within_eight_bit_significand(self, array):
        decoded = _roundtrip("bf16", array)
        # 2^-126 floor: values below float32's normal range flush toward 0.
        assert np.all(np.abs(decoded - array)
                      <= 2.0 ** -8 * np.abs(array) + 2.0 ** -126)

    @given(float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_int8_within_half_quantization_step(self, array):
        decoded = _roundtrip("int8", array)
        span = float(array.max() - array.min())
        assert np.all(np.abs(decoded - array) <= span / 510.0 + 1e-12)

    @given(hnp.arrays(
        dtype=np.float16,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=16),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False,
                           width=16),
    ))
    @settings(max_examples=60, deadline=None)
    def test_fp16_exact_on_representable_values(self, half):
        array = half.astype(np.float64)
        assert np.array_equal(_roundtrip("fp16", array), array)

    def test_int8_constant_tensor_is_exact(self):
        array = np.full((5, 3), 2.25)
        assert np.array_equal(_roundtrip("int8", array), array)

    def test_int8_payload_is_one_byte_per_value(self):
        array = np.random.default_rng(0).normal(size=(32, 16))
        payload, __ = CODECS.get("int8")().encode(array)
        assert payload.nbytes == array.size

    @pytest.mark.parametrize("name", sorted(CODECS.names()))
    def test_bits_per_value_is_what_a_float32_payload_holds(self, name):
        """The simulated link charges ``bits_per_value`` per float32 value,
        so it must match the payload ``encode`` really emits."""
        array = np.random.default_rng(2).normal(size=(8, 125)).astype(np.float32)
        codec = CODECS.get(name)()
        payload, __ = codec.encode(array)
        assert codec.bits_per_value * array.size == pytest.approx(
            8 * payload.nbytes
        )

    def test_topk_bits_follow_the_ratio(self):
        for ratio in (0.1, 0.3, 1.0):
            assert TopKCodec(ratio=ratio).bits_per_value == pytest.approx(96 * ratio)

    def test_float32_inputs_keep_their_dtype(self):
        array = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
        for name in ("none", "fp16", "bf16", "int8", "topk"):
            assert _roundtrip(name, array).dtype == np.float32


class TestTopK:
    @given(float_arrays, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_keeps_largest_magnitudes_exactly(self, array, ratio):
        codec = TopKCodec(ratio=ratio, error_feedback=False)
        decoded = _roundtrip("topk", array, codec=codec)
        k = max(1, int(np.ceil(ratio * array.size)))
        kept = np.flatnonzero(decoded.reshape(-1))
        assert len(kept) <= k
        flat = array.reshape(-1)
        assert np.array_equal(decoded.reshape(-1)[kept], flat[kept])
        # Nothing dropped may exceed the smallest kept magnitude.
        if k < array.size:
            dropped = np.delete(np.abs(flat), kept)
            if kept.size and dropped.size:
                assert dropped.max() <= np.abs(flat[kept]).min()

    @given(float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_error_feedback_conserves_mass_exactly(self, array):
        """decoded + residual' == input + residual, bit for bit: dropped
        mass is delayed, never lost -- the EF-SGD invariant."""
        codec = TopKCodec(ratio=0.3)
        key = (FEATURES, 0)
        for step in range(3):
            before = codec._residuals.get(key, np.zeros(array.size))
            payload, meta = codec.encode(array, key=key)
            decoded = TopKCodec.decode(payload, array.shape, "float64", meta)
            after = codec._residuals[key]
            assert np.array_equal(
                decoded.reshape(-1) + after, array.reshape(-1) + before
            )

    def test_residual_reenters_next_message(self):
        codec = TopKCodec(ratio=0.5)
        key = (GRADIENTS, 1)
        array = np.asarray([4.0, 3.0, 1.0, 0.5])
        codec.encode(array, key=key)  # keeps {4, 3}; residual holds {1, .5}
        payload, meta = codec.encode(np.zeros(4), key=key)
        decoded = TopKCodec.decode(payload, (4,), "float64", meta)
        assert np.array_equal(decoded, [0.0, 0.0, 1.0, 0.5])

    def test_no_error_feedback_keeps_no_state(self):
        codec = TopKCodec(ratio=0.5, error_feedback=False)
        codec.encode(np.arange(8.0), key=(FEATURES, 0))
        assert codec.state_dict() == {}

    def test_state_dict_roundtrip(self):
        codec = TopKCodec(ratio=0.25)
        codec.encode(np.arange(16.0), key=(FEATURES, 0))
        codec.encode(-np.arange(16.0), key=(FEATURES, 1))
        clone = TopKCodec(ratio=codec.ratio)
        clone.load_state_dict(codec.state_dict())
        for key, residual in codec._residuals.items():
            assert np.array_equal(clone._residuals[key], residual)
        # Loading replaces every accumulator.
        clone.load_state_dict({(FEATURES, 8): np.ones(4)})
        assert set(clone._residuals) == {(FEATURES, 8)}

    def test_invalid_ratio_rejected(self):
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError, match="topk codec ratio"):
                TopKCodec(ratio=ratio)


class TestKeyCodec:
    @given(key_segments)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, segments):
        key = tuple(segments)
        assert decode_key(encode_key(key)) == key

    def test_numeric_strings_become_ints(self):
        assert decode_key("features|3|layer0.weight") == (
            FEATURES, 3, "layer0.weight"
        )


class TestCodecPolicy:
    def test_apply_keys_residuals_by_class_worker_and_parameter(self):
        """``apply`` keeps every shape and dtype, keys an array's residual
        ``(class, worker)`` and a state-dict entry's ``(class, worker,
        parameter)``, and leaves uncoded classes and integers alone."""
        policy = CodecPolicy({
            FEATURES: TopKCodec(ratio=0.25), WEIGHTS: TopKCodec(ratio=0.25),
        })
        rng = np.random.default_rng(5)
        features = rng.normal(size=(4, 6))
        decoded = policy.apply(FEATURES, 3, features)
        assert decoded.shape == features.shape and decoded.dtype == features.dtype
        assert np.count_nonzero(decoded) == 6 and not np.array_equal(decoded, features)
        state = {
            "layer0.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "steps": np.arange(4),
        }
        delivered = policy.apply(WEIGHTS, 7, state)
        assert delivered["layer0.weight"].dtype == np.float32
        assert delivered["layer0.weight"].shape == (3, 4)
        assert delivered["steps"] is state["steps"]
        assert set(policy.state_dict()) == {"features|3", "weights|7|layer0.weight"}
        gradients = rng.normal(size=(4, 6))
        assert policy.apply(GRADIENTS, 3, gradients) is gradients
        assert policy.stateful and not CodecPolicy(
            {FEATURES: CODECS.get("fp16")()}
        ).stateful

    def test_unknown_payload_class_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown payload class"):
            CodecPolicy({"telemetry": CODECS.get("fp16")()})

    def test_state_dict_uses_flat_string_keys(self):
        policy = CodecPolicy({FEATURES: TopKCodec(ratio=0.5)})
        policy.codec_for(FEATURES).encode(
            np.arange(8.0), key=(FEATURES, 2, "layer0.weight")
        )
        state = policy.state_dict()
        assert set(state) == {"features|2|layer0.weight"}
        restored = CodecPolicy({FEATURES: TopKCodec(ratio=0.5)})
        restored.load_state_dict(state)
        assert np.array_equal(
            restored.codec_for(FEATURES)._residuals[(FEATURES, 2, "layer0.weight")],
            policy.codec_for(FEATURES)._residuals[(FEATURES, 2, "layer0.weight")],
        )

    def test_load_drops_residuals_of_absent_classes(self):
        policy = CodecPolicy({FEATURES: TopKCodec()})
        policy.load_state_dict({"gradients|0": np.ones(3)})
        assert policy.state_dict() == {}


class TestBuildCodecPolicy:
    def test_none_builds_no_policy(self):
        assert build_codec_policy(ExperimentConfig()) is None
        assert build_codec_policy(ExperimentConfig(codec="none")) is None

    def test_default_classes_are_features_and_gradients(self):
        policy = build_codec_policy(ExperimentConfig(codec="int8"))
        assert _names(policy) == {FEATURES: "int8", GRADIENTS: "int8"}

    def test_policy_extras_override_classes(self):
        config = ExperimentConfig(
            codec="fp16",
            extras={"codec_policy": {GRADIENTS: "none", WEIGHTS: "int8"}},
        )
        policy = build_codec_policy(config)
        assert _names(policy) == {FEATURES: "fp16", WEIGHTS: "int8"}

    def test_topk_ratio_extra(self):
        config = ExperimentConfig(
            codec="topk", extras={"codec_topk_ratio": 0.4}
        )
        policy = build_codec_policy(config)
        assert policy.codec_for(FEATURES).ratio == 0.4

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            ExperimentConfig(codec="middle-out")

    def test_invalid_policy_extras_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(extras={"codec_policy": "int8"})
        with pytest.raises(ConfigurationError):
            ExperimentConfig(extras={"codec_policy": {"telemetry": "int8"}})
        with pytest.raises(ConfigurationError):
            ExperimentConfig(extras={"codec_policy": {FEATURES: "bogus"}})

    def test_registry_lists_codecs(self):
        assert {"none", "fp16", "bf16", "int8", "topk"} <= set(CODECS.names())
