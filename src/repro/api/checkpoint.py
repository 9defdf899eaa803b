"""JSON-safe (de)serialisation of experiment state.

Checkpoints written by :class:`repro.api.session.Session` are plain JSON
files.  Numpy arrays are encoded as base64 of their raw bytes (plus dtype
and shape), which round-trips bit-exactly -- a restored run continues with
exactly the weights, RNG streams and accounting it was saved with.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError

#: Marker key identifying an encoded numpy array.
ARRAY_KEY = "__ndarray__"


def encode_state(value):
    """Recursively convert ``value`` into JSON-encodable primitives.

    Supports None, bools, ints, floats, strings, numpy scalars and arrays,
    lists/tuples and string-keyed dicts.  Anything else raises ``TypeError``
    so non-serialisable state is caught at save time, not at load time.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError(
                "cannot encode object-dtype arrays into a checkpoint"
            )
        data = np.ascontiguousarray(value)
        return {ARRAY_KEY: {
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        if ARRAY_KEY in value:
            raise TypeError(
                f"checkpoint dicts may not use the reserved key {ARRAY_KEY!r}"
            )
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be strings, got {key!r}"
                )
            encoded[key] = encode_state(item)
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_state(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} into a checkpoint")


def decode_state(value):
    """Inverse of :func:`encode_state` (tuples come back as lists)."""
    if isinstance(value, dict):
        if set(value) == {ARRAY_KEY}:
            spec = value[ARRAY_KEY]
            raw = base64.b64decode(spec["data"])
            array = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return array.reshape([int(dim) for dim in spec["shape"]]).copy()
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


def dump_checkpoint(payload: dict, path: str | Path) -> None:
    """Encode ``payload`` and write it to ``path`` as JSON.

    The write is atomic (temp file + rename), so overwriting an existing
    checkpoint never destroys it when the process dies or the disk fills
    mid-write.
    """
    path = Path(path)
    text = json.dumps(encode_state(payload))
    temp = path.with_name(path.name + ".tmp")
    try:
        temp.write_text(text)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def load_checkpoint_payload(path: str | Path) -> dict:
    """Read a checkpoint file written by :func:`dump_checkpoint`.

    Raises:
        ConfigurationError: Naming ``path``, when the file does not hold a
            JSON object -- truncated, overwritten or not a checkpoint.
    """
    try:
        payload = decode_state(json.loads(Path(path).read_text()))
    except ValueError as error:  # JSONDecodeError, bad unicode or base64
        raise ConfigurationError(
            f"checkpoint {path} is not valid JSON (truncated or not a "
            f"checkpoint file): {error}"
        ) from error
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"checkpoint {path} holds a JSON {type(payload).__name__}, "
            f"not an object"
        )
    return payload
