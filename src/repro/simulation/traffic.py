"""Network traffic accounting.

The paper's third metric sums the bytes moved between workers and the PS:
bottom/full models during distribution and aggregation, and features plus
gradients during split training.  Features and models travel as float32.
"""

from __future__ import annotations

import numpy as np

#: Bytes per scalar on the wire (float32 serialisation).
BYTES_PER_ELEMENT = 4


def feature_bytes(feature_shape: tuple[int, ...], batch_size: int = 1) -> int:
    """Bytes of a feature (or gradient) tensor for ``batch_size`` samples."""
    if batch_size < 0:
        raise ValueError("batch_size must be non-negative")
    per_sample = int(np.prod(feature_shape)) * BYTES_PER_ELEMENT
    return per_sample * batch_size


class TrafficMeter:
    """Accumulates uplink/downlink traffic in bytes, by category."""

    CATEGORIES = ("model", "feature", "gradient", "control")

    def __init__(self) -> None:
        self._bytes: dict[str, float] = {category: 0.0 for category in self.CATEGORIES}

    def add(self, category: str, num_bytes: "float | np.ndarray") -> None:
        """Record ``num_bytes`` of traffic in the given category.

        An array records each of its amounts in turn: the category's
        counter is their sequential float sum (``np.add.accumulate``, not
        the pairwise ``np.sum``), exactly what one call per amount adds up.
        """
        if category not in self._bytes:
            raise ValueError(
                f"unknown traffic category {category!r}; known: {self.CATEGORIES}"
            )
        amounts = np.ravel(np.asarray(num_bytes, dtype=np.float64))
        if amounts.size and amounts.min() < 0:
            raise ValueError("traffic must be non-negative")
        self._bytes[category] = float(np.add.accumulate(
            np.concatenate([[self._bytes[category]], amounts])
        )[-1])

    def add_model_exchange(
        self, model_bytes: "float | np.ndarray", num_workers: int = 1
    ) -> None:
        """Record a model being both downloaded and uploaded by ``num_workers``
        (per amount, for an array of models)."""
        self.add("model", 2.0 * np.asarray(model_bytes) * num_workers)

    def add_feature_exchange(
        self, feature_and_grad_bytes: "float | np.ndarray"
    ) -> None:
        """Record a feature upload plus its gradient download (per amount,
        for an array of exchanges)."""
        halves = np.asarray(feature_and_grad_bytes) / 2.0
        self.add("feature", halves)
        self.add("gradient", halves)

    @property
    def total_bytes(self) -> float:
        """Total traffic across all categories."""
        return float(sum(self._bytes.values()))

    @property
    def total_megabytes(self) -> float:
        """Total traffic in MB (decimal, as in the paper's figures)."""
        return self.total_bytes / 1e6

    def breakdown(self) -> dict[str, float]:
        """Per-category byte counts (copy)."""
        return dict(self._bytes)

    def state_dict(self) -> dict:
        """Accumulated per-category traffic for checkpointing."""
        return {"bytes": dict(self._bytes)}

    def load_state_dict(self, state: dict) -> None:
        """Restore counters captured by :meth:`state_dict`."""
        counters = state["bytes"]
        unknown = set(counters) - set(self.CATEGORIES)
        if unknown:
            raise ValueError(f"unknown traffic categories in checkpoint: {sorted(unknown)}")
        self._bytes = {category: 0.0 for category in self.CATEGORIES}
        for category, value in counters.items():
            self._bytes[category] = float(value)
