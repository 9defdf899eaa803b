"""Per-round training history."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from repro.exceptions import ConfigurationError


@dataclass
class RoundRecord:
    """Everything measured about one communication round.

    Attributes:
        round_index: Zero-based round counter.
        sim_time: Cumulative simulated wall-clock time (seconds).
        duration: This round's duration (seconds).
        waiting_time: Average worker idle time in this round (seconds).
        traffic_mb: Cumulative network traffic (MB).
        train_loss: Mean training loss over the round's local iterations,
            as computed *during* training on the mini-batches that were
            trained on -- one definition for every algorithm.  Split
            engines average the top model's per-iteration losses; FL
            engines average, over the workers whose reply was observed,
            each worker's mean per-iteration loss (``Executor.train_full``
            returns it).  ``0.0`` when no update was observed (a round
            that lost its whole cohort).
        test_loss: Test loss of the global model after the round.
        test_accuracy: Test accuracy of the global model after the round.
        num_selected: Number of workers in the round's worker set.
        total_batch: Total merged batch size.
        merged_kl: KL divergence of the merged label distribution.
        selected_ids: Global ids of the round's selected cohort, in plan
            order -- the participation history churn scenarios build on.
        dropped_ids: Workers whose update missed the round -- simulated
            dropouts and stragglers plus any real executor deaths.  In a
            round that updated the model, ``selected_ids`` minus these are
            the workers whose update made the aggregate.
        rejoined_ids: Workers whose earlier missing update was folded into
            this round's aggregate within the rejoin staleness bound.
        dropout_rate: Fraction of the planned cohort that missed the round.
        effective_cohort: Number of updates in the round's aggregate
            (completed + rejoined; ``num_selected`` when nobody went
            missing, ``0`` when the round missed the quorum and applied
            no aggregate -- a split engine's top model still trained on
            the round's merged features).
        bytes_on_wire: Array-payload bytes that crossed the executor's
            process boundary this round (both directions; ``0`` for
            in-process executors).  Host bytes, not the simulated link's:
            a link codec shows in ``traffic_mb``.
        logical_bytes: Dense bytes those payloads represent; arrays cross
            raw, so this equals ``bytes_on_wire``.
        compression_ratio: ``logical_bytes / bytes_on_wire`` for the round
            (``0.0`` when nothing crossed a process boundary).
    """

    round_index: int
    sim_time: float
    duration: float
    waiting_time: float
    traffic_mb: float
    train_loss: float
    test_loss: float
    test_accuracy: float
    num_selected: int
    total_batch: int
    merged_kl: float = 0.0
    selected_ids: list[int] = field(default_factory=list)
    dropped_ids: list[int] = field(default_factory=list)
    rejoined_ids: list[int] = field(default_factory=list)
    dropout_rate: float = 0.0
    effective_cohort: int = 0
    bytes_on_wire: int = 0
    logical_bytes: int = 0
    compression_ratio: float = 0.0


#: :class:`RoundRecord` fields that measure transport wire traffic.  They
#: depend on the execution *topology* (the executor, its pool and rings), not
#: on the training trajectory, so cross-topology equivalence checks compare
#: records with these stripped while everything else stays bit-exact.
WIRE_FIELDS = ("bytes_on_wire", "logical_bytes", "compression_ratio")

#: Fields earlier versions recorded that no longer exist, which
#: :meth:`History.from_dict` drops whatever their value: the lazy pool's
#: delta-cache hit/miss counters (the cache rebuilt bottoms that every
#: install overwrote, so they observed nothing of the trajectory), and
#: ``completed_ids``, which ``selected_ids`` minus ``dropped_ids`` gives for
#: every round that updated the model.
RETIRED_FIELDS = ("cache_hits", "cache_misses", "completed_ids")


def wire_round_delta(before: dict | None, after: dict | None
                     ) -> tuple[int, int, float]:
    """Per-round ``(bytes_on_wire, logical_bytes, compression_ratio)``.

    Computed from two executor ``transport_stats()`` snapshots (monotonic
    counters, or ``None`` for in-process executors, which yields zeros).
    """
    if before is None or after is None:
        return 0, 0, 0.0
    wire = int(after["bytes_on_wire"]) - int(before["bytes_on_wire"])
    logical = int(after["logical_bytes"]) - int(before["logical_bytes"])
    ratio = (logical / wire) if wire > 0 else 0.0
    return wire, logical, ratio


@dataclass
class History:
    """Ordered collection of :class:`RoundRecord` for one training run."""

    algorithm: str = ""
    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Append a round record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> RoundRecord:
        return self.records[index]

    # -- convenience accessors ------------------------------------------------
    @property
    def accuracies(self) -> list[float]:
        """Per-round test accuracy."""
        return [record.test_accuracy for record in self.records]

    @property
    def times(self) -> list[float]:
        """Per-round cumulative simulated time."""
        return [record.sim_time for record in self.records]

    @property
    def traffic(self) -> list[float]:
        """Per-round cumulative traffic in MB."""
        return [record.traffic_mb for record in self.records]

    @property
    def waiting_times(self) -> list[float]:
        """Per-round average waiting time."""
        return [record.waiting_time for record in self.records]

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "algorithm": self.algorithm,
            "records": [asdict(record) for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "History":
        """Inverse of :meth:`to_dict`.

        Records of earlier versions carry ``effective_staleness``, the
        realized lag of the retired bounded-staleness scheduler: 0.0 (every
        exact run) is dropped, anything else fails by name -- that
        trajectory can no longer be produced.  :data:`RETIRED_FIELDS` are
        dropped.  A record written before ``effective_cohort`` existed
        aggregated its whole cohort: it loads with ``num_selected`` there.
        """
        history = cls(algorithm=payload.get("algorithm", ""))
        for record in payload.get("records", []):
            record = {
                key: value for key, value in record.items()
                if key not in RETIRED_FIELDS
            }
            record.setdefault("effective_cohort", record["num_selected"])
            lag = record.pop("effective_staleness", 0.0)
            if lag != 0.0:
                raise ConfigurationError(
                    f"round {record.get('round_index')} has effective_staleness "
                    f"{lag}: bounded staleness was removed, only exact "
                    f"histories load"
                )
            history.append(RoundRecord(**record))
        return history
