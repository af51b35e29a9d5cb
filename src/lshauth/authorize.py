"""Open-set accept/reject decisions over the hash index, plus enroll/revoke.

The decision procedure has two steps. Step 1 looks up the query's
approximate nearest neighbor; if none exists the query is rejected outright.
Step 2 accepts exactly when the neighbor's transmitter is currently
authorized; a known-outlier or revoked neighbor rejects. No distance
threshold is applied at any point.

Adding transmitters only appends their records to the index; removing them
is a registry status flip that leaves the index untouched.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .data import Dataset, FingerprintRecord, TransmitterRegistry, TxStatus
from .errors import LshAuthError, ValidationError
from .lsh import LshIndex

DEFAULT_LATENCY_WARMUP = 100


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Reason(enum.Enum):
    NEIGHBOR_AUTHORIZED = "neighbor_authorized"
    NO_NEIGHBOR = "no_neighbor"
    NEIGHBOR_KNOWN_OUTLIER = "neighbor_known_outlier"
    NEIGHBOR_REVOKED = "neighbor_revoked"


@dataclass(frozen=True)
class Evidence:
    tx_id: int
    sample_id: int
    distance: float


@dataclass(frozen=True)
class AuthDecision:
    verdict: Verdict
    reason: Reason
    evidence: Optional[Evidence] = None

    def __post_init__(self):
        accept = self.verdict is Verdict.ACCEPT
        if accept != (self.reason is Reason.NEIGHBOR_AUTHORIZED):
            raise ValidationError(
                "verdict/reason mismatch: accept iff neighbor is authorized")
        if (self.evidence is None) != (self.reason is Reason.NO_NEIGHBOR):
            raise ValidationError(
                "evidence must be absent exactly when there is no neighbor")


def decide_from_neighbor(registry: TransmitterRegistry,
                         neighbor: Optional[tuple[FingerprintRecord, float]]
                         ) -> AuthDecision:
    """Apply the two-step rule to a nearest-neighbor search result."""
    if neighbor is None:
        return _REJECT_NO_NEIGHBOR
    record, dist = neighbor
    evidence = Evidence(record.tx_id, record.sample_id, dist)
    status = registry.status_of(record.tx_id)
    if status is TxStatus.AUTHORIZED:
        return AuthDecision(Verdict.ACCEPT, Reason.NEIGHBOR_AUTHORIZED, evidence)
    if status is TxStatus.KNOWN_OUTLIER:
        return AuthDecision(Verdict.REJECT, Reason.NEIGHBOR_KNOWN_OUTLIER, evidence)
    return AuthDecision(Verdict.REJECT, Reason.NEIGHBOR_REVOKED, evidence)


_REJECT_NO_NEIGHBOR = AuthDecision(Verdict.REJECT, Reason.NO_NEIGHBOR, None)


def authorize(index: LshIndex, registry: TransmitterRegistry,
              query) -> AuthDecision:
    """Decide one query vector against the index and registry."""
    return decide_from_neighbor(registry, index.ann_search(query))


class BatchQueryError(LshAuthError):
    """Wraps a failure on one query of a batch with its position."""

    def __init__(self, query_idx: int, cause: Exception):
        self.query_idx = query_idx
        super().__init__(f"query {query_idx}: {cause}")


def authorize_batch(index: LshIndex, registry: TransmitterRegistry,
                    queries: Dataset,
                    projector=None) -> tuple[list[AuthDecision], list[int]]:
    """Decide every query, timing each one on the monotonic clock.

    Returns (decisions, per-query latency in nanoseconds), one entry each
    per query. The timed region covers projection (when a projector is
    given), hashing and the bucket scan. Latency *statistics* conventionally
    drop the first DEFAULT_LATENCY_WARMUP entries (see bench.latency_summary);
    decisions always count.
    """
    decisions: list[AuthDecision] = []
    latencies: list[int] = []
    for i, v in enumerate(queries.matrix):
        try:
            t0 = time.perf_counter_ns()
            if projector is not None:
                v = projector.transform_vector(v)
            decision = authorize(index, registry, v)
            t1 = time.perf_counter_ns()
        except Exception as e:
            raise BatchQueryError(i, e) from e
        decisions.append(decision)
        latencies.append(t1 - t0)
    return decisions, latencies


def enroll(index: LshIndex, registry: TransmitterRegistry,
           new_records: Dataset, tx_ids: Iterable[int]) -> None:
    """Authorize transmitters and append their records to the index.

    Atomic: the insert is itself atomic and the registry changes only
    after it succeeds. Existing buckets and hyperplanes are never modified,
    only appended to.
    """
    ids = {int(t) for t in tx_ids}
    stray = new_records.transmitters() - ids
    if stray:
        raise ValidationError(
            f"records for transmitters {sorted(stray)} are not covered by tx_ids")
    index.insert_dataset(new_records)
    registry.set_status(sorted(ids), TxStatus.AUTHORIZED)


def revoke(registry: TransmitterRegistry, tx_ids: Iterable[int]) -> None:
    """Flip currently-authorized transmitters to revoked. Index state is
    never touched; rejection happens at decision time."""
    ids = sorted({int(t) for t in tx_ids})
    for t in ids:
        if registry.status_of(t) is not TxStatus.AUTHORIZED:
            raise ValidationError(
                f"transmitter {t} is not currently authorized "
                f"({registry.status_of(t).value})")
    registry.set_status(ids, TxStatus.REVOKED)
