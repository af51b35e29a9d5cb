"""Brute-force exact nearest-neighbor search and the oracle decision.

Ground truth for everything the hash index approximates: a full linear scan
using the same distance kernel and tie-break as the index, followed by the
same neighbor-status rule. Deliberately has no acceleration structure.
"""

from __future__ import annotations

from typing import Optional

from .authorize import AuthDecision, decide_from_neighbor
from .data import Dataset, FingerprintRecord, TransmitterRegistry
from .distance import (euclidean, nearest_position, query_vector,
                       squared_distances)


def exact_nn(data: Dataset, vector) -> Optional[tuple[FingerprintRecord, float]]:
    """Scan every record; ties break to the smallest (tx_id, sample_id)."""
    v = query_vector(vector, data.dim, "dataset")
    if len(data) == 0:
        return None
    sq = squared_distances(data.matrix_f64(), v)
    best = nearest_position(data.ids, sq)
    return data.record(best), euclidean(float(sq[best]))


def oracle_authorize(data: Dataset, registry: TransmitterRegistry,
                     vector) -> AuthDecision:
    """The decision the index would make with a perfect nearest neighbor."""
    return decide_from_neighbor(registry, exact_nn(data, vector))
