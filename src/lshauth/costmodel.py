"""Closed-form operation-count predictions for indexing and queries.

Costs are abstract operation counts, not seconds: hashing one vector costs
d*K dot-product operations per table, and an even spread of N records over
2^K buckets prices the bucket scan at d*N/2^K per table. Reports pair these
predictions with measured candidate counts and wall times instead of fitting
constants, since real data rarely fills buckets evenly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset
from .errors import ValidationError
from .lsh import MAX_HASH_BITS, LshIndex


@dataclass(frozen=True)
class CostParams:
    num_tables: int  # L
    hash_bits: int  # K
    dim: int  # d
    size: int  # N

    def validate(self) -> None:
        if self.num_tables < 1:
            raise ValidationError(f"num_tables must be >= 1, got {self.num_tables}")
        if self.hash_bits < 0:
            raise ValidationError(f"hash_bits must be >= 0, got {self.hash_bits}")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if self.size < 0:
            raise ValidationError(f"size must be >= 0, got {self.size}")


def predict_inference_cost(p: CostParams) -> float:
    """L * (d*K + d*N / 2^K) operation units per query."""
    p.validate()
    return p.num_tables * (p.dim * p.hash_bits
                           + p.dim * p.size / 2.0 ** p.hash_bits)


def predict_indexing_cost(p: CostParams) -> float:
    """N * L * d * K operation units to build the full index."""
    p.validate()
    return float(p.size) * p.num_tables * p.dim * p.hash_bits


def optimal_hash_size(size: int) -> int:
    """The K in [0, MAX_HASH_BITS] minimizing predicted per-query cost.

    Brute-force argmin; the table count and dimensionality scale the cost
    uniformly, so they cannot change the winner and are fixed at 1. Ties go
    to the smaller K.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    return min(range(MAX_HASH_BITS + 1), key=lambda k: predict_inference_cost(
        CostParams(num_tables=1, hash_bits=k, dim=1, size=size)))


def measured_scan_fraction(index: LshIndex, queries: Dataset) -> float:
    """Mean candidate-set size over the query sample, divided by N.

    The even-bucket assumption behind the scan term predicts roughly
    L/2^K (before union overlap) for this quantity.
    """
    if index.size == 0:
        raise ValidationError("index is empty; scan fraction is undefined")
    if len(queries) == 0:
        raise ValidationError("need at least one query")
    total = 0
    for i in range(len(queries)):
        total += index.candidate_count(queries.matrix[i])
    return total / (len(queries) * index.size)
