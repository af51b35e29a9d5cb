"""Shared Euclidean distance kernel and nearest-record selection.

Every component that compares distances (the hash index, the brute-force
scan, tests) checks its query, scores rows and breaks ties here, so
validation, tie-breaking and rounding cannot drift apart. The squared form
is used for comparisons; reported distances are true Euclidean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ValidationError

_CHUNK_ROWS = 8192  # bounds the per-call temporary on very large scans


def query_vector(vector, dim: int, owner: str) -> np.ndarray:
    """`vector` as a flat float64 array, checked to have `dim` finite
    components; `owner` names what sets `dim` in the error message."""
    v = np.asarray(vector, dtype=np.float64).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatchError(
            f"query dim {v.shape[0]} does not match {owner} dim {dim}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("query vector has non-finite components")
    return v


def squared_distances(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean distances from `vector` to rows of `matrix`.

    Computed as a per-row reduction over the difference, which keeps each
    row's result independent of how many rows are present (gathered candidate
    subsets score identically to a full scan). Large inputs are processed in
    chunks purely to bound temporary memory; chunking cannot change any
    row's result.
    """
    n = matrix.shape[0]
    if n <= _CHUNK_ROWS:
        diff = matrix - vector
        return np.einsum("ij,ij->i", diff, diff)
    out = np.empty(n, dtype=np.float64)
    for c0 in range(0, n, _CHUNK_ROWS):
        c1 = min(n, c0 + _CHUNK_ROWS)
        diff = matrix[c0:c1] - vector
        np.einsum("ij,ij->i", diff, diff, out=out[c0:c1])
    return out


def gathered_squared_distances(matrix: np.ndarray, rows: np.ndarray,
                               vector: np.ndarray) -> np.ndarray:
    """squared_distances(matrix[rows], vector) with one rows x dim temporary.

    Element-wise identical to the plain form (the same subtraction and the
    same per-row reduction), but the gathered rows are taken once and the
    difference is formed in place, where the plain form on `matrix[rows]`
    would hold a second copy.
    """
    diff = matrix.take(rows, axis=0)
    diff -= vector
    return np.einsum("ij,ij->i", diff, diff)


def nearest_position(ids: np.ndarray, sq_dists: np.ndarray) -> int:
    """Index of the minimum squared distance; exact ties go to the smallest
    record id, which is the smallest (tx_id, sample_id) (see
    `data.combined_ids`)."""
    tied = np.flatnonzero(sq_dists == sq_dists.min())
    return int(tied[0] if tied.size == 1 else tied[ids[tied].argmin()])


def euclidean(sq: float) -> float:
    return math.sqrt(sq) if sq > 0.0 else 0.0
