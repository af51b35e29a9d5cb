"""Shared Euclidean distance kernel and nearest-record selection.

Every component that compares distances (the hash index, the brute-force
scan, tests) goes through these two functions, so tie-breaking and rounding
behavior cannot drift apart. The squared form is used for comparisons;
reported distances are true Euclidean.
"""

from __future__ import annotations

import math

import numpy as np


_CHUNK_ROWS = 8192  # bounds the per-call temporary on very large scans


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
                               vector: np.ndarray, diff_buffer: np.ndarray,
                               out_buffer: np.ndarray) -> np.ndarray:
    """squared_distances(matrix[rows], vector) without per-call allocation.

    Element-wise identical to the plain form (same subtraction and the same
    per-row reduction, just staged through caller-owned buffers); exists so
    hot query paths do not churn megabytes of temporaries per call.
    """
    n = rows.shape[0]
    # rows are internal positions; mode="clip" lets numpy write straight into
    # `out`, where the default mode="raise" buffers through a temporary
    diff = np.take(matrix, rows, axis=0, out=diff_buffer[:n], mode="clip")
    np.subtract(diff, vector, out=diff)
    return np.einsum("ij,ij->i", diff, diff, out=out_buffer[:n])


def nearest_position(tx_ids: np.ndarray, sample_ids: np.ndarray,
                     sq_dists: np.ndarray) -> int:
    """Index of the minimum squared distance; exact ties go to the smallest
    (tx_id, sample_id)."""
    m = sq_dists.min()
    tied = np.flatnonzero(sq_dists == m)
    if tied.size == 1:
        return int(tied[0])
    best = tied[0]
    best_key = (int(tx_ids[best]), int(sample_ids[best]))
    for i in tied[1:]:
        key = (int(tx_ids[i]), int(sample_ids[i]))
        if key < best_key:
            best, best_key = i, key
    return int(best)


def euclidean(sq: float) -> float:
    return math.sqrt(sq) if sq > 0.0 else 0.0
