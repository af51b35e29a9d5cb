"""Shared Euclidean distance kernel and nearest-record selection.

Every component that compares distances (the hash index, the brute-force
scan, tests) checks its query here, scores rows with `squared_distances`
and picks the nearest with `nearest`, so validation, tie-breaking and
rounding cannot drift apart. The squared form is used for comparisons;
reported distances are true Euclidean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ValidationError


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


def squared_distances(matrix: np.ndarray, rows: np.ndarray,
                      vector: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from `vector` to `matrix[rows]`.

    The rows are taken once and the difference is formed in place, then
    reduced per row, so a row's result does not depend on which other rows
    are scored with it: a subset scores as the full scan does.
    """
    diff = matrix.take(rows, axis=0)
    diff -= vector
    return np.einsum("ij,ij->i", diff, diff)


def nearest(matrix: np.ndarray, ids: np.ndarray, rows: np.ndarray,
            vector: np.ndarray) -> tuple[int, float]:
    """The row of `rows` nearest to `vector` and its Euclidean distance.

    Exact ties go to the smallest record id in `ids` (indexed by row),
    which is the smallest (tx_id, sample_id) (see `data.combined_ids`);
    ids are looked up only for the tied rows.
    """
    sq = squared_distances(matrix, rows, vector)
    tied = np.flatnonzero(sq == sq.min())
    best = tied[0] if tied.size == 1 else tied[ids[rows[tied]].argmin()]
    d = float(sq[best])
    return int(rows[best]), math.sqrt(d) if d > 0.0 else 0.0
