"""Independent reference computations the benchmark checks lshauth against.

Nothing here calls into lshauth. Every check is recomputed from the
definitions the README documents:

- hyperplanes are ``PCG64(seed).standard_normal((L, K, dim))``;
- key bit i of a table is ``w_i . (v - center) >= 0``;
- a query's candidates are the records that share its key in any table;
- the neighbour is the exact nearest candidate, exact ties going to the
  smallest ``(tx_id, sample_id)``; an empty union has no neighbour;
- a projection is ``(v - mean) @ matrix.T`` rounded to float32;
- the decision accepts exactly when the neighbour's transmitter is
  authorized at that moment;
- the registry, decision-CSV and snapshot-header layouts.

Distances are summed in a different order than lshauth sums them, so a
distance is compared within ``DIST_RTOL``, and a neighbour other than the
reference's is accepted only when its distance ties the minimum within
that tolerance.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DIST_RTOL = 1e-9
KEY_BLOCK = 2048  # records hashed at a time, so hashing takes little memory
PROJ_ATOL = 1e-4  # float32 rounding of projected components of size ~10

AUTHORIZED = "authorized"
KNOWN_OUTLIER = "known_outlier"
REVOKED = "revoked"


@dataclass(frozen=True)
class Neighbor:
    tx_id: int
    sample_id: int
    sq_dist: float

    @property
    def distance(self) -> float:
        return math.sqrt(self.sq_dist)


class ReferenceLsh:
    """Multi-table random-hyperplane index rebuilt from its definition."""

    def __init__(self, seed: int, num_tables: int, hash_bits: int, dim: int,
                 center: np.ndarray):
        if hash_bits > 62:
            raise ValueError("the reference packs keys into int64 (K <= 62)")
        rng = np.random.Generator(np.random.PCG64(seed))
        self.planes = rng.standard_normal((num_tables, hash_bits, dim))
        self.center = np.asarray(center, dtype=np.float64)
        self.weights = np.array([1 << (hash_bits - 1 - i) for i in range(hash_bits)],
                                dtype=np.int64)
        self.keys = np.empty((0, num_tables), dtype=np.int64)
        # records as given (float32 for lshauth datasets); every distance is
        # computed in float64
        self.vectors = np.empty((0, dim), dtype=np.float32)
        self.tx = np.empty(0, dtype=np.int64)
        self.sm = np.empty(0, dtype=np.int64)

    def keys_of(self, vectors: np.ndarray) -> np.ndarray:
        """(n, L) integer keys; hyperplane 0 is the most significant bit."""
        x = np.atleast_2d(np.asarray(vectors))
        keys = np.empty((x.shape[0], self.planes.shape[0]), dtype=np.int64)
        for r0 in range(0, x.shape[0], KEY_BLOCK):
            xb = x[r0:r0 + KEY_BLOCK].astype(np.float64) - self.center
            bits = np.einsum("nd,lkd->nlk", xb, self.planes) >= 0.0
            keys[r0:r0 + KEY_BLOCK] = bits.astype(np.int64) @ self.weights
        return keys

    def extended(self, tx_ids, sample_ids, vectors) -> "ReferenceLsh":
        """A new reference holding these records after the current ones."""
        vectors = np.asarray(vectors)
        out = ReferenceLsh.__new__(ReferenceLsh)
        out.planes, out.center, out.weights = self.planes, self.center, self.weights
        out.keys = np.concatenate([self.keys, self.keys_of(vectors)])
        out.vectors = np.concatenate([self.vectors, vectors])
        out.tx = np.concatenate([self.tx, np.asarray(tx_ids, dtype=np.int64)])
        out.sm = np.concatenate([self.sm, np.asarray(sample_ids, dtype=np.int64)])
        return out

    def __len__(self) -> int:
        return self.tx.size

    def union_mask(self, query) -> np.ndarray:
        return np.any(self.keys == self.keys_of(query)[0], axis=1)

    def neighbors(self, queries, exact: bool = False
                  ) -> tuple[list[Optional[Neighbor]], list[int]]:
        """Nearest candidate of each query and its candidate count.

        With exact=True every record is a candidate (a full scan). Queries
        go in blocks: a matrix product shortlists the records within a
        rounding margin of the minimum, and the shortlist is re-scored
        exactly (difference form) before the tie-break.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = len(self)
        m = self.vectors.astype(np.float64)
        m_sq = np.einsum("nd,nd->n", m, m)
        block = max(1, 2_000_000 // max(n, 1))
        found, counts = [], []
        for b0 in range(0, q.shape[0], block):
            qb = q[b0:b0 + block]
            if exact:
                mask = np.ones((qb.shape[0], n), dtype=bool)
            else:
                qk = self.keys_of(qb)
                mask = np.zeros((qb.shape[0], n), dtype=bool)
                for t in range(qk.shape[1]):
                    mask |= qk[:, t, None] == self.keys[None, :, t]
            q_sq = np.einsum("qd,qd->q", qb, qb)
            approx = q_sq[:, None] - 2.0 * (qb @ m.T) + m_sq[None, :]
            approx[~mask] = np.inf
            for i in range(qb.shape[0]):
                counts.append(int(mask[i].sum()))
                row = approx[i]
                lo = row.min()
                if not np.isfinite(lo):
                    found.append(None)
                    continue
                margin = 1e-7 * (q_sq[i] + m_sq.max())
                found.append(nearest(self, np.flatnonzero(row <= lo + margin), qb[i]))
        return found, counts


def nearest(ref: ReferenceLsh, rows: np.ndarray, query) -> Optional[Neighbor]:
    """Exact nearest of the given rows, ties to the smallest (tx, sample)."""
    if rows.size == 0:
        return None
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    d2 = np.sum((ref.vectors[rows] - q) ** 2, axis=1)
    tied = rows[d2 == d2.min()]
    r = min(tied, key=lambda i: (ref.tx[i], ref.sm[i]))
    return Neighbor(int(ref.tx[r]), int(ref.sm[r]), float(d2.min()))


def project(vectors, matrix, mean) -> np.ndarray:
    """Projection from the projector's public matrix and mean."""
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64)) - mean
    return np.einsum("nd,od->no", x, matrix).astype(np.float32)


def projection_matches(program, reference) -> bool:
    program = np.asarray(program, dtype=np.float64)
    return (program.shape == reference.shape
            and bool(np.allclose(program, reference, rtol=1e-5, atol=PROJ_ATOL)))


def expected_outcome(neighbor: Optional[Neighbor],
                     statuses: dict[int, str]) -> tuple[str, str]:
    """(verdict, reason) the documented two-step rule gives."""
    if neighbor is None:
        return "reject", "no_neighbor"
    status = statuses[neighbor.tx_id]
    if status == AUTHORIZED:
        return "accept", "neighbor_authorized"
    if status == KNOWN_OUTLIER:
        return "reject", "neighbor_known_outlier"
    return "reject", "neighbor_revoked"


def decision_matches(verdict: str, reason: str,
                     evidence: Optional[tuple[int, int, float]],
                     ref: ReferenceLsh, expected: Optional[Neighbor],
                     statuses: dict[int, str], query) -> bool:
    """Does one program decision agree with the reference?

    `evidence` is the program's (tx_id, sample_id, distance), or None. The
    verdict and reason must follow the registry for the record the program
    names, and that record must be the reference neighbour, or tie it within
    DIST_RTOL, with the reported distance equal to the reference distance
    within DIST_RTOL.
    """
    if expected is None or evidence is None:
        return (expected is None and evidence is None
                and (verdict, reason) == ("reject", "no_neighbor"))
    tx, sm, dist = evidence
    if (tx, sm) == (expected.tx_id, expected.sample_id):
        named = expected
    else:
        hit = np.flatnonzero((ref.tx == tx) & (ref.sm == sm))
        if hit.size != 1 or not ref.union_mask(query)[hit[0]]:
            return False
        named = nearest(ref, hit, query)
        if named.sq_dist > expected.sq_dist * (1.0 + DIST_RTOL):
            return False
    if not math.isclose(dist, named.distance, rel_tol=DIST_RTOL, abs_tol=1e-12):
        return False
    return (verdict, reason) == expected_outcome(named, statuses)


@dataclass
class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# -- documented file layouts ---------------------------------------------------

def read_registry(path) -> dict[int, str]:
    lines = open(path).read().splitlines()
    if lines[0] != "tx_id,status":
        raise ValueError(f"{path}: bad registry header")
    out = {}
    for line in lines[1:]:
        t, s = line.split(",")
        out[int(t)] = s
    return out


@dataclass(frozen=True)
class SnapshotHeader:
    seed: int
    dim: int
    num_tables: int
    hash_bits: int
    center: np.ndarray
    size: int
    prefix: bytes  # magic through center: the hyperplane-defining bytes


def read_snapshot_header(path) -> SnapshotHeader:
    raw = open(path, "rb").read()
    if raw[:8] != b"LSHIDX01":
        raise ValueError(f"{path}: bad snapshot magic")
    seed, dim, num_tables, hash_bits = struct.unpack_from("<QIII", raw, 8)
    end = 28 + 8 * dim
    center = np.frombuffer(raw, dtype="<f8", count=dim, offset=28)
    (size,) = struct.unpack_from("<I", raw, end)
    return SnapshotHeader(seed, dim, num_tables, hash_bits, center.copy(), size,
                          raw[:end])


DECISION_HEADER = "query_idx,verdict,reason,nn_tx,nn_sample,distance,latency_ns"


def read_decisions(path) -> list[tuple[int, str, str, Optional[tuple[int, int, float]]]]:
    """Rows of a decision CSV as (query_idx, verdict, reason, evidence)."""
    lines = open(path).read().splitlines()
    if lines[0] != DECISION_HEADER:
        raise ValueError(f"{path}: bad decision header")
    rows = []
    for line in lines[1:]:
        q, verdict, reason, tx, sm, dist, _ns = line.split(",")
        evidence = None if tx == "" else (int(tx), int(sm), float(dist))
        rows.append((int(q), verdict, reason, evidence))
    return rows
