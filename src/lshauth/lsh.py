"""Multi-table random-hyperplane hash index with approximate NN search.

Each of the L tables holds K hyperplanes with i.i.d. standard-normal
components. A vector's key in a table is the K-bit sign pattern of its dot
products with that table's hyperplanes (after subtracting an optional center
offset): bit i is 1 when w_i . (v - center) >= 0, with exact zeros mapping
to 1. Hyperplane index 0 occupies the most significant bit. `LshIndex.keys`
is the only code that computes keys: inserts, queries and snapshot loads
all go through it, and a row's key does not depend on the rows hashed with
it (see `LshIndex._sign_bits`).

Storage: one row store holds every record's vector, squared norm, uint64
record id (see `data.combined_ids`) and L keys, as `keys` gives them, in
row order; a set of the same ids checks an insert for duplicates in time
linear in the batch. The keys are the ones each row was bucketed under,
written whenever rows are stored (insert and load); they follow the store
through growth and `copy` and are never saved. Each table is a dict from
key to a read-only array of row positions, in bucket-creation order, that
`_fill` slices from one array of grouped rows per insert or loaded table;
a grown bucket gets a new array, so none is ever written, copies share
them and queries read them uncopied. Inserts keep each bucket's rows in
insertion order; a load keeps the file's order (see `load_index`).

Candidate retrieval unions the L buckets a query maps to; the exact scan is
then restricted to that union. A row is in the union exactly when its key
equals the query's in some table. `LshIndex._union` builds the union as a
bool[N] row mask by scattering each hit bucket into it, at a cost of S,
the hit buckets' summed sizes (repeats across tables counted), rather than
a pass over N. `candidate_count` counts that mask.
`ann_search` reaches the scan by one of two branches, chosen per query
from S:
  - gather (S < DENSE_HIT_FRACTION * N): take every row of the mask, in
    row order;
  - dense (otherwise): score all N rows at once as |m|^2 - 2 m.v with one
    mat-vec against cached squared norms, keep the rows whose score is
    within 2E + 2.5 g k of the union's best one, where
    g = (d+3)u / (1 - (d+3)u), u = 2^-53, E = g (max|m| + |v|)^2 and k is
    the kernel's squared distance to the best-scoring row, and drop those
    whose stored keys miss the query's in every table. This bound is
    derived, not tuned: see `LshIndex._dense_shortlist`. Only when the
    best-scoring row of all is outside the union does this branch build
    the mask.
Both hand their rows to `distance.nearest`, the oracle's scoring routine,
so they return the same record and distance bit for bit.

All hyperplanes are drawn up front from one PCG64 stream seeded at
construction, so two indexes built with the same (dim, L, K, seed) are
identical, and the first L-1 tables of an L-table index equal the tables of
the corresponding (L-1)-table index.

Build and insert require exclusive access; once loading is done the index
is treated as frozen and queries may run concurrently: a query allocates
its own temporaries and writes nothing the index holds (interleaving
inserts with queries is unsupported and must be serialized by the caller).

Snapshot layout ("idx"):
    magic   8 bytes ASCII "LSHIDX01"
    seed    u64 little-endian
    dim     u32, L u32, K u32 little-endian
    center  dim * f64 little-endian
    size    u32 little-endian, number of indexed records
    tables  L times:
        buckets u32 count of non-empty buckets
        each bucket, in insertion order:
            key      ceil(K/8) bytes: the K-bit string read as a big-endian
                     integer (hyperplane 0 is the string's leftmost bit)
            entries  u32 count, then count * (u32 tx_id, u32 sample_id)
Vectors are not stored; loading resolves (tx_id, sample_id) pairs against a
dataset and verifies each record still hashes into its recorded bucket.
Saving and loading share one description of the tables' bytes, `_layout`:
where each table's bucket count and each bucket's key and entry count
sit, and a mask of the entry bytes between them. A save iterates the
bucket dicts only to collect keys, sizes and row arrays; numpy encodes
the whole file before it is opened. A load walks only the entry counts
in Python, each of which locates the next bucket, then takes every key
and entry out with numpy and resolves each table with one sort of its
ids. The byte span from the start of the file through `center` is exactly the
hyperplane-defining state: it is untouched by inserts.
"""

from __future__ import annotations

import copy
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, FingerprintRecord, combined_ids, split_ids
from .distance import nearest, query_vector, squared_distances
from .errors import (DimensionMismatchError, DuplicateRecordError, ParseError,
                     ValidationError)

MAX_HASH_BITS = 256
INDEX_MAGIC = b"LSHIDX01"

_GROW = 1024  # initial row-store capacity
_HASH_CHUNK = 4096  # rows hashed per block, bounding keys()' temporaries
_UNIT = 2.0 ** -53  # unit roundoff of float64
_ETA = 2.0 ** -1074  # smallest positive float64
# ann_search takes its dense branch when the query's hit buckets hold at
# least this fraction of N rows in total, repeats across tables counted.
# Timed per query on the benchmark instances, one core: on churn-dimred
# (16 dims, N=9,940) the dense branch won from S/N 0.25 up; on
# selective-large (64 dims, N=24,900) it lost at every S/N there, up to 0.4
# (1,216 vs 819 us at S/N 0.25-0.4). 0.5 sits above every losing S/N.
DENSE_HIT_FRACTION = 0.5


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


_NO_ROWS = _frozen(np.empty(0, dtype=np.intp))


def _fill(buckets: dict, keys, rows: np.ndarray, starts, stops) -> None:
    """Append rows[starts[i]:stops[i]] to bucket keys[i]; freezes `rows`."""
    _frozen(rows)
    for key, a, b in zip(keys, starts, stops):
        old = buckets.get(key)
        buckets[key] = (rows[a:b] if old is None
                        else _frozen(np.concatenate((old, rows[a:b]))))


@dataclass
class TableStats:
    nonempty_buckets: int
    occupancy_histogram: dict[int, int]  # bucket size -> number of buckets
    max_occupancy: int
    mean_occupancy: float  # over non-empty buckets
    empty_fraction: float  # of all 2^K possible keys


@dataclass
class BucketStats:
    size: int
    hash_bits: int
    per_table: list[TableStats] = field(default_factory=list)


class LshIndex:
    """L independent hash tables over one shared record store."""

    def __init__(self, dim: int, num_tables: int, hash_bits: int, seed: int,
                 center=None):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        if num_tables < 1:
            raise ValidationError(f"num_tables must be >= 1, got {num_tables}")
        if hash_bits < 0:
            raise ValidationError(f"hash_bits must be >= 0, got {hash_bits}")
        if hash_bits > MAX_HASH_BITS:
            raise ValidationError(
                f"hash_bits above {MAX_HASH_BITS} is unsupported, got {hash_bits}")
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed out of u64 range: {seed}")
        self.dim = int(dim)
        self.num_tables = int(num_tables)
        self.hash_bits = int(hash_bits)
        self.seed = int(seed)
        if center is None:
            self.center = np.zeros(dim, dtype=np.float64)
        else:
            self.center = np.asarray(center, dtype=np.float64).reshape(-1).copy()
            if self.center.shape[0] != dim:
                raise DimensionMismatchError(
                    f"center has dim {self.center.shape[0]}, expected {dim}")
            if not np.all(np.isfinite(self.center)):
                raise ValidationError("center has non-finite components")
        self.center.flags.writeable = False

        rng = np.random.Generator(np.random.PCG64(self.seed))
        planes = rng.standard_normal((num_tables, hash_bits, dim))
        planes.flags.writeable = False
        self.hyperplanes = planes  # (L, K, dim)
        self._planes_2d = planes.reshape(num_tables * hash_bits, dim)
        self._near_scale = 4.0 * dim * _UNIT / (1.0 - dim * _UNIT) * float(
            np.abs(planes).sum(axis=-1).max(initial=0.0))  # see _sign_bits
        # bit weights, hyperplane 0 first; above 64 bits keys are Python ints
        self._powers = (np.uint64(1) << np.arange(hash_bits - 1, -1, -1,
                                                  dtype=np.uint64)
                        if hash_bits <= 64 else None)
        self._buckets: list[dict[int, np.ndarray]] = [
            {} for _ in range(num_tables)]

        cap = _GROW
        self._matrix = np.empty((cap, dim), dtype=np.float64)
        self._norms = np.empty(cap, dtype=np.float64)  # squared, per row
        self._ids = np.empty(cap, dtype=np.uint64)  # record ids, see data.py
        self._keys = np.empty((cap, num_tables), dtype=np.uint64
                              if hash_bits <= 64 else object)  # see _stage
        self._n = 0
        self._id_set: set[int] = set()  # self._ids[:n], for O(batch) lookups

    # -- record store -------------------------------------------------------

    @property
    def size(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        cap = self._matrix.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2

        def grown(old: np.ndarray) -> np.ndarray:
            new = np.empty((cap, *old.shape[1:]), dtype=old.dtype)
            new[:self._n] = old[:self._n]
            return new
        self._matrix, self._norms, self._ids, self._keys = map(
            grown, (self._matrix, self._norms, self._ids, self._keys))

    def _stage(self, matrix, ids) -> np.ndarray:
        """Write rows, their squared norms, ids and keys (see `keys`) past
        the end of the store and return the keys. They count only once
        self._n moves over them, so staging alone changes nothing a reader
        can see. This is the one writer of the key column, so it holds the
        keys each row is bucketed under (a load checks them against the
        snapshot's buckets)."""
        n = matrix.shape[0]
        self._ensure_capacity(n)
        at = slice(self._n, self._n + n)
        staged = self._matrix[at]
        staged[:] = matrix  # exact f32 -> f64 upcast
        np.einsum("ij,ij->i", staged, staged, out=self._norms[at])
        self._ids[at] = ids
        keys = self._keys[at] = self.keys(staged)
        return keys

    def reserve(self, additional: int) -> None:
        """Preallocate room for `additional` more records.

        Optional; inserts grow capacity on demand. Reserving up front keeps
        a large bulk load from paying reallocation inside a timed region.
        """
        if additional < 0:
            raise ValidationError(f"additional must be >= 0, got {additional}")
        self._ensure_capacity(additional)

    def _record_at(self, row: int) -> FingerprintRecord:
        tx, sm = split_ids(int(self._ids[row]))
        return FingerprintRecord(tx, sm, self._matrix[row].astype(np.float32))

    def indexed_dataset(self) -> Dataset:
        """The indexed records as a dataset, in insertion order."""
        return Dataset(self.dim, *split_ids(self._ids[:self._n]),
                       self._matrix[:self._n].astype(np.float32))

    # -- hashing ------------------------------------------------------------

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Bucket keys of each row of an (n, dim) float64 matrix, as (n, L).

        Entry [i, t] holds row i's K sign bits against table t's hyperplanes,
        hyperplane 0 at the most significant bit. The dtype is uint64 for
        K <= 64 and object (Python ints) above that.
        """
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"rows have shape {rows.shape}, index expects (n, {self.dim})")
        n, k, num_tables = rows.shape[0], self.hash_bits, self.num_tables
        dtype = np.uint64 if self._powers is not None else object
        if k == 0 or n == 0:
            return np.zeros((n, num_tables), dtype=dtype)
        out = []
        for c0 in range(0, n, _HASH_CHUNK):  # bounds a bulk insert's temporaries
            bits = self._sign_bits(rows[c0:c0 + _HASH_CHUNK]).reshape(-1, k)
            if self._powers is not None:
                out.append(bits.astype(np.uint64) @ self._powers)
            else:
                keys = np.empty(bits.shape[0], dtype=object)
                keys[:] = [int.from_bytes(b.tobytes(), "big") >> (-k % 8)
                           for b in np.packbits(bits, axis=1)]
                out.append(keys)
        return (out[0] if len(out) == 1 else np.concatenate(out)).reshape(
            n, num_tables)

    def _sign_bits(self, block: np.ndarray) -> np.ndarray:
        """Whether each row's dot product with each of the L*K hyperplanes,
        after subtracting the center, is >= 0, as (n, L*K), each as the
        row's own mat-vec gives it, so that a key depends on its row alone.

        A block takes one GEMM, whose entry p differs from the mat-vec's p'
        in summation order only. With y = row - center, either errs from
        w.y by at most e = g_d sum|w_k y_k| + d eta <= g_d W Y + d eta,
        where g_d = d u / (1 - d u), u = 2^-53, eta = 2^-1074 (underflow),
        W is the largest |w|_1 and Y the block's largest |y_k|. If
        |p| > 2e, p and p' share a nonzero sign. Rows with an entry (or a
        NaN) at or under 4 g_d W Y + 4 d eta take the mat-vec; the factor 2
        over 2e covers the rounding of W (relatively g_d) and of the
        limit's other steps (a few u).
        """
        if block.shape[0] == 1:
            return (self._planes_2d @ (block[0] - self.center) >= 0.0)[None]
        diff = block - self.center
        proj = diff @ self._planes_2d.T
        bits = proj >= 0.0
        size = np.abs(proj, out=proj)
        limit = (self._near_scale * max(diff.max(), -diff.min())
                 + 4 * self.dim * _ETA)
        if not size.min() > limit:  # rare: a row within rounding of a plane
            for i in np.flatnonzero(~(size > limit).all(axis=1)).tolist():
                bits[i] = self._planes_2d @ (block[i] - self.center) >= 0.0
        return bits

    # -- insertion ----------------------------------------------------------

    def insert(self, record: FingerprintRecord) -> None:
        """Place one record into its bucket in every table."""
        self.insert_dataset(Dataset.from_records([record]))

    def insert_dataset(self, data: Dataset) -> None:
        """Append the records of `data`, in dataset order, to every table.

        Atomic: ids are checked against the index (the batch's own ids are
        unique by the dataset's invariant) and every row is hashed before
        any state changes, so a failure leaves the index as it was. A
        stable sort groups the rows per table and `_fill` adds the groups
        in first-occurrence order, so buckets, entry and creation order
        equal those of inserting the records one by one.
        """
        if data.dim != self.dim:
            raise DimensionMismatchError(
                f"dataset dim {data.dim} does not match index dim {self.dim}")
        n = len(data)
        if n == 0:
            return
        batch = data.ids.tolist()
        if not self._id_set.isdisjoint(batch):
            key = next(k for k in batch if k in self._id_set)
            raise DuplicateRecordError(f"{_id_text(key)} already indexed")
        start = self._n
        keys = self._stage(data.matrix, data.ids)
        for buckets, column in zip(self._buckets, keys.T):
            order = np.argsort(column, kind="stable")
            ranked = column[order]
            cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
            ends = np.concatenate(([0], cuts, [n]))  # group bounds
            first = np.argsort(order[ends[:-1]])  # first-occurrence order
            _fill(buckets, ranked[ends[first]].tolist(), order + start,
                  ends[first].tolist(), ends[first + 1].tolist())
        self._n += n
        self._id_set.update(batch)

    # -- queries ------------------------------------------------------------

    def _hits(self, v64: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The query's keys, as `keys` gives them for one row, and its
        non-empty bucket in each table, in table order."""
        keys = self.keys(v64.reshape(1, -1))[0]
        hits = []
        for buckets, key in zip(self._buckets, keys.tolist()):
            rows = buckets.get(key)
            if rows is not None:
                hits.append(rows)
        return keys, hits

    def _is_dense(self, hits: list[np.ndarray]) -> bool:
        """Whether the hit buckets hold at least DENSE_HIT_FRACTION * N
        rows in total, repeats across tables counted."""
        return sum(rows.size for rows in hits) >= DENSE_HIT_FRACTION * self._n

    def _union(self, hits: list[np.ndarray]) -> np.ndarray:
        """The hit buckets' union as a new bool[N] row mask. Scattering
        each hit bucket into it costs the buckets' sizes beyond the zeroed
        allocation, so a selective query pays no other pass over N here."""
        mask = np.zeros(self._n, dtype=bool)
        for rows in hits:
            mask[rows] = True
        return mask

    def _dense_shortlist(self, v64: np.ndarray, keys: np.ndarray,
                         hits: list[np.ndarray]) -> np.ndarray:
        """Union rows that can hold the union's nearest row, found with one
        mat-vec over the whole store; all of the union's rows if the bound
        below overflows. `keys` and `hits` are the query's, as `_hits`
        gives them.

        Row i scores a_i = fl(n_i - 2 fl(m_i . v)), where n_i = fl(|m_i|^2)
        is the cached squared norm. The exact value A_i = D_i - |v|^2, with
        D_i = |m_i - v|^2, orders rows as the distance does. With u = 2^-53
        and g_k = k u / (1 - k u), a d-term dot product errs by at most
        g_d sum|x_k y_k| in any summation order, so
            |a_i - A_i| <= g_d |m_i|^2 + 2 g_d |m_i||v| + u |n_i - 2 m_i . v|
                        <= g_{d+1} R^2,  R = max|m| + |v|.
        The kernel's terms are non-negative, so its value k_i errs
        relatively: |k_i - D_i| <= g_{d+2} D_i (one rounding for the
        difference, one for the square, d - 1 for the sum).

        Let g = g_{d+3} and E = g R^2. Let j be the argmin of a over the
        union and w any union row with k_w <= k_j: the kernel's nearest
        union row and its exact ties. Then
            D_w <= k_w / (1-g) <= k_j / (1-g) <= D_j (1+g) / (1-g),
            a_w <= A_w + E = A_j + (D_w - D_j) + E
                <= a_j + 2E + 2g / (1-g)^2 k_j <= a_j + 2E + 2.5 g k_j.
        2E exceeds the 2 g_{d+1} R^2 this needs by at least 4u R^2, which
        covers the rounding of the threshold's two additions (each under
        u R^2 + u g k_j) and of R, whose share is O(d^2 u^2 R^2). So every
        union row at or under the computed threshold is returned, and
        re-scoring them with `distance.nearest` gives the union's result bit
        for bit.

        A row is in the union exactly when its stored keys equal `keys` in
        some table, so membership is tested on the rows that need it: the
        argmin over all rows, and the rows at or under the threshold. The
        argmin is the union's j whenever it lies in the union (the first
        minimum of all rows is then the first of the union's); only
        otherwise is the union's mask built and the other rows masked.
        """
        n, d = self._n, self.dim
        # scaling by -2 is exact, so this is -2 fl(m_i . v) bit for bit
        score = self._matrix[:n] @ (-2.0 * v64)
        score += self._norms[:n]
        j = int(score.argmin())
        if not (self._keys[j] == keys).any():
            np.copyto(score, np.inf, where=~self._union(hits))
            j = int(score.argmin())
        k_j = float(squared_distances(self._matrix, [j], v64)[0])
        g = (d + 3) * _UNIT / (1.0 - (d + 3) * _UNIT)
        reach = math.sqrt(float(self._norms[:n].max())) + math.sqrt(
            float(v64 @ v64))
        limit = float(score[j]) + 2.0 * g * reach * reach + 2.5 * g * k_j
        if not math.isfinite(limit):
            return np.flatnonzero(self._union(hits))
        pos = np.flatnonzero(score <= limit)
        return pos[(self._keys[pos] == keys).any(axis=1)]

    def candidate_count(self, vector) -> int:
        _, hits = self._hits(query_vector(vector, self.dim, "index"))
        return int(np.count_nonzero(self._union(hits)))

    def ann_search(self, vector) -> Optional[tuple[FingerprintRecord, float]]:
        """Nearest record among the query's bucket union, or None if the
        union is empty. Distance ties break to the smallest (tx, sample).

        A query whose hit buckets hold at least DENSE_HIT_FRACTION * N
        rows in total (repeats across tables counted) takes the dense
        branch: a mat-vec over every row shortlists the union rows that can
        be nearest (see `_dense_shortlist`). Any other query takes the
        rows of its union mask. Either way `distance.nearest` re-scores the
        rows and picks among them, so both branches return the same record
        and distance.
        """
        v64 = query_vector(vector, self.dim, "index")
        keys, hits = self._hits(v64)
        if not hits:
            return None
        pos = (self._dense_shortlist(v64, keys, hits) if self._is_dense(hits)
               else np.flatnonzero(self._union(hits)))
        row, dist = nearest(self._matrix, self._ids, pos, v64)
        return self._record_at(row), dist

    def bucket_stats(self) -> BucketStats:
        stats = BucketStats(size=self._n, hash_bits=self.hash_bits)
        total_keys = float(2 ** self.hash_bits)
        for buckets in self._buckets:
            sizes = [b.size for b in buckets.values()]
            nonempty = len(sizes)
            stats.per_table.append(TableStats(
                nonempty_buckets=nonempty,
                occupancy_histogram=dict(Counter(sizes)),
                max_occupancy=max(sizes) if sizes else 0,
                mean_occupancy=(self._n / nonempty) if nonempty else 0.0,
                empty_fraction=1.0 - nonempty / total_keys,
            ))
        return stats

    def copy(self) -> "LshIndex":
        """Independent copy sharing no mutable state.

        Bucket arrays are never written after creation, so only the dicts
        holding them are copied.
        """
        dup = copy.copy(self)
        dup._buckets = [dict(b) for b in self._buckets]
        dup._matrix = self._matrix.copy()
        dup._norms = self._norms.copy()
        dup._ids = self._ids.copy()
        dup._keys = self._keys.copy()
        dup._id_set = set(self._id_set)
        return dup


def build_index(dim: int, num_tables: int, hash_bits: int, seed: int,
                center=None) -> LshIndex:
    """Create an empty index; all L*K hyperplanes are drawn from the seed."""
    return LshIndex(dim, num_tables, hash_bits, seed, center)


# -- snapshot io -------------------------------------------------------------

_MAGIC = struct.Struct("8s")
_IDX_FIXED = struct.Struct("<QIII")
_U32 = struct.Struct("<I")


def hyperplane_section_length(dim: int) -> int:
    """Bytes from the start of a snapshot that define the hash functions."""
    return 8 + _IDX_FIXED.size + 8 * dim


def _layout(key_bytes: int, per_table, counts: np.ndarray):
    """Where a snapshot's tables section keeps its fields, given each
    table's bucket count and every bucket's entry count, table by table:
    the byte positions of each table's u32 bucket count, as (L, 4), and
    of each bucket's key and u32 entry count, as (buckets, key_bytes + 4),
    and a bool mask over the section of the bytes left between them, the
    entries. Writing and reading a snapshot both go through it."""
    per_table = np.asarray(per_table, dtype=np.intp)
    tables = np.arange(per_table.size)
    # bytes of the buckets before each bucket, and then of all of them
    before = np.cumsum(np.concatenate(([0], key_bytes + 4 + 8 * counts)))
    table_at = before[np.cumsum(per_table) - per_table] + 4 * tables
    bucket_at = before[:-1] + 4 * (np.repeat(tables, per_table) + 1)
    table_bytes = table_at[:, None] + np.arange(4)
    bucket_bytes = bucket_at[:, None] + np.arange(key_bytes + 4)
    entries = np.ones(before[-1] + 4 * per_table.size, dtype=bool)
    entries[table_bytes] = False
    entries[bucket_bytes] = False
    return table_bytes, bucket_bytes, entries


def _key_shifts(key_bytes: int, dtype) -> np.ndarray:
    """The shift of each byte of a big-endian key, first byte first, in
    the key column's dtype, so that keys above 64 bits shift as Python
    ints."""
    return (8 * np.arange(key_bytes - 1, -1, -1)).astype(dtype)


def _u32_bytes(values) -> np.ndarray:
    """Little-endian u32 bytes of `values`, one row of 4 per value."""
    return np.asarray(values).astype("<u4").view(np.uint8).reshape(-1, 4)


def save_index(index: LshIndex, path) -> None:
    """Write `index` to `path` as an "idx" snapshot.

    Python walks the tables only to collect each bucket's key, size and
    row array; numpy then places every bucket count, key, entry count and
    entry into one preallocated body through `_layout`. The whole file is
    encoded before `path` is opened, so a failure leaves an existing file
    as it was.
    """
    tables = index._buckets
    groups = [rows for buckets in tables for rows in buckets.values()]
    counts = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    keys = np.fromiter(chain.from_iterable(tables), dtype=index._keys.dtype,
                       count=len(groups))
    per_table = [len(buckets) for buckets in tables]
    key_bytes = (index.hash_bits + 7) // 8
    table_bytes, bucket_bytes, entries = _layout(key_bytes, per_table, counts)
    body = np.empty(entries.size, dtype=np.uint8)
    body[table_bytes] = _u32_bytes(per_table)
    body[bucket_bytes[:, :key_bytes]] = (
        keys[:, None] >> _key_shifts(key_bytes, keys.dtype)) & 0xFF
    body[bucket_bytes[:, key_bytes:]] = _u32_bytes(counts)
    ids = index._ids[np.concatenate([_NO_ROWS, *groups])]
    pairs = np.empty((ids.size, 2), dtype="<u4")
    pairs[:, 0], pairs[:, 1] = split_ids(ids)
    body[entries] = pairs.view(np.uint8).ravel()
    head = b"".join((INDEX_MAGIC,
                     _IDX_FIXED.pack(index.seed, index.dim, index.num_tables,
                                     index.hash_bits),
                     index.center.astype("<f8").tobytes(),
                     _U32.pack(index.size)))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(body)


def _unpack(fmt: struct.Struct, raw: bytes, off: int, what: str,
            path) -> tuple:
    """`fmt`'s fields at `off` in `raw`; ParseError("truncated `what`") at
    `off` if they run past the end."""
    try:
        return fmt.unpack_from(raw, off)
    except struct.error:
        raise ParseError(path, f"truncated {what}", offset=off) from None


def _walk(raw: bytes, off: int, num_tables: int, key_bytes: int, size: int,
          path) -> tuple[list[int], list[int], int]:
    """Each table's bucket count, every bucket's entry count (table by
    table) and the end of the tables section that starts at `off`.

    Each entry count sets where the next bucket starts, so this is the one
    loop over buckets in Python, and it reads nothing but the counts. A
    field that runs past the end of `raw` raises ParseError at the offset
    where the field starts, before anything is allocated from a count; so
    does a table whose entries do not number `size`.
    """
    unpack = _U32.unpack_from
    step = key_bytes + 4
    per_table, counts = [], []
    for t in range(num_tables):
        start = off
        try:
            (buckets,) = unpack(raw, off)
            off += 4
            for _ in range(buckets):
                (count,) = unpack(raw, off + key_bytes)
                counts.append(count)
                off += step + 8 * count
        except struct.error:  # a bucket count or head runs past the end
            truncated = True
        else:
            truncated = off > len(raw)
        if truncated:
            # past the end, it was the last bucket's entries that ran over
            raise ParseError(path, f"truncated table {t}", offset=(
                off if off <= len(raw) else off - 8 * count))
        found = (off - start - 4 - buckets * step) // 8
        if found != size:
            raise ParseError(path, f"table {t} indexes {found} records, "
                                   f"expected {size}")
        per_table.append(buckets)
    return per_table, counts, off


def _read_tables(raw: bytes, off: int, key_bytes: int, per_table,
                 counts: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every bucket's key, in the key column's `dtype`, and every entry's
    record id, table by table, from the tables section at `off` that
    `_walk` read. A function of its own, so that its byte-sized
    temporaries are freed before the load stages its rows."""
    _, bucket_bytes, entries = _layout(key_bytes, per_table, counts)
    body = np.frombuffer(raw, dtype=np.uint8, count=entries.size, offset=off)
    keys = np.bitwise_or.reduce(
        body[bucket_bytes[:, :key_bytes]].astype(dtype)
        << _key_shifts(key_bytes, dtype), axis=1)
    pairs = body[entries].view("<u4").reshape(-1, 2)
    return keys, combined_ids(pairs[:, 0], pairs[:, 1])


def _find(ids: np.ndarray, by_id: np.ndarray, wanted) -> np.ndarray:
    """Position in `ids` (distinct, `by_id` its argsort) of each of
    `wanted`, -1 where absent."""
    if ids.size == 0:
        return np.full(wanted.shape, -1, dtype=np.intp)
    ranked = ids[by_id]
    at = np.minimum(np.searchsorted(ranked, wanted), ids.size - 1)
    return np.where(ranked[at] == wanted, by_id[at], -1)


def _id_text(cid: int) -> str:
    return "(tx %d, sample %d)" % split_ids(cid)


def load_index(path, data: Dataset) -> LshIndex:
    """Rebuild an index from a snapshot, resolving vectors from `data`.

    Every stored (tx_id, sample_id) must exist in `data`, and each record is
    re-hashed to confirm it belongs in its recorded bucket; a mismatch means
    the snapshot and dataset do not correspond. `_walk` reads the entry
    counts, the one loop over buckets in Python; numpy takes every key and
    entry out through `_layout`. Rows come out in table-0 order: one sort
    of each table's ids must equal table 0's sorted ids, which resolves
    the table, and `_find` runs only to name what is wrong with one that
    does not. Each table keeps the file's bucket and entry order, which
    its keys cannot re-derive, and `_fill` builds its buckets.
    """
    raw = Path(path).read_bytes()
    if _unpack(_MAGIC, raw, 0, "magic", path) != (INDEX_MAGIC,):
        raise ParseError(path, f"bad magic; expected {INDEX_MAGIC!r}", offset=0)
    seed, dim, num_tables, k = _unpack(_IDX_FIXED, raw, 8, "header", path)
    if dim != data.dim:
        raise ParseError(path, f"snapshot dim {dim} != dataset dim {data.dim}",
                         offset=8)
    off = 8 + _IDX_FIXED.size
    center = _unpack(struct.Struct(f"<{dim}d"), raw, off, "center", path)
    off += 8 * dim
    (size,) = _unpack(_U32, raw, off, "record count", path)
    off += 4
    key_bytes = (k + 7) // 8
    per_table, counts, end = _walk(raw, off, num_tables, key_bytes, size, path)
    if end != len(raw):
        raise ParseError(path, f"{len(raw) - end} trailing bytes", offset=end)
    try:
        index = LshIndex(dim, num_tables, k, seed, center)
    except ValidationError as e:
        raise ParseError(path, str(e), offset=8) from None

    counts = np.array(counts, dtype=np.intp)
    keys, table_ids = _read_tables(raw, off, key_bytes, per_table,
                                   counts, index._keys.dtype)
    table_ids = table_ids.reshape(num_tables, size)
    mine = np.argsort(table_ids, axis=1)  # each table's ids, sorted
    order, by_id = table_ids[0], mine[0]  # rows come in table-0 order
    ranked = order[by_id]
    data_rows = np.empty(size, dtype=np.intp)
    data_rows[by_id] = _find(data.ids, np.argsort(data.ids), ranked)
    missing = np.flatnonzero(data_rows < 0)
    if missing.size:
        raise ParseError(path, f"record {_id_text(int(order[missing[0]]))} "
                               f"not present in the resolving dataset")
    if (ranked[1:] == ranked[:-1]).any():
        raise ParseError(path, "table 0 lists a record twice")
    expected = index._stage(data.matrix[data_rows], order)
    index._n = size

    # where a table's sorted ids equal `ranked`, its entry mine[t, i] is
    # the record of row by_id[i]
    rows = np.empty(num_tables * size, dtype=np.intp)  # each entry's row
    np.put_along_axis(rows.reshape(num_tables, size), mine, by_id[None],
                      axis=1)
    resolved = (np.take_along_axis(table_ids, mine, axis=1)
                == ranked).all(axis=1).tolist()
    mismatch = (np.repeat(keys, counts) != expected[
        rows, np.arange(num_tables).repeat(size)]).reshape(num_tables, size)
    stops = np.cumsum(counts)
    starts = stops - counts
    first = 0  # table t's buckets are [first, first + per_table[t])
    for t, (buckets, ids) in enumerate(zip(per_table, table_ids)):
        if not resolved[t]:
            unknown = np.flatnonzero(_find(order, by_id, ids) < 0)
            if unknown.size:
                raise ParseError(path, f"table {t} references unknown record "
                                       f"{_id_text(int(ids[unknown[0]]))}")
            raise ParseError(path, f"table {t} lists a record twice")
        wrong = np.flatnonzero(mismatch[t])
        if wrong.size:
            raise ParseError(
                path, f"table {t}: {wrong.size} of {size} records do not hash "
                      f"to their recorded buckets (first: record "
                      f"{_id_text(int(ids[wrong[0]]))}); snapshot and dataset "
                      f"disagree")
        span = slice(first, first + buckets)
        _fill(index._buckets[t], keys[span].tolist(), rows,
              starts[span].tolist(), stops[span].tolist())
        if len(index._buckets[t]) != buckets:
            raise ParseError(path, f"table {t} repeats a bucket key")
        first += buckets
    index._id_set = set(order.tolist())
    return index
