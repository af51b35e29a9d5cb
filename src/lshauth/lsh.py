"""Multi-table random-hyperplane hash index with approximate NN search.

Each of the L tables holds K hyperplanes with i.i.d. standard-normal
components. A vector's key in a table is the K-bit sign pattern of its dot
products with that table's hyperplanes (after subtracting an optional center
offset): bit i is 1 when w_i . (v - center) >= 0, with exact zeros mapping
to 1. Hyperplane index 0 occupies the most significant bit. `LshIndex.keys`
is the only code that computes keys: inserts, queries and snapshot loads
all go through it.

Storage: one row store holds every record's vector and ids in row order.
Each table is a dict from key to a read-only array of row positions, in
bucket-creation order, with each bucket's rows in insertion order. An
insert replaces a bucket's array with a longer one and never writes into
an existing array, so copies share bucket arrays and a query can use one
without copying it.

Candidate retrieval unions the L buckets a query maps to; the exact scan is
then restricted to that union. All hyperplanes are drawn up front from one
PCG64 stream seeded at construction, so two indexes built with the same
(dim, L, K, seed) are identical, and the first L-1 tables of an L-table
index equal the tables of the corresponding (L-1)-table index.

Build and insert require exclusive access; once loading is done the index
is treated as frozen and queries may run concurrently, each thread staging
its distance math in scratch buffers of its own (interleaving inserts with
queries is unsupported and must be serialized by the caller).

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
The byte span from the start of the file through `center` is exactly the
hyperplane-defining state: it is untouched by inserts.
"""

from __future__ import annotations

import copy
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, FingerprintRecord, combined_ids
from .distance import euclidean, gathered_squared_distances, nearest_position
from .errors import (DimensionMismatchError, DuplicateRecordError, ParseError,
                     ValidationError)

MAX_HASH_BITS = 256
INDEX_MAGIC = b"LSHIDX01"

_GROW = 1024  # initial row-store and scratch capacity
_HASH_CHUNK = 4096  # rows hashed per block, bounding keys()' temporaries


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


_NO_ROWS = _frozen(np.empty(0, dtype=np.intp))


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
        # bit weights, hyperplane 0 first; above 64 bits keys are Python ints
        self._powers = (np.uint64(1) << np.arange(hash_bits - 1, -1, -1,
                                                  dtype=np.uint64)
                        if hash_bits <= 64 else None)
        self._buckets: list[dict[int, np.ndarray]] = [
            {} for _ in range(num_tables)]

        cap = _GROW
        self._matrix = np.empty((cap, dim), dtype=np.float64)
        self._tx = np.empty(cap, dtype=np.uint32)
        self._sm = np.empty(cap, dtype=np.uint32)
        self._n = 0
        self._ids: set[int] = set()
        self._local = threading.local()  # per-thread scratch, see _scratch

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
        mat = np.empty((cap, self.dim), dtype=np.float64)
        mat[:self._n] = self._matrix[:self._n]
        tx = np.empty(cap, dtype=np.uint32)
        tx[:self._n] = self._tx[:self._n]
        sm = np.empty(cap, dtype=np.uint32)
        sm[:self._n] = self._sm[:self._n]
        self._matrix, self._tx, self._sm = mat, tx, sm

    def _scratch(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """This thread's distance buffers, with at least `rows` rows
        (contents undefined)."""
        local = self._local
        diff = getattr(local, "diff", None)
        if diff is None or diff.shape[0] < rows:
            cap = _GROW
            while cap < rows:
                cap *= 2
            local.diff = diff = np.empty((cap, self.dim), dtype=np.float64)
            local.sq = np.empty(cap, dtype=np.float64)
        return diff, local.sq

    def reserve(self, additional: int) -> None:
        """Preallocate room for `additional` more records.

        Optional; inserts grow capacity on demand. Reserving up front keeps
        a large bulk load from paying reallocation inside a timed region.
        """
        if additional < 0:
            raise ValidationError(f"additional must be >= 0, got {additional}")
        self._ensure_capacity(additional)

    def _record_at(self, row: int) -> FingerprintRecord:
        return FingerprintRecord(
            int(self._tx[row]), int(self._sm[row]),
            self._matrix[row].astype(np.float32))

    def indexed_dataset(self) -> Dataset:
        """The indexed records as a dataset, in insertion order."""
        return Dataset(self.dim, self._tx[:self._n].copy(),
                       self._sm[:self._n].copy(),
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
        if n == 1:  # every query: a mat-vec is cheaper than a (1, dim) GEMM
            blocks = [self._planes_2d @ (rows[0] - self.center)]
        else:  # blocks bound the temporaries of a bulk insert or load
            blocks = ((rows[c0:c0 + _HASH_CHUNK] - self.center)
                      @ self._planes_2d.T for c0 in range(0, n, _HASH_CHUNK))
        out = []
        for proj in blocks:
            bits = (proj >= 0.0).reshape(-1, k)
            if self._powers is not None:
                out.append(bits.astype(np.uint64) @ self._powers)
            else:
                keys = np.empty(bits.shape[0], dtype=object)
                keys[:] = [int.from_bytes(b.tobytes(), "big") >> (-k % 8)
                           for b in np.packbits(bits, axis=1)]
                out.append(keys)
        return (out[0] if len(out) == 1 else np.concatenate(out)).reshape(
            n, num_tables)

    # -- insertion ----------------------------------------------------------

    def insert(self, record: FingerprintRecord) -> None:
        """Place one record into its bucket in every table."""
        self.insert_dataset(Dataset.from_records([record]))

    def insert_dataset(self, data: Dataset) -> None:
        """Append the records of `data`, in dataset order, to every table.

        Atomic: ids are checked against the index (the batch's own ids are
        unique by the dataset's invariant) and every row is hashed before
        any state changes, so a failure leaves the index as it was. New rows
        are grouped per table by a stable sort, with new buckets created in
        first-occurrence order, so the buckets, their entry order and their
        creation order equal those of inserting the records one by one.
        """
        if data.dim != self.dim:
            raise DimensionMismatchError(
                f"dataset dim {data.dim} does not match index dim {self.dim}")
        n = len(data)
        if n == 0:
            return
        batch = combined_ids(data.tx_ids, data.sample_ids).tolist()
        if not self._ids.isdisjoint(batch):
            key = next(k for k in batch if k in self._ids)
            raise DuplicateRecordError(
                f"(tx {key >> 32}, sample {key & 0xFFFFFFFF}) already indexed")
        # stage the rows past the end of the store; they count only once
        # self._n moves over them
        self._ensure_capacity(n)
        start = self._n
        staged = self._matrix[start:start + n]
        staged[:] = data.matrix  # exact f32 -> f64 upcast
        keys = self.keys(staged)
        self._tx[start:start + n] = data.tx_ids
        self._sm[start:start + n] = data.sample_ids

        for buckets, column in zip(self._buckets, keys.T):
            order = np.argsort(column, kind="stable")
            ranked = column[order]
            cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
            firsts = np.concatenate(([0], cuts))
            groups = np.split(_frozen(order + start), cuts)
            group_keys = ranked[firsts].tolist()
            for g in np.argsort(order[firsts]).tolist():
                old = buckets.get(group_keys[g])
                buckets[group_keys[g]] = (
                    groups[g] if old is None
                    else _frozen(np.concatenate((old, groups[g]))))
        self._n += n
        self._ids.update(batch)

    # -- queries ------------------------------------------------------------

    def _query_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).reshape(-1)
        if v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"query dim {v.shape[0]} does not match index dim {self.dim}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("query vector has non-finite components")
        return v

    def _candidate_positions(self, v64: np.ndarray) -> np.ndarray:
        """Union of the query's buckets across tables.

        Order is table index then within-bucket insertion order, first
        occurrence kept on duplicates. The returned array is read-only and
        may be shared internal state.
        """
        hits = []
        for buckets, key in zip(self._buckets,
                                self.keys(v64.reshape(1, -1))[0].tolist()):
            rows = buckets.get(key)
            if rows is not None:
                hits.append(rows)
        if not hits:
            return _NO_ROWS
        # a bucket holding every row (always so at K=0) is the whole union
        if len(hits) == 1 or hits[0].size == self._n:
            return hits[0]
        # keep-first dedup across tables; within a table a record appears once
        taken = np.zeros(self._n, dtype=bool)
        parts = []
        for arr in hits:
            fresh = arr[~taken[arr]]
            if fresh.size:
                parts.append(fresh)
                taken[arr] = True
        return np.concatenate(parts)

    def candidates(self, vector) -> list[FingerprintRecord]:
        v64 = self._query_vector(vector)
        return [self._record_at(r) for r in self._candidate_positions(v64)]

    def candidate_count(self, vector) -> int:
        return int(self._candidate_positions(self._query_vector(vector)).size)

    def ann_search(self, vector) -> Optional[tuple[FingerprintRecord, float]]:
        """Nearest record among the query's bucket union, or None if the
        union is empty. Distance ties break to the smallest (tx, sample)."""
        v64 = self._query_vector(vector)
        pos = self._candidate_positions(v64)
        if pos.size == 0:
            return None
        diff_buf, sq_buf = self._scratch(pos.size)
        sq = gathered_squared_distances(self._matrix, pos, v64, diff_buf,
                                        sq_buf)
        best_i = nearest_position(self._tx[pos], self._sm[pos], sq)
        return self._record_at(int(pos[best_i])), euclidean(float(sq[best_i]))

    def bucket_stats(self) -> BucketStats:
        stats = BucketStats(size=self._n, hash_bits=self.hash_bits)
        total_keys = float(2 ** self.hash_bits)
        for buckets in self._buckets:
            sizes = [b.size for b in buckets.values()]
            hist: dict[int, int] = {}
            for s in sizes:
                hist[s] = hist.get(s, 0) + 1
            nonempty = len(sizes)
            stats.per_table.append(TableStats(
                nonempty_buckets=nonempty,
                occupancy_histogram=hist,
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
        dup._tx = self._tx.copy()
        dup._sm = self._sm.copy()
        dup._ids = set(self._ids)
        dup._local = threading.local()
        return dup


def build_index(dim: int, num_tables: int, hash_bits: int, seed: int,
                center=None) -> LshIndex:
    """Create an empty index; all L*K hyperplanes are drawn from the seed."""
    return LshIndex(dim, num_tables, hash_bits, seed, center)


# -- snapshot io -------------------------------------------------------------

_IDX_FIXED = struct.Struct("<QIII")


def hyperplane_section_length(dim: int) -> int:
    """Bytes from the start of a snapshot that define the hash functions."""
    return 8 + _IDX_FIXED.size + 8 * dim


def save_index(index: LshIndex, path) -> None:
    key_bytes = (index.hash_bits + 7) // 8
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(_IDX_FIXED.pack(index.seed, index.dim, index.num_tables,
                                 index.hash_bits))
        fh.write(index.center.astype("<f8").tobytes())
        fh.write(struct.pack("<I", index.size))
        for buckets in index._buckets:
            rows = np.concatenate([_NO_ROWS, *buckets.values()])
            entries = np.empty((rows.size, 2), dtype="<u4")
            entries[:, 0] = index._tx[rows]
            entries[:, 1] = index._sm[rows]
            blob = entries.tobytes()
            parts = [struct.pack("<I", len(buckets))]
            off = 0
            for key, bucket in buckets.items():
                parts += (key.to_bytes(key_bytes, "big"),
                          struct.pack("<I", bucket.size),
                          blob[off:off + 8 * bucket.size])
                off += 8 * bucket.size
            fh.write(b"".join(parts))


class _Reader:
    """Cursor over a snapshot's bytes; every read is bounds-checked and a
    short one raises ParseError."""

    def __init__(self, raw: bytes, path):
        self.view = memoryview(raw)
        self.path = path
        self.off = 0

    def take(self, size: int, what: str) -> memoryview:
        end = self.off + size
        if end > len(self.view):
            raise ParseError(self.path, f"truncated {what}", offset=self.off)
        chunk = self.view[self.off:end]
        self.off = end
        return chunk

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")


def _find(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Position in `ids` (distinct) of each of `wanted`, -1 where absent."""
    if ids.size == 0:
        return np.full(wanted.shape, -1, dtype=np.intp)
    by_id = np.argsort(ids)
    at = np.searchsorted(ids, wanted, sorter=by_id)
    pos = by_id[np.minimum(at, ids.size - 1)]
    return np.where(ids[pos] == wanted, pos, -1)


def _id_text(cid: int) -> str:
    return f"(tx {cid >> 32}, sample {cid & 0xFFFFFFFF})"


def load_index(path, data: Dataset) -> LshIndex:
    """Rebuild an index from a snapshot, resolving vectors from `data`.

    Every stored (tx_id, sample_id) must exist in `data`, and each record is
    re-hashed to confirm it belongs in its recorded bucket; a mismatch means
    the snapshot and dataset do not correspond. Rows come out in table-0
    order, and every table keeps the bucket and entry order of the file.
    """
    raw = Path(path).read_bytes()
    reader = _Reader(raw, path)
    if reader.take(8, "magic") != INDEX_MAGIC:
        raise ParseError(path, f"bad magic; expected {INDEX_MAGIC!r}", offset=0)
    seed, dim, num_tables, k = _IDX_FIXED.unpack(
        reader.take(_IDX_FIXED.size, "header"))
    if dim != data.dim:
        raise ParseError(path, f"snapshot dim {dim} != dataset dim {data.dim}",
                         offset=8)
    center = np.frombuffer(reader.take(8 * dim, "center"), dtype="<f8")
    size = reader.u32("record count")

    key_bytes = (k + 7) // 8
    tables = []  # per table: bucket keys, bucket sizes, entry ids in order
    for t in range(num_tables):
        what = f"table {t}"
        keys, counts, chunks = [], [], []
        for _ in range(reader.u32(what)):
            keys.append(int.from_bytes(reader.take(key_bytes, what), "big"))
            counts.append(reader.u32(what))
            chunks.append(reader.take(8 * counts[-1], what))
        entries = np.frombuffer(b"".join(chunks), dtype="<u4").reshape(-1, 2)
        tables.append((keys, counts, combined_ids(entries[:, 0],
                                                  entries[:, 1])))
    if reader.off != len(raw):
        raise ParseError(path, f"{len(raw) - reader.off} trailing bytes",
                         offset=reader.off)
    try:
        index = LshIndex(dim, num_tables, k, seed, center)
    except ValidationError as e:
        raise ParseError(path, str(e), offset=8) from None

    # rows in table-0 order; every table indexes the same set
    order = tables[0][2]
    if order.size != size or np.unique(order).size != size:
        raise ParseError(path, "table 0 does not cover the stored record set")
    data_rows = _find(combined_ids(data.tx_ids, data.sample_ids), order)
    missing = np.flatnonzero(data_rows < 0)
    if missing.size:
        raise ParseError(path, f"record {_id_text(int(order[missing[0]]))} "
                               f"not present in the resolving dataset")
    index._ensure_capacity(size)
    index._matrix[:size] = data.matrix[data_rows]
    index._tx[:size] = data.tx_ids[data_rows]
    index._sm[:size] = data.sample_ids[data_rows]
    index._n = size
    index._ids = set(order.tolist())

    expected = index.keys(index._matrix[:size])
    for t, (keys, counts, ids) in enumerate(tables):
        if ids.size != size:
            raise ParseError(path, f"table {t} indexes {ids.size} records, "
                                   f"expected {size}")
        rows = np.arange(size) if t == 0 else _find(order, ids)
        unknown = np.flatnonzero(rows < 0)
        if unknown.size:
            raise ParseError(path, f"table {t} references unknown record "
                                   f"{_id_text(int(ids[unknown[0]]))}")
        if t and np.unique(rows).size != size:
            raise ParseError(path, f"table {t} lists a record twice")
        stored = np.repeat(np.array(keys, dtype=expected.dtype), counts)
        wrong = np.flatnonzero(stored != expected[rows, t])
        if wrong.size:
            raise ParseError(
                path, f"record {_id_text(int(ids[wrong[0]]))} does not hash "
                      f"to its recorded bucket in table {t}; snapshot and "
                      f"dataset disagree")
        buckets = dict(zip(keys, np.split(_frozen(rows),
                                          np.cumsum(counts[:-1], dtype=np.intp))))
        if len(buckets) != len(keys):
            raise ParseError(path, f"table {t} repeats a bucket key")
        index._buckets[t] = buckets
    return index
