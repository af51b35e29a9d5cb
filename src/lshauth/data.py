"""Fingerprint datasets, the transmitter status registry, and dataset splitting.

Embedding vectors are stored as float32 throughout (the on-disk binary format
is float32, so this keeps save/load bit-exact). All randomness goes through
numpy's PCG64 generator so that any seeded operation is reproducible across
platforms and runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

U32_MAX = 2**32 - 1


def combined_ids(tx_ids: np.ndarray, sample_ids: np.ndarray) -> np.ndarray:
    """Pack (tx_id, sample_id) pairs into single uint64 keys."""
    return (tx_ids.astype(np.uint64) << np.uint64(32)) | sample_ids.astype(np.uint64)


class FingerprintRecord:
    """One embedded signal sample: transmitter id, sample id, feature vector."""

    __slots__ = ("tx_id", "sample_id", "vector")

    def __init__(self, tx_id: int, sample_id: int, vector):
        if not 0 <= tx_id <= U32_MAX:
            raise ValidationError(f"tx_id out of u32 range: {tx_id}")
        if not 0 <= sample_id <= U32_MAX:
            raise ValidationError(f"sample_id out of u32 range: {sample_id}")
        vec = np.asarray(vector, dtype=np.float32)
        if vec.ndim != 1 or vec.size < 1:
            raise ValidationError("vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(vec)):
            raise ValidationError(
                f"vector for tx {tx_id} sample {sample_id} has non-finite components"
            )
        vec = np.ascontiguousarray(vec)
        vec.flags.writeable = False
        self.tx_id = int(tx_id)
        self.sample_id = int(sample_id)
        self.vector = vec

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def key(self) -> tuple[int, int]:
        return (self.tx_id, self.sample_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FingerprintRecord):
            return NotImplemented
        return (self.tx_id == other.tx_id
                and self.sample_id == other.sample_id
                and np.array_equal(self.vector, other.vector))

    def __hash__(self):
        return hash((self.tx_id, self.sample_id))

    def __repr__(self) -> str:
        return f"FingerprintRecord(tx_id={self.tx_id}, sample_id={self.sample_id}, dim={self.dim})"


class Dataset:
    """An ordered, immutable collection of fingerprint records of equal dim.

    Internally column-oriented: uint32 id arrays plus one float32 matrix of
    shape (n, dim). Iteration order is insertion order and never changes.
    """

    __slots__ = ("dim", "_tx_ids", "_sample_ids", "_matrix", "_f64", "_key_set")

    def __init__(self, dim: int, tx_ids, sample_ids, vectors):
        dim = int(dim)
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        tx = np.ascontiguousarray(np.asarray(tx_ids, dtype=np.uint32))
        sm = np.ascontiguousarray(np.asarray(sample_ids, dtype=np.uint32))
        mat = np.asarray(vectors, dtype=np.float32)
        if mat.size == 0:
            mat = mat.reshape(0, dim)
        if mat.ndim != 2 or mat.shape[1] != dim:
            raise ValidationError(
                f"vectors must have shape (n, {dim}), got {mat.shape}"
            )
        if not (tx.shape[0] == sm.shape[0] == mat.shape[0]):
            raise ValidationError("tx_ids, sample_ids and vectors disagree on length")
        if mat.size and not np.all(np.isfinite(mat)):
            bad = int(np.argwhere(~np.isfinite(mat))[0][0])
            raise ValidationError(
                f"non-finite vector component in record {bad} "
                f"(tx {int(tx[bad])}, sample {int(sm[bad])})"
            )
        keys = combined_ids(tx, sm)
        if np.unique(keys).size != keys.size:
            raise ValidationError("duplicate (tx_id, sample_id) pair in dataset")
        mat = np.ascontiguousarray(mat)
        for arr in (tx, sm, mat):
            arr.flags.writeable = False
        self.dim = dim
        self._tx_ids = tx
        self._sample_ids = sm
        self._matrix = mat
        self._f64 = None
        self._key_set = None

    @classmethod
    def from_records(cls, records: Sequence[FingerprintRecord], dim: int | None = None) -> "Dataset":
        records = list(records)
        if dim is None:
            if not records:
                raise ValidationError("dim is required for an empty dataset")
            dim = records[0].dim
        for r in records:
            if r.dim != dim:
                raise ValidationError(
                    f"record (tx {r.tx_id}, sample {r.sample_id}) has dim {r.dim}, expected {dim}"
                )
        if records:
            mat = np.stack([r.vector for r in records])
        else:
            mat = np.empty((0, dim), dtype=np.float32)
        return cls(dim,
                   [r.tx_id for r in records],
                   [r.sample_id for r in records],
                   mat)

    @classmethod
    def empty(cls, dim: int) -> "Dataset":
        return cls(dim, [], [], np.empty((0, dim), dtype=np.float32))

    @property
    def tx_ids(self) -> np.ndarray:
        return self._tx_ids

    @property
    def sample_ids(self) -> np.ndarray:
        return self._sample_ids

    @property
    def matrix(self) -> np.ndarray:
        """(n, dim) float32 view of all vectors, row i = record i."""
        return self._matrix

    def matrix_f64(self) -> np.ndarray:
        """Cached float64 upcast of the matrix (exact; used for distance math)."""
        if self._f64 is None:
            f64 = self._matrix.astype(np.float64)
            f64.flags.writeable = False
            self._f64 = f64
        return self._f64

    def __len__(self) -> int:
        return self._tx_ids.shape[0]

    def record(self, i: int) -> FingerprintRecord:
        return FingerprintRecord(int(self._tx_ids[i]), int(self._sample_ids[i]),
                                 self._matrix[i])

    def __iter__(self) -> Iterator[FingerprintRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self._tx_ids, other._tx_ids)
                and np.array_equal(self._sample_ids, other._sample_ids)
                and np.array_equal(self._matrix, other._matrix))

    __hash__ = None  # mutable-value semantics: unhashable like a list

    def transmitters(self) -> set[int]:
        return set(int(t) for t in np.unique(self._tx_ids))

    def keys(self) -> set[tuple[int, int]]:
        if self._key_set is None:
            self._key_set = set(zip(self._tx_ids.tolist(), self._sample_ids.tolist()))
        return self._key_set

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.dim, self._tx_ids[idx], self._sample_ids[idx],
                       self._matrix[idx])

    def filter_tx(self, tx_ids: Iterable[int]) -> "Dataset":
        wanted = set(int(t) for t in tx_ids)
        mask = np.fromiter((int(t) in wanted for t in self._tx_ids),
                           dtype=bool, count=len(self))
        return self.subset(np.flatnonzero(mask))

    def __repr__(self) -> str:
        return f"Dataset(dim={self.dim}, n={len(self)})"


def concat_datasets(parts: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets in order; dims must agree, ids must stay unique."""
    parts = [p for p in parts]
    if not parts:
        raise ValidationError("cannot concatenate zero datasets")
    dim = parts[0].dim
    for p in parts:
        if p.dim != dim:
            raise ValidationError(f"dim mismatch in concat: {p.dim} != {dim}")
    return Dataset(
        dim,
        np.concatenate([p.tx_ids for p in parts]),
        np.concatenate([p.sample_ids for p in parts]),
        np.concatenate([p.matrix for p in parts]),
    )


class TxStatus(enum.Enum):
    AUTHORIZED = "authorized"
    KNOWN_OUTLIER = "known_outlier"
    REVOKED = "revoked"


class TransmitterRegistry:
    """Mutable map of transmitter id -> status.

    Reads are safe to interleave; mutation requires exclusive access
    (callers serialize writers against readers).
    """

    def __init__(self, statuses: dict[int, TxStatus] | None = None):
        self._status: dict[int, TxStatus] = dict(statuses or {})

    def set_status(self, tx_ids: Iterable[int] | int, status: TxStatus) -> None:
        """Assign a status; idempotent per (tx_id, status), last write wins."""
        if isinstance(tx_ids, (int, np.integer)):
            tx_ids = [int(tx_ids)]
        for t in tx_ids:
            self._status[int(t)] = status

    def status_of(self, tx_id: int) -> TxStatus:
        try:
            return self._status[int(tx_id)]
        except KeyError:
            from .errors import NotRegisteredError
            raise NotRegisteredError(f"transmitter {tx_id} is not registered") from None

    def is_registered(self, tx_id: int) -> bool:
        return int(tx_id) in self._status

    def ids_with_status(self, status: TxStatus) -> set[int]:
        return {t for t, s in self._status.items() if s is status}

    def statuses(self) -> dict[int, TxStatus]:
        return dict(self._status)

    def copy(self) -> "TransmitterRegistry":
        return TransmitterRegistry(self._status)

    def __len__(self) -> int:
        return len(self._status)

    def __repr__(self) -> str:
        counts = {s.value: 0 for s in TxStatus}
        for s in self._status.values():
            counts[s.value] += 1
        return f"TransmitterRegistry({counts})"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for seeded synthetic embedding clusters.

    Each transmitter gets a mean drawn uniformly on the sphere of radius
    cluster_radius; samples are that mean plus isotropic Gaussian noise with
    per-component std noise_sigma. cluster_radius / noise_sigma controls how
    separable the transmitters are.
    """

    num_tx: int
    samples_per_tx: int
    dim: int
    cluster_radius: float = 10.0
    noise_sigma: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_tx < 1:
            raise ValidationError(f"num_tx must be >= 1, got {self.num_tx}")
        if self.samples_per_tx < 1:
            raise ValidationError(
                f"samples_per_tx must be >= 1, got {self.samples_per_tx}")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not self.cluster_radius > 0:
            raise ValidationError(
                f"cluster_radius must be > 0, got {self.cluster_radius}")
        if self.noise_sigma < 0:
            raise ValidationError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed out of u64 range: {self.seed}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Generate a clustered synthetic dataset, deterministically from the seed.

    Transmitter ids run 0..num_tx-1, sample ids 0..samples_per_tx-1. The draw
    order is fixed (per transmitter: mean first, then all its noise), so the
    same spec always yields a byte-identical dataset.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.num_tx * spec.samples_per_tx
    vectors = np.empty((n, spec.dim), dtype=np.float64)
    tx_ids = np.repeat(np.arange(spec.num_tx, dtype=np.uint32), spec.samples_per_tx)
    sample_ids = np.tile(np.arange(spec.samples_per_tx, dtype=np.uint32), spec.num_tx)
    row = 0
    for _ in range(spec.num_tx):
        direction = rng.standard_normal(spec.dim)
        norm = np.linalg.norm(direction)
        while norm == 0.0:  # measure-zero, but keep the contract airtight
            direction = rng.standard_normal(spec.dim)
            norm = np.linalg.norm(direction)
        mean = direction * (spec.cluster_radius / norm)
        noise = rng.standard_normal((spec.samples_per_tx, spec.dim))
        vectors[row:row + spec.samples_per_tx] = mean + spec.noise_sigma * noise
        row += spec.samples_per_tx
    return Dataset(spec.dim, tx_ids, sample_ids, vectors.astype(np.float32))


@dataclass(frozen=True)
class SplitResult:
    """Train/val/test partition plus the combined train+val indexing pool."""

    train: Dataset
    val: Dataset
    test: Dataset
    combined_train_val: Dataset


def split_dataset(data: Dataset,
                  registry: TransmitterRegistry,
                  authorized: Iterable[int],
                  known_outliers: Iterable[int],
                  outliers: Iterable[int],
                  seed: int) -> SplitResult:
    """Partition a dataset by transmitter role.

    Per authorized transmitter, a seeded shuffle sends floor(0.7 * n) of its
    samples to the train/val pool and the rest to test. All known-outlier
    samples join the pool. The shuffled pool splits floor(0.8 * m) train,
    remainder val. Test additionally receives every outlier-set sample.

    Side effect: authorized ids are registered AUTHORIZED and known-outlier
    ids KNOWN_OUTLIER, so the registry covers everything that gets indexed.
    Outlier-set ids are left unregistered.
    """
    auth = {int(t) for t in authorized}
    known = {int(t) for t in known_outliers}
    out = {int(t) for t in outliers}
    overlap = (auth & known) | (auth & out) | (known & out)
    if overlap:
        raise ValidationError(f"transmitter sets overlap on ids {sorted(overlap)}")
    present = data.transmitters()
    uncovered = present - (auth | known | out)
    if uncovered:
        raise ValidationError(
            f"transmitters {sorted(uncovered)} appear in the dataset but in no set")

    rng = np.random.Generator(np.random.PCG64(seed))
    tx = data.tx_ids
    pool_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for t in sorted(auth):
        rows = np.flatnonzero(tx == np.uint32(t))
        if rows.size == 0:
            continue
        order = rng.permutation(rows.size)
        cut = int(np.floor(0.7 * rows.size))
        pool_idx.append(rows[order[:cut]])
        test_idx.append(rows[order[cut:]])
    for t in sorted(known):
        rows = np.flatnonzero(tx == np.uint32(t))
        if rows.size:
            pool_idx.append(rows)
    for t in sorted(out):
        rows = np.flatnonzero(tx == np.uint32(t))
        if rows.size:
            test_idx.append(rows)

    pool = (np.concatenate(pool_idx) if pool_idx
            else np.empty(0, dtype=np.intp))
    pool = pool[rng.permutation(pool.size)] if pool.size else pool
    cut = int(np.floor(0.8 * pool.size))
    train = data.subset(pool[:cut])
    val = data.subset(pool[cut:])
    test = data.subset(np.concatenate(test_idx) if test_idx
                       else np.empty(0, dtype=np.intp))

    registry.set_status(sorted(auth), TxStatus.AUTHORIZED)
    registry.set_status(sorted(known), TxStatus.KNOWN_OUTLIER)
    return SplitResult(train=train, val=val, test=test,
                       combined_train_val=concat_datasets([train, val]))
