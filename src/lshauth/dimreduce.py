"""Deterministic linear dimensionality reduction for embedding vectors.

Two reducers share one Projector type: PCA fit on a training dataset, and a
seeded random Gaussian projection. A projector is fit once on the initial
training pool and then reused, frozen, for every later batch and query; it
is never refit when the authorized set changes.

PCA takes one symmetric eigendecomposition (LAPACK via numpy.linalg.eigh)
of the covariance of the mean-centered training matrix and keeps the top
out_dim eigenpairs. Eigenvalues are the variances along each component,
reported in non-increasing order; those at or below 1e-12 * trace(cov) are
reported as exactly 0, so rank-deficient data reads 0 on its trailing
components. Each row is sign-normalized so its first component larger than
1e-12 in magnitude is positive.

Snapshot layout ("prj"; saved and header-checked through `formats`):
    magic    8 bytes ASCII "LSHPRJ01"
    kind     u8: 0 = pca, 1 = random
    in_dim   u32 little-endian
    out_dim  u32 little-endian
    mean     in_dim * f64 little-endian
    matrix   out_dim * in_dim * f64 little-endian, row-major
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, ParseError, ValidationError
from .formats import read_header, write_file

PROJECTOR_MAGIC = b"LSHPRJ01"
_HEADER = struct.Struct("<BII")
ORTHONORMAL_TOL = 1e-6


@dataclass(frozen=True)
class Projector:
    kind: str  # "pca" or "random"
    matrix: np.ndarray  # (out_dim, in_dim) float64
    mean: np.ndarray  # (in_dim,) float64; zeros for the random kind
    eigenvalues: np.ndarray | None = None  # pca only, non-increasing

    def __post_init__(self):
        if self.kind not in ("pca", "random"):
            raise ValidationError(f"unknown projector kind {self.kind!r}")
        if self.matrix.ndim != 2:
            raise ValidationError("projector matrix must be 2-D")
        out_dim, in_dim = self.matrix.shape
        if not 1 <= out_dim <= in_dim:
            raise ValidationError(
                f"need 1 <= out_dim <= in_dim, got {out_dim} x {in_dim}")
        if self.mean.shape != (in_dim,):
            raise ValidationError(
                f"mean must have shape ({in_dim},), got {self.mean.shape}")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.mean))):
            raise ValidationError("projector contains non-finite values")
        if self.kind == "pca":
            gram = self.matrix @ self.matrix.T
            if np.max(np.abs(gram - np.eye(out_dim))) > ORTHONORMAL_TOL:
                raise ValidationError(
                    f"pca rows are not orthonormal within {ORTHONORMAL_TOL}")

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    def transform_matrix(self, matrix) -> np.ndarray:
        """Project (n, in_dim) rows down to (n, out_dim) float32."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != self.in_dim:
            raise DimensionMismatchError(
                f"expected shape (n, {self.in_dim}), got {m.shape}")
        return ((m - self.mean) @ self.matrix.T).astype(np.float32)

    def transform_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        return self.transform_matrix(v)[0]


def project(projector: Projector, data: Dataset) -> Dataset:
    """Apply a frozen projector to every record; ids are preserved."""
    if data.dim != projector.in_dim:
        raise DimensionMismatchError(
            f"dataset dim {data.dim} does not match projector input dim "
            f"{projector.in_dim}")
    return Dataset(projector.out_dim, data.tx_ids, data.sample_ids,
                   projector.transform_matrix(data.matrix_f64()))


def _sign_normalize(row: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(np.abs(row) > 1e-12)
    if nonzero.size and row[nonzero[0]] < 0:
        return -row
    return row


def fit_pca(train: Dataset, out_dim: int) -> Projector:
    """Top principal directions of the mean-centered training matrix."""
    n = len(train)
    if n == 0:
        raise ValidationError("cannot fit pca on an empty dataset")
    if not 1 <= out_dim <= min(train.dim, n):
        raise ValidationError(
            f"out_dim must be in [1, min(dim={train.dim}, n={n})], got {out_dim}")
    x = train.matrix_f64()
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / n
    zero_scale = 1e-12 * max(float(np.trace(cov)), 1e-30)
    values, vectors = np.linalg.eigh(cov)  # ascending
    eig = values[::-1][:out_dim].copy()
    eig[eig <= zero_scale] = 0.0
    top = vectors[:, ::-1][:, :out_dim].T
    matrix = np.stack([_sign_normalize(v) for v in top])
    matrix.flags.writeable = False
    eig.flags.writeable = False
    mean.flags.writeable = False
    return Projector(kind="pca", matrix=matrix, mean=mean, eigenvalues=eig)


def fit_random_projection(in_dim: int, out_dim: int, seed: int) -> Projector:
    """Gaussian projection with entries N(0, 1/out_dim), drawn from the seed."""
    if not 1 <= out_dim <= in_dim:
        raise ValidationError(
            f"need 1 <= out_dim <= in_dim, got {out_dim} x {in_dim}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed out of u64 range: {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    matrix = rng.standard_normal((out_dim, in_dim)) / np.sqrt(out_dim)
    matrix.flags.writeable = False
    mean = np.zeros(in_dim)
    mean.flags.writeable = False
    return Projector(kind="random", matrix=matrix, mean=mean)


_KIND_CODES = {"pca": 0, "random": 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def save_projector(projector: Projector, path) -> None:
    write_file(path, (PROJECTOR_MAGIC,
                      _HEADER.pack(_KIND_CODES[projector.kind],
                                   projector.in_dim, projector.out_dim),
                      projector.mean.astype("<f8"),
                      np.ascontiguousarray(projector.matrix, dtype="<f8")))


def load_projector(path) -> Projector:
    raw, (code, in_dim, out_dim) = read_header(path, PROJECTOR_MAGIC, _HEADER)
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise ParseError(path, f"unknown projector kind code {code}", offset=8)
    off = 8 + _HEADER.size
    expected = off + 8 * in_dim + 8 * out_dim * in_dim
    if len(raw) != expected:
        raise ParseError(path, f"expected {expected} bytes, got {len(raw)}",
                         offset=min(len(raw), expected))
    mean = np.frombuffer(raw, dtype="<f8", count=in_dim, offset=off).copy()
    off += 8 * in_dim
    matrix = np.frombuffer(raw, dtype="<f8", count=out_dim * in_dim,
                           offset=off).reshape(out_dim, in_dim).copy()
    mean.flags.writeable = False
    matrix.flags.writeable = False
    try:
        return Projector(kind=kind, matrix=matrix, mean=mean)
    except ValidationError as e:
        raise ParseError(path, str(e), offset=8) from None
