"""PCA by symmetric eigendecomposition, random projections, and projector
snapshots."""

import struct

import numpy as np
import pytest

from lshauth.data import Dataset
from lshauth.dimreduce import (PROJECTOR_MAGIC, Projector, fit_pca,
                               fit_random_projection, load_projector, project,
                               save_projector)
from lshauth.errors import ParseError, ValidationError


def _cloud(seed: int, n: int, dim: int, spread=None) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.standard_normal((n, dim))
    if spread is not None:
        rows = rows * np.asarray(spread)
    return Dataset(dim, np.zeros(n, np.uint32), np.arange(n, dtype=np.uint32),
                   rows.astype(np.float32))


def test_pca_rank_one_preserves_distances():
    direction = np.array([1.0, 2.0, -1.0])
    coords = np.linspace(-3.0, 3.0, 24)
    rows = np.outer(coords, direction)
    data = Dataset(3, np.zeros(24, np.uint32), np.arange(24, dtype=np.uint32),
                   rows.astype(np.float32))
    projector = fit_pca(data, 1)
    reduced = project(projector, data)
    original = data.matrix_f64()
    low = reduced.matrix_f64()
    for i in range(0, 24, 5):
        for j in range(1, 24, 7):
            want = np.linalg.norm(original[i] - original[j])
            got = abs(low[i, 0] - low[j, 0])
            assert abs(want - got) < 1e-6


def test_pca_isotropic_explained_variance():
    data = _cloud(7, 600, 12)
    projector = fit_pca(data, 12)
    x = data.matrix_f64()
    centered = x - x.mean(axis=0)
    total = np.trace(centered.T @ centered) / len(data)
    assert abs(projector.eigenvalues.sum() / total - 1.0) < 0.01


def test_pca_eigenvalues_non_increasing():
    for seed in (1, 2, 3):
        data = _cloud(seed, 200, 9, spread=[5, 4, 3, 2, 1, 1, 1, 0.5, 0.1])
        projector = fit_pca(data, 9)
        diffs = np.diff(projector.eigenvalues)
        assert np.all(diffs <= 1e-9)


def test_pca_rows_orthonormal():
    data = _cloud(11, 300, 16)
    projector = fit_pca(data, 10)
    gram = projector.matrix @ projector.matrix.T
    assert np.max(np.abs(gram - np.eye(10))) < 1e-6


def test_pca_sign_convention():
    data = _cloud(13, 150, 6, spread=[9, 5, 3, 2, 1, 0.5])
    projector = fit_pca(data, 6)
    for row in projector.matrix:
        nonzero = row[np.abs(row) > 1e-12]
        assert nonzero[0] > 0


def test_pca_matches_dense_eigensolver():
    """Independent route: the SVD of the centred matrix, not its covariance."""
    data = _cloud(17, 400, 8, spread=[7, 5, 4, 3, 2, 1.5, 1, 0.5])
    projector = fit_pca(data, 8)
    x = data.matrix_f64()
    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    reference_vals = singular ** 2 / len(data)
    assert np.allclose(projector.eigenvalues, reference_vals,
                       rtol=1e-6, atol=1e-9)
    for i in range(8):
        cosine = abs(projector.matrix[i] @ vt[i])
        assert cosine > 1 - 1e-6


def test_pca_rank_deficient_completes_basis():
    rows = np.outer(np.arange(10, dtype=np.float64), [2.0, 1.0])
    data = Dataset(2, np.zeros(10, np.uint32), np.arange(10, dtype=np.uint32),
                   rows.astype(np.float32))
    projector = fit_pca(data, 2)
    assert projector.eigenvalues[1] == 0.0
    gram = projector.matrix @ projector.matrix.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-6


def test_pca_close_eigenvalues_resolved():
    # covariance exactly diag(1, 0.999): two close eigenvalues still have a
    # well-defined top direction
    a = np.sqrt(2.0)
    b = np.sqrt(2.0 * 0.999)
    rows = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]],
                    dtype=np.float32)
    data = Dataset(2, [0, 0, 0, 0], [0, 1, 2, 3], rows)
    projector = fit_pca(data, 2)
    assert np.allclose(np.abs(projector.matrix[0]), [1.0, 0.0], atol=1e-9)
    assert np.allclose(projector.eigenvalues, [1.0, 0.999], rtol=1e-6)


def test_pca_validates_out_dim():
    data = _cloud(19, 5, 4)
    with pytest.raises(ValidationError):
        fit_pca(data, 0)
    with pytest.raises(ValidationError):
        fit_pca(data, 5)  # > dim
    with pytest.raises(ValidationError):
        fit_pca(Dataset.empty(4), 2)
    tiny = _cloud(19, 3, 6)
    with pytest.raises(ValidationError):
        fit_pca(tiny, 4)  # > record count


def test_pca_reconstruction_error_non_increasing_in_out_dim():
    data = _cloud(23, 250, 10, spread=[6, 5, 4, 3, 2.5, 2, 1.5, 1, 0.7, 0.3])
    x = data.matrix_f64()
    mean = x.mean(axis=0)
    centered = x - mean
    previous = None
    for out_dim in (1, 2, 4, 7, 10):
        projector = fit_pca(data, out_dim)
        low = (centered @ projector.matrix.T)
        reconstructed = low @ projector.matrix
        err = float(np.mean((centered - reconstructed) ** 2))
        if previous is not None:
            assert err <= previous + 1e-9
        previous = err


def test_random_projection_deterministic():
    a = fit_random_projection(16, 8, seed=42)
    b = fit_random_projection(16, 8, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.kind == "random"
    assert np.all(a.mean == 0)


def test_random_projection_scalar_case():
    projector = fit_random_projection(1, 1, seed=3)
    assert projector.matrix.shape == (1, 1)
    out = projector.transform_vector([2.0])
    assert out.shape == (1,)
    assert np.isclose(float(out[0]), 2.0 * projector.matrix[0, 0], rtol=1e-6)


def test_random_projection_distortion():
    """Squared distances survive 64 -> 32 within the usual random-map bound."""
    rng = np.random.Generator(np.random.PCG64(101))
    projector = fit_random_projection(64, 32, seed=11)
    ratios = []
    for _ in range(100):
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        orig = float(np.sum((a - b) ** 2))
        low = projector.matrix @ (a - b)
        ratios.append(float(np.sum(low ** 2)) / orig)
    assert abs(float(np.mean(ratios)) - 1.0) < 0.25


def test_project_preserves_ids_and_dims():
    data = _cloud(29, 40, 6)
    projector = fit_random_projection(6, 3, seed=5)
    reduced = project(projector, data)
    assert reduced.dim == 3
    assert np.array_equal(reduced.tx_ids, data.tx_ids)
    assert np.array_equal(reduced.sample_ids, data.sample_ids)


def test_project_empty_dataset():
    projector = fit_random_projection(5, 2, seed=9)
    reduced = project(projector, Dataset.empty(5))
    assert reduced.dim == 2
    assert len(reduced) == 0


def test_full_rank_pca_is_isometry():
    data = _cloud(31, 120, 7)
    projector = fit_pca(data, 7)
    reduced = project(projector, data)
    a, b = data.matrix_f64(), reduced.matrix_f64()
    for i in (0, 10, 50):
        for j in (3, 77, 111):
            want = np.linalg.norm(a[i] - a[j])
            got = np.linalg.norm(b[i] - b[j])
            assert abs(want - got) < 1e-5


def test_frozen_projector_reused_for_later_batches():
    train = _cloud(37, 200, 8)
    later = _cloud(38, 50, 8)
    projector = fit_pca(train, 4)
    first = project(projector, later)
    second = project(projector, later)
    assert first == second
    assert np.array_equal(projector.matrix, projector.matrix)


def test_projector_snapshot_round_trip(tmp_path):
    data = _cloud(41, 100, 6)
    for projector in (fit_pca(data, 4), fit_random_projection(6, 3, seed=2)):
        p1 = tmp_path / f"{projector.kind}.prj"
        p2 = tmp_path / f"{projector.kind}2.prj"
        save_projector(projector, p1)
        loaded = load_projector(p1)
        save_projector(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.matrix, projector.matrix)
        assert np.array_equal(loaded.mean, projector.mean)
        assert loaded.kind == projector.kind


@pytest.mark.parametrize("kind", ["pca", "random"])
def test_every_truncated_projector_raises_parse_error(tmp_path, kind):
    projector = (fit_pca(_cloud(42, 100, 5), 3) if kind == "pca"
                 else fit_random_projection(5, 3, seed=3))
    path = tmp_path / "cut.prj"
    save_projector(projector, path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ParseError):
            load_projector(path)


def test_projector_snapshot_bad_magic(tmp_path):
    path = tmp_path / "x.prj"
    path.write_bytes(b"12345678" + b"\x00" * 16)
    with pytest.raises(ParseError, match="magic"):
        load_projector(path)


def test_projector_validation():
    with pytest.raises(ValidationError):
        Projector(kind="pca", matrix=np.array([[0.5, 0.0], [0.0, 1.0]]),
                  mean=np.zeros(2))  # not orthonormal
    with pytest.raises(ValidationError):
        Projector(kind="weird", matrix=np.eye(2), mean=np.zeros(2))
    with pytest.raises(ValidationError):
        Projector(kind="random", matrix=np.ones((3, 2)), mean=np.zeros(2))


def _projector_file(kind_code: int, mean, matrix) -> bytes:
    return (PROJECTOR_MAGIC
            + struct.pack("<BII", kind_code, len(mean), len(matrix))
            + np.asarray(mean, dtype="<f8").tobytes()
            + np.asarray(matrix, dtype="<f8").tobytes())


@pytest.mark.parametrize("raw, message", [
    (_projector_file(0, [], []), "out_dim"),
    (_projector_file(0, [0.0, 0.0], [[0.5, 0.0], [0.0, 1.0]]), "orthonormal"),
    (_projector_file(1, [0.0, np.nan], [[1.0, 0.0]]), "non-finite"),
], ids=["zero-dims", "pca-not-orthonormal", "nan-mean"])
def test_malformed_projector_file_is_a_parse_error(tmp_path, raw, message):
    path = tmp_path / "bad.prj"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message) as exc:
        load_projector(path)
    assert exc.value.offset == 8
    assert str(exc.value).startswith(f"{path} (offset 8): ")
