"""Shared fixtures and the acceptance-suite result banner."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from lshauth.data import Dataset, TransmitterRegistry, TxStatus

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"{name}: {outcome}")


def make_instance(seed: int, max_dim: int = 16, max_records: int = 500,
                  allow_zero_sigma: bool = True):
    """A random clustered dataset plus a registry covering every transmitter.

    Statuses mix all three values so decision paths beyond plain accepts get
    exercised. Returns (dataset, registry, rng) with the rng positioned for
    drawing queries.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = int(rng.integers(2, max_dim + 1))
    num_tx = int(rng.integers(3, 9))
    samples_per_tx = int(rng.integers(3, max(4, max_records // num_tx + 1)))
    radius = float(rng.uniform(1.0, 20.0))
    sigma = float(rng.uniform(0.0 if allow_zero_sigma else 0.1, 2.0))

    rows = []
    tx_ids = []
    sample_ids = []
    for t in range(num_tx):
        mean = rng.standard_normal(dim)
        mean *= radius / np.linalg.norm(mean)
        for s in range(samples_per_tx):
            rows.append(mean + sigma * rng.standard_normal(dim))
            tx_ids.append(t)
            sample_ids.append(s)
    data = Dataset(dim, tx_ids, sample_ids,
                   np.asarray(rows, dtype=np.float32))

    registry = TransmitterRegistry()
    statuses = [TxStatus.AUTHORIZED, TxStatus.KNOWN_OUTLIER, TxStatus.REVOKED]
    for t in range(num_tx):
        # always keep at least one authorized transmitter
        status = statuses[int(rng.integers(0, 3))] if t else TxStatus.AUTHORIZED
        registry.set_status(t, status)
    return data, registry, rng


def draw_queries(rng, data: Dataset, count: int) -> np.ndarray:
    """Half perturbed copies of indexed records, half free-floating points."""
    dim = data.dim
    queries = np.empty((count, dim), dtype=np.float64)
    n = len(data)
    for i in range(count):
        if i % 2 == 0 and n:
            base = data.matrix[int(rng.integers(0, n))].astype(np.float64)
            queries[i] = base + rng.standard_normal(dim) * rng.uniform(0, 2.0)
        else:
            queries[i] = rng.standard_normal(dim) * rng.uniform(1.0, 20.0)
    return queries


@pytest.fixture
def small_dataset():
    data, _, _ = make_instance(seed=424242)
    return data


def bucket_union(index):
    """A function from a query to its bucket union, read without the
    index's buckets: the indexed records, in row order, whose keys equal
    the query's in some table, as a Dataset. Each call also checks
    `index.candidate_count` against it. Reads the index's rows once, so
    take a new one after an insert."""
    indexed = index.indexed_dataset()
    row_keys = index.keys(indexed.matrix_f64())

    def union(q) -> Dataset:
        q = np.asarray(q, dtype=np.float64).reshape(1, -1)
        rows = np.flatnonzero((row_keys == index.keys(q)).any(axis=1))
        assert index.candidate_count(q[0]) == rows.size
        return indexed.subset(rows)

    return union


def parse_snapshot(raw: bytes) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """The tables of an `.idx` snapshot, read independently of lshauth.

    Each table is its list of (key, [(tx_id, sample_id), ...]) buckets in
    file order. The header is skipped; the whole input must be consumed.
    """
    dim, num_tables, k = struct.unpack_from("<III", raw, 16)
    off = 28 + 8 * dim + 4  # magic, seed, dim, L, K, center, size
    key_bytes = (k + 7) // 8
    tables = []
    for _ in range(num_tables):
        (nbuckets,) = struct.unpack_from("<I", raw, off)
        off += 4
        buckets = []
        for _ in range(nbuckets):
            key = int.from_bytes(raw[off:off + key_bytes], "big")
            (count,) = struct.unpack_from("<I", raw, off + key_bytes)
            off += key_bytes + 4
            entries = [struct.unpack_from("<II", raw, off + 8 * i)
                       for i in range(count)]
            off += 8 * count
            buckets.append((key, entries))
        tables.append(buckets)
    assert off == len(raw)
    return tables


def write_snapshot(head: bytes, size: int,
                   tables: list[list[tuple[int, list[tuple[int, int]]]]]
                   ) -> bytes:
    """An `.idx` snapshot built independently of lshauth: the inverse of
    `parse_snapshot`. `head` is a snapshot's bytes from the magic through
    the center; `size` goes to the record count field as given, and each
    bucket's entry count is the length of its list."""
    (k,) = struct.unpack_from("<I", head, 24)
    key_bytes = (k + 7) // 8
    out = [head, struct.pack("<I", size)]
    for buckets in tables:
        out.append(struct.pack("<I", len(buckets)))
        for key, entries in buckets:
            out += (key.to_bytes(key_bytes, "big"),
                    struct.pack("<I", len(entries)),
                    *(struct.pack("<II", *e) for e in entries))
    return b"".join(out)
