"""Hash tables, bucket bookkeeping, candidate retrieval, ANN search and
snapshots."""

import gc
import math
import struct
import sys
import threading
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_snapshot, write_snapshot
from lshauth import lsh
from lshauth.data import Dataset, FingerprintRecord
from lshauth.errors import (DimensionMismatchError, DuplicateRecordError,
                            ParseError, ValidationError)
from lshauth.lsh import (DENSE_HIT_FRACTION, INDEX_MAGIC, LshIndex,
                         build_index, hyperplane_section_length, load_index,
                         save_index)
from lshauth.oracle import exact_nn


def _dataset(seed: int, n: int, dim: int, scale: float = 1.0) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    return Dataset(dim,
                   np.arange(n, dtype=np.uint32) % 13,
                   np.arange(n, dtype=np.uint32) // 13,
                   (rng.standard_normal((n, dim)) * scale).astype(np.float32))


def _sign_keys(index, rows) -> list[list[int]]:
    """Reference keys: per row and table, the K sign bits read from
    `index.hyperplanes` one dot product at a time, hyperplane 0 first."""
    out = []
    for row in np.asarray(rows, dtype=np.float64):
        diff = row - index.center
        out.append([int("".join("1" if float(np.dot(w, diff)) >= 0.0 else "0"
                                for w in planes) or "0", 2)
                    for planes in index.hyperplanes])
    return out


def _snapshot(index, tmp_path, name="snap.idx") -> bytes:
    path = tmp_path / name
    save_index(index, path)
    return path.read_bytes()


# -- hashing ------------------------------------------------------------------

def test_hash_key_text_round_trip():
    """keys() matches independently computed sign bits for every K, both
    for a batch and for one row at a time."""
    for k in (0, 1, 7, 8, 9, 16, 63, 64, 65, 128, 200, 256):
        index = build_index(5, 3, k, seed=k, center=np.full(5, 0.5))
        rows = np.random.Generator(np.random.PCG64(k)).standard_normal((9, 5))
        keys = index.keys(rows)
        assert keys.shape == (9, 3)
        assert keys.dtype == (np.uint64 if k <= 64 else object)
        assert keys.tolist() == _sign_keys(index, rows), k
        for i in range(9):
            assert index.keys(rows[i:i + 1]).tolist() == [keys[i].tolist()]


def test_hash_key_empty():
    index = build_index(3, 4, 0, seed=1)
    keys = index.keys(np.random.Generator(np.random.PCG64(0))
                      .standard_normal((6, 3)))
    assert keys.shape == (6, 4)
    assert keys.tolist() == [[0] * 4] * 6
    assert index.keys(np.empty((0, 3))).shape == (0, 4)


def test_hash_key_validation():
    index = build_index(3, 2, 4, seed=0)
    with pytest.raises(DimensionMismatchError):
        index.keys(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        index.keys(np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=256))
def test_keys_match_chosen_sign_patterns(bits):
    """Any K-bit pattern, K from 0 to 256, reads back with hyperplane 0 at
    the most significant bit."""
    k = len(bits)
    dim = max(k, 1)
    index = build_index(dim, 1, k, seed=k)
    signs = np.where(bits, 1.0, -1.0)
    # a vector whose dot products with the K hyperplanes are exactly `signs`
    v = np.linalg.solve(index.hyperplanes[0], signs) if k else np.ones(1)
    text = "".join("1" if b else "0" for b in bits)
    want = int(text, 2) if k else 0
    assert index.keys(v.reshape(1, -1)).tolist() == [[want]]
    assert index.keys(np.stack([v, -v])).tolist() == [
        [want], [(1 << k) - 1 - want]]


def test_hash_key_sign_arithmetic():
    index = build_index(2, 1, 2, seed=5)
    w = index.hyperplanes[0]
    # vectors whose dot products with hyperplanes 0 and 1 are given outright
    assert index.keys(np.linalg.solve(w, [3.0, -4.0]).reshape(1, -1)) \
        .tolist() == [[0b10]]
    assert index.keys(np.linalg.solve(w, [-1.0, -1.0]).reshape(1, -1)) \
        .tolist() == [[0b00]]
    assert index.keys(np.linalg.solve(w, [-2.0, 0.5]).reshape(1, -1)) \
        .tolist() == [[0b01]]


def test_hash_key_tie_maps_to_one():
    for k in (5, 200):
        center = np.array([2.0, 5.0, -1.0])
        index = build_index(3, 3, k, seed=7, center=center)
        assert index.keys(center.reshape(1, -1)).tolist() == [[(1 << k) - 1] * 3]


def test_hash_key_dim_mismatch():
    index = build_index(3, 2, 4, seed=0)
    index.insert(FingerprintRecord(0, 0, [1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatchError):
        index.ann_search([1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        index.candidates([1.0, 2.0, 3.0, 4.0])


def _near_boundary_rows(index, rng, count: int) -> np.ndarray:
    """Rows whose offset from the center is orthogonal to a randomly chosen
    hyperplane, so their dot product with it is rounding noise, whose sign
    the summation order can flip."""
    planes = index.hyperplanes.reshape(-1, index.dim)
    w = planes[rng.integers(0, len(planes), count)]
    offset = rng.standard_normal((count, index.dim))
    offset -= w * (np.einsum("ij,ij->i", offset, w)
                   / np.einsum("ij,ij->i", w, w))[:, None]
    return index.center + offset


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24),
       st.sampled_from([1, 3, 16, 70]),
       st.lists(st.integers(2, 40), min_size=1, max_size=3), st.booleans())
def test_a_key_depends_on_its_row_alone(seed, dim, hash_bits, heights,
                                        past_chunk):
    """keys() gives a row the same key alone, in blocks of assorted heights
    and in one call across the hashing chunk's edge, rows within rounding
    of a hyperplane included."""
    rng = np.random.Generator(np.random.PCG64(seed))
    index = build_index(dim, 3, hash_bits, seed=seed,
                        center=rng.standard_normal(dim))
    n = lsh._HASH_CHUNK + 40 if past_chunk else 200
    rows = index.center + rng.standard_normal((n, dim))
    near = rng.random(n) < 0.5
    rows[near] = _near_boundary_rows(index, rng, int(near.sum()))
    alone = np.concatenate([index.keys(row[None]) for row in rows])
    assert np.array_equal(index.keys(rows), alone)
    for h in heights:
        blocks = [index.keys(rows[i:i + h]) for i in range(0, n, h)]
        assert np.array_equal(np.concatenate(blocks), alone), h


def test_records_inserted_one_at_a_time_load_from_their_snapshot(tmp_path):
    # each center puts record 0 within rounding of table 0's hyperplane,
    # where a one-row and a two-row hash could disagree on its sign
    rng = np.random.Generator(np.random.PCG64(1))
    w = build_index(8, 4, 1, seed=3).hyperplanes[0, 0]
    path = tmp_path / "one.idx"
    for _ in range(20):
        rows = rng.standard_normal((2, 8)).astype(np.float32)
        offset = rng.standard_normal(8)
        offset -= w * (offset @ w) / (w @ w)
        index = build_index(8, 4, 1, seed=3, center=rows[0] - offset)
        data = Dataset(8, [0, 1], [0, 0], rows)
        for record in data:
            index.insert(record)
        save_index(index, path)
        loaded = load_index(path, data)
        assert _snapshot(loaded, tmp_path, "again.idx") == path.read_bytes()


# -- construction -------------------------------------------------------------

def test_build_shapes_and_determinism():
    a = build_index(2, 3, 4, seed=7)
    b = build_index(2, 3, 4, seed=7)
    assert a.hyperplanes.shape == (3, 4, 2)
    assert np.array_equal(a.hyperplanes, b.hyperplanes)


def test_build_k0_single_empty_key(tmp_path):
    index = build_index(3, 2, 0, seed=1)
    index.insert(FingerprintRecord(0, 0, [1.0, 2.0, 3.0]))
    assert parse_snapshot(_snapshot(index, tmp_path)) == [[(0, [(0, 0)])]] * 2


def test_build_validation():
    with pytest.raises(ValidationError):
        build_index(0, 1, 1, seed=0)
    with pytest.raises(ValidationError):
        build_index(1, 0, 1, seed=0)
    with pytest.raises(ValidationError, match="unsupported"):
        build_index(1, 1, 257, seed=0)
    build_index(1, 1, 256, seed=0)  # the cap itself is supported


def test_prefix_tables_shared_across_l():
    small = build_index(5, 2, 6, seed=42)
    large = build_index(5, 4, 6, seed=42)
    assert np.array_equal(large.hyperplanes[:2], small.hyperplanes)


# -- insertion ----------------------------------------------------------------

def test_insert_places_in_every_table(tmp_path):
    index = build_index(4, 2, 3, seed=3)
    record = FingerprintRecord(7, 1, [0.5, -1.0, 2.0, 0.25])
    index.insert(record)
    assert index.size == 1
    keys = _sign_keys(index, [record.vector])[0]
    assert parse_snapshot(_snapshot(index, tmp_path)) == [
        [(key, [(7, 1)])] for key in keys]
    assert index.candidates(record.vector) == [record]


def test_insert_duplicate_errors_and_size_stays():
    index = build_index(2, 2, 2, seed=0)
    index.insert(FingerprintRecord(1, 1, [1.0, 1.0]))
    with pytest.raises(DuplicateRecordError):
        index.insert(FingerprintRecord(1, 1, [9.0, 9.0]))
    assert index.size == 1


def test_insert_k0_piles_into_single_bucket(tmp_path):
    index = build_index(2, 3, 0, seed=0)
    data = _dataset(1, 9, 2)
    index.insert_dataset(data)
    ids = [r.key() for r in data]
    assert parse_snapshot(_snapshot(index, tmp_path)) == [[(0, ids)]] * 3


def test_insert_dim_mismatch():
    index = build_index(3, 1, 1, seed=0)
    with pytest.raises(DimensionMismatchError):
        index.insert(FingerprintRecord(0, 0, [1.0, 2.0]))


def test_bulk_insert_equivalent_to_loop(tmp_path):
    data = _dataset(8, 40, 6)
    for k in (4, 70):
        one = build_index(6, 3, k, seed=5)
        two = build_index(6, 3, k, seed=5)
        for record in data:
            one.insert(record)
        two.insert_dataset(data.subset(range(25)))
        two.insert_dataset(data.subset(range(25, 40)))
        assert _snapshot(one, tmp_path, "one.idx") == \
            _snapshot(two, tmp_path, "two.idx"), k


def test_bulk_insert_duplicate_leaves_index_unchanged():
    data = _dataset(8, 10, 3)
    index = build_index(3, 2, 2, seed=1)
    index.insert_dataset(data)
    with pytest.raises(DuplicateRecordError):
        index.insert_dataset(data.subset([3]))
    assert index.size == 10


# -- candidates and search ----------------------------------------------------

def test_candidates_empty_index():
    index = build_index(4, 2, 3, seed=9)
    assert index.candidates(np.zeros(4)) == []
    assert index.ann_search(np.zeros(4)) is None


def test_candidates_k0_returns_everything():
    index = build_index(3, 2, 0, seed=2)
    data = _dataset(4, 25, 3)
    index.insert_dataset(data)
    cands = index.candidates(np.zeros(3))
    assert len(cands) == 25
    assert [c.key() for c in cands] == [r.key() for r in data]


def test_self_collision():
    index = build_index(5, 3, 8, seed=6)
    data = _dataset(2, 30, 5)
    index.insert_dataset(data)
    target = data.record(11)
    keys = [c.key() for c in index.candidates(target.vector)]
    assert target.key() in keys


def test_ann_k0_equals_exhaustive(small_dataset):
    index = build_index(small_dataset.dim, 2, 0, seed=3)
    index.insert_dataset(small_dataset)
    rng = np.random.Generator(np.random.PCG64(55))
    for _ in range(50):
        q = rng.standard_normal(small_dataset.dim) * 5
        got = index.ann_search(q)
        want = exact_nn(small_dataset, q)
        assert got[0].key() == want[0].key()
        assert got[1] == want[1]


def test_ann_self_query_distance_zero():
    data = _dataset(13, 50, 7, scale=10.0)
    index = build_index(7, 2, 5, seed=4)
    index.insert_dataset(data)
    target = data.record(20)
    record, dist = index.ann_search(target.vector)
    oracle_record, oracle_dist = exact_nn(data, target.vector)
    assert dist == 0.0
    assert oracle_dist == 0.0
    assert record.key() == oracle_record.key()


def test_candidates_are_unique_and_in_row_order():
    # a record shared across tables appears once, at its insertion position
    index = build_index(2, 4, 1, seed=11)
    data = _dataset(3, 12, 2)
    index.insert_dataset(data)
    keys = [c.key() for c in index.candidates(data.matrix[0])]
    assert keys == [r.key() for r in data if r.key() in set(keys)]
    assert len(keys) == index.candidate_count(data.matrix[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 6))
def test_candidate_completeness_small(seed, num_tables, hash_bits):
    """Brute-force key recomputation agrees with candidates()."""
    data = _dataset(seed, 60, 4)
    index = build_index(4, num_tables, hash_bits, seed=seed ^ 0xABCD)
    index.insert_dataset(data)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    q = rng.standard_normal(4)
    got = {c.key() for c in index.candidates(q)}
    qkeys = _sign_keys(index, [q])[0]
    expected = {record.key()
                for record, keys in zip(data, _sign_keys(index, data.matrix))
                if any(a == b for a, b in zip(keys, qkeys))}
    assert got == expected


def test_candidate_completeness_at_full_scale():
    """Key-recomputation cross-check at the 500-record scale."""
    data = _dataset(4242, 500, 6)
    index = build_index(6, 3, 4, seed=777,
                        center=data.matrix_f64().mean(axis=0))
    index.insert_dataset(data)
    record_keys = _sign_keys(index, data.matrix)
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(10):
        q = rng.standard_normal(6)
        got = [c.key() for c in index.candidates(q)]
        assert len(got) == len(set(got))
        qkeys = _sign_keys(index, [q])[0]
        expected = {record.key()
                    for record, keys in zip(data, record_keys)
                    if any(a == b for a, b in zip(keys, qkeys))}
        assert set(got) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64), st.integers(1, 9))
def test_gathered_distances_match_plain_form(seed, n, dim):
    """The gathered distance path is bit-identical to the plain one."""
    from lshauth.distance import gathered_squared_distances, squared_distances
    rng = np.random.Generator(np.random.PCG64(seed))
    matrix = rng.standard_normal((n + 5, dim))
    vector = rng.standard_normal(dim)
    rows = rng.choice(n + 5, size=n, replace=False)
    gathered = gathered_squared_distances(matrix, rows, vector)
    assert np.array_equal(gathered, squared_distances(matrix[rows], vector))


def test_candidate_monotonicity_in_l():
    data = _dataset(21, 200, 6)
    rng = np.random.Generator(np.random.PCG64(77))
    queries = rng.standard_normal((20, 6))
    previous = None
    for num_tables in range(1, 6):
        index = build_index(6, num_tables, 4, seed=99)
        index.insert_dataset(data)
        sets = [{c.key() for c in index.candidates(q)} for q in queries]
        if previous is not None:
            for small, big in zip(previous, sets):
                assert small <= big
        previous = sets


def test_query_determinism():
    data = _dataset(31, 120, 5)
    queries = np.random.Generator(np.random.PCG64(5)).standard_normal((30, 5))
    results = []
    for _ in range(2):
        index = build_index(5, 3, 6, seed=123)
        index.insert_dataset(data)
        results.append([index.ann_search(q) for q in queries])
    for a, b in zip(*results):
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0].key() == b[0].key() and a[1] == b[1]


def test_collision_probability_law_small():
    # per-bit collision rate across 10,000 hyperplanes tracks 1 - angle/pi
    theta = math.pi / 4
    u = np.zeros(8)
    u[0] = 1.0
    v = np.zeros(8)
    v[0], v[1] = math.cos(theta), math.sin(theta)
    index = build_index(8, 50, 200, seed=314)
    bits_u = index.hyperplanes @ (u - index.center) >= 0.0
    bits_v = index.hyperplanes @ (v - index.center) >= 0.0
    equal = int(np.sum(bits_u == bits_v))
    total = bits_u.size
    assert total == 10_000
    assert abs(equal / total - (1 - theta / math.pi)) < 0.02


# -- bucket stats -------------------------------------------------------------

def test_bucket_stats_empty_index():
    stats = build_index(3, 2, 4, seed=0).bucket_stats()
    assert stats.size == 0
    for table in stats.per_table:
        assert table.occupancy_histogram == {}
        assert table.max_occupancy == 0
        assert table.mean_occupancy == 0.0
        assert table.empty_fraction == 1.0


def test_bucket_stats_k0():
    index = build_index(2, 3, 0, seed=0)
    index.insert_dataset(_dataset(2, 17, 2))
    for table in index.bucket_stats().per_table:
        assert table.occupancy_histogram == {17: 1}
        assert table.empty_fraction == 0.0
        assert table.mean_occupancy == 17.0


def test_bucket_stats_uniform_data_k3():
    index = build_index(8, 2, 3, seed=2024)
    index.insert_dataset(_dataset(1000, 800, 8))
    stats = index.bucket_stats()
    for table in stats.per_table:
        assert sum(size * count
                   for size, count in table.occupancy_histogram.items()) == 800
        assert table.nonempty_buckets == 8
        assert table.mean_occupancy == 100.0
        assert table.max_occupancy <= 3 * table.mean_occupancy


def test_bucket_stats_mass_equals_size():
    index = build_index(4, 3, 5, seed=8)
    index.insert_dataset(_dataset(77, 150, 4))
    for table in index.bucket_stats().per_table:
        assert sum(size * count
                   for size, count in table.occupancy_histogram.items()) == 150


# -- snapshots ----------------------------------------------------------------

def test_snapshot_round_trip_bitwise(tmp_path):
    data = _dataset(17, 90, 6)
    index = build_index(6, 3, 7, seed=2,
                        center=data.matrix_f64().mean(axis=0))
    index.insert_dataset(data)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1)
    loaded = load_index(p1, data)
    save_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_preserves_decisions(tmp_path):
    data = _dataset(19, 70, 4)
    index = build_index(4, 4, 3, seed=6)
    index.insert_dataset(data)
    path = tmp_path / "i.idx"
    save_index(index, path)
    loaded = load_index(path, data)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(25):
        q = rng.standard_normal(4)
        a, b = index.ann_search(q), loaded.ann_search(q)
        assert a[0].key() == b[0].key() and a[1] == b[1]


def test_snapshot_empty_index_round_trip(tmp_path):
    index = build_index(3, 2, 4, seed=50)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1)
    loaded = load_index(p1, _dataset(0, 5, 3))  # any resolving dataset works
    assert loaded.size == 0
    save_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_k0_round_trip(tmp_path):
    data = _dataset(51, 20, 3)
    index = build_index(3, 2, 0, seed=52)
    index.insert_dataset(data)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1)
    loaded = load_index(p1, data)
    assert loaded.size == 20
    assert loaded.candidates(np.zeros(3)) == index.candidates(np.zeros(3))
    save_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_wrong_dataset_rejected(tmp_path):
    data = _dataset(23, 30, 3)
    index = build_index(3, 2, 4, seed=9)
    index.insert_dataset(data)
    path = tmp_path / "i.idx"
    save_index(index, path)
    other = _dataset(24, 30, 3)  # same ids, different vectors
    with pytest.raises(ParseError):
        load_index(path, other)


def test_snapshot_mismatch_names_table_and_count(tmp_path):
    data = _dataset(113, 200, 4)
    index = build_index(4, 3, 5, seed=114)
    index.insert_dataset(data)
    path = tmp_path / "i.idx"
    save_index(index, path)
    matrix = data.matrix.copy()
    matrix[10:50] += 0.4 * np.random.Generator(
        np.random.PCG64(115)).standard_normal((40, 4)).astype(np.float32)
    moved = Dataset(4, data.tx_ids, data.sample_ids, matrix)
    changed = index.keys(data.matrix_f64()) != index.keys(moved.matrix_f64())
    table = int(np.flatnonzero(changed.any(axis=0))[0])
    count = int(changed[:, table].sum())
    assert 1 < count < 40
    with pytest.raises(ParseError, match=rf"table {table}: {count} of 200 "
                                         r"records do not hash"):
        load_index(path, moved)


def test_snapshot_missing_record_rejected(tmp_path):
    data = _dataset(29, 30, 3)
    index = build_index(3, 2, 4, seed=9)
    index.insert_dataset(data)
    path = tmp_path / "i.idx"
    save_index(index, path)
    with pytest.raises(ParseError, match="not present"):
        load_index(path, data.subset(range(10)))


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 32)
    with pytest.raises(ParseError, match="magic"):
        load_index(path, _dataset(0, 1, 1))


def _structural_defect(case, tables):
    """Break `tables` (a 30-record, 3-table snapshot as `parse_snapshot`
    reads it) in one way; return the record count to write and the error
    `load_index` must give."""
    if case == "table 0 twice":
        tables[0][0][1][0] = tables[0][1][1][0]
        return 30, "table 0 lists a record twice"
    if case == "table 1 twice":
        tables[1][-1][1][-1] = tables[1][0][1][0]
        return 30, "table 1 lists a record twice"
    if case == "unknown record":
        tables[2][0][1][0] = (99, 99)
        return 30, r"table 2 references unknown record \(tx 99, sample 99\)"
    if case == "repeated key":
        at = next(i for i, b in enumerate(tables[1]) if len(b[1]) > 1)
        key, entries = tables[1][at]
        tables[1][at:at + 1] = [(key, entries[:1]), (key, entries[1:])]
        return 30, "table 1 repeats a bucket key"
    if case == "entry short":
        tables[2][-1][1].pop()
        return 30, "table 2 indexes 29 records, expected 30"
    assert case == "count high"
    return 31, "table 0 indexes 30 records, expected 31"


@pytest.mark.parametrize("case", ["table 0 twice", "table 1 twice",
                                  "unknown record", "repeated key",
                                  "entry short", "count high"])
def test_structural_snapshot_defects_name_their_table(tmp_path, case):
    data = _dataset(41, 30, 3)
    index = build_index(3, 3, 2, seed=42)
    index.insert_dataset(data)
    raw = _snapshot(index, tmp_path)
    head = raw[:hyperplane_section_length(3)]
    tables = parse_snapshot(raw)
    assert write_snapshot(head, 30, tables) == raw
    size, message = _structural_defect(case, tables)
    path = tmp_path / "bad.idx"
    path.write_bytes(write_snapshot(head, size, tables))
    with pytest.raises(ParseError, match=message):
        load_index(path, data)


def test_loaded_tables_keep_file_order_not_row_order(tmp_path):
    # rows come back in table-0 order, so a later table's buckets can hold
    # their rows out of ascending order: its file order cannot be derived
    # from the rows' keys, and re-inserting the rows in row order would
    # save different bytes
    rows = np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)
    data = Dataset(3, np.arange(8), np.zeros(8), rows)
    index = build_index(3, 2, 2, seed=0)
    index.insert_dataset(data)
    raw = _snapshot(index, tmp_path)
    loaded = load_index(tmp_path / "snap.idx", data)
    buckets = [b.tolist() for b in loaded._buckets[1].values()]
    assert [b == sorted(b) for b in buckets] == [True, False, False]
    rebuilt = build_index(3, 2, 2, seed=0)
    rebuilt.insert_dataset(loaded.indexed_dataset())
    assert _snapshot(rebuilt, tmp_path, "rebuilt.idx") != raw
    assert _snapshot(loaded, tmp_path, "again.idx") == raw


def test_buckets_out_of_first_occurrence_order_load_and_resave(tmp_path):
    data = _dataset(43, 40, 3)
    index = build_index(3, 3, 2, seed=44)
    index.insert_dataset(data)
    raw = _snapshot(index, tmp_path)
    tables = parse_snapshot(raw)
    tables[1][0], tables[1][-1] = tables[1][-1], tables[1][0]
    swapped = write_snapshot(raw[:hyperplane_section_length(3)], 40, tables)
    assert swapped != raw
    path = tmp_path / "swapped.idx"
    path.write_bytes(swapped)
    assert _snapshot(load_index(path, data), tmp_path, "again.idx") == swapped


@pytest.mark.parametrize("num_tables, hash_bits",
                         [(3, 0), (20, 1), (2, 2), (5, 16), (2, 70)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_insert_after_load_saves_as_insert_after_build(tmp_path, num_tables,
                                                       hash_bits, seed):
    # the enroll path: load a snapshot, insert a batch, save
    data = _dataset(600 + seed, 120, 5)
    base, batch = data.subset(range(90)), data.subset(range(90, 120))
    index = build_index(5, num_tables, hash_bits, seed=seed,
                        center=data.matrix_f64().mean(axis=0))
    index.insert_dataset(base)
    _snapshot(index, tmp_path)
    loaded = load_index(tmp_path / "snap.idx", base)
    loaded.insert_dataset(batch)
    index.insert_dataset(batch)
    assert (_snapshot(loaded, tmp_path, "a.idx")
            == _snapshot(index, tmp_path, "b.idx"))


def test_hyperplane_section_stable_under_insert(tmp_path):
    data = _dataset(37, 50, 5)
    index = build_index(5, 2, 6, seed=77)
    index.insert_dataset(data.subset(range(40)))
    p1 = tmp_path / "before.idx"
    save_index(index, p1)
    index.insert_dataset(data.subset(range(40, 50)))
    p2 = tmp_path / "after.idx"
    save_index(index, p2)
    n = hyperplane_section_length(5)
    assert p1.read_bytes()[:n] == p2.read_bytes()[:n]
    assert p1.read_bytes() != p2.read_bytes()


def test_copy_is_independent():
    data = _dataset(41, 40, 4)
    index = build_index(4, 2, 3, seed=12)
    index.insert_dataset(data.subset(range(30)))
    dup = index.copy()
    dup.insert_dataset(data.subset(range(30, 40)))
    assert index.size == 30
    assert dup.size == 40
    q = data.matrix[0]
    assert index.ann_search(q)[0].key() == dup.ann_search(q)[0].key()


# -- dense branch ---------------------------------------------------------------

def _hit_sum(index, data, q) -> int:
    """Rows in the query's bucket of each table, summed over the tables."""
    kq = index.keys(np.asarray(q, dtype=np.float64).reshape(1, -1))
    return int((index.keys(data.matrix_f64()) == kq).sum())


def _union_nn(index, q):
    candidates = index.candidates(q)
    if not candidates:
        return None
    return exact_nn(Dataset.from_records(candidates, dim=index.dim), q)


@pytest.fixture
def rescored(monkeypatch):
    """Row counts of every re-score the index runs."""
    counts = []
    kernel = lsh.gathered_squared_distances

    def spy(matrix, rows, *args):
        counts.append(rows.shape[0])
        return kernel(matrix, rows, *args)

    monkeypatch.setattr(lsh, "gathered_squared_distances", spy)
    return counts


@pytest.fixture
def unions(monkeypatch):
    """One entry per union mask the index builds."""
    calls = []
    build = LshIndex._union

    def spy(self, hits):
        calls.append(len(hits))
        return build(self, hits)

    monkeypatch.setattr(LshIndex, "_union", spy)
    return calls


# ids: the seed alone at the paper's L=20, K=1, the shape and seed
# otherwise; the other shapes cover K > 1, L*K > 64 and K > 64 (keys held
# as Python ints)
_TIE_SHAPES = [pytest.param(num_tables, hash_bits, seed, id=tag + str(seed))
               for num_tables, hash_bits, tag in [(20, 1, ""), (30, 3, "L30-K3-"),
                                                  (4, 70, "L4-K70-")]
               for seed in range(5)]


def _tied_index(num_tables, hash_bits, seed, closer_outside):
    """An index with exact ties at 2|q| on both sides of a query q: 3q
    shares q's key in every table, -q (and the closer -q/2, if asked for)
    misses it in every table. Returns (index, q)."""
    rng = np.random.Generator(np.random.PCG64(500 + seed))
    dim = 4
    q = rng.integers(-16, 17, dim) / 8.0
    q[0] = 1.25  # not the zero vector
    tied_in = [(9, 4), (2, 7), (7, 1)]
    tied_out = [(1, 0), (1, 3), (0, 5)]
    ids = tied_in + tied_out
    rows = [3.0 * q] * 3 + [-q] * 3
    if closer_outside:
        ids.append((0, 0))
        rows.append(-0.5 * q)
    for k in range(40):  # farther rows on both sides
        t = 4.0 + k / 4.0
        ids += [(20 + k, 0), (20 + k, 1)]
        rows += [t * q, -t * q]
    data = Dataset(dim, [i[0] for i in ids], [i[1] for i in ids],
                   np.asarray(rows, dtype=np.float32))
    index = build_index(dim, num_tables, hash_bits, seed=600 + seed)
    index.insert_dataset(data)
    assert _hit_sum(index, data, q) >= DENSE_HIT_FRACTION * len(index)
    union = {r.key() for r in index.candidates(q)}
    assert union.isdisjoint(tied_out + [(0, 0)])
    assert set(tied_in) <= union
    return index, q


@pytest.mark.parametrize("num_tables, hash_bits, seed", _TIE_SHAPES)
def test_dense_ties_stay_inside_the_union(num_tables, hash_bits, seed,
                                          rescored, unions):
    # -q/2 scores best of all rows but lies outside the union, so the
    # query masks the rows outside the union before taking its best row
    index, q = _tied_index(num_tables, hash_bits, seed, closer_outside=True)
    unions.clear()
    record, dist = index.ann_search(q)
    assert len(unions) == 1
    assert record.key() == (2, 7)
    assert dist == float(np.sqrt(np.sum((2.0 * q) ** 2)))
    want = _union_nn(index, q)
    assert (record.key(), dist) == (want[0].key(), want[1])
    assert rescored[-1] < index.candidate_count(q)  # the dense branch ran


@pytest.mark.parametrize("num_tables, hash_bits, seed", _TIE_SHAPES)
def test_dense_ties_outside_the_union_are_dropped(num_tables, hash_bits,
                                                  seed, rescored, unions):
    # without -q/2 the first best-scoring row, 3q, is in the union, so no
    # mask is built; -q scores exactly as 3q does (every value is a small
    # dyadic rational) and reaches the shortlist, and only the rows' keys
    # keep its smaller ids from winning the tie
    index, q = _tied_index(num_tables, hash_bits, seed, closer_outside=False)
    unions.clear()
    record, dist = index.ann_search(q)
    assert unions == []
    assert record.key() == (2, 7)
    assert dist == float(np.sqrt(np.sum((2.0 * q) ** 2)))
    want = _union_nn(index, q)
    assert (record.key(), dist) == (want[0].key(), want[1])
    assert rescored[-1] < index.candidate_count(q)  # the dense branch ran


def test_dense_exact_far_from_the_origin(rescored):
    # rows ~1e4 from the origin with O(1) spread: the norm expansion's
    # scores err by ~1e-8 there, while each query sits between a pair of
    # rows whose squared distances differ by at most 1e-9, so only a sound
    # margin keeps the kernel's nearest on the shortlist
    rng = np.random.Generator(np.random.PCG64(700))
    dim, num_queries = 8, 60
    base = np.full(dim, 1e4 / math.sqrt(dim))
    first = (base + rng.standard_normal((num_queries, dim))).astype(np.float32)
    second = (first + 0.05 * rng.standard_normal((num_queries, dim))).astype(
        np.float32)
    gap = first.astype(np.float64) - second
    gap_sq = np.einsum("ij,ij->i", gap, gap)[:, None]
    side = 0.02 * rng.standard_normal((num_queries, dim))
    side -= gap * np.einsum("ij,ij->i", side, gap)[:, None] / gap_sq
    # |first - q|^2 - |second - q|^2 = -2 t |gap|^2 for q = mid + side + t gap
    lean = rng.uniform(-1e-9, 1e-9, (num_queries, 1)) / (2.0 * gap_sq)
    queries = (first.astype(np.float64) + second) / 2.0 + side + lean * gap
    filler = (base + 3.0 * rng.standard_normal((400, dim))).astype(np.float32)
    ids = rng.permutation(2 * num_queries + 400)
    data = Dataset(dim, ids // 1000, ids % 1000,
                   np.concatenate([first, second, filler]))
    index = build_index(dim, 20, 1, seed=701)
    index.insert_dataset(data)
    for i, q in enumerate(queries):
        assert _hit_sum(index, data, q) >= DENSE_HIT_FRACTION * len(index)
        record, dist = index.ann_search(q)
        assert rescored[-1] < index.candidate_count(q)
        want = _union_nn(index, q)
        assert (record.key(), dist) == (want[0].key(), want[1])
        pair = {(r // 1000, r % 1000) for r in ids[[i, num_queries + i]]}
        assert record.key() in pair


def test_dense_branch_falls_back_when_scores_overflow():
    # finite but huge inputs: m.v overflows to +inf and -inf within one
    # row, so the scores hold NaN and the union is gathered instead
    rows = np.zeros((3, 4), dtype=np.float32)
    rows[:, :2] = [[1e10, 1e10], [2e10, 1e10], [3e10, 3e10]]
    data = Dataset(4, [0, 1, 2], [0, 0, 0], rows)
    index = build_index(4, 3, 0, seed=5)
    index.insert_dataset(data)
    q = np.array([1e300, -1e300, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        record, dist = index.ann_search(q)
        want = _union_nn(index, q)
    assert (record.key(), dist) == (want[0].key(), want[1]) == ((0, 0), math.inf)


def test_dense_results_survive_copy_load_and_inserts(tmp_path):
    # 1,500 rows cross the store's first capacity step; at L=20, K=1
    # every query goes dense and reads the stored key column
    data = _dataset(101, 1500, 6, scale=2.0)
    queries = np.random.Generator(np.random.PCG64(103)).standard_normal(
        (150, 6)) * 2.0

    def built(rows):
        index = build_index(6, 20, 1, seed=102)
        index.insert_dataset(data.subset(rows))
        return index

    full = built(range(1500))
    one_by_one = build_index(6, 20, 1, seed=102)
    for i in range(len(data)):
        one_by_one.insert(data.record(i))
    path = tmp_path / "dense.idx"
    save_index(full, path)
    loaded = load_index(path, data)

    def results(index):
        # the key column follows the stored rows
        n = len(index)
        assert np.array_equal(index._keys[:n], index.keys(index._matrix[:n]))
        out = []
        for q in queries:
            record, dist = index.ann_search(q)
            out.append((record.key(), dist))
        return out

    assert all(_hit_sum(full, data, q) >= DENSE_HIT_FRACTION * len(full)
               for q in queries[:10])
    want = results(full)
    assert want == [(r.key(), d) for r, d in map(partial(_union_nn, full),
                                                queries)]
    # a copy and its original fill the same store slots with different rows
    first = built(range(700))
    second = first.copy()
    second.insert_dataset(data.subset(range(700, 1000)))
    first.insert_dataset(data.subset(range(1000, 1300)))
    assert results(first) == results(built([*range(700), *range(1000, 1300)]))
    assert results(second) == results(built(range(1000)))
    second.insert_dataset(data.subset(range(1000, 1500)))  # grows the store
    for other in (second, one_by_one, loaded, full.copy()):
        assert results(other) == want


class _GivenKeys(LshIndex):
    """An index whose keys are given, not hashed: a row's one coordinate
    is its row number in `given`."""

    given = np.zeros((0, 1), dtype=np.uint64)

    def keys(self, rows):
        return self.given[rows[:, 0].astype(np.intp)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 20, 64]), st.sampled_from([1, 3]),
       st.integers(0, 2**32 - 1))
def test_key_column_membership_equals_the_union_mask(num_tables, hash_bits,
                                                     seed):
    """A row shares a key with the query in some table, by the stored key
    column, exactly when the scatter of the hit buckets marks it, and the
    dense branch's answer agrees with the union's nearest row."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = 400
    # rows agree with the query in no table, in about one, or in many
    equal = rng.random((n, num_tables)) < rng.choice(
        [0.0, 0.5 / num_tables, 0.3], (n, 1))
    q = rng.integers(0, 2**hash_bits, num_tables, dtype=np.uint64)
    other = (q + rng.integers(1, 2**hash_bits, (n, num_tables),
                              dtype=np.uint64)) % np.uint64(2**hash_bits)
    index = _GivenKeys(1, num_tables, hash_bits, seed=0)
    index.given = np.vstack([np.where(equal, q, other), q]).astype(np.uint64)
    index.insert_dataset(Dataset(1, np.zeros(n), np.arange(n),
                                 np.arange(n, dtype=np.float32)[:, None]))

    query = np.array([float(n)])
    keys, hits = index._hits(query)
    want = equal.any(axis=1)
    assert np.array_equal((index._keys[:n] == keys).any(axis=1), want)
    assert np.array_equal(index._union(hits), want)
    got, nearest = index.ann_search(query), _union_nn(index, query)
    assert (got is None) == (nearest is None)
    if got is not None:
        assert (got[0].key(), got[1]) == (nearest[0].key(), nearest[1])


# -- contracts: concurrency, parsing, atomicity, lifetime ---------------------

@pytest.mark.parametrize(
    "num_tables, hash_bits, loaded",
    [pytest.param(num_tables, hash_bits, loaded,
                  id=tag + ("-loaded" if loaded else ""))
     for loaded in (False, True)
     for num_tables, hash_bits, tag in [(2, 0, "dense"), (2, 6, "gather"),
                                        (20, 1, "dense-k1")]])
def test_concurrent_queries_match_serial(num_tables, hash_bits, loaded,
                                         tmp_path):
    # K=0 sends every query down the dense branch; L=2, K=6 hits ~3% of the
    # records per query and gathers its union; L=20, K=1 goes dense and
    # tests its shortlist's rows against the stored key column. The README
    # promises concurrent queries once the index is loaded, so the index
    # is also queried as a snapshot load rebuilds it.
    data = _dataset(61, 600, 8, scale=3.0)
    index = build_index(8, num_tables, hash_bits, seed=62)
    index.insert_dataset(data)
    if loaded:
        _snapshot(index, tmp_path)
        index = load_index(tmp_path / "snap.idx", data)
    queries = np.random.Generator(np.random.PCG64(63)).standard_normal(
        (1000, 8)) * 3.0
    want = [_union_nn(index, q) for q in queries]
    wrong, errors = [], []

    def worker():
        try:
            for q, expected in zip(queries, want):
                got = index.ann_search(q)
                if (got is None) != (expected is None) or got is not None and (
                        got[0].key() != expected[0].key()
                        or got[1] != expected[1]):
                    wrong.append(got)
        except Exception as e:  # collected and asserted on below
            errors.append(e)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-query too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(wrong) == 0
    if hash_bits == 0:
        assert want == [exact_nn(data, q) for q in queries]


def test_union_masks_of_two_threads_are_apart():
    # a union mask is the calling query's own array, so one thread's mask
    # is untouched by another thread's query; row r's negation hashes to
    # the complement of r's keys, so its union is every row but r
    data = _dataset(61, 600, 8, scale=3.0)
    index = build_index(8, 20, 1, seed=62)
    index.insert_dataset(data)
    first, second = (index._hits(-data.matrix_f64()[r])[1] for r in (0, 1))
    mask = index._union(first)
    other = []
    thread = threading.Thread(
        target=lambda: other.append(index._union(second).copy()))
    thread.start()
    thread.join()
    assert np.flatnonzero(~mask).tolist() == [0]
    assert np.flatnonzero(~other[0]).tolist() == [1]


def test_every_truncated_snapshot_raises_parse_error(tmp_path):
    data = _dataset(71, 100, 3)
    path = tmp_path / "cut.idx"
    for hash_bits in (4, 0, 65):  # keys of 1, 0 and 9 bytes
        index = build_index(3, 3, hash_bits, seed=72)
        index.insert_dataset(data)
        raw = _snapshot(index, tmp_path)
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ParseError) as exc:
                load_index(path, data)
            assert exc.value.offset is None or exc.value.offset <= cut


def _count_offsets(raw: bytes, table: int) -> tuple[int, list[int]]:
    """Byte offsets of a snapshot table's bucket count and of each of its
    buckets' entry counts, walked independently of lshauth."""
    dim, num_tables, k = struct.unpack_from("<III", raw, 16)
    off, key_bytes = hyperplane_section_length(dim) + 4, (k + 7) // 8
    for t in range(table + 1):
        table_at, counts_at = off, []
        (buckets,) = struct.unpack_from("<I", raw, off)
        off += 4
        for _ in range(buckets):
            counts_at.append(off + key_bytes)
            (count,) = struct.unpack_from("<I", raw, off + key_bytes)
            off += key_bytes + 4 + 8 * count
    return table_at, counts_at


@pytest.mark.parametrize("field", ["last bucket", "middle bucket",
                                   "bucket count"])
def test_hostile_counts_raise_before_allocating(tmp_path, field):
    # a count of 2^32 - 1 in table 1 claims ~34 GB of entries (or ~26 GB of
    # bucket heads); the load must find the file too short without
    # allocating anything sized from the count
    data = _dataset(73, 2000, 3)
    index = build_index(3, 3, 4, seed=74)
    index.insert_dataset(data)
    raw = bytearray(_snapshot(index, tmp_path))
    table_at, counts_at = _count_offsets(raw, 1)
    at = {"last bucket": counts_at[-1],
          "middle bucket": counts_at[len(counts_at) // 2],
          "bucket count": table_at}[field]
    raw[at:at + 4] = b"\xff" * 4
    path = tmp_path / "hostile.idx"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated table 1"):
            load_index(path, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(raw)


def _independent_snapshot(index) -> bytes:
    """`index`'s snapshot as `write_snapshot` writes it from the index's
    own buckets."""
    head = (INDEX_MAGIC
            + struct.pack("<QIII", index.seed, index.dim, index.num_tables,
                          index.hash_bits)
            + index.center.astype("<f8").tobytes())
    tables = [[(key, [divmod(int(index._ids[r]), 1 << 32) for r in rows])
               for key, rows in buckets.items()]
              for buckets in index._buckets]
    return write_snapshot(head, len(index), tables)


@pytest.mark.parametrize("hash_bits", [0, 1, 7, 8, 9, 16, 63, 64, 65, 256])
def test_save_writes_the_independent_layout(tmp_path, hash_bits):
    # keys of 0 to 32 bytes, uint64 (K <= 64) and Python ints (K > 64);
    # ids whose u32 halves use their top bits
    rng = np.random.Generator(np.random.PCG64(hash_bits))
    for num_tables in (1, 3, 20):
        for n in (0, 1, 300):
            data = Dataset(5, 2**31 + np.arange(n) % 7,
                           2**32 - 1 - np.arange(n) // 7,
                           rng.standard_normal((n, 5)).astype(np.float32))
            index = build_index(5, num_tables, hash_bits, seed=n + num_tables,
                                center=rng.standard_normal(5))
            index.insert_dataset(data)
            raw = _snapshot(index, tmp_path)
            assert raw == _independent_snapshot(index), (num_tables, n)
            loaded = load_index(tmp_path / "snap.idx", data)
            assert _snapshot(loaded, tmp_path, "again.idx") == raw


@pytest.mark.parametrize("hash_bits", [4, 65])
def test_permuted_buckets_and_entries_load_and_resave(tmp_path, hash_bits):
    data = _dataset(45, 200, 3)
    index = build_index(3, 3, hash_bits, seed=46)
    index.insert_dataset(data)
    raw = _snapshot(index, tmp_path)
    rng = np.random.Generator(np.random.PCG64(47))
    tables = [[(key, [entries[i] for i in rng.permutation(len(entries))])
               for key, entries in (buckets[i]
                                    for i in rng.permutation(len(buckets)))]
              for buckets in parse_snapshot(raw)]
    permuted = write_snapshot(raw[:hyperplane_section_length(3)], 200, tables)
    assert permuted != raw
    path = tmp_path / "permuted.idx"
    path.write_bytes(permuted)
    assert _snapshot(load_index(path, data), tmp_path, "again.idx") == permuted


def test_failed_save_leaves_an_existing_snapshot_unchanged(tmp_path,
                                                          monkeypatch):
    data = _dataset(49, 80, 4)
    index = build_index(4, 3, 5, seed=50)
    index.insert_dataset(data.subset(range(60)))
    raw = _snapshot(index, tmp_path)
    index.insert_dataset(data.subset(range(60, 80)))

    def broken(ids):
        raise RuntimeError("encoding failed")

    monkeypatch.setattr(lsh, "split_ids", broken)
    with pytest.raises(RuntimeError, match="encoding failed"):
        save_index(index, tmp_path / "snap.idx")
    assert (tmp_path / "snap.idx").read_bytes() == raw


def test_failed_insert_leaves_index_unchanged(tmp_path, monkeypatch):
    data = _dataset(81, 60, 4)
    queries = data.matrix[30:60]

    def broken(self, rows):
        raise RuntimeError("hashing failed")

    for hash_bits in (3, 0):  # K=0 queries take the dense branch
        index = build_index(4, 3, hash_bits, seed=82)
        index.insert_dataset(data.subset(range(40)))

        def state():
            found = [index.ann_search(q) for q in queries]
            return (len(index), index.candidates(queries[15]),
                    _snapshot(index, tmp_path),
                    [(r.key(), d) for r, d in filter(None, found)])

        before = state()
        monkeypatch.setattr(LshIndex, "keys", broken)
        with pytest.raises(RuntimeError):
            index.insert_dataset(data.subset(range(40, 60)))
        with pytest.raises(RuntimeError):
            index.insert(data.record(50))
        monkeypatch.undo()
        assert state() == before
        index.insert_dataset(data.subset(range(40, 60)))  # the retry succeeds
        assert len(index) == 60


def test_dropped_index_is_freed_without_the_cycle_collector():
    data = _dataset(91, 50, 4)
    gc.disable()
    try:
        index = build_index(4, 3, 3, seed=92)
        index.insert_dataset(data)
        index.ann_search(data.matrix[0])
        dup = index.copy()
        dup.ann_search(data.matrix[1])
        refs = [weakref.ref(index), weakref.ref(dup)]
        del index, dup
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
