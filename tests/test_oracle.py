"""Brute-force nearest neighbor and the oracle decision."""

import time

import numpy as np
import pytest

from conftest import draw_queries, make_instance
from lshauth.authorize import Reason, Verdict, authorize
from lshauth.data import Dataset, TransmitterRegistry, TxStatus
from lshauth.errors import DimensionMismatchError
from lshauth.lsh import build_index
from lshauth.oracle import exact_nn, oracle_authorize


def test_exact_nn_empty():
    assert exact_nn(Dataset.empty(3), np.zeros(3)) is None


def test_exact_nn_singleton():
    data = Dataset(2, [4], [7], [[3.0, 4.0]])
    record, dist = exact_nn(data, np.zeros(2))
    assert record.key() == (4, 7)
    assert dist == 5.0


def test_exact_nn_tie_breaks_to_smaller_ids():
    data = Dataset(1, [9, 2, 2], [0, 5, 1], [[1.0], [-1.0], [1.0]])
    record, dist = exact_nn(data, np.zeros(1))
    assert dist == 1.0
    assert record.key() == (2, 1)
    # across the word boundary of the packed ids: (1, 2^32 - 1) < (2, 0),
    # in the brute-force scan and in the index alike
    data = Dataset(1, [2, 1], [0, 2**32 - 1], [[1.0], [-1.0]])
    index = build_index(1, 2, 0, seed=0)
    index.insert_dataset(data)
    for record, dist in (exact_nn(data, np.zeros(1)),
                         index.ann_search(np.zeros(1))):
        assert (record.key(), dist) == ((1, 2**32 - 1), 1.0)


def test_exact_nn_dim_mismatch():
    data = Dataset(2, [0], [0], [[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        exact_nn(data, np.zeros(3))


def test_oracle_authorize_empty_dataset():
    decision = oracle_authorize(Dataset.empty(2), TransmitterRegistry(),
                                np.zeros(2))
    assert decision.verdict is Verdict.REJECT
    assert decision.reason is Reason.NO_NEIGHBOR
    assert decision.evidence is None


def test_oracle_authorize_accepts_authorized_neighbor():
    data = Dataset(2, [3], [0], [[1.0, 0.0]])
    registry = TransmitterRegistry()
    registry.set_status(3, TxStatus.AUTHORIZED)
    decision = oracle_authorize(data, registry, [0.9, 0.1])
    assert decision.verdict is Verdict.ACCEPT
    assert decision.evidence.tx_id == 3


def test_oracle_matches_k0_index_on_random_instance():
    data, registry, rng = make_instance(seed=2024, max_records=200)
    index = build_index(data.dim, 2, 0, seed=5)
    index.insert_dataset(data)
    queries = draw_queries(rng, data, 1000)
    for q in queries:
        assert authorize(index, registry, q) == oracle_authorize(data, registry, q)


def test_exact_nn_never_beats_ann():
    data, _, rng = make_instance(seed=31337, max_records=400)
    index = build_index(data.dim, 3, 4, seed=8)
    index.insert_dataset(data)
    for q in draw_queries(rng, data, 300):
        ann = index.ann_search(q)
        exact = exact_nn(data, q)
        if ann is not None:
            assert exact[1] <= ann[1]


def test_exact_nn_wall_time_linear():
    """Doubling N multiplies median scan time by roughly 2 at N >= 1e5."""
    rng = np.random.Generator(np.random.PCG64(909))
    dim = 64  # large enough that both scan sizes stream from main memory
    big = Dataset(dim, np.arange(200_000, dtype=np.uint32) % 997,
                  np.arange(200_000, dtype=np.uint32) // 997,
                  rng.standard_normal((200_000, dim)).astype(np.float32))
    half = big.subset(range(100_000))
    query = rng.standard_normal(dim)
    exact_nn(half, query), exact_nn(big, query)  # warm caches

    # interleave sides and take minima so transient load cannot bias one side
    big_times, half_times = [], []
    for _ in range(9):
        t0 = time.perf_counter_ns()
        exact_nn(big, query)
        big_times.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        exact_nn(half, query)
        half_times.append(time.perf_counter_ns() - t0)
    ratio = min(big_times) / min(half_times)
    assert 1.6 <= ratio <= 2.6
