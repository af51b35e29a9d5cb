"""Records, datasets, synthetic generation, splitting and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshauth.data import (Dataset, FingerprintRecord, SyntheticSpec,
                          TransmitterRegistry, TxStatus, concat_datasets,
                          first_repeat, generate_synthetic, split_dataset)
from lshauth.errors import NotRegisteredError, ValidationError


def test_record_rejects_non_finite():
    with pytest.raises(ValidationError):
        FingerprintRecord(1, 2, [1.0, float("nan")])
    with pytest.raises(ValidationError):
        FingerprintRecord(1, 2, [float("inf"), 0.0])


def test_record_ids_must_fit_u32():
    with pytest.raises(ValidationError):
        FingerprintRecord(2**32, 0, [1.0])
    with pytest.raises(ValidationError):
        FingerprintRecord(0, -1, [1.0])


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        Dataset(2, [1, 1], [0, 0], [[1, 2], [3, 4]])
    # the message names the repeated pair, not its neighbours
    with pytest.raises(ValidationError, match=r"= \(5, 2\)$"):
        Dataset(1, [9, 5, 1, 5], [0, 2, 7, 2], [[1], [2], [3], [4]])


def test_first_repeat_is_the_earliest_record_seen_before():
    ids = np.array([7, 3, 9, 3, 7, 1], dtype=np.uint64)
    assert first_repeat(ids) == 3
    assert first_repeat(ids[[0, 1, 2, 4]]) == 3
    assert first_repeat(ids[:3]) is None
    assert first_repeat(np.empty(0, dtype=np.uint64)) is None


def test_dataset_rejects_dim_mismatch():
    with pytest.raises(ValidationError):
        Dataset(3, [1], [0], [[1.0, 2.0]])


def test_dataset_iteration_order_is_insertion_order():
    data = Dataset(1, [5, 3, 9], [0, 0, 0], [[1.0], [2.0], [3.0]])
    assert [r.tx_id for r in data] == [5, 3, 9]


def test_filter_tx_keeps_dataset_order():
    tx = [3, 1, 3, 2, 1, 3, 4]
    data = Dataset(2, tx, range(len(tx)),
                   np.arange(2 * len(tx), dtype=np.float32).reshape(-1, 2))
    wanted = (t for t in (3, 9, 1, 2**32 - 1))  # includes absent ids
    assert data.filter_tx(wanted) == data.subset([0, 1, 2, 4, 5])
    assert len(data.filter_tx([])) == 0


def test_generate_counts():
    data = generate_synthetic(SyntheticSpec(num_tx=2, samples_per_tx=3, dim=4,
                                            seed=1))
    assert len(data) == 6
    assert data.dim == 4
    assert sorted(set(data.tx_ids.tolist())) == [0, 1]
    assert sorted(data.sample_ids[data.tx_ids == 0].tolist()) == [0, 1, 2]


def test_generate_zero_noise_degenerates_to_means():
    spec = SyntheticSpec(num_tx=3, samples_per_tx=4, dim=8, cluster_radius=7.5,
                         noise_sigma=0.0, seed=9)
    data = generate_synthetic(spec)
    for t in range(3):
        rows = data.matrix[data.tx_ids == t]
        assert np.all(rows == rows[0])
        assert abs(np.linalg.norm(rows[0].astype(np.float64)) - 7.5) < 1e-6


def test_generate_deterministic():
    spec = SyntheticSpec(num_tx=4, samples_per_tx=5, dim=6, seed=77)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a == b
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_generate_validates_fields():
    for bad in (dict(num_tx=0), dict(samples_per_tx=0), dict(dim=0),
                dict(cluster_radius=0.0), dict(noise_sigma=-1.0)):
        spec = SyntheticSpec(**{**dict(num_tx=1, samples_per_tx=1, dim=1), **bad})
        with pytest.raises(ValidationError) as exc:
            generate_synthetic(spec)
        assert list(bad)[0] in str(exc.value)


def _uniform_dataset(num_tx: int, samples: int, dim: int = 3, seed: int = 0):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = num_tx * samples
    return Dataset(dim,
                   np.repeat(np.arange(num_tx, dtype=np.uint32), samples),
                   np.tile(np.arange(samples, dtype=np.uint32), num_tx),
                   rng.standard_normal((n, dim)).astype(np.float32))


def test_split_forced_percentages():
    data = _uniform_dataset(11, 100)
    auth = list(range(10))
    # transmitter 10 plays the outlier set; 30 of its samples stand in
    data = data.subset(list(range(1000)) + list(range(1000, 1030)))
    reg = TransmitterRegistry()
    result = split_dataset(data, reg, auth, [], [10], seed=5)
    assert len(result.train) == 560
    assert len(result.val) == 140
    assert len(result.test) == 330
    assert len(result.combined_train_val) == 700


def test_split_floor_rule_single_sample():
    data = Dataset(2, [0, 1], [0, 0], [[0.0, 0.0], [1.0, 1.0]])
    result = split_dataset(data, TransmitterRegistry(), [0], [], [1], seed=0)
    assert len(result.combined_train_val) == 0
    assert len(result.test) == 2  # the authorized sample and the outlier one


def test_split_deterministic():
    data = _uniform_dataset(6, 20)
    def run():
        return split_dataset(data, TransmitterRegistry(), [0, 1, 2], [3],
                             [4, 5], seed=123)
    a, b = run(), run()
    assert a.train == b.train
    assert a.val == b.val
    assert a.test == b.test
    assert a.combined_train_val == b.combined_train_val


def test_split_registers_statuses():
    data = _uniform_dataset(4, 10)
    reg = TransmitterRegistry()
    split_dataset(data, reg, [0, 1], [2], [3], seed=0)
    assert reg.status_of(0) is TxStatus.AUTHORIZED
    assert reg.status_of(2) is TxStatus.KNOWN_OUTLIER
    assert not reg.is_registered(3)


def test_split_rejects_overlap_and_uncovered():
    data = _uniform_dataset(3, 5)
    with pytest.raises(ValidationError):
        split_dataset(data, TransmitterRegistry(), [0, 1], [1], [2], seed=0)
    with pytest.raises(ValidationError):
        split_dataset(data, TransmitterRegistry(), [0], [1], [], seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 3),
       st.integers(0, 3), st.integers(1, 12))
def test_split_partition_property(seed, n_auth, n_known, n_out, samples):
    num_tx = n_auth + n_known + n_out
    data = _uniform_dataset(num_tx, samples, seed=seed % 1000)
    auth = list(range(n_auth))
    known = list(range(n_auth, n_auth + n_known))
    out = list(range(n_auth + n_known, num_tx))
    result = split_dataset(data, TransmitterRegistry(), auth, known, out,
                           seed=seed)
    pool_expect = n_auth * int(np.floor(0.7 * samples)) + n_known * samples
    assert len(result.combined_train_val) == pool_expect
    assert len(result.train) == int(np.floor(0.8 * pool_expect))
    assert len(result.train) + len(result.val) == pool_expect
    test_expect = (n_auth * (samples - int(np.floor(0.7 * samples)))
                   + n_out * samples)
    assert len(result.test) == test_expect
    # no key in both the pool and the test side
    assert set(result.combined_train_val.ids.tolist()).isdisjoint(
        result.test.ids.tolist())
    assert (len(result.combined_train_val) + len(result.test)) == len(data)


def test_registry_last_write_wins_and_idempotence():
    reg = TransmitterRegistry()
    reg.set_status(7, TxStatus.AUTHORIZED)
    reg.set_status(7, TxStatus.REVOKED)
    assert reg.status_of(7) is TxStatus.REVOKED
    reg.set_status(7, TxStatus.REVOKED)
    assert reg.status_of(7) is TxStatus.REVOKED
    assert len(reg) == 1


def test_registry_unknown_id_errors():
    with pytest.raises(NotRegisteredError):
        TransmitterRegistry().status_of(3)


def test_concat_rejects_dim_mismatch():
    a = _uniform_dataset(1, 2, dim=3)
    b = _uniform_dataset(1, 2, dim=4)
    with pytest.raises(ValidationError):
        concat_datasets([a, b])


def test_dataset_matrix_is_immutable():
    data = _uniform_dataset(2, 2)
    with pytest.raises(ValueError):
        data.matrix[0, 0] = 5.0
