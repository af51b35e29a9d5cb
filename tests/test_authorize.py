"""Two-step decisions, batch evaluation, enroll and revoke."""

import numpy as np
import pytest

from conftest import draw_queries, make_instance, parse_snapshot
from lshauth.authorize import (AuthDecision, Evidence, Reason, Verdict,
                               authorize, authorize_batch, enroll, revoke)
from lshauth.data import Dataset, TransmitterRegistry, TxStatus
from lshauth.errors import (DuplicateRecordError, NotRegisteredError,
                            ValidationError)
from lshauth.lsh import build_index, save_index
from lshauth.oracle import oracle_authorize


def _cluster(tx: int, center, n: int, seed: int, sigma: float = 0.3) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    center = np.asarray(center, dtype=np.float64)
    rows = center + sigma * rng.standard_normal((n, center.shape[0]))
    return Dataset(center.shape[0], [tx] * n, list(range(n)),
                   rows.astype(np.float32))


def test_decision_invariants_enforced():
    with pytest.raises(ValidationError):
        AuthDecision(Verdict.ACCEPT, Reason.NO_NEIGHBOR, None)
    with pytest.raises(ValidationError):
        AuthDecision(Verdict.REJECT, Reason.NEIGHBOR_AUTHORIZED,
                     Evidence(1, 1, 0.0))
    with pytest.raises(ValidationError):
        AuthDecision(Verdict.REJECT, Reason.NO_NEIGHBOR, Evidence(1, 1, 0.0))
    with pytest.raises(ValidationError):
        AuthDecision(Verdict.REJECT, Reason.NEIGHBOR_REVOKED, None)


def test_authorize_empty_index_rejects_no_neighbor():
    index = build_index(3, 2, 2, seed=0)
    decision = authorize(index, TransmitterRegistry(), np.zeros(3))
    assert decision == AuthDecision(Verdict.REJECT, Reason.NO_NEIGHBOR, None)


def test_authorize_known_outlier_only_index():
    data = _cluster(5, [1.0, 1.0], 20, seed=1)
    registry = TransmitterRegistry()
    registry.set_status(5, TxStatus.KNOWN_OUTLIER)
    index = build_index(2, 3, 1, seed=2)
    index.insert_dataset(data)
    decision = authorize(index, registry, [1.0, 1.0])
    assert decision.verdict is Verdict.REJECT
    assert decision.reason is Reason.NEIGHBOR_KNOWN_OUTLIER


def test_three_cluster_decisions_match_oracle():
    dim = 8
    auth = _cluster(1, [10.0] + [0.0] * (dim - 1), 30, seed=3)
    known = _cluster(2, [-10.0] + [0.0] * (dim - 1), 30, seed=4)
    indexed = Dataset(dim,
                      np.concatenate([auth.tx_ids, known.tx_ids]),
                      np.concatenate([auth.sample_ids, known.sample_ids]),
                      np.concatenate([auth.matrix, known.matrix]))
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.AUTHORIZED)
    registry.set_status(2, TxStatus.KNOWN_OUTLIER)
    index = build_index(dim, 4, 2, seed=5)
    index.insert_dataset(indexed)

    rng = np.random.Generator(np.random.PCG64(6))
    unseen_center = np.zeros(dim)
    unseen_center[0] = -10.0  # third cluster: separated, nearest to known
    unseen_center[1] = 6.0
    cases = [
        (np.array([10.0] + [0.0] * (dim - 1)), Verdict.ACCEPT),
        (np.array([-10.0] + [0.0] * (dim - 1)), Verdict.REJECT),
        (unseen_center, Verdict.REJECT),
    ]
    for center, verdict in cases:
        for _ in range(20):
            q = center + 0.3 * rng.standard_normal(dim)
            decision = authorize(index, registry, q)
            oracle = oracle_authorize(indexed, registry, q)
            assert decision.verdict is verdict
            # the hash index may return a different same-cluster record;
            # the decision itself must agree with the exhaustive scan
            assert (decision.verdict, decision.reason) == \
                (oracle.verdict, oracle.reason)


def test_authorize_unregistered_neighbor_raises():
    data = _cluster(9, [0.0, 0.0], 5, seed=7)
    index = build_index(2, 2, 1, seed=8)
    index.insert_dataset(data)
    with pytest.raises(NotRegisteredError):
        authorize(index, TransmitterRegistry(), [0.0, 0.0])


# -- enroll -------------------------------------------------------------------

def test_enroll_bookkeeping():
    base = _cluster(1, [5.0, 0.0], 10, seed=9)
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.AUTHORIZED)
    index = build_index(2, 2, 2, seed=10)
    index.insert_dataset(base)
    new = _cluster(2, [-5.0, 0.0], 10, seed=11)
    enroll(index, registry, new, [2])
    assert index.size == 20
    assert registry.status_of(2) is TxStatus.AUTHORIZED


def test_enroll_empty_records_is_status_change_only():
    index = build_index(2, 2, 2, seed=12)
    registry = TransmitterRegistry()
    enroll(index, registry, Dataset.empty(2), [4])
    assert index.size == 0
    assert registry.status_of(4) is TxStatus.AUTHORIZED


def test_enrolled_vector_accepts_at_distance_zero():
    base = _cluster(1, [5.0, 0.0], 10, seed=13)
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.AUTHORIZED)
    index = build_index(2, 3, 2, seed=14)
    index.insert_dataset(base)
    new = _cluster(2, [0.0, 5.0], 10, seed=15)
    enroll(index, registry, new, [2])
    q = new.matrix[3]
    decision = authorize(index, registry, q)
    assert decision.verdict is Verdict.ACCEPT
    assert decision.evidence.distance == 0.0
    assert decision.evidence.tx_id == 2
    assert decision == oracle_authorize(index.indexed_dataset(), registry, q)


def test_enroll_rejects_stray_records():
    index = build_index(2, 2, 1, seed=16)
    registry = TransmitterRegistry()
    new = _cluster(3, [0.0, 0.0], 4, seed=17)
    with pytest.raises(ValidationError):
        enroll(index, registry, new, [4])
    assert not registry.is_registered(3)
    assert not registry.is_registered(4)


def test_enroll_rolls_back_registry_on_duplicate():
    base = _cluster(1, [1.0, 1.0], 6, seed=18)
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.AUTHORIZED)
    index = build_index(2, 2, 1, seed=19)
    index.insert_dataset(base)
    dup = Dataset(2, [1, 7], [0, 0],
                  [[2.0, 2.0], [3.0, 3.0]])  # (1, 0) already indexed
    with pytest.raises(DuplicateRecordError):
        enroll(index, registry, dup, [1, 7])
    assert index.size == 6
    assert not registry.is_registered(7)
    assert registry.status_of(1) is TxStatus.AUTHORIZED


def test_enroll_is_append_only(tmp_path):
    base = _cluster(1, [4.0, 0.0], 15, seed=20)
    index = build_index(2, 3, 3, seed=21)
    index.insert_dataset(base)
    save_index(index, tmp_path / "before.idx")
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.AUTHORIZED)
    new = _cluster(2, [0.0, 4.0], 15, seed=22)
    enroll(index, registry, new, [2])
    save_index(index, tmp_path / "after.idx")
    before = parse_snapshot((tmp_path / "before.idx").read_bytes())
    after = parse_snapshot((tmp_path / "after.idx").read_bytes())
    for old_table, new_table in zip(before, after):
        # old buckets keep their place, and each old bucket is a prefix
        assert len(new_table) >= len(old_table)
        for (key, entries), (new_key, new_entries) in zip(old_table,
                                                          new_table):
            assert new_key == key
            assert new_entries[:len(entries)] == entries
            assert all(tx == 2 for tx, _ in new_entries[len(entries):])


def test_enrollment_locality():
    """Queries whose candidate sets exclude new records keep their decisions."""
    data, registry, rng = make_instance(seed=808, max_records=300)
    index = build_index(data.dim, 2, 6, seed=23)
    index.insert_dataset(data)
    queries = draw_queries(rng, data, 200)
    before = [authorize(index, registry, q) for q in queries]

    new_tx = max(data.transmitters()) + 1
    center = rng.standard_normal(data.dim) * 30
    new = _cluster(new_tx, center, 12, seed=24)
    enroll(index, registry, new, [new_tx])
    new_keys = {r.key() for r in new}
    for q, old in zip(queries, before):
        cand_keys = {c.key() for c in index.candidates(q)}
        if not (cand_keys & new_keys):
            assert authorize(index, registry, q) == old


# -- revoke -------------------------------------------------------------------

def _enrolled_world():
    auth = _cluster(1, [6.0, 0.0], 12, seed=25)
    other = _cluster(2, [0.0, 6.0], 12, seed=26)
    registry = TransmitterRegistry()
    registry.set_status([1, 2], TxStatus.AUTHORIZED)
    index = build_index(2, 3, 1, seed=27)
    index.insert_dataset(auth)
    index.insert_dataset(other)
    return index, registry


def test_revoke_flips_decisions_to_neighbor_revoked():
    index, registry = _enrolled_world()
    q = [0.0, 6.0]
    assert authorize(index, registry, q).verdict is Verdict.ACCEPT
    revoke(registry, [2])
    decision = authorize(index, registry, q)
    assert decision.verdict is Verdict.REJECT
    assert decision.reason is Reason.NEIGHBOR_REVOKED


def test_revoke_leaves_index_untouched(tmp_path):
    index, registry = _enrolled_world()
    before_stats = index.bucket_stats()
    p1, p2 = tmp_path / "pre.idx", tmp_path / "post.idx"
    save_index(index, p1)
    revoke(registry, [1])
    save_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()
    after_stats = index.bucket_stats()
    for a, b in zip(before_stats.per_table, after_stats.per_table):
        assert a.occupancy_histogram == b.occupancy_histogram


def test_revoke_then_reenroll_restores_accept():
    index, registry = _enrolled_world()
    revoke(registry, [2])
    assert authorize(index, registry, [0.0, 6.0]).verdict is Verdict.REJECT
    enroll(index, registry, Dataset.empty(2), [2])
    assert authorize(index, registry, [0.0, 6.0]).verdict is Verdict.ACCEPT


def test_revoke_requires_authorized_status():
    registry = TransmitterRegistry()
    registry.set_status(1, TxStatus.KNOWN_OUTLIER)
    with pytest.raises(ValidationError):
        revoke(registry, [1])
    with pytest.raises(NotRegisteredError):
        revoke(registry, [99])


# -- batch --------------------------------------------------------------------

def test_batch_empty():
    index = build_index(2, 1, 1, seed=28)
    decisions, latencies = authorize_batch(index, TransmitterRegistry(),
                                           Dataset.empty(2))
    assert decisions == [] and latencies == []


def test_batch_identical_queries_identical_decisions():
    index, registry = _enrolled_world()
    queries = Dataset(2, [100, 100], [0, 1], [[6.0, 0.0], [6.0, 0.0]])
    decisions, latencies = authorize_batch(index, registry, queries)
    assert decisions[0] == decisions[1]
    assert len(latencies) == 2


def test_batch_matches_single_calls():
    data, registry, rng = make_instance(seed=515, max_records=250)
    index = build_index(data.dim, 2, 3, seed=29)
    index.insert_dataset(data)
    queries = draw_queries(rng, data, 120)
    qds = Dataset(data.dim, list(range(1000, 1120)), [0] * 120,
                  queries.astype(np.float32))
    batch, _ = authorize_batch(index, registry, qds)
    single = [authorize(index, registry, qds.matrix[i]) for i in range(120)]
    assert batch == single
