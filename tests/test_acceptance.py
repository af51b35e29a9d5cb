"""Acceptance suite.

One test per release criterion, each at its stated tolerance; the terminal
summary prints a PASS/FAIL line per criterion (see conftest). Scaled-down
quantitative checks run on synthetic embeddings; the structural properties
(oracle equivalence, soundness, invariance under revocation, determinism)
are exact.
"""

import math
import statistics
from dataclasses import replace
from fractions import Fraction

import numpy as np

from conftest import draw_queries, make_instance
from lshauth import bench
from lshauth.authorize import (Reason, Verdict, authorize, authorize_batch,
                               enroll, revoke)
from lshauth.bench import (ExperimentConfig, apply_addition,
                           build_initial_state, latency_summary,
                           run_add_auth_sweep, time_block)
from lshauth.costmodel import (CostParams, measured_scan_fraction,
                               optimal_hash_size, predict_inference_cost)
from lshauth.data import (Dataset, TransmitterRegistry, TxStatus,
                          generate_synthetic, SyntheticSpec)
from lshauth.dimreduce import fit_pca, load_projector, save_projector
from lshauth.formats import load_dataset, save_dataset
from lshauth.lsh import (build_index, hyperplane_section_length, load_index,
                         save_index)
from lshauth.oracle import exact_nn, oracle_authorize


def test_c01_oracle_equivalence_k0():
    """authorize with an exhaustive (0-bit) index equals the oracle decision
    on 100% of queries across 50 random instances."""
    for i in range(50):
        data, registry, rng = make_instance(seed=9000 + i)
        index = build_index(data.dim, 1 + i % 3, 0, seed=i)
        index.insert_dataset(data)
        for q in draw_queries(rng, data, 1000):
            assert authorize(index, registry, q) \
                == oracle_authorize(data, registry, q)


def test_c02_ann_soundness():
    """ann distance never beats the exhaustive scan, and ann is exactly the
    argmin over the candidate union, across the K x L grid."""
    for i in range(50):
        data, registry, rng = make_instance(seed=9000 + i)
        hash_bits = 1 + i % 8
        num_tables = 1 + i % 5
        index = build_index(data.dim, num_tables, hash_bits, seed=i)
        index.insert_dataset(data)
        for q in draw_queries(rng, data, 1000):
            ann = index.ann_search(q)
            candidates = index.candidates(q)
            if ann is None:
                assert candidates == []
                continue
            exact = exact_nn(data, q)
            assert ann[1] >= exact[1]
            sub = Dataset.from_records(candidates, dim=data.dim)
            independent = exact_nn(sub, q)
            assert ann[0].key() == independent[0].key()
            assert ann[1] == independent[1]


def test_c03_collision_probability_law():
    """Empirical per-bit collision rate over 20,000 hyperplanes within
    +/- 0.02 of 1 - angle/pi."""
    dim = 8
    for j, theta in enumerate((math.pi / 8, math.pi / 4, math.pi / 2,
                               3 * math.pi / 4)):
        u = np.zeros(dim)
        u[0] = 1.0
        v = np.zeros(dim)
        v[0], v[1] = math.cos(theta), math.sin(theta)
        index = build_index(dim, 100, 200, seed=60_000 + j)
        bits_u = index.hyperplanes @ (u - index.center) >= 0.0
        bits_v = index.hyperplanes @ (v - index.center) >= 0.0
        assert bits_u.size == 20_000
        rate = float(np.sum(bits_u == bits_v)) / 20_000
        assert abs(rate - (1 - theta / math.pi)) < 0.02, theta


def test_c04_paper_config_add_sweep():
    """Default-shaped instance (10 authorized, 15 known outliers, 30
    outliers, radius/noise = 10, 20 tables of 1 bit): every sweep cell
    reaches accuracy >= 0.95 and >= 99% oracle agreement."""
    config = ExperimentConfig(seed=0)
    assert (config.num_authorized, config.num_known_outliers,
            config.num_outliers) == (10, 15, 30)
    assert config.cluster_radius / config.noise_sigma == 10.0
    assert (config.num_tables, config.hash_bits) == (20, 1)
    assert config.add_counts == (5, 10, 15, 20)

    state = build_initial_state(config)
    cell_accuracy = {}
    for count in config.add_counts:
        ev = apply_addition(state, count)
        cell_accuracy[count] = ev.metrics.accuracy
        assert ev.metrics.accuracy >= 0.95, count
        indexed = ev.index.indexed_dataset()
        agree = sum(
            oracle_authorize(indexed, ev.registry, ev.queries.matrix[i])
            == ev.decisions[i]
            for i in range(len(ev.queries)))
        assert agree / len(ev.queries) >= 0.99, count

    rows = run_add_auth_sweep(config)
    assert [r["n_added"] for r in rows] == list(config.add_counts)
    for row in rows:
        assert row["accuracy"] == cell_accuracy[row["n_added"]]


def test_c05_retraining_linearity():
    """Enroll wall time scales linearly with sample count (4x batch within
    [2.5, 6.0]) and hyperplane state is byte-stable under enrollment."""
    dim = 64
    base_data = generate_synthetic(SyntheticSpec(
        num_tx=10, samples_per_tx=200, dim=dim, seed=71))
    base = build_index(dim, 20, 1, seed=72)
    base.insert_dataset(base_data)
    base.reserve(20_000)  # keep capacity growth out of the timed region
    registry = TransmitterRegistry()
    registry.set_status(range(10), TxStatus.AUTHORIZED)

    def batch(num_tx: int, samples: int, seed: int, tx_offset: int) -> Dataset:
        raw = generate_synthetic(SyntheticSpec(
            num_tx=num_tx, samples_per_tx=samples, dim=dim, seed=seed))
        return Dataset(dim, raw.tx_ids + np.uint32(tx_offset),
                       raw.sample_ids, raw.matrix)

    small = batch(5, 800, seed=73, tx_offset=100)  # 4000 records
    large = batch(20, 800, seed=74, tx_offset=200)  # 16000 records

    def best_enroll(addition: Dataset, tx_ids) -> float:
        times = []
        for _ in range(7):
            index = base.copy()
            reg = registry.copy()
            times.append(time_block(
                lambda: enroll(index, reg, addition, tx_ids)))
        return min(times)  # wall-clock noise is one-sided

    # untimed warm-up settles allocator and frequency state
    for addition, ids in ((large, range(200, 220)), (small, range(100, 105))):
        index, reg = base.copy(), registry.copy()
        enroll(index, reg, addition, ids)
    ratios = []
    for _ in range(3):  # interleave sides against slow drift
        ratios.append(best_enroll(large, range(200, 220))
                      / best_enroll(small, range(100, 105)))
    ratio = statistics.median(ratios)
    assert 2.5 <= ratio <= 6.0, ratios

    planes_before = base.hyperplanes.copy()
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        p1, p2 = os.path.join(td, "pre.idx"), os.path.join(td, "post.idx")
        save_index(base, p1)
        enroll(base, registry, small, range(100, 105))
        save_index(base, p2)
        n = hyperplane_section_length(dim)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read(n) == f2.read(n)
    assert np.array_equal(base.hyperplanes, planes_before)


def test_c06_revocation_invariance(tmp_path):
    """Revocation leaves the serialized index byte-identical and flips
    exactly the decisions whose evidence transmitter was revoked."""
    config = ExperimentConfig(seed=21, dim=16, num_authorized=3,
                              num_known_outliers=2, num_outliers=4,
                              samples_per_tx=30, num_tables=4, hash_bits=2,
                              add_counts=(2,))
    state = build_initial_state(config)
    ev = apply_addition(state, 2)
    revoked = {state.authorized_ids[0], ev.added_ids[0]}

    pre_path, post_path = tmp_path / "pre.idx", tmp_path / "post.idx"
    save_index(ev.index, pre_path)
    pre_decisions = ev.decisions
    revoke(ev.registry, sorted(revoked))
    save_index(ev.index, post_path)
    assert pre_path.read_bytes() == post_path.read_bytes()

    post_decisions, _ = authorize_batch(ev.index, ev.registry, ev.queries)
    flipped = 0
    for before, after in zip(pre_decisions, post_decisions):
        if (before.verdict is Verdict.ACCEPT
                and before.evidence.tx_id in revoked):
            assert after.verdict is Verdict.REJECT
            assert after.reason is Reason.NEIGHBOR_REVOKED
            assert after.evidence == before.evidence
            flipped += 1
        else:
            assert after == before
    assert flipped > 0  # the check must actually exercise flips


def test_c07_cost_model():
    """Optimal hash size at 1e4 records, exact closed-form costs, and the
    measured scan fraction within 3x of the even-bucket prediction."""
    assert optimal_hash_size(10**4) in (12, 13)

    rng = np.random.Generator(np.random.PCG64(404))
    for _ in range(20):
        num_tables = int(rng.integers(1, 65))
        hash_bits = int(rng.integers(0, 13))
        dim = int(rng.integers(1, 513))
        size = int(rng.integers(0, 1_000_001))
        got = predict_inference_cost(CostParams(num_tables, hash_bits, dim,
                                                size))
        exact = (Fraction(num_tables)
                 * (Fraction(dim * hash_bits)
                    + Fraction(dim * size, 2 ** hash_bits)))
        assert got == float(exact)

    dim, size = 64, 4096
    gen = np.random.Generator(np.random.PCG64(505))
    data = Dataset(dim, np.arange(size, dtype=np.uint32) % 97,
                   np.arange(size, dtype=np.uint32) // 97,
                   gen.standard_normal((size, dim)).astype(np.float32))
    queries = Dataset(dim, np.arange(200, dtype=np.uint32) + 10_000,
                      np.zeros(200, np.uint32),
                      gen.standard_normal((200, dim)).astype(np.float32))
    max_bits = int(math.log2(size)) - 2
    for bits in range(1, max_bits + 1):
        index = build_index(dim, 1, bits, seed=606)
        index.insert_dataset(data)
        fraction = measured_scan_fraction(index, queries)
        ideal = 1.0 / 2 ** bits
        assert ideal / 3 <= fraction <= ideal * 3, bits


def test_c08_latency_trend():
    """On a 1e5-record uniform index at fixed table count, 15-bit keys cut
    mean query latency at least 2x versus 5-bit keys."""
    dim, size = 64, 100_000
    rng = np.random.Generator(np.random.PCG64(707))
    data = Dataset(dim, np.arange(size, dtype=np.uint32) % 1009,
                   np.arange(size, dtype=np.uint32) // 1009,
                   rng.standard_normal((size, dim)).astype(np.float32))
    registry = TransmitterRegistry()
    registry.set_status(range(1009), TxStatus.AUTHORIZED)
    queries = Dataset(dim, np.arange(1100, dtype=np.uint32) + 100_000,
                      np.zeros(1100, np.uint32),
                      rng.standard_normal((1100, dim)).astype(np.float32))

    means = {}
    for bits in (5, 15):
        index = build_index(dim, 1, bits, seed=708)
        index.insert_dataset(data)
        _, latencies = authorize_batch(index, registry, queries)
        means[bits], _ = latency_summary(latencies)
    assert means[5] >= 2.0 * means[15], means


def test_c09_dimensionality_reduction():
    """PCA rows orthonormal within 1e-6; reconstruction error non-increasing
    in the output dim; 64 -> 16 costs at most 0.02 accuracy while cutting
    mean latency at least 1.5x."""
    # enough transmitters that 16 components sit inside cluster structure
    # rather than the near-degenerate noise bulk
    base_config = ExperimentConfig(seed=31, dim=64, num_authorized=10,
                                   num_known_outliers=6, num_outliers=10,
                                   samples_per_tx=400, num_tables=1,
                                   hash_bits=1, add_counts=(0,),
                                   dimred_out=16)
    state = build_initial_state(base_config)
    pool = state.split.combined_train_val

    projector = fit_pca(pool, 16)
    gram = projector.matrix @ projector.matrix.T
    assert np.max(np.abs(gram - np.eye(16))) < 1e-6

    x = pool.matrix_f64()
    centered = x - x.mean(axis=0)
    previous = None
    for out_dim in (2, 6, 10, 16):
        p = fit_pca(pool, out_dim)
        low = centered @ p.matrix.T
        err = float(np.mean((centered - low @ p.matrix) ** 2))
        if previous is not None:
            assert err <= previous + 1e-9
        previous = err

    ev_base = apply_addition(state, 0)
    dimred_config = replace(base_config, scheme="lsh_dimred")
    ev_dimred = apply_addition(build_initial_state(dimred_config), 0)

    accuracy_drop = ev_base.metrics.accuracy - ev_dimred.metrics.accuracy
    assert accuracy_drop <= 0.02, accuracy_drop
    assert ev_base.metrics.mean_latency_ns \
        >= 1.5 * ev_dimred.metrics.mean_latency_ns, \
        (ev_base.metrics.mean_latency_ns, ev_dimred.metrics.mean_latency_ns)


def test_c10_determinism_and_formats(tmp_path):
    """Identical configs give identical decision outputs; every snapshot
    format round-trips bit-exactly."""
    config = ExperimentConfig(seed=13, dim=8, num_authorized=2,
                              num_known_outliers=2, num_outliers=3,
                              samples_per_tx=12, num_tables=3, hash_bits=1,
                              add_counts=(0, 2))
    first = run_add_auth_sweep(config)
    second = run_add_auth_sweep(config)
    timing = set(bench.ADD_SWEEP_TIMING_COLUMNS)
    for a, b in zip(first, second):
        for column in bench.ADD_SWEEP_COLUMNS:
            if column not in timing:
                assert a[column] == b[column]

    state = build_initial_state(config)
    ev = apply_addition(state, 2)
    again = apply_addition(state, 2)
    assert ev.decisions == again.decisions

    data = state.data
    for fmt in ("bin", "csv"):
        p1 = tmp_path / f"d1.{fmt}"
        p2 = tmp_path / f"d2.{fmt}"
        save_dataset(data, p1, fmt)
        save_dataset(load_dataset(p1, fmt), p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()

    indexed = ev.index.indexed_dataset()
    i1, i2 = tmp_path / "i1.idx", tmp_path / "i2.idx"
    save_index(ev.index, i1)
    save_index(load_index(i1, indexed), i2)
    assert i1.read_bytes() == i2.read_bytes()

    projector = fit_pca(state.split.combined_train_val, 4)
    j1, j2 = tmp_path / "p1.prj", tmp_path / "p2.prj"
    save_projector(projector, j1)
    save_projector(load_projector(j1), j2)
    assert j1.read_bytes() == j2.read_bytes()
