"""Tests of the benchmark itself:  PYTHONPATH=src python -m pytest lshbench"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from lshauth import (AuthDecision, Dataset, Evidence, Reason,  # noqa: E402
                     SyntheticSpec, Verdict, authorize, build_index, exact_nn,
                     generate_synthetic)

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered_ns, self_times  # noqa: E402
from stats import nearest_rank, samples_beyond, tail  # noqa: E402


@pytest.fixture(scope="module")
def data() -> Dataset:
    return generate_synthetic(SyntheticSpec(num_tx=6, samples_per_tx=40, dim=8,
                                            seed=3))


def queries(n: int, dim: int = 8) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(11))
    return (rng.standard_normal((n, dim)) * 10).astype(np.float32)


def reference_for(data: Dataset, num_tables: int, hash_bits: int, seed: int,
                  center) -> ref.ReferenceLsh:
    lsh = ref.ReferenceLsh(seed, num_tables, hash_bits, data.dim, center)
    return lsh.extended(data.tx_ids, data.sample_ids, data.matrix)


def test_reference_matches_exact_nn_on_a_zero_bit_index(data):
    lsh = reference_for(data, 3, 0, 5, np.zeros(data.dim))
    qs = queries(50)
    found, counts = lsh.neighbors(qs)
    assert counts == [len(data)] * len(qs)
    for q, nb in zip(qs, found):
        rec, dist = exact_nn(data, q)
        assert (nb.tx_id, nb.sample_id) == (rec.tx_id, rec.sample_id)
        assert nb.distance == pytest.approx(dist, rel=ref.DIST_RTOL)


def test_reference_matches_the_index_and_its_candidate_counts(data):
    center = data.matrix_f64().mean(axis=0)
    index = build_index(data.dim, 4, 3, seed=9, center=center)
    index.insert_dataset(data)
    lsh = reference_for(data, 4, 3, 9, center)
    qs = queries(200)
    found, counts = lsh.neighbors(qs)
    assert any(c < len(data) for c in counts)
    for q, nb, count in zip(qs, found, counts):
        assert index.candidate_count(q) == count
        got = index.ann_search(q)
        if nb is None:
            assert got is None
        else:
            assert (got[0].tx_id, got[0].sample_id) == (nb.tx_id, nb.sample_id)


def test_reference_exact_ties_go_to_the_smallest_ids():
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    lsh = ref.ReferenceLsh(0, 1, 0, 2, np.zeros(2)).extended(
        [7, 3, 1], [0, 4, 0], vectors)
    (nb,), _ = lsh.neighbors([[0.0, 0.0]])
    assert (nb.tx_id, nb.sample_id) == (3, 4)


def test_nearest_rank_and_its_sample_count_rule():
    values = list(range(1, 1001))
    assert nearest_rank(values, 50) == 500
    assert nearest_rank(values, 99) == 990
    assert nearest_rank([5.0], 99) == 5.0
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert tail(values, 99) == 990
    with pytest.raises(ValueError):
        tail(values[:999], 99)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("parent", 0, 100, -1, 1),
        Span("a", 10, 30, 0, 1),
        Span("b", 20, 50, 0, 1),  # overlaps a: 10..50 is covered once
        Span("c", 90, 120, 0, 1),  # clipped to the parent's end
        Span("grandchild", 12, 18, 1, 1),
    ]
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert self_times(spans) == [50, 14, 30, 30, 6]


def test_tracer_nests_spans_and_shares_operation_ids():
    tracer = Tracer()
    tracer.new_op()

    def inner():
        return tracer.run("inner", lambda: 7)[0]

    out, seconds = tracer.run("outer", inner)
    assert out == 7 and seconds >= 0
    outer, inner_span = tracer.spans
    assert (outer.name, outer.parent) == ("outer", -1)
    assert (inner_span.name, inner_span.parent) == ("inner", 0)
    assert outer.op == inner_span.op == 1
    own = self_times(tracer.spans)
    assert own[0] == outer.duration_ns - inner_span.duration_ns


def test_a_wrong_decision_is_counted_as_failed(data):
    center = data.matrix_f64().mean(axis=0)
    index = build_index(data.dim, 3, 2, seed=4, center=center)
    index.insert_dataset(data)
    lsh = reference_for(data, 3, 2, 4, center)
    qs = data.matrix[:30]
    statuses = {t: ref.AUTHORIZED if t < 3 else ref.KNOWN_OUTLIER
                for t in data.transmitters()}
    registry = workloads.program_registry(statuses)
    decisions = [authorize(index, registry, q) for q in qs]
    found, counts = lsh.neighbors(qs)
    step = workloads.StepReference(lsh, found, counts, list(qs), len(lsh))
    owner = types.SimpleNamespace(tally=ref.Tally())

    workloads.Workload.check_decisions(owner, decisions, step, statuses, "ok")
    assert (owner.tally.attempted, owner.tally.failed) == (31, 0)

    first = decisions[0]  # a sample of transmitter 0, which is authorized
    assert first.verdict is Verdict.ACCEPT
    decisions[0] = AuthDecision(Verdict.REJECT, Reason.NEIGHBOR_KNOWN_OUTLIER,
                                first.evidence)
    ev = decisions[1].evidence
    decisions[1] = AuthDecision(decisions[1].verdict, decisions[1].reason,
                                Evidence(ev.tx_id, ev.sample_id, ev.distance + 1.0))
    workloads.Workload.check_decisions(owner, decisions, step, statuses, "wrong")
    assert (owner.tally.attempted, owner.tally.failed) == (62, 2)
    assert owner.tally.messages == ["wrong query 0", "wrong query 1"]


def test_reference_neighbours_come_back_from_the_child_process(data):
    lsh = reference_for(data, 3, 2, 4, data.matrix_f64().mean(axis=0))
    qs = queries(30)
    assert workloads.in_child(workloads.reference_neighbors, lsh, qs) == (
        lsh.neighbors(qs), lsh.neighbors(qs[:workloads.EXACT_SAMPLE], exact=True)[0])
    with pytest.raises(RuntimeError):
        workloads.in_child(lsh.neighbors, "not a query")


def test_projection_reference_reads_the_public_matrix_and_mean(data):
    from lshauth import fit_pca, project

    projector = fit_pca(data, 3)
    program = project(projector, data).matrix
    own = ref.project(data.matrix, projector.matrix, projector.mean)
    assert ref.projection_matches(program, own)
    assert not ref.projection_matches(program + 1e-2, own)
