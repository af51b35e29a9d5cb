"""Metrics, timing helpers, experiment sweeps and config plumbing."""

from dataclasses import replace

import pytest

from lshauth import bench
from lshauth.authorize import (AuthDecision, Evidence, Reason, Verdict,
                               authorize_batch)
from lshauth.bench import (ExperimentConfig, apply_addition,
                           build_initial_state, cap_per_class,
                           compute_metrics, latency_summary,
                           parse_config_file, parse_setting,
                           run_add_auth_sweep, run_grid_sweep, time_block,
                           write_csv)
from lshauth.data import SyntheticSpec, generate_synthetic, split_dataset
from lshauth.errors import ParseError, ValidationError
from lshauth.lsh import build_index
from lshauth.oracle import oracle_authorize


def _decision(reject: bool) -> AuthDecision:
    if reject:
        return AuthDecision(Verdict.REJECT, Reason.NO_NEIGHBOR, None)
    return AuthDecision(Verdict.ACCEPT, Reason.NEIGHBOR_AUTHORIZED,
                        Evidence(0, 0, 0.0))


TINY = ExperimentConfig(seed=5, dim=8, num_authorized=2, num_known_outliers=2,
                        num_outliers=3, samples_per_tx=12, num_tables=3,
                        hash_bits=1, add_counts=(0, 2), small_db_per_class=5)


def test_metrics_all_correct():
    decisions = [_decision(True)] * 4 + [_decision(False)] * 6
    truth = [True] * 4 + [False] * 6
    report = compute_metrics(decisions, truth)
    assert report.accuracy == 1.0
    assert (report.tp, report.fp, report.tn, report.fn) == (4, 0, 6, 0)


def test_metrics_vacuous_conventions():
    decisions = [_decision(False)] * 5
    truth = [False] * 5
    report = compute_metrics(decisions, truth)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.accuracy == 1.0


def test_metrics_definition_arithmetic():
    decisions = ([_decision(True)] * 2 + [_decision(True)]
                 + [_decision(False)] + [_decision(False)] * 6)
    truth = [True, True, False, True, False, False, False, False, False, False]
    report = compute_metrics(decisions, truth)
    assert report.tp == 2 and report.fp == 1 and report.fn == 1 and report.tn == 6
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.accuracy == pytest.approx(0.8)


def test_metrics_length_mismatch():
    with pytest.raises(ValidationError):
        compute_metrics([_decision(True)], [True, False])


def test_latency_summary_warmup():
    latencies = [1000] * 100 + [10, 20, 30, 40]
    assert latency_summary(latencies) == (25.0, 40.0)
    # shorter than warmup falls back to everything
    assert latency_summary([10, 20]) == (15.0, 20.0)
    assert latency_summary([]) == (0.0, 0.0)


def test_time_block_overhead():
    assert time_block(lambda: None) < 1_000_000  # under a millisecond


def test_time_block_indexing_linearity():
    data = generate_synthetic(SyntheticSpec(num_tx=30, samples_per_tx=1000,
                                            dim=32, seed=3))
    small = data.subset(range(15_000))

    def build(subset):
        index = build_index(32, 4, 8, seed=9)
        index.insert_dataset(subset)

    build(data)  # warm-up
    full_times, small_times = [], []
    for _ in range(5):  # interleaved minima resist transient load
        full_times.append(time_block(lambda: build(data)))
        small_times.append(time_block(lambda: build(small)))
    ratio = min(full_times) / min(small_times)
    assert 1.5 <= ratio <= 3.0


def test_cap_per_class_exact():
    data = generate_synthetic(SyntheticSpec(num_tx=4, samples_per_tx=9, dim=3,
                                            seed=1))
    capped = cap_per_class(data, 5)
    counts = {t: 0 for t in range(4)}
    for record in capped:
        counts[record.tx_id] += 1
    assert counts == {0: 5, 1: 5, 2: 5, 3: 5}
    with pytest.raises(ValidationError):
        cap_per_class(data, 10)


def test_add_sweep_row_shape():
    rows = run_add_auth_sweep(TINY)
    assert [r["n_added"] for r in rows] == [0, 2]
    assert all(r["scheme"] == "lsh" for r in rows)
    assert set(rows[0]) == set(bench.ADD_SWEEP_COLUMNS)


def test_add_zero_equals_pre_enroll_evaluation():
    state = build_initial_state(TINY)
    ev = apply_addition(state, 0)
    assert ev.retrain_ns < 50_000_000  # an empty enrollment is near-free
    base_decisions, _ = authorize_batch(state.index, state.registry,
                                        ev.queries)
    assert base_decisions == ev.decisions


def test_add_sweep_deterministic_outputs():
    a = run_add_auth_sweep(TINY)
    b = run_add_auth_sweep(TINY)
    skip = set(bench.ADD_SWEEP_TIMING_COLUMNS)
    for ra, rb in zip(a, b):
        for column in bench.ADD_SWEEP_COLUMNS:
            if column not in skip:
                assert ra[column] == rb[column]


def test_no_sweep_query_is_an_indexed_record():
    state = build_initial_state(ExperimentConfig(seed=0))
    for count in (0, 5, 10, 15, 20):
        ev = apply_addition(state, count)
        overlap = (set(ev.index.indexed_dataset().ids.tolist())
                   & set(ev.queries.ids.tolist()))
        assert not overlap, (count, len(overlap))


def test_enrolled_samples_split_between_index_and_queries():
    state = build_initial_state(TINY)
    evals = [apply_addition(state, c) for c in range(TINY.num_outliers + 1)]
    first = evals[0].queries.filter_tx(state.authorized_ids)
    for ev in evals:
        indexed = ev.index.indexed_dataset()
        for t in state.authorized_ids + ev.added_ids:
            held_in = set(indexed.filter_tx([t]).ids.tolist())
            held_out = set(ev.queries.filter_tx([t]).ids.tolist())
            assert held_in.isdisjoint(held_out), (ev.n_added, t)
            assert held_in | held_out == set(
                state.data.filter_tx([t]).ids.tolist())
        assert ev.queries.filter_tx(state.authorized_ids) == first, ev.n_added


def test_add_sweep_splits_the_instance_once(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return split_dataset(*args, **kwargs)
    monkeypatch.setattr(bench, "split_dataset", spy)
    run_add_auth_sweep(replace(TINY, add_counts=(0, 1, 2, 3)))
    assert len(calls) == 1


def test_addition_draw_too_large():
    state = build_initial_state(TINY)
    with pytest.raises(ValidationError):
        apply_addition(state, 99)


def test_grid_factorial_count():
    config = ExperimentConfig(seed=5, dim=6, num_authorized=1,
                              num_known_outliers=1, num_outliers=2,
                              samples_per_tx=8, add_counts=(1,),
                              grid_tables=(1, 2, 3, 4, 5),
                              grid_bits=(1, 2, 3, 4, 5))
    rows = run_grid_sweep(config)
    assert len(rows) == 25
    assert {(r["L"], r["K"]) for r in rows} \
        == {(l, k) for l in (1, 2, 3, 4, 5) for k in (1, 2, 3, 4, 5)}


def test_grid_k0_matches_oracle():
    config = ExperimentConfig(seed=6, dim=8, num_authorized=2,
                              num_known_outliers=2, num_outliers=3,
                              samples_per_tx=10, num_tables=2, hash_bits=0,
                              add_counts=(1,))
    state = build_initial_state(config)
    ev = apply_addition(state, 1)
    data = ev.index.indexed_dataset()
    for i in range(len(ev.queries)):
        assert ev.decisions[i] == oracle_authorize(data, ev.registry,
                                                   ev.queries.matrix[i])


def test_grid_cell_reproducible_standalone():
    config = ExperimentConfig(seed=7, dim=6, num_authorized=2,
                              num_known_outliers=2, num_outliers=3,
                              samples_per_tx=10, add_counts=(1,),
                              grid_tables=(1, 2), grid_bits=(1, 2))
    grid = run_grid_sweep(config)
    solo = run_grid_sweep(replace(config, grid_tables=(2,), grid_bits=(2,)))
    row = next(r for r in grid if r["L"] == 2 and r["K"] == 2)
    for column in bench.GRID_COLUMNS:
        if column not in bench.GRID_TIMING_COLUMNS:
            assert row[column] == solo[0][column]


def test_small_scheme_caps_database():
    config = ExperimentConfig(seed=8, dim=8, num_authorized=2,
                              num_known_outliers=2, num_outliers=3,
                              samples_per_tx=12, scheme="lsh_small",
                              small_db_per_class=4, add_counts=(1,))
    state = build_initial_state(config)
    counts: dict[int, int] = {}
    for record in state.indexed_dataset:
        counts[record.tx_id] = counts.get(record.tx_id, 0) + 1
    assert all(count == 4 for count in counts.values())
    ev = apply_addition(state, 1)
    added = ev.added_ids[0]
    enrolled = [r for r in ev.index.indexed_dataset() if r.tx_id == added]
    assert len(enrolled) == 4


def test_dimred_scheme_projects_database():
    config = ExperimentConfig(seed=9, dim=16, num_authorized=2,
                              num_known_outliers=2, num_outliers=3,
                              samples_per_tx=12, scheme="lsh_dimred",
                              dimred_out=4, add_counts=(1,))
    state = build_initial_state(config)
    assert state.projector is not None
    assert state.projector.kind == "pca"
    assert state.index.dim == 4
    assert state.indexed_dataset.dim == 4
    ev = apply_addition(state, 1)
    assert ev.index.dim == 4
    assert len(ev.decisions) == len(ev.queries)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(scheme="nope").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(add_counts=()).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(dimred_out=100, dim=64).validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "seed = 42\n"
        "# a comment line\n"
        "dim = 16   # trailing comment\n"
        "add_counts = 1,2,3\n"
        "scheme = lsh_small\n"
        "noise_sigma = 0.5\n"
    )
    config = ExperimentConfig(**parse_config_file(path))
    assert config.seed == 42
    assert config.dim == 16
    assert config.add_counts == (1, 2, 3)
    assert config.scheme == "lsh_small"
    assert config.noise_sigma == 0.5
    # explicit overrides win
    config = replace(config, dim=parse_setting("dim", "8"))
    assert config.dim == 8 and config.seed == 42


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ParseError, match="bogus") as info:
        parse_config_file(path)
    assert info.value.line == 1


@pytest.mark.parametrize("bad_line, message", [
    ("dim = abc", "dim takes int"),
    ("noise_sigma = loud", "noise_sigma takes float"),
    ("add_counts = 1,x", "add_counts takes int list"),
    ("scheme = nope", "scheme must be one of"),
    ("dim 8", "expected 'key = value'"),
    ("uses_small_db = 1", "unknown config key"),  # a property, not a setting
])
def test_config_file_bad_line_names_its_line(tmp_path, bad_line, message):
    path = tmp_path / "exp.cfg"
    path.write_text(f"# header\nseed = 1\n{bad_line}\n")
    with pytest.raises(ParseError, match=message) as info:
        parse_config_file(path)
    assert info.value.line == 3
    assert str(info.value).startswith(f"{path}:3: ")


def test_config_file_that_is_not_text_names_its_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"seed = 1\n\xff = 2\n")
    with pytest.raises(ParseError) as info:
        parse_config_file(path)
    assert info.value.line == 2


def test_parse_setting_types_follow_defaults():
    assert parse_setting("seed", " 7 ") == 7
    assert parse_setting("cluster_radius", "2.5") == 2.5
    assert parse_setting("grid_bits", "1, 2,") == (1, 2)
    assert parse_setting("scheme", "lsh_dimred") == "lsh_dimred"
    with pytest.raises(ValidationError, match="seed"):
        parse_setting("seed", "1.5")


def test_write_csv(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    path = tmp_path / "out.csv"
    write_csv(rows, ("a", "b"), path)
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"
