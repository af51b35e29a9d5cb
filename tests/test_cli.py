"""End-to-end checks of the command-line workflow."""

from dataclasses import replace

import pytest

from lshauth import cli
from lshauth.bench import ExperimentConfig
from lshauth.cli import main, parse_id_set
from lshauth.data import TxStatus
from lshauth.errors import ValidationError
from lshauth.formats import load_dataset, load_registry, save_dataset


def test_parse_id_set():
    assert parse_id_set("1,4,7-10") == [1, 4, 7, 8, 9, 10]
    assert parse_id_set("3") == [3]
    assert parse_id_set("2-2,0") == [0, 2]
    assert parse_id_set(" 5 - 6 ,, 1") == [1, 5, 6]
    for bad in ("0-x", "5-", "-3", "9-3", "x", "1-2-3"):
        with pytest.raises(ValidationError, match="bad id range"):
            parse_id_set(bad)


def _generate(tmp_path, name="data.bin", num_tx=6, samples=20, dim=8, seed=3):
    out = tmp_path / name
    assert main(["generate", "--seed", str(seed), "--dim", str(dim),
                 "--num-tx", str(num_tx), "--samples-per-tx", str(samples),
                 "--cluster-radius", "10", "--noise-sigma", "0.5",
                 "--out", str(out)]) == 0
    return out


def test_generate_and_load(tmp_path):
    path = _generate(tmp_path)
    data = load_dataset(path, "bin")
    assert len(data) == 120
    assert data.dim == 8


def test_generate_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["generate", "--seed", "1", "--dim", "3", "--num-tx", "2",
                 "--samples-per-tx", "4", "--format", "csv",
                 "--out", str(out)]) == 0
    assert len(load_dataset(out, "csv")) == 8


def test_split_writes_parts_and_registry(tmp_path):
    path = _generate(tmp_path)
    prefix = tmp_path / "parts"
    assert main(["split", "--data", str(path), "--authorized", "0-2",
                 "--known-outliers", "3,4", "--outliers", "5",
                 "--seed", "9", "--out-prefix", str(prefix)]) == 0
    train = load_dataset(f"{prefix}_train.bin")
    val = load_dataset(f"{prefix}_val.bin")
    test = load_dataset(f"{prefix}_test.bin")
    pool = load_dataset(f"{prefix}_pool.bin")
    assert len(train) + len(val) == len(pool)
    assert len(pool) + len(test) == 120
    registry = load_registry(f"{prefix}_registry.csv")
    assert registry.status_of(0) is TxStatus.AUTHORIZED
    assert registry.status_of(4) is TxStatus.KNOWN_OUTLIER


def _build(tmp_path, data_path, **kw):
    out = tmp_path / kw.pop("name", "index.idx")
    args = ["build", "--data", str(data_path), "--l-tables", "3",
            "--hash-bits", "2", "--seed", "4", "--out", str(out)]
    assert main(args) == 0
    return out


def test_build_and_stats(tmp_path, capsys):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    assert main(["stats", "--index", str(index_path),
                 "--data", str(data_path)]) == 0
    printed = capsys.readouterr().out
    assert "120 records, 3 tables" in printed
    assert "table 0:" in printed


def test_authorize_decision_csv(tmp_path):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    queries = tmp_path / "queries.bin"
    data = load_dataset(data_path)
    from lshauth.formats import save_dataset
    save_dataset(data.subset(range(10)), queries)
    out = tmp_path / "decisions.csv"
    assert main(["authorize", "--index", str(index_path),
                 "--data", str(data_path), "--queries", str(queries),
                 "--authorized", "0-4", "--known-outliers", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query_idx,verdict,reason,nn_tx,nn_sample,distance,latency_ns"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[1] == "accept"
    assert first[2] == "neighbor_authorized"
    assert float(first[5]) == 0.0  # query 0 is an indexed vector


def test_authorize_decision_csv_deterministic(tmp_path):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    queries = tmp_path / "queries.bin"
    from lshauth.formats import save_dataset
    save_dataset(load_dataset(data_path).subset(range(15)), queries)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["authorize", "--index", str(index_path),
                     "--data", str(data_path), "--queries", str(queries),
                     "--authorized", "0-5", "--out", str(out)]) == 0
        rows = [line.split(",")[:-1]  # drop the latency column
                for line in out.read_text().splitlines()]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_enroll_then_revoke_round_trip(tmp_path):
    data_path = _generate(tmp_path, num_tx=4)
    index_path = _build(tmp_path, data_path)
    new_path = _generate(tmp_path, name="new.bin", num_tx=6, seed=77)
    # keep only transmitters 4 and 5 as genuinely new
    from lshauth.formats import save_dataset
    new = load_dataset(new_path).filter_tx([4, 5])
    save_dataset(new, new_path)
    registry_path = tmp_path / "registry.csv"
    registry_path.write_text(
        "tx_id,status\n0,authorized\n1,authorized\n2,authorized\n"
        "3,known_outlier\n")

    out_index = tmp_path / "index2.idx"
    out_data = tmp_path / "merged.bin"
    out_registry = tmp_path / "registry2.csv"
    assert main(["enroll", "--index", str(index_path), "--data", str(data_path),
                 "--new", str(new_path), "--registry", str(registry_path),
                 "--out-index", str(out_index), "--out-data", str(out_data),
                 "--out-registry", str(out_registry)]) == 0
    merged = load_dataset(out_data)
    assert len(merged) == 80 + len(new)
    registry = load_registry(out_registry)
    assert registry.status_of(4) is TxStatus.AUTHORIZED
    assert registry.status_of(5) is TxStatus.AUTHORIZED

    out_registry2 = tmp_path / "registry3.csv"
    assert main(["revoke", "--registry", str(out_registry),
                 "--tx-ids", "4", "--out-registry", str(out_registry2)]) == 0
    assert load_registry(out_registry2).status_of(4) is TxStatus.REVOKED

    # enrolled snapshot resolves against the merged dataset
    decisions = tmp_path / "d.csv"
    queries = tmp_path / "q.bin"
    save_dataset(merged.filter_tx([4]).subset(range(5)), queries)
    assert main(["authorize", "--index", str(out_index), "--data",
                 str(out_data), "--queries", str(queries),
                 "--registry", str(out_registry2), "--out",
                 str(decisions)]) == 0
    rows = decisions.read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "neighbor_revoked" for row in rows)


def test_failed_enroll_writes_no_output(tmp_path, capsys):
    # --data already holds the new records, so the merged dataset cannot be
    # built; the enroll must fail before it writes any of its outputs
    all_path = _generate(tmp_path, name="all.bin", num_tx=4)
    data = load_dataset(all_path)
    pool_path, new_path = tmp_path / "pool.bin", tmp_path / "new.bin"
    save_dataset(data.filter_tx([0, 1, 2]), pool_path)
    save_dataset(data.filter_tx([3]), new_path)
    index_path = _build(tmp_path, pool_path)
    registry_path = tmp_path / "registry.csv"
    registry_path.write_text(
        "tx_id,status\n0,authorized\n1,authorized\n2,authorized\n")
    outs = [tmp_path / name for name in ("out.idx", "out.bin", "out.csv")]
    assert main(["enroll", "--index", str(index_path), "--data", str(all_path),
                 "--new", str(new_path), "--registry", str(registry_path),
                 "--out-index", str(outs[0]), "--out-data", str(outs[1]),
                 "--out-registry", str(outs[2])]) == 2
    assert "duplicate (tx_id, sample_id) = (3, 0)" in capsys.readouterr().err
    assert [p for p in outs if p.exists()] == []


def test_authorize_with_projector(tmp_path):
    from lshauth.dimreduce import fit_pca, save_projector
    from lshauth.formats import save_dataset

    data_path = _generate(tmp_path, num_tx=4, samples=40, dim=16)
    data = load_dataset(data_path)
    projector = fit_pca(data, 4)
    reduced_path = tmp_path / "reduced.bin"
    from lshauth.dimreduce import project
    save_dataset(project(projector, data), reduced_path)
    projector_path = tmp_path / "p.prj"
    save_projector(projector, projector_path)

    index_path = _build(tmp_path, reduced_path)
    queries = tmp_path / "q.bin"
    save_dataset(data.subset(range(8)), queries)  # original 16-dim space
    out = tmp_path / "d.csv"
    assert main(["authorize", "--index", str(index_path),
                 "--data", str(reduced_path), "--queries", str(queries),
                 "--projector", str(projector_path), "--authorized", "0-3",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(row.split(",")[1] == "accept" for row in rows)


def test_bench_add_cli(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "dim = 8\nnum_authorized = 2\nnum_known_outliers = 2\n"
        "num_outliers = 3\nsamples_per_tx = 10\nadd_counts = 0,2\n")
    out = tmp_path / "report.csv"
    assert main(["bench-add", "--config", str(config), "--seed", "3",
                 "--l-tables", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(
        ("scheme", "n_added", "accuracy", "precision", "recall",
         "mean_latency_ns", "p95_latency_ns", "retrain_ms"))
    assert len(lines) == 3


def test_bench_grid_cli(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["bench-grid", "--seed", "3", "--dim", "8",
                 "--num-authorized", "2", "--num-known-outliers", "2",
                 "--num-outliers", "3", "--samples-per-tx", "10",
                 "--add-counts", "1", "--grid-l", "1,2", "--grid-k", "0,2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,K,accuracy,precision,recall,mean_latency_ns,mean_candidates"
    assert len(lines) == 5


def test_cli_reports_errors(tmp_path, capsys):
    missing = tmp_path / "nope.bin"
    code = main(["stats", "--index", str(missing), "--data", str(missing)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_authorize_on_truncated_index_reports_error(tmp_path, capsys):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    raw = index_path.read_bytes()
    index_path.write_bytes(raw[:len(raw) - 5])
    code = main(["authorize", "--index", str(index_path),
                 "--data", str(data_path), "--queries", str(data_path),
                 "--authorized", "0-5", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_error_exit_code_on_bad_format(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage!")
    out = tmp_path / "x.idx"
    assert main(["build", "--data", str(bad), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def _experiment_config(*argv):
    args = cli.build_parser().parse_args(["bench-grid", *argv, "--out", "x"])
    return cli._experiment_config(args)


def test_every_sweep_flag_sets_its_setting():
    assert _experiment_config() == ExperimentConfig()
    config = _experiment_config(
        "--seed", "1", "--dim", "9", "--num-authorized", "2",
        "--num-known-outliers", "3", "--num-outliers", "4",
        "--samples-per-tx", "5", "--cluster-radius", "6.5",
        "--noise-sigma", "0.5", "--l-tables", "7", "--hash-bits", "8",
        "--add-counts", "1,2", "--grid-l", "3", "--grid-k", "4,5",
        "--scheme", "lsh_dimred", "--small-per-class", "6",
        "--dimred-out", "3")
    assert config == ExperimentConfig(
        seed=1, dim=9, num_authorized=2, num_known_outliers=3,
        num_outliers=4, samples_per_tx=5, cluster_radius=6.5,
        noise_sigma=0.5, num_tables=7, hash_bits=8, add_counts=(1, 2),
        grid_tables=(3,), grid_bits=(4, 5), scheme="lsh_dimred",
        small_db_per_class=6, dimred_out=3)


@pytest.mark.parametrize("flag, key, text, other, value", [
    ("--l-tables", "num_tables", "7", "3", 7),
    ("--grid-k", "grid_bits", "3,4", "9", (3, 4)),
    ("--small-per-class", "small_db_per_class", "9", "4", 9),
    ("--noise-sigma", "noise_sigma", "0.25", "2", 0.25),
    ("--scheme", "scheme", "lsh_small", "lsh_dimred", "lsh_small"),
])
def test_setting_by_file_flag_or_both(tmp_path, flag, key, text, other, value):
    by_file = tmp_path / "value.cfg"
    by_file.write_text(f"{key} = {text}\n")
    overridden = tmp_path / "other.cfg"
    overridden.write_text(f"{key} = {other}\nseed = 4\n")
    expected = replace(ExperimentConfig(), **{key: value})
    assert _experiment_config("--config", str(by_file)) == expected
    assert _experiment_config(flag, text) == expected
    assert _experiment_config("--config", str(overridden), flag, text) \
        == replace(expected, seed=4)


@pytest.mark.parametrize("argv, message", [
    (["--dim", "abc"], "argument --dim: dim takes int, got 'abc'"),
    (["--grid-l", "1,x"], "argument --grid-l: grid_tables takes int list"),
    (["--scheme", "nope"], "argument --scheme: scheme must be one of"),
])
def test_bad_sweep_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(["bench-add", *argv, "--out", str(tmp_path / "r.csv")])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_bad_config_file_reports_its_line(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("seed = 1\ndim = abc\n")
    code = main(["bench-add", "--config", str(config),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert f"error: {config}:2: dim takes int, got 'abc'" \
        in capsys.readouterr().err


def test_revoke_rejects_an_inverted_range(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("tx_id,status\n3,authorized\n")
    out = tmp_path / "out.csv"
    assert main(["revoke", "--registry", str(registry), "--tx-ids", "9-3",
                 "--out-registry", str(out)]) == 2
    assert "error: bad id range '9-3'" in capsys.readouterr().err
    assert not out.exists()


def test_revoke_on_a_registry_that_is_not_utf8(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_bytes(b"tx_id,status\n1,authorized\n\xff\n")
    out = tmp_path / "out.csv"
    assert main(["revoke", "--registry", str(registry), "--tx-ids", "1",
                 "--out-registry", str(out)]) == 2
    assert f"error: {registry}:3: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_authorize_query_dim_mismatch_names_the_query(tmp_path, capsys):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    queries = _generate(tmp_path, name="q.bin", num_tx=1, samples=3, dim=4)
    code = main(["authorize", "--index", str(index_path),
                 "--data", str(data_path), "--queries", str(queries),
                 "--authorized", "0-5", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "error: query 0: query dim 4 does not match index dim 8" \
        in capsys.readouterr().err


def test_authorize_unregistered_neighbor_names_the_query(tmp_path, capsys):
    data_path = _generate(tmp_path)
    index_path = _build(tmp_path, data_path)
    queries = tmp_path / "q.bin"
    data = load_dataset(data_path)
    save_dataset(data.subset([0, 40]), queries)  # tx 0, then tx 2
    code = main(["authorize", "--index", str(index_path),
                 "--data", str(data_path), "--queries", str(queries),
                 "--authorized", "0,1", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "error: query 1: transmitter 2 is not registered" \
        in capsys.readouterr().err
