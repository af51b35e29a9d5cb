"""End-to-end checks of the command-line workflow."""

from lshauth.cli import main, parse_id_set
from lshauth.data import TxStatus
from lshauth.formats import load_dataset, load_registry


def test_parse_id_set():
    assert parse_id_set("1,4,7-10") == [1, 4, 7, 8, 9, 10]
    assert parse_id_set("3") == [3]
    assert parse_id_set("2-2,0") == [0, 2]


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
        "num_outliers = 3\nsamples_per_tx = 10\nadd_counts = 0,2\n"
        "latency_warmup = 0\n")
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
                 "--latency-warmup", "0", "--out", str(out)]) == 0
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
