"""Dataset and registry file formats, round trips and parse failures, and
the one file writer every save goes through."""

import ast
import errno
import os
import pickle
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lshauth
from lshauth import cli
from lshauth.data import Dataset, TransmitterRegistry, TxStatus
from lshauth.dimreduce import fit_random_projection
from lshauth.errors import ParseError
from lshauth.formats import (DATASET_MAGIC, load_dataset, load_registry,
                             save_dataset, save_registry, write_csv,
                             write_file)
from lshauth.lsh import build_index


def _random_dataset(seed: int, n: int, dim: int) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    return Dataset(dim,
                   np.arange(n, dtype=np.uint32) // 7,
                   np.arange(n, dtype=np.uint32) % 7 + (np.arange(n) // 7) * 7,
                   (rng.standard_normal((n, dim)) * 50).astype(np.float32))


def test_bin_empty_dataset(tmp_path):
    path = tmp_path / "empty.bin"
    save_dataset(Dataset.empty(8), path, "bin")
    assert path.read_bytes() == DATASET_MAGIC + b"\x00\x00\x00\x00\x08\x00\x00\x00"
    loaded = load_dataset(path, "bin")
    assert loaded.dim == 8
    assert len(loaded) == 0


def test_bin_record_byte_layout(tmp_path):
    data = Dataset(2, [0x01020304], [0x0A0B0C0D],
                   np.array([[1.0, -2.0]], dtype=np.float32))
    path = tmp_path / "one.bin"
    save_dataset(data, path, "bin")
    raw = path.read_bytes()
    assert raw[:8] == DATASET_MAGIC
    assert raw[8:12] == (1).to_bytes(4, "little")
    assert raw[12:16] == (2).to_bytes(4, "little")
    assert raw[16:20] == (0x01020304).to_bytes(4, "little")
    assert raw[20:24] == (0x0A0B0C0D).to_bytes(4, "little")
    assert raw[24:28] == struct.pack("<f", 1.0)
    assert raw[28:32] == struct.pack("<f", -2.0)
    assert len(raw) == 32


def test_bin_round_trip_100_records(tmp_path):
    data = _random_dataset(3, 100, 12)
    path = tmp_path / "d.bin"
    save_dataset(data, path, "bin")
    assert load_dataset(path, "bin") == data


def test_bin_round_trip_is_bitwise(tmp_path):
    data = _random_dataset(5, 37, 5)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(data, p1, "bin")
    save_dataset(load_dataset(p1, "bin"), p2, "bin")
    assert p1.read_bytes() == p2.read_bytes()


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(ParseError, match="magic"):
        load_dataset(path, "bin")


def test_bin_truncated(tmp_path):
    # every proper prefix of a multi-record file, from the empty file
    # through one byte short of the last record
    data = _random_dataset(1, 12, 5)
    path = tmp_path / "t.bin"
    save_dataset(data, path, "bin")
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ParseError):
            load_dataset(path, "bin")


def test_bin_duplicate_ids(tmp_path):
    path = tmp_path / "dup.bin"
    raw = DATASET_MAGIC + (2).to_bytes(4, "little") + (1).to_bytes(4, "little")
    rec = (3).to_bytes(4, "little") + (9).to_bytes(4, "little") \
        + np.float32(1.5).tobytes()
    path.write_bytes(raw + rec + rec)
    with pytest.raises(ParseError, match=r"\(3, 9\)"):
        load_dataset(path, "bin")


def test_bin_non_finite(tmp_path):
    path = tmp_path / "nan.bin"
    raw = DATASET_MAGIC + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
    rec = (0).to_bytes(4, "little") + (0).to_bytes(4, "little") \
        + np.float32("nan").tobytes()
    path.write_bytes(raw + rec)
    with pytest.raises(ParseError, match="non-finite"):
        load_dataset(path, "bin")


def test_csv_round_trip_exact(tmp_path):
    data = _random_dataset(11, 60, 4)
    path = tmp_path / "d.csv"
    save_dataset(data, path, "csv")
    assert load_dataset(path, "csv") == data


def test_csv_header_shape(tmp_path):
    data = _random_dataset(2, 3, 3)
    path = tmp_path / "d.csv"
    save_dataset(data, path, "csv")
    assert path.read_text().splitlines()[0] == "tx_id,sample_id,f0,f1,f2"


def test_csv_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tx_id,sample_id,f0,f1\n1,0,0.5,0.25\n2,0,0.5\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(path, "csv")
    assert exc.value.line == 3


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tx,sample,f0\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(path, "csv")
    assert exc.value.line == 1


def test_csv_duplicate_and_nonfinite_lines(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("tx_id,sample_id,f0\n1,0,2.0\n1,0,3.0\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(path, "csv")
    assert exc.value.line == 3
    # blank lines hold no record, so the line is not the record's position
    path.write_text("tx_id,sample_id,f0\n\n1,0,2.0\n\n2,0,1.0\n\n1,0,3.0\n")
    with pytest.raises(ParseError, match=r"\(1, 0\)") as exc:
        load_dataset(path, "csv")
    assert exc.value.line == 7
    path.write_text("tx_id,sample_id,f0\n1,0,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_dataset(path, "csv")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 40), st.integers(1, 9),
       st.sampled_from(["bin", "csv"]))
def test_round_trip_property(tmp_path_factory, seed, n, dim, fmt):
    data = _random_dataset(seed, n, dim)
    path = tmp_path_factory.mktemp("rt") / f"d.{fmt}"
    save_dataset(data, path, fmt)
    loaded = load_dataset(path, fmt)
    assert loaded == data  # bit-exact for both formats (csv via 9 digits)


def test_registry_round_trip(tmp_path):
    reg = TransmitterRegistry()
    reg.set_status([1, 2], TxStatus.AUTHORIZED)
    reg.set_status(3, TxStatus.KNOWN_OUTLIER)
    reg.set_status(9, TxStatus.REVOKED)
    path = tmp_path / "reg.csv"
    save_registry(reg, path)
    loaded = load_registry(path)
    assert loaded.statuses() == reg.statuses()


def test_registry_rejects_unknown_status(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("tx_id,status\n1,banned\n")
    with pytest.raises(ParseError) as exc:
        load_registry(path)
    assert exc.value.line == 2


def test_registry_rejects_ids_outside_u32(tmp_path):
    path = tmp_path / "reg.csv"
    for tx_id in (-3, 2**32, 5_000_000_000):
        path.write_text(f"tx_id,status\n1,authorized\n{tx_id},revoked\n")
        with pytest.raises(ParseError, match="u32") as exc:
            load_registry(path)
        assert exc.value.line == 3


@pytest.mark.parametrize("load, text", [
    (load_registry, b"tx_id,status\n1,authorized\n\xff\n"),
    (lambda path: load_dataset(path, "csv"),
     b"tx_id,sample_id,f0\n1,0,2.0\n1,\xff,3.0\n"),
], ids=["registry", "csv"])
def test_text_file_that_is_not_utf8_names_its_line(tmp_path, load, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="UTF-8") as exc:
        load(path)
    assert exc.value.line == 3


def test_registry_that_lists_a_transmitter_twice_names_the_second_line(
        tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("tx_id,status\n3,authorized\n\n4,revoked\n3,revoked\n")
    with pytest.raises(ParseError, match="tx_id 3 listed twice") as exc:
        load_registry(path)
    assert exc.value.line == 5


# each id field: a file whose line 2 holds `text` in that field, and the
# ids it reads
_ID_FIELDS = {
    "registry tx_id": (load_registry, "tx_id,status\n{},authorized\n",
                       lambda reg: list(reg.statuses())),
    "csv tx_id": (lambda path: load_dataset(path, "csv"),
                  "tx_id,sample_id,f0\n{},0,1.5\n",
                  lambda data: data.tx_ids.tolist()),
    "csv sample_id": (lambda path: load_dataset(path, "csv"),
                      "tx_id,sample_id,f0\n0,{},1.5\n",
                      lambda data: data.sample_ids.tolist()),
}


@pytest.mark.parametrize("field", sorted(_ID_FIELDS))
@pytest.mark.parametrize("text", [
    "1_0", "+3", "-0", "0x3", "3.0", "3 3", "", " ", "4294967296",
    "12345678901", pytest.param("1" * 5000, id="5000 digits")])
def test_id_fields_take_decimal_digits_only(tmp_path, field, text):
    load, body, _ = _ID_FIELDS[field]
    path = tmp_path / "ids.csv"
    path.write_text(body.format(text))
    with pytest.raises(ParseError, match="decimal u32") as exc:
        load(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("field", sorted(_ID_FIELDS))
def test_id_fields_may_be_space_padded_or_zero_led(tmp_path, field):
    load, body, ids = _ID_FIELDS[field]
    path = tmp_path / "ids.csv"
    for text in (" 7 ", "007", "4294967295", "0" * 20 + "7"):
        path.write_text(body.format(text))
        assert ids(load(path)) == [int(text)]


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, 0.25)])
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"


# Each save case: (module, function, arguments) that write `path`, with a
# bigger file when `big`. Inputs other than `path` go to `tmp`.
def _index_save(tmp, path, big):
    index = build_index(4, 3, 2, seed=1)
    index.insert_dataset(_random_dataset(7, 40 if big else 10, 4))
    return "lshauth.lsh", "save_index", (index, path)


def _dataset_save(tmp, path, big):
    return ("lshauth.formats", "save_dataset",
            (_random_dataset(8, 40 if big else 10, 4), path, "bin"))


def _registry_save(tmp, path, big):
    registry = TransmitterRegistry()
    registry.set_status(range(40 if big else 10), TxStatus.AUTHORIZED)
    return "lshauth.formats", "save_registry", (registry, path)


def _projector_save(tmp, path, big):
    projector = fit_random_projection(12 if big else 4, 2, seed=3)
    return "lshauth.dimreduce", "save_projector", (projector, path)


def _authorize_save(tmp, path, big):
    pool, queries = _random_dataset(9, 30, 4), _random_dataset(10, 40, 4)
    save_dataset(pool, tmp / "pool.bin")
    save_dataset(queries.subset(range(40 if big else 10)), tmp / "q.bin")
    assert cli.main(["build", "--data", str(tmp / "pool.bin"), "--l-tables",
                     "3", "--hash-bits", "2", "--out", str(tmp / "pool.idx")]) == 0
    argv = ["authorize", "--index", str(tmp / "pool.idx"), "--data",
            str(tmp / "pool.bin"), "--queries", str(tmp / "q.bin"),
            "--authorized", "0-5", "--out", str(path)]
    return "lshauth.cli", "main", (argv,)


_SAVES = {"save_index": _index_save, "save_dataset": _dataset_save,
          "save_registry": _registry_save, "save_projector": _projector_save,
          "cli authorize --out": _authorize_save}


def _save(case, tmp, path, big):
    module, name, args = _SAVES[case](tmp, path, big)
    getattr(sys.modules[module], name)(*args)


# Sets a file size limit on itself, ignoring SIGXFSZ so that a write past
# the limit raises EFBIG, then runs one pickled save case.
_LIMITED_SAVE = """
import importlib, pickle, resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]),) * 2)
with open(sys.argv[2], "rb") as fh:
    module, name, args = pickle.load(fh)
getattr(importlib.import_module(module), name)(*args)
"""


@pytest.mark.parametrize("case", list(_SAVES))
def test_a_save_that_fails_to_write_leaves_the_old_file(tmp_path, case):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    path = out / "file"
    _save(case, inputs, inputs / "probe", big=True)
    new_size = (inputs / "probe").stat().st_size
    _save(case, inputs, path, big=False)
    old = path.read_bytes()
    assert new_size > len(old) + 1
    with open(inputs / "save.pkl", "wb") as fh:
        pickle.dump(_SAVES[case](inputs, path, big=True), fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(lshauth.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-B", "-c", _LIMITED_SAVE,
         str((len(old) + new_size) // 2), str(inputs / "save.pkl")],
        env=env, capture_output=True, text=True, timeout=120)
    assert os.strerror(errno.EFBIG) in child.stderr
    assert path.read_bytes() == old
    assert os.listdir(out) == ["file"]


def test_an_interrupted_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "file"
    write_file(path, [b"old"])

    def chunks():
        yield b"new"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_file(path, chunks())
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["file"]


def test_a_write_that_cannot_start_names_the_file_asked_for(tmp_path):
    path = tmp_path / "missing" / "file"
    with pytest.raises(FileNotFoundError) as exc:
        write_file(path, [b"x"])
    assert exc.value.filename == str(path)


@pytest.mark.parametrize("case", list(_SAVES))
def test_a_save_gives_a_new_file_the_mode_open_gives(tmp_path, case):
    umask = os.umask(0o027)
    try:
        _save(case, tmp_path, tmp_path / "file", big=False)
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "file").stat().st_mode) == 0o640


@pytest.mark.parametrize("case", list(_SAVES))
def test_a_save_keeps_an_existing_file_mode(tmp_path, case):
    path = tmp_path / "file"
    _save(case, tmp_path, path, big=False)
    for mode in (0o600, 0o604):
        path.chmod(mode)
        _save(case, tmp_path, path, big=True)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def _writes(tree):
    """Calls in `tree` that can write a file: `open` with a mode holding
    w, a, x or + (or one that is not a literal), and write_bytes,
    write_text and tofile."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name in ("write_bytes", "write_text", "tofile"):
            yield node
        elif name == "open":
            # open(file, mode) or path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if (not isinstance(mode, ast.Constant)
                    or set(str(mode.value)) & set("wax+")):
                yield node


def test_formats_write_file_is_the_only_writer():
    package = Path(lshauth.__file__).parent
    inside, outside = [], []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and (source.name, n.name) == ("formats.py", "write_file")]
        writer = {id(n) for func in funcs for n in ast.walk(func)}
        for call in _writes(tree):
            where = f"{source.name}:{call.lineno}"
            (inside if id(call) in writer else outside).append(where)
    assert outside == []
    assert len(inside) == 1  # the writer's own open is seen
