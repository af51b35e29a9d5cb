"""Dataset and registry file formats: round trips and parse failures."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshauth.data import Dataset, TransmitterRegistry, TxStatus
from lshauth.errors import ParseError
from lshauth.formats import (DATASET_MAGIC, load_dataset, load_registry,
                             save_dataset, save_registry)


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
