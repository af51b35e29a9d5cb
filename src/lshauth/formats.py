"""On-disk formats for datasets and the transmitter registry, the package's
one file writer (`write_file`) and its binary header check (`read_header`).

Binary dataset layout ("bin"):
    magic   8 bytes ASCII  "LSHEMB01"
    count   u32 little-endian, number of records
    dim     u32 little-endian
    records count times: u32 tx_id, u32 sample_id, dim * f32 little-endian

CSV dataset layout ("csv"):
    header  tx_id,sample_id,f0,...,f{dim-1}
    rows    decimal integers and floats, 9 significant digits per component
            (enough to round-trip float32 exactly)

Registry CSV:
    header  tx_id,status
    rows    status in {authorized, known_outlier, revoked}, one row per tx
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
from pathlib import Path

import numpy as np

from .data import (Dataset, TransmitterRegistry, TxStatus, combined_ids,
                   first_repeat)
from .errors import ParseError, ValidationError

DATASET_MAGIC = b"LSHEMB01"
_HEADER = struct.Struct("<II")

FORMATS = ("bin", "csv")
_U32_TEXT = re.compile(r"\s*0*(\d{1,10})\s*")


def write_file(path, chunks) -> None:
    """Make `chunks` (bytes, UTF-8 str or buffers, in order) the whole of
    `path` via a new sibling file and `os.replace`; on any failure, remove
    the sibling and leave `path` as it was. Mode: a plain `open`'s, or `path`'s."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError as e:  # name the file asked for, not its sibling
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fh.fileno(), os.stat(path).st_mode & 0o777)
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, columns, rows) -> None:
    """A header line of `columns`, then one line of `str` fields per row."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    write_file(path, (line % tuple(r) for rs in ([columns], rows) for r in rs))


def read_header(path, magic: bytes, fmt: struct.Struct) -> tuple[bytes, tuple]:
    """The bytes at `path` and its `fmt` fields after `magic`, or ParseError."""
    raw = Path(path).read_bytes()
    if raw[:len(magic)] != magic:
        raise ParseError(path, f"bad magic; expected {magic!r}", offset=0)
    try:
        return raw, fmt.unpack_from(raw, len(magic))
    except struct.error:
        raise ParseError(path, "truncated header", offset=len(magic)) from None


def _parse_id(path, text: str, field: str, line: int) -> int:
    """A u32 id: decimal digits, space-padded or not (as `cli.parse_id_set`)."""
    m = _U32_TEXT.fullmatch(text)
    if m is None or (value := int(m[1])) > 2**32 - 1:
        raise ParseError(path, f"{field} is not a decimal u32: {text!r}", line=line)
    return value


def save_dataset(data: Dataset, path, fmt: str = "bin") -> None:
    if fmt == "bin":
        _save_bin(data, path)
    elif fmt == "csv":
        _save_csv(data, path)
    else:
        raise ValidationError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")


def load_dataset(path, fmt: str = "bin") -> Dataset:
    if fmt == "bin":
        return _load_bin(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ValidationError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")


def _record_dtype(dim: int) -> np.dtype:
    """One bin record: u32 tx_id, u32 sample_id, dim * f32, little-endian."""
    return np.dtype([("tx", "<u4"), ("sample", "<u4"), ("vector", "<f4", (dim,))])


def _save_bin(data: Dataset, path) -> None:
    rows = np.empty(len(data), dtype=_record_dtype(data.dim))
    rows["tx"], rows["sample"], rows["vector"] = (data.tx_ids, data.sample_ids,
                                                  data.matrix)
    write_file(path, (DATASET_MAGIC, _HEADER.pack(len(data), data.dim), rows))


def _load_bin(path) -> Dataset:
    raw, (n, dim) = read_header(path, DATASET_MAGIC, _HEADER)
    if dim < 1:
        raise ParseError(path, f"dim must be >= 1, got {dim}", offset=12)
    expected = 16 + n * (8 + 4 * dim)
    if len(raw) != expected:
        raise ParseError(
            path, f"expected {expected} bytes for {n} records of dim {dim}, "
                  f"got {len(raw)}", offset=min(len(raw), expected))
    rows = np.frombuffer(raw, dtype=_record_dtype(dim), offset=16)
    try:
        return Dataset(dim, rows["tx"], rows["sample"], rows["vector"])
    except ValidationError as e:
        raise ParseError(path, str(e)) from None


def _format_component(x: np.float32) -> str:
    return f"{float(x):.9g}"


def _save_csv(data: Dataset, path) -> None:
    write_csv(path, ["tx_id", "sample_id", *(f"f{i}" for i in range(data.dim))],
              ((t, s, *map(_format_component, v)) for t, s, v in
               zip(data.tx_ids.tolist(), data.sample_ids.tolist(), data.matrix)))


def read_text_lines(path) -> list[str]:
    """A text file's lines, line endings removed. Each line is decoded as
    UTF-8 on its own, so a line that is not raises ParseError naming it."""
    lines = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                lines.append(raw.decode().rstrip("\r\n"))
            except UnicodeDecodeError as e:
                raise ParseError(path, f"not UTF-8 text: {e}",
                                 line=lineno) from None
    return lines


def _load_csv(path) -> Dataset:
    lines = read_text_lines(path)
    if not lines:
        raise ParseError(path, "empty file; missing header", line=1)
    header = lines[0].split(",")
    if header[:2] != ["tx_id", "sample_id"]:
        raise ParseError(path, "header must start with tx_id,sample_id", line=1)
    feat_cols = header[2:]
    dim = len(feat_cols)
    if dim < 1 or feat_cols != [f"f{i}" for i in range(dim)]:
        raise ParseError(path, f"feature columns must be f0..f{{d-1}}, got {feat_cols}",
                         line=1)
    tx, sm, rows, linenos = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2 + dim:
            raise ParseError(path, f"expected {2 + dim} columns, got {len(parts)}",
                             line=lineno)
        t = _parse_id(path, parts[0], "tx_id", lineno)
        s = _parse_id(path, parts[1], "sample_id", lineno)
        try:
            vec = np.array([float(p) for p in parts[2:]], dtype=np.float32)
        except ValueError as e:
            raise ParseError(path, f"unparseable value: {e}", line=lineno) from None
        if not np.all(np.isfinite(vec)):
            raise ParseError(path, "non-finite vector component", line=lineno)
        tx.append(t)
        sm.append(s)
        rows.append(vec)
        linenos.append(lineno)
    mat = np.stack(rows) if rows else np.empty((0, dim), dtype=np.float32)
    try:
        return Dataset(dim, tx, sm, mat)
    except ValidationError as e:  # a repeated id: name its record's line
        at = first_repeat(combined_ids(np.array(tx), np.array(sm)))
        raise ParseError(path, str(e),
                         line=None if at is None else linenos[at]) from None


_STATUS_NAMES = {s.value: s for s in TxStatus}


def save_registry(registry: TransmitterRegistry, path) -> None:
    write_csv(path, ("tx_id", "status"),
              sorted((t, s.value) for t, s in registry.statuses().items()))


def load_registry(path) -> TransmitterRegistry:
    lines = read_text_lines(path)
    if not lines or lines[0] != "tx_id,status":
        raise ParseError(path, "registry header must be 'tx_id,status'", line=1)
    reg = TransmitterRegistry()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, "expected 2 columns", line=lineno)
        t = _parse_id(path, parts[0], "tx_id", lineno)
        if reg.is_registered(t):
            raise ParseError(path, f"tx_id {t} listed twice", line=lineno)
        status = _STATUS_NAMES.get(parts[1])
        if status is None:
            raise ParseError(
                path, f"unknown status {parts[1]!r}; expected one of "
                      f"{sorted(_STATUS_NAMES)}", line=lineno)
        reg.set_status(t, status)
    return reg
