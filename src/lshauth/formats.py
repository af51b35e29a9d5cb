"""On-disk formats for datasets and the transmitter registry.

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
    rows    status in {authorized, known_outlier, revoked}
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import (Dataset, TransmitterRegistry, TxStatus, combined_ids,
                   first_repeat)
from .errors import ParseError, ValidationError

DATASET_MAGIC = b"LSHEMB01"
_HEADER = struct.Struct("<II")

FORMATS = ("bin", "csv")


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
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(_HEADER.pack(len(data), data.dim))
        fh.write(rows.tobytes())


def _load_bin(path) -> Dataset:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:8] != DATASET_MAGIC:
        raise ParseError(path, f"bad magic; expected {DATASET_MAGIC!r}", offset=0)
    if len(raw) < 16:
        raise ParseError(path, "truncated header", offset=8)
    n, dim = _HEADER.unpack_from(raw, 8)
    if dim < 1:
        raise ParseError(path, f"dim must be >= 1, got {dim}", offset=12)
    rec_bytes = 8 + 4 * dim
    expected = 16 + n * rec_bytes
    if len(raw) != expected:
        raise ParseError(
            path, f"expected {expected} bytes for {n} records of dim {dim}, "
                  f"got {len(raw)}", offset=min(len(raw), expected))
    rows = np.frombuffer(raw, dtype=_record_dtype(dim), offset=16)
    vecs = rows["vector"]
    if not np.all(np.isfinite(vecs)):
        bad = int(np.argwhere(~np.isfinite(vecs).all(axis=1))[0][0])
        raise ParseError(path, f"non-finite component in record {bad}",
                         offset=16 + bad * rec_bytes)
    try:
        return Dataset(dim, rows["tx"], rows["sample"], vecs)
    except ValidationError as e:
        raise ParseError(path, str(e)) from None


def _format_component(x: np.float32) -> str:
    return f"{float(x):.9g}"


def _save_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tx_id,sample_id," + ",".join(f"f{i}" for i in range(data.dim)) + "\n")
        mat = data.matrix
        for i in range(len(data)):
            comps = ",".join(_format_component(x) for x in mat[i])
            fh.write(f"{int(data.tx_ids[i])},{int(data.sample_ids[i])},{comps}\n")


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
        try:
            t, s = int(parts[0]), int(parts[1])
            vec = np.array([float(p) for p in parts[2:]], dtype=np.float32)
        except ValueError as e:
            raise ParseError(path, f"unparseable value: {e}", line=lineno) from None
        if not (0 <= t <= 2**32 - 1 and 0 <= s <= 2**32 - 1):
            raise ParseError(path, f"id out of u32 range: ({t}, {s})", line=lineno)
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
    with open(path, "w", newline="") as fh:
        fh.write("tx_id,status\n")
        for t in sorted(registry.statuses()):
            fh.write(f"{t},{registry.status_of(t).value}\n")


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
        try:
            t = int(parts[0])
        except ValueError:
            raise ParseError(path, f"bad tx_id {parts[0]!r}", line=lineno) from None
        if not 0 <= t <= 2**32 - 1:
            raise ParseError(path, f"tx_id out of u32 range: {t}", line=lineno)
        status = _STATUS_NAMES.get(parts[1])
        if status is None:
            raise ParseError(
                path, f"unknown status {parts[1]!r}; expected one of "
                      f"{sorted(_STATUS_NAMES)}", line=lineno)
        reg.set_status(t, status)
    return reg
