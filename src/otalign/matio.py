"""Matrix and metrics I/O: headerless CSV, a small binary format, JSONL.

CSV values are written with 17 significant digits so a write/read round
trip is faithful.  The binary format is magic ``GCAM``, a version byte,
two little-endian u64 dims, then row-major little-endian f64 data.
"""

import json
import os
import struct

import numpy as np

from .errors import OtalignError

MAGIC = b"GCAM"
VERSION = 1

# The metric names ``otalign train`` writes to JSONL: per-epoch history,
# the final probe record and the domain-sweep rows.
METRIC_REGISTRY = frozenset(
    {
        "epoch",
        "loss",
        "alignment",
        "uniformity",
        "probe_accuracy",
        "class_accuracy",
        "domain_accuracy",
        "alpha",
        "beta",
        "seed",
    }
)


class MatrixIOError(OtalignError):
    """Raised for malformed matrix files or records."""


def read_matrix_csv(path):
    """Parse a rectangular headerless numeric CSV into a 2-D float array."""
    rows = []
    width = None
    # undecodable bytes come through as lone surrogates, so that they are
    # reported with their row rather than as a decoding error of the file
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise MatrixIOError(f"non-ASCII byte 0x{byte:02x} at row {i + 1}")
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MatrixIOError(f"ragged row {i + 1}: expected {width} columns, got {len(fields)}")
            # one float map and one finiteness check per row; a failing row
            # is rescanned token by token for the first bad position
            try:
                parsed = np.array(list(map(float, fields)))
            except ValueError:
                parsed = None
            if parsed is None or not np.isfinite(parsed).all():
                for j, tok in enumerate(fields):
                    try:
                        val = float(tok)
                    except ValueError:
                        raise MatrixIOError(f"parse error at row {i + 1}, column {j + 1}: {tok!r}") from None
                    if not np.isfinite(val):
                        raise MatrixIOError(f"non-finite value at row {i + 1}, column {j + 1}")
            rows.append(parsed)
    if not rows:
        raise MatrixIOError(f"empty matrix file: {path}")
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(matrix, path):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise MatrixIOError("expected a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise MatrixIOError("refusing to write non-finite values")
    # one format string for every row, applied to a row's Python floats
    # (which format faster than numpy scalars, to the same bytes); one row
    # at a time, because a whole-matrix list of floats costs tens of
    # megabytes of resident set on a 1024 x 1024 plan
    row_fmt = (",".join(["%.17g"] * matrix.shape[1]) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        for row in matrix:
            fh.write(row_fmt % tuple(row.tolist()))


def read_matrix_bin(path):
    # the payload is read straight into the result: no copy of the file's
    # bytes is held next to it
    with open(path, "rb") as fh:
        head = fh.read(21)
        if head[:4] != MAGIC:
            raise MatrixIOError(f"bad magic in {path}: {head[:4]!r}")
        if len(head) < 5 or head[4] != VERSION:
            raise MatrixIOError("unsupported version")
        if len(head) < 21:
            raise MatrixIOError("truncated header")
        rows, cols = struct.unpack("<QQ", head[5:21])
        need = 21 + 8 * rows * cols
        size = os.fstat(fh.fileno()).st_size
        if size < need:
            raise MatrixIOError(f"truncated payload: expected {need} bytes, got {size}")
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise MatrixIOError(f"truncated payload: expected {need} bytes")
    if not np.all(np.isfinite(data)):
        raise MatrixIOError("non-finite value in binary payload")
    return data.astype(np.float64, copy=False)


def write_matrix_bin(matrix, path):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise MatrixIOError("expected a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise MatrixIOError("refusing to write non-finite values")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(matrix.astype("<f8").tobytes())


def append_metrics_jsonl(record, path):
    """Append one metrics record as a single sorted-key JSON line."""
    clean = {}
    for key, val in record.items():
        if key not in METRIC_REGISTRY:
            raise MatrixIOError(f"unknown metric name: {key}")
        val = float(val)
        if not np.isfinite(val):
            raise MatrixIOError(f"non-finite metric {key}")
        if val == int(val) and abs(val) < 2**53:
            val = int(val)
        clean[key] = val
    line = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="ascii") as fh:
        fh.write(line + "\n")
