import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows
from otalign.matio import (
    MatrixIOError,
    append_metrics_jsonl,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from otalign.solver import SolverOptions, sinkhorn


def test_csv_parse_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    m = read_matrix_csv(p)
    assert m.shape == (2, 2)
    assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n\n3,4\n\n")
    assert read_matrix_csv(p).shape == (2, 2)


def test_csv_ragged_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(MatrixIOError, match="ragged row 2"):
        read_matrix_csv(p)


def test_csv_parse_error_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixIOError, match="row 2, column 2"):
        read_matrix_csv(p)


def test_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,nan\n")
    with pytest.raises(MatrixIOError, match="non-finite"):
        read_matrix_csv(p)


def test_csv_empty_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("\n")
    with pytest.raises(MatrixIOError, match="empty matrix file"):
        read_matrix_csv(p)


def test_csv_write_rejects_bad_input(tmp_path):
    p = tmp_path / "m.csv"
    with pytest.raises(MatrixIOError):
        write_matrix_csv(np.ones(3), p)
    with pytest.raises(MatrixIOError):
        write_matrix_csv(np.array([[1.0, np.inf]]), p)


def _old_csv_bytes(matrix):
    # the per-element formatter over numpy scalars that write_matrix_csv
    # used before it formatted Python floats
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in matrix).encode("ascii")


def _tiny_entry_plan():
    # a Sinkhorn plan at eps=0.05, whose entries span about twelve decades
    rng = np.random.default_rng(5)
    Z1 = normalize_rows(rng.standard_normal((64, 16)))
    Z2 = normalize_rows(rng.standard_normal((64, 16)))
    plan, _, _ = sinkhorn(gibbs_kernel(cosine_cost(Z1, Z2), 0.05), opts=SolverOptions(max_iterations=50))
    return plan.matrix


@pytest.mark.parametrize("matrix", [
    np.array([[-1.5, 0.0, -0.0, 2.0], [1e-300, -1e-300, 1e17, -1e17],
              [3.0, 12345678901234567.0, 5e-324, 1.7976931348623157e308]]),
    np.array([[0.1, -0.25, 1.0 / 3.0, 7.0, 2.0 ** 52 + 1.0]]),  # a 1 x N row
    np.arange(-6.0, 6.0).reshape(4, 3),  # exact integers
    np.random.default_rng(3).standard_normal((9, 17)) * 10.0 ** np.arange(-8, 9),
    np.zeros((3, 0)),
    np.zeros((0, 4)),
    np.random.default_rng(4).standard_normal((1, 1024)),
    _tiny_entry_plan(),
])
def test_csv_bytes_match_per_element_formatter(tmp_path, matrix):
    p = tmp_path / "m.csv"
    write_matrix_csv(matrix, p)
    assert p.read_bytes() == _old_csv_bytes(matrix)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
    p = tmp_path / "m.csv"
    write_matrix_csv(m, p)
    assert np.array_equal(read_matrix_csv(p), m)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
@example(np.array([[-0.0, 0.0, 5e-324, -2.2250738585072009e-308],
                   [1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, -5e-324]]))
def test_csv_roundtrip_bit_exact_property(tmp_path_factory, m):
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix_csv(m, p)
    back = read_matrix_csv(p)
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,oops\n", "parse error at row 2, column 2: 'oops'"),
    # the first bad value in row-major order wins, whatever its kind
    ("1,inf\nx,2\n", "non-finite value at row 1, column 2"),
    ("nan,oops\n", "non-finite value at row 1, column 1"),
    ("oops,nan\n", "parse error at row 1, column 1: 'oops'"),
    # rows are numbered by line, blank lines included
    ("\n\n1,2\n\n3\n", "ragged row 5: expected 2 columns, got 1"),
    # the width is checked before any value of the row is parsed
    ("1,2\nx,y,z\n", "ragged row 2: expected 2 columns, got 3"),
    ("1,2,\n", "parse error at row 1, column 3: ''"),
    ("\n\n", "empty matrix file: {path}"),
])
def test_csv_read_error_messages(tmp_path, text, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    message = message.format(path=p)
    with pytest.raises(MatrixIOError, match=re.escape(message)) as err:
        read_matrix_csv(p)
    assert str(err.value) == message


def test_csv_read_accepts_python_float_tokens(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1, 1.5,1_000,1e-320,-0.0\n")
    m = read_matrix_csv(p)
    assert m.dtype == np.float64
    assert m.tolist() == [[1.0, 1.5, 1000.0, 1e-320, 0.0]]
    assert np.signbit(m[0, 4]) and not np.signbit(m[0, 0])


@pytest.mark.parametrize("raw, message", [
    (b"\xef\xbb\xbf1.0,2.0\n", "non-ASCII byte 0xef at row 1"),  # a UTF-8 byte-order mark
    (b"1.0,2.0\n\n3.0,4\xff\n", "non-ASCII byte 0xff at row 3"),
])
def test_csv_non_ascii_byte_is_a_matrix_error(tmp_path, raw, message):
    p = tmp_path / "m.csv"
    p.write_bytes(raw)
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(p)
    assert str(err.value) == message


def test_bin_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 9))
    p = tmp_path / "m.bin"
    write_matrix_bin(m, p)
    back = read_matrix_bin(p)
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_bin_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(MatrixIOError, match="bad magic"):
        read_matrix_bin(p)


def test_bin_bad_version(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"GCAM" + bytes([9]) + bytes(20))
    with pytest.raises(MatrixIOError, match="unsupported version"):
        read_matrix_bin(p)


def test_bin_truncated_header(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"GCAM" + bytes([1]) + bytes(4))
    with pytest.raises(MatrixIOError, match="truncated header"):
        read_matrix_bin(p)


def test_bin_truncated_payload(tmp_path):
    p = tmp_path / "m.bin"
    write_matrix_bin(np.ones((3, 3)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(MatrixIOError, match="truncated payload"):
        read_matrix_bin(p)


def test_jsonl_append_and_format(tmp_path):
    p = tmp_path / "m.jsonl"
    append_metrics_jsonl({"loss": 1.5, "epoch": 0}, p)
    append_metrics_jsonl({"epoch": 1, "loss": 1.25}, p)
    lines = p.read_text().splitlines()
    assert lines[0] == '{"epoch":0,"loss":1.5}'
    assert json.loads(lines[1]) == {"epoch": 1, "loss": 1.25}


def test_jsonl_integral_floats_written_as_ints(tmp_path):
    p = tmp_path / "m.jsonl"
    append_metrics_jsonl({"epoch": 3.0, "loss": 2.0}, p)
    assert p.read_text() == '{"epoch":3,"loss":2}\n'


def test_jsonl_unknown_metric(tmp_path):
    p = tmp_path / "m.jsonl"
    with pytest.raises(MatrixIOError, match="unknown metric name"):
        append_metrics_jsonl({"bogus": 1.0}, p)


def test_jsonl_non_finite_metric(tmp_path):
    p = tmp_path / "m.jsonl"
    with pytest.raises(MatrixIOError, match="non-finite metric"):
        append_metrics_jsonl({"loss": float("nan")}, p)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_property(tmp_path_factory, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    d = tmp_path_factory.mktemp("io")
    write_matrix_csv(m, d / "m.csv")
    write_matrix_bin(m, d / "m.bin")
    assert np.array_equal(read_matrix_csv(d / "m.csv"), m)
    assert np.array_equal(read_matrix_bin(d / "m.bin"), m)


def test_bin_payload_read_without_trailing_bytes(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    p = tmp_path / "m.bin"
    write_matrix_bin(m, p)
    p.write_bytes(p.read_bytes() + b"extra")
    back = read_matrix_bin(p)
    assert back.dtype == np.float64 and back.flags.writeable
    assert np.array_equal(back, m)
    write_matrix_bin(np.zeros((0, 3)), p)
    assert read_matrix_bin(p).shape == (0, 3)
