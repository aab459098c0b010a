import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from jointmm.errors import ConfigurationError
from jointmm.numerics import ALIGN_MIN_BYTES
from jointmm.matio import (
    _CHUNK,
    _ENTRY,
    _parse_lines,
    read_matrix,
    read_matrix_csv,
    read_matrix_mm,
    write_matrix_csv,
    write_matrix_mm,
)

from oracles import (
    address,
    read_matrix_csv_lines,
    read_matrix_mm_lines,
    write_matrix_csv_lines,
    write_matrix_mm_lines,
)


def test_csv_roundtrip_bit_identical(rng, tmp_path):
    M = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-8, 8, (4, 3)))
    path = tmp_path / "m.csv"
    write_matrix_csv(M, path)
    back = read_matrix_csv(path)
    assert np.array_equal(M, back)


def test_mm_coordinate_roundtrip_bit_identical(rng, tmp_path):
    M = rng.standard_normal((5, 4))
    M[rng.random((5, 4)) < 0.4] = 0.0
    path = tmp_path / "m.mtx"
    write_matrix_mm(M, path, layout="coordinate")
    assert np.array_equal(M, read_matrix_mm(path))


def test_mm_array_roundtrip_bit_identical(rng, tmp_path):
    M = rng.standard_normal((3, 6))
    path = tmp_path / "m.mtx"
    write_matrix_mm(M, path, layout="array")
    assert np.array_equal(M, read_matrix_mm(path))


def test_mm_writer_rejects_a_layout_before_it_touches_the_file(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"keep me\n")
    with pytest.raises(ConfigurationError, match="unknown MatrixMarket layout 'bogus'"):
        write_matrix_mm(np.eye(2), path, layout="bogus")
    assert path.read_bytes() == b"keep me\n"


def test_read_matrix_dispatch(rng, tmp_path):
    M = rng.standard_normal((2, 2))
    write_matrix_csv(M, tmp_path / "a.csv")
    write_matrix_mm(M, tmp_path / "a.mtx")
    assert np.array_equal(read_matrix(tmp_path / "a.csv"), M)
    assert np.array_equal(read_matrix(tmp_path / "a.mtx"), M)


@pytest.mark.parametrize("layout", ["csv", "coordinate", "array"])
def test_read_matrix_results_start_on_64_byte_boundaries(rng, tmp_path, layout):
    # 120 x 80 (76.8 KB) is past numerics.ALIGN_MIN_BYTES; the result keeps
    # its layout (a MatrixMarket array file reads back F-contiguous) and
    # its bits
    M = rng.standard_normal((120, 80))
    M[rng.random(M.shape) < 0.3] = 0.0
    path = tmp_path / ("m.csv" if layout == "csv" else "m.mtx")
    if layout == "csv":
        write_matrix_csv(M, path)
    else:
        write_matrix_mm(M, path, layout=layout)
    got = read_matrix(path)
    assert M.nbytes >= ALIGN_MIN_BYTES and address(got) % 64 == 0
    assert got.tobytes() == M.tobytes()
    assert (got.flags.f_contiguous, got.flags.c_contiguous) == (
        layout == "array", layout != "array")


def test_read_matrix_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(ConfigurationError, match="nope.csv"):
        read_matrix(missing)


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ConfigurationError, match="ragged"):
        read_matrix_csv(path)


def test_mm_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not matrixmarket\n1 1 0\n")
    with pytest.raises(ConfigurationError):
        read_matrix_mm(path)


def test_mm_nnz_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n")
    with pytest.raises(ConfigurationError, match="declares"):
        read_matrix_mm(path)


@pytest.mark.parametrize("index", ["0 1", "3 1", "1 0", "1 3"])
def test_mm_coordinate_index_outside_size_rejected(tmp_path, index):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{index} 3.5\n")
    with pytest.raises(ConfigurationError, match="outside its 2x2 size"):
        read_matrix_mm(path)


def test_mm_short_size_line_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 3.5\n")
    with pytest.raises(ConfigurationError, match="short size line"):
        read_matrix_mm(path)


@pytest.mark.parametrize(
    "name, text",
    [("bad.csv", "1,2\n3,x\n"),
     ("bad.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"),
     ("bad.mm", "%%MatrixMarket matrix array real general\n1 1\nabc\n")],
)
def test_non_numeric_token_names_the_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"malformed matrix file .*{name}"):
        read_matrix(path)


# --- bulk parse against the line-by-line reference (tests/oracles.py) ---

MM_COORD = "%%MatrixMarket matrix coordinate real general\n"
MM_ARRAY = "%%MatrixMarket matrix array real general\n"


def _coordinate(rows, cols, lines, nnz=None):
    """A coordinate file; nnz defaults to the number of entry lines."""
    if nnz is None:
        nnz = sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("%"))
    return MM_COORD + f"{rows} {cols} {nnz}\n" + "".join(ln + "\n" for ln in lines)


def _many_entries(rows, cols, count, seed):
    """`count` coordinate lines with random in-range indices (so duplicates
    recur) and shortest-repr values, enough to span several parse chunks."""
    rng = np.random.default_rng(seed)
    i = rng.integers(1, rows + 1, count)
    j = rng.integers(1, cols + 1, count)
    v = rng.standard_normal(count) * np.exp(rng.uniform(-30, 30, count))
    return [f"{a} {b} {x!r}" for a, b, x in zip(i.tolist(), j.tolist(), v.tolist())]


LONG = 2 * _CHUNK + 5
BIG = _many_entries(40, 30, LONG, 1)

VALID = {
    "crlf.mtx": MM_COORD.replace("\n", "\r\n") + "2 2 2\r\n1 1 1.5\r\n2 2 -3\r\n",
    "tabs.mtx": _coordinate(2, 2, ["1\t2\t3.25", " \t2 1\t-0.5 \t"]),
    "vertical-tab-and-form-feed.mtx": _coordinate(2, 2, ["1\x0b2\x0c3.25"]),
    "blank-and-comments.mtx": MM_COORD + "% a comment\n%\n2 2 2\n\n  \n% x\n   % indented\n"
    "1 1 1\n\t\n2 2 2\n% trailing\n",
    "signs-and-shapes.mtx": _coordinate(3, 3, ["+1 +2 +3.5", "1 1 .5", "2 2 5.", "3 3 1E5",
                                               "01 003 -.25", "3 1 -0", "2 3 +0.0"]),
    "specials.mtx": _coordinate(3, 3, ["1 1 inf", "1 2 -inf", "1 3 nan", "2 1 -nan",
                                       "2 2 Infinity", "2 3 NaN", "3 1 1e309", "3 2 -1e-400"]),
    "subnormals.mtx": _coordinate(2, 2, ["1 1 4.9e-324", "1 2 -4.9e-324",
                                         "2 1 2.2250738585072011e-308",
                                         "2 2 2.4703282292062328e-324"]),
    "long-mantissa.mtx": _coordinate(1, 2, ["1 1 0.1234567890123456789012345678901234567890",
                                            "1 2 9007199254740993.0000000000000000000001"]),
    "duplicates.mtx": _coordinate(2, 2, ["1 1 1", "2 2 2", "1 1 3", "1 1 4"]),
    "integer-field.mtx": "%%MatrixMarket matrix coordinate integer general\n1 2 2\n1 1 7\n1 2 -3\n",
    "nnz-zero.mtx": _coordinate(2, 3, []),
    "nnz-zero-comments.mtx": _coordinate(2, 3, ["% nothing", "", "% here"]),
    "multi-chunk.mtx": _coordinate(40, 30, BIG),
    "comment-chunk.mtx": _coordinate(40, 30, BIG[:10] + ["% filler"] * LONG + BIG[10:20]),
    "blank-chunk.mtx": _coordinate(40, 30, BIG[:10] + ["", "  ", "\t"] * (LONG // 3) + BIG[10:20]),
    "late-comments.mtx": _coordinate(40, 30, BIG[:_CHUNK + 5] + ["% late", "", "  % x", "\t"]
                                     + BIG[_CHUNK + 5:]),
    "array.mtx": MM_ARRAY + "2 2\n1\n-2.5\n% c\n\n+.5\n1e-320\n",
    "array-crlf.mtx": MM_ARRAY.replace("\n", "\r\n") + "1 2\r\n inf \r\n-nan\r\n",
    "array-empty.mtx": MM_ARRAY + "0 3\n",
    "array-multi-chunk.mtx": MM_ARRAY + f"{LONG} 1\n" + "".join(ln.split()[2] + "\n" for ln in BIG),
    "plain.csv": "1,2\n3,4\n",
    "crlf.csv": "1,2\r\n3,4\r\n",
    "blank-lines.csv": "\n1,2\n   \n\t\n3,4\n\n",
    "spaces.csv": " 1 , 2\t\n\t3,4 \n",
    "tokens.csv": "+1,.5,5.,1E5,inf,-inf,nan,-nan,4.9e-324,-0.0,1e309\n",
    "one-column.csv": "1\n2\n3\n",
    "multi-chunk.csv": "".join(ln.split()[2] + "," + ln.split()[0] + "\n" for ln in BIG),
    "blank-chunk.csv": "1,2\n" + "\n  \n" * LONG + "3,4\n",
    "late-blanks.csv": "1,2\n" * (_CHUNK + 3) + "\n \t\n" + "3,4\n" * 5,
}

MALFORMED = {
    "index-float.mtx": _coordinate(2, 2, ["1.0 1 2"]),
    "index-exp.mtx": _coordinate(2, 2, ["1 1e0 2"]),
    "index-hex.mtx": _coordinate(2, 2, ["0x1 1 2"]),
    "two-tokens.mtx": _coordinate(2, 2, ["1 1"]),
    "four-tokens.mtx": _coordinate(2, 2, ["1 1 2 3"]),
    "inline-comment.mtx": _coordinate(2, 2, ["1 1 2 % note"]),
    "value-word.mtx": _coordinate(2, 2, ["1 1 abc"]),
    "value-hex-float.mtx": _coordinate(2, 2, ["1 1 0x1p3"]),
    "value-comma.mtx": _coordinate(2, 2, ["1 1 1,5"]),
    "value-fortran-exp.mtx": _coordinate(2, 2, ["1 1 1d5"]),
    "count-low.mtx": _coordinate(2, 2, ["1 1 1", "2 2 2"], nnz=3),
    "count-high.mtx": _coordinate(2, 2, ["1 1 1", "2 2 2"], nnz=1),
    "row-zero.mtx": _coordinate(2, 2, ["0 1 1"]),
    "row-high.mtx": _coordinate(2, 2, ["3 1 1"]),
    "col-zero.mtx": _coordinate(2, 2, ["1 0 1"]),
    "col-high.mtx": _coordinate(2, 2, ["1 3 1"]),
    "index-negative.mtx": _coordinate(2, 2, ["-1 1 1"]),
    "outside-then-word.mtx": _coordinate(2, 2, ["1 1 1", "1 9 1", "x y z"]),
    "word-then-outside.mtx": _coordinate(2, 2, ["1 1 1", "x y z", "1 9 1"]),
    "outside-twice.mtx": _coordinate(2, 2, ["1 1 1", "2 7 1", "5 1 1"]),
    "outside-late-chunk.mtx": _coordinate(40, 30, BIG + ["41 1 1.0"]),
    "word-late-chunk.mtx": _coordinate(40, 30, BIG[:_CHUNK + 3] + ["1 1 ?"] + BIG[_CHUNK + 3:]),
    "short-size.mtx": MM_COORD + "2 2\n1 1 3.5\n",
    "blank-before-size.mtx": MM_COORD + "\n2 2 1\n1 1 3.5\n",
    "not-mm.mtx": "not matrixmarket\n1 1 0\n",
    "symmetric.mtx": "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1\n",
    "complex.mtx": "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
    "non-ascii.mtx": _coordinate(2, 2, ["1 1 ٣"]),
    "array-two-per-line.mtx": MM_ARRAY + "2 1\n1 2\n",
    "array-two-per-line-only.mtx": MM_ARRAY + "2 2\n1 2\n3 4\n",
    "array-word.mtx": MM_ARRAY + "1 1\nabc\n",
    "array-count.mtx": MM_ARRAY + "2 2\n1\n2\n3\n",
    "array-short-size.mtx": MM_ARRAY + "2\n1\n",
    "word.csv": "1,2\n3,x\n",
    "trailing-comma.csv": "1,2,\n3,4,\n",
    "double-comma.csv": "1,,2\n",
    "ragged.csv": "1,2\n3\n",
    "ragged-late-chunk.csv": "1,2\n" * (_CHUNK + 3) + "1,2,3\n",
    "ragged-then-word.csv": "1,2\n3\nx,y\n",
    "empty.csv": "",
    "blank-only.csv": "\n  \n\t\n",
    "percent.csv": "% c\n1,2\n",
    "quoted.csv": '"1",2\n',
    "space-separated.csv": "1 2,3\n",
    "non-ascii.csv": "1,٣\n",
}


def _outcome(read, path):
    """What a reader does with a file: the array's shape and bytes, the
    message of its ConfigurationError, or "malformed" for a ValueError (the
    text of which comes from the parser, int() / float() or numpy)."""
    try:
        M = read(path)
    except ConfigurationError as exc:
        return ("rejected", str(exc))
    except ValueError:
        return ("malformed",)
    return ("read", M.shape, M.dtype.str, M.tobytes())


def _both_readers(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    if name.endswith(".csv"):
        return _outcome(read_matrix_csv_lines, path), _outcome(read_matrix_csv, path)
    return _outcome(read_matrix_mm_lines, path), _outcome(read_matrix_mm, path)


@pytest.mark.parametrize("name", sorted(VALID))
def test_bulk_reader_matches_line_reader_on_valid_files(tmp_path, name):
    ref, got = _both_readers(tmp_path, name, VALID[name])
    assert ref[0] == "read"
    assert got == ref


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_bulk_reader_matches_line_reader_on_malformed_files(tmp_path, name):
    ref, got = _both_readers(tmp_path, name, MALFORMED[name])
    assert ref[0] != "read"
    assert got == ref


UNDERSCORE = {
    "index.mtx": _coordinate(20, 2, ["1_0 1 2"]),
    "value.mtx": _coordinate(2, 2, ["1 1 1_0"]),
    "value.csv": "1_0,2\n",
}


@pytest.mark.parametrize("name", sorted(UNDERSCORE))
def test_underscore_literal_is_the_one_difference(tmp_path, name):
    # int() and float() accept Python's digit separator and read 1_0 as 10;
    # numpy's parser does not, so the bulk reader rejects the file
    ref, got = _both_readers(tmp_path, name, UNDERSCORE[name])
    assert ref[0] == "read"
    assert got == ("malformed",)


@pytest.mark.parametrize("name", ["comment-chunk.mtx", "blank-chunk.mtx", "blank-chunk.csv"])
def test_chunk_without_data_raises_no_warning(tmp_path, name):
    # np.loadtxt warns on input with no data; no chunk of these reaches it so
    path = tmp_path / name
    path.write_text(VALID[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read_matrix(str(path))


def test_bad_line_in_a_later_chunk_keeps_the_rows_before_it(tmp_path):
    # a comment and a blank line in the bad line's chunk too: the rows before
    # it come back in file order, and the error is that line's alone (row 0)
    lines = BIG[:_CHUNK + 3] + ["% c", ""] + BIG[_CHUNK + 3 : _CHUNK + 9] + ["1 1 ?"] + BIG[-5:]
    path = tmp_path / "m.txt"
    path.write_text("".join(ln + "\n" for ln in lines))
    blocks = []
    with open(path, encoding="ascii") as fh, pytest.raises(ValueError, match="'\\?' .* row 0"):
        for block in _parse_lines(fh, _ENTRY, comment="%"):
            blocks.append(block)
    got = np.concatenate(blocks)
    want = [tuple(float(t) for t in ln.split()) for ln in BIG[:_CHUNK + 9]]
    assert [(int(i), int(j), v) for i, j, v in got.tolist()] == want


def test_huge_declared_size_is_a_configuration_error(tmp_path):
    # 10^18 entries, 8 EB: no 64-bit address space holds them, so the
    # allocation is refused at once whatever the overcommit policy
    path = tmp_path / "huge.mtx"
    path.write_text(MM_COORD + "1000000000 1000000000 1\n1 1 1.0\n")
    with pytest.raises(ConfigurationError, match="declares a 1000000000x1000000000 matrix"):
        read_matrix(path)


def test_coordinate_writer_keeps_negative_zero(tmp_path):
    M = np.array([[-0.0, 1.0], [2.0, 0.0]])
    path = tmp_path / "m.mtx"
    write_matrix_mm(M, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "2 2 3" and "1 1 -0.0" in lines
    back = read_matrix_mm(path)
    assert back.tobytes() == M.tobytes()


@pytest.mark.parametrize("layout", ["coordinate", "array", "csv"])
def test_writers_match_line_writers_across_chunks(rng, tmp_path, layout):
    M = rng.standard_normal((97, 103)) * np.exp(rng.uniform(-300, 300, (97, 103)))
    M[rng.random(M.shape) < 0.3] = 0.0
    new, ref = tmp_path / "new", tmp_path / "ref"
    if layout == "csv":
        write_matrix_csv(M, new)
        write_matrix_csv_lines(M, ref)
    else:
        write_matrix_mm(M, new, layout=layout)
        write_matrix_mm_lines(M, ref, layout=layout)
    assert new.read_bytes() == ref.read_bytes()


# --- round-trip properties ---

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
)
MATRICES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=FINITE)


def _roundtrip(M, path, layout):
    if layout == "csv":
        write_matrix_csv(M, path)
        return read_matrix_csv(path)
    write_matrix_mm(M, path, layout=layout)
    return read_matrix_mm(path)


@pytest.mark.parametrize("layout", ["coordinate", "array", "csv"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(M=MATRICES)
def test_write_read_is_bit_identical(tmp_path_factory, layout, M):
    path = tmp_path_factory.mktemp("rt") / "m"
    back = _roundtrip(M, path, layout)
    assert back.shape == M.shape and back.tobytes() == M.tobytes()


@pytest.mark.parametrize("layout", ["coordinate", "array", "csv"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(M=MATRICES)
def test_writers_match_line_writers(tmp_path_factory, layout, M):
    M = M + 0.0  # -0.0 -> +0.0: the line coordinate writer drops -0.0 entries
    d = tmp_path_factory.mktemp("w")
    if layout == "csv":
        write_matrix_csv(M, d / "new")
        write_matrix_csv_lines(M, d / "ref")
    else:
        write_matrix_mm(M, d / "new", layout=layout)
        write_matrix_mm_lines(M, d / "ref", layout=layout)
    assert (d / "new").read_bytes() == (d / "ref").read_bytes()
