import numpy as np
import pytest

from jointmm.errors import ConfigurationError
from jointmm.matio import (
    read_matrix,
    read_matrix_csv,
    read_matrix_mm,
    write_matrix_csv,
    write_matrix_mm,
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


def test_read_matrix_dispatch(rng, tmp_path):
    M = rng.standard_normal((2, 2))
    write_matrix_csv(M, tmp_path / "a.csv")
    write_matrix_mm(M, tmp_path / "a.mtx")
    assert np.array_equal(read_matrix(tmp_path / "a.csv"), M)
    assert np.array_equal(read_matrix(tmp_path / "a.mtx"), M)


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
