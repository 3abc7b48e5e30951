import os

import numpy as np
import pytest

from sparsesense.errors import ValidationError
from sparsesense.matio import (
    atomic_write,
    read_matrix,
    read_matrix_csv,
    write_matrix,
    write_matrix_csv,
    write_pgm,
)


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((17, 9))
    A[0, 0] = np.pi
    A[1, 1] = -0.0
    A[2, 2] = 5e-324  # smallest subnormal
    path = tmp_path / "a.rbdm"
    write_matrix(A, path)
    B = read_matrix(path)
    assert A.tobytes() == B.tobytes()


def test_matrix_file_size_formula(tmp_path):
    for m, n in [(1, 1), (17, 9), (300, 40)]:
        path = tmp_path / f"{m}x{n}.rbdm"
        write_matrix(np.zeros((m, n)), path)
        assert path.stat().st_size == 16 + 8 * m * n


def test_matrix_rewrite_is_byte_identical(tmp_path):
    A = np.random.default_rng(1).standard_normal((5, 6))
    write_matrix(A, tmp_path / "a.rbdm")
    write_matrix(A, tmp_path / "b.rbdm")
    assert (tmp_path / "a.rbdm").read_bytes() == (tmp_path / "b.rbdm").read_bytes()


def test_matrix_rejects_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.rbdm"
    bad.write_bytes(b"ABCD" + b"\0" * 12)
    with pytest.raises(ValidationError):
        read_matrix(bad)
    good = tmp_path / "good.rbdm"
    write_matrix(np.ones((4, 4)), good)
    truncated = tmp_path / "trunc.rbdm"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        read_matrix(truncated)


def test_matrix_rejects_non_2d():
    with pytest.raises(ValidationError):
        write_matrix(np.zeros(3), "/dev/null")


def test_csv_round_trip_full_precision(tmp_path):
    A = np.random.default_rng(2).standard_normal((8, 5))
    A[0, 0] = 1.0 / 3.0
    path = tmp_path / "a.csv"
    write_matrix_csv(A, path)
    B = read_matrix_csv(path)
    np.testing.assert_array_equal(A, B)
    assert path.read_text().splitlines()[0] == "8,5"


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    for text in ("hello\n1,2\n",        # header
                 "3,1\n0\nabc\n1\n",    # non-numeric entry
                 "2,2\n0,1\n2\n"):      # ragged row
        path.write_text(text)
        with pytest.raises(ValidationError):
            read_matrix_csv(path)


def test_csv_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1,2\n3,4\n")
    with pytest.raises(ValidationError):
        read_matrix_csv(path)


def test_pgm_round_trip_and_scaling(tmp_path):
    frame = np.array([[0.0, 5.0], [10.0, 2.5], [-1.0, 7.3]])
    path = tmp_path / "f.pgm"
    write_pgm(frame, path)
    assert path.read_bytes() == b"P5\n2 3\n255\n" + bytes([23, 139, 255, 81, 0, 192])


def test_pgm_constant_frame_is_black(tmp_path):
    path = tmp_path / "c.pgm"
    write_pgm(np.full((3, 4), 7.0), path)
    assert path.read_bytes() == b"P5\n4 3\n255\n" + bytes(12)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-np.finfo(float).max, np.finfo(float).max),
                                    (-1e308, 1.5e308)])
def test_pgm_range_past_the_float_range_maps_its_extremes_to_0_and_255(tmp_path, lo, hi):
    # hi - lo overflows; the scaling must not (a RuntimeWarning fails the test)
    path = tmp_path / "wide.pgm"
    write_pgm(np.array([[lo, hi], [lo / 2 + hi / 2, lo]]), path)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 0])


def test_atomic_write_leaves_no_temp_on_failure(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_atomic_write_preserves_old_contents_on_failure(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write(b"new")
            raise RuntimeError("boom")
    assert target.read_bytes() == b"old"
