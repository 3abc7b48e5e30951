"""File formats used by the pipeline.

Matrix binary format (bit-exact): magic "RBDM" (4 bytes), version u16,
flags u16, rows u32, cols u32, then rows*cols f64 little-endian in
row-major order.  File size is therefore 16 + 8*rows*cols bytes.

CSV interop: first line "rows,cols", then one matrix row per line with
17 significant digits (full float64 round trip).

Frame dumps are 8-bit binary PGM (P5) with min-max scaling per frame.

All writers go through a temp-file-plus-rename so a failed stage never
leaves a partially written output.
"""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError

_MATRIX_MAGIC = b"RBDM"
_MATRIX_VERSION = 1


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write to a temp file in the target directory, rename on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError("only 2-D matrices can be written")
    with atomic_write(path) as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<HHII", _MATRIX_VERSION, 0, A.shape[0], A.shape[1]))
        fh.write(np.ascontiguousarray(A, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != _MATRIX_MAGIC:
            raise ValidationError(f"{path}: not a matrix file")
        version, _flags, rows, cols = struct.unpack_from("<HHII", header, 4)
        if version != _MATRIX_VERSION:
            raise ValidationError(f"{path}: unsupported matrix version {version}")
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    if data.size != rows * cols:
        raise ValidationError(f"{path}: truncated matrix payload")
    return data.reshape(rows, cols)


def write_matrix_csv(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError("only 2-D matrices can be written")
    with atomic_write(path, "w") as fh:
        fh.write(f"{A.shape[0]},{A.shape[1]}\n")
        for row in A:
            fh.write(",".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        try:
            rows, cols = (int(x) for x in fh.readline().strip().split(","))
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed CSV: {exc}") from exc
    if data.shape != (rows, cols):
        raise ValidationError(
            f"{path}: header says {rows}x{cols}, payload is {data.shape}")
    return data


def write_pgm(frame: np.ndarray, path) -> None:
    """8-bit P5 grayscale with per-frame min-max scaling."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ValidationError("PGM frames must be 2-D")
    lo = frame.min()
    hi = frame.max()
    if hi > lo:
        scaled = np.round((frame - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(frame)
    pixels = scaled.astype(np.uint8)
    with atomic_write(path) as fh:
        fh.write(f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode())
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValidationError(f"{path}: not a binary PGM file")
    width, height = (int(x) for x in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8,
                         count=width * height).reshape(height, width)
