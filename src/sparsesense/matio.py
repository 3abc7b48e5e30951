"""File formats used by the pipeline.

Each binary artifact is one record, little-endian and bit-exact: a
4-byte magic, a struct header whose first field is the u16 version (1),
then arrays in row-major order and nothing after them.  The header fixes
the file size, which the reader checks before it allocates anything.

- .rbdm matrix: "RBDM", version, flags u16, rows u32, cols u32; then
  rows*cols f64.  File size 16 + 8*rows*cols.
- .ospb sensor basis: "OSPB", version, m, r, s u32; then modes m*r f64,
  sensor_indices s u32 (selection order), theta_pinv r*s f64.
- .lstm model: "LSTM", version, s, H, D, out u32, dropout f64; then f64
  norm_mean s, norm_std s, Wx s*4H, Wh H*4H, b 4H, Wd H*D, bd D,
  Wo D*out, bo out.

CSV: a header line ("rows,cols" for a matrix), then one row per line,
floats with 17 significant digits (full float64 round trip).

Frame dumps are 8-bit binary PGM (P5) with min-max scaling per frame.

All writers go through a temp file plus rename, so a failed stage never
leaves a partial output; files get the mode open() would (0666 & ~umask).
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError


class Record(NamedTuple):
    """A binary artifact format.  `header` is the struct format after the
    magic, version first; `layout(*fields)` gives the (dtype, shape) of
    each array from the header fields after the version."""

    magic: bytes
    header: str
    version: int
    layout: Callable[..., list[tuple[str, tuple[int, ...]]]]


_MATRIX = Record(b"RBDM", "<HHII", 1,
                 lambda flags, rows, cols: [("<f8", (rows, cols))])


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write to a temp file in the target directory, rename on success."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(path, fmt: Record, fields: tuple, arrays) -> None:
    """Write one record atomically; each array is cast to its layout dtype."""
    with atomic_write(path) as fh:
        fh.write(fmt.magic)
        fh.write(struct.pack(fmt.header, fmt.version, *fields))
        for (dtype, _), array in zip(fmt.layout(*fields), arrays, strict=True):
            fh.write(np.ascontiguousarray(array, dtype=dtype).data)


def read_record(path, fmt: Record) -> tuple[tuple, list[np.ndarray]]:
    """The header fields after the version, and the arrays, of one record.
    Magic, header length, version and exact file size are all checked
    before any array is allocated."""
    magic = fmt.magic.decode()
    header_end = len(fmt.magic) + struct.calcsize(fmt.header)
    with open(path, "rb") as fh:
        head = fh.read(header_end)
        if len(head) < header_end or not head.startswith(fmt.magic):
            raise ValidationError(f"{path}: not a {magic} file")
        version, *fields = struct.unpack_from(fmt.header, head, len(fmt.magic))
        if version != fmt.version:
            raise ValidationError(f"{path}: unsupported {magic} version {version}")
        layout = fmt.layout(*fields)
        expected = len(head) + sum(np.dtype(dtype).itemsize * math.prod(shape)
                                   for dtype, shape in layout)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValidationError(f"{path}: {size} bytes, its header implies {expected}")
        arrays = [np.empty(shape, dtype=dtype) for dtype, shape in layout]
        for array in arrays:
            if fh.readinto(array) != array.nbytes:
                raise ValidationError(f"{path}: file shrank while being read")
    return tuple(fields), arrays


def write_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValidationError("only 2-D matrices can be written")
    write_record(path, _MATRIX, (0, *A.shape), [A])


def read_matrix(path) -> np.ndarray:
    return read_record(path, _MATRIX)[1][0]


def write_csv(path, header: str, rows) -> None:
    """A header line, then one line per row; floats with 17 digits."""
    with atomic_write(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row))
            fh.write("\n")


def write_matrix_csv(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError("only 2-D matrices can be written")
    write_csv(path, f"{A.shape[0]},{A.shape[1]}", A)


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
    lo, hi = float(frame.min()), float(frame.max())
    # hi - lo is inf past the float range; halving every term keeps it
    # finite, and is exact for every value above the subnormals
    k = 0.5 if math.isinf(hi - lo) else 1.0
    scaled = (np.round((frame * k - lo * k) / (hi * k - lo * k) * 255.0) if hi > lo
              else np.zeros_like(frame))
    with atomic_write(path) as fh:
        fh.write(f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode())
        fh.write(scaled.astype(np.uint8).tobytes())
