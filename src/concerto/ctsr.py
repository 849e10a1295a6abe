"""CTSR binary tensor files.

Layout: magic ``CTSR``, u8 version (1), u8 dtype code (1=f64, 2=f32,
3=i64), u8 ndim, ndim little-endian u64 dims, then the row-major
little-endian payload. Every module uses this format for feature and
parameter exchange.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CTSR"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<f4"), 3: np.dtype("<i8")}
_CODE_FOR_KIND = {"f8": 1, "f4": 2, "i8": 3}


class CtsrError(ValueError):
    """Malformed or unreadable CTSR file."""


def dtype_code(arr: np.ndarray) -> int:
    key = f"{arr.dtype.kind}{arr.dtype.itemsize}"
    if key not in _CODE_FOR_KIND:
        raise CtsrError(f"unsupported dtype {arr.dtype}; use float64, float32 or int64")
    return _CODE_FOR_KIND[key]


def save_ctsr(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    code = dtype_code(arr)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BBB", VERSION, code, arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<Q", d))
        fh.write(arr.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C"))


def load_ctsr(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise CtsrError(f"missing tensor file: {path}")
    raw = path.read_bytes()
    if len(raw) < 7:
        raise CtsrError(f"truncated CTSR header in {path}")
    if raw[:4] != MAGIC:
        raise CtsrError(f"bad magic in {path}: {raw[:4]!r}")
    version, code, ndim = struct.unpack("<BBB", raw[4:7])
    if version != VERSION:
        raise CtsrError(f"unsupported CTSR version {version} in {path}")
    if code not in _DTYPE_CODES:
        raise CtsrError(f"unknown dtype code {code} in {path}")
    off = 7
    if len(raw) < off + 8 * ndim:
        raise CtsrError(f"truncated dims in {path}")
    dims = struct.unpack(f"<{ndim}Q", raw[off:off + 8 * ndim]) if ndim else ()
    off += 8 * ndim
    dtype = _DTYPE_CODES[code]
    expected = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    payload = raw[off:]
    if len(payload) != expected * dtype.itemsize:
        raise CtsrError(
            f"payload size mismatch in {path}: expected {expected * dtype.itemsize} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return arr.copy()
