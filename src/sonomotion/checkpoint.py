"""Self-describing binary checkpoint files.

Layout (all little-endian):
    magic   8 bytes  b"SNMCKPT1"
    version u32
    count   u32
    entries, each:
        name_len u16, name utf-8
        ndim     u8,  dims u32 * ndim
        values   float64 * prod(dims), row-major
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"SNMCKPT1"
VERSION = 1


def write_atomically(path, write) -> None:
    """``write(f)`` to a temporary file, renamed to ``path`` only when whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, named_arrays) -> None:
    """Write (name, array) pairs; accepts Tensors or ndarrays as values."""
    items = []
    for name, value in named_arrays:
        arr = np.ascontiguousarray(
            getattr(value, "data", value), dtype=np.float64)
        items.append((name, arr))

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())

    write_atomically(path, write)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    if blob[:8] != MAGIC:
        raise DataError(f"{path} is not a checkpoint file (bad magic)")
    try:
        version, count = struct.unpack_from("<II", blob, 8)
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        offset = 16
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            out[name] = arr.reshape(shape).astype(np.float64)
    except (struct.error, ValueError) as e:    # ValueError: short array, bad name
        raise DataError(f"checkpoint {path} is truncated or damaged: {e}") from e
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes")
    return out
