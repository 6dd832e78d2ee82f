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

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError

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
            f.write(memoryview(arr.astype("<f8", copy=False)))

    write_atomically(path, write)


def check_shapes(params, shapes) -> None:
    """ShapeError unless each (name, Tensor) pair in ``params`` has an entry
    of the tensor's shape in ``shapes`` ({name: shape})."""
    for name, t in params:
        if name not in shapes:
            raise ShapeError(f"missing parameter '{name}' in state")
        if tuple(shapes[name]) != t.data.shape:
            raise ShapeError(f"parameter '{name}': stored shape "
                             f"{tuple(shapes[name])} != {t.data.shape}")


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataError(f"checkpoint {path} is truncated or damaged: "
                        f"{len(data)} of {n} bytes at offset {f.tell()}")
    return data


def _layout(f, path) -> dict[str, tuple[tuple[int, ...], int]]:
    """{name: (shape, offset of its values)} of every entry, in file order,
    read from the headers alone: the values are skipped with ``seek``."""
    if f.read(8) != MAGIC:
        raise DataError(f"{path} is not a checkpoint file (bad magic)")
    version, count = struct.unpack("<II", _read_exact(f, 8, path))
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    size = os.fstat(f.fileno()).st_size
    entries: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(f, 2, path))
        try:
            name = _read_exact(f, name_len, path).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"checkpoint {path} is damaged: {e}") from e
        (ndim,) = struct.unpack("<B", _read_exact(f, 1, path))
        shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path))
        if name in entries:
            raise DataError(f"checkpoint {path}: duplicate entry '{name}'")
        offset = f.tell()
        end = offset + 8 * math.prod(shape)
        if end > size:
            raise DataError(f"checkpoint {path} is truncated or damaged: entry "
                            f"'{name}' ends at byte {end}, file has {size}")
        entries[name] = (shape, offset)
        f.seek(end)
    if f.tell() != size:
        raise DataError(f"{path}: {size - f.tell()} trailing bytes")
    return entries


def _read_values(f, path, shape, offset, dtype=np.float64) -> np.ndarray:
    arr = np.empty(shape, dtype="<f8")
    f.seek(offset)
    if f.readinto(arr) != arr.nbytes:   # the file shrank after its layout pass
        raise DataError(f"checkpoint {path} is truncated or damaged")
    return arr.astype(dtype, copy=False)


def load_checkpoint(path, params=None) -> dict[str, np.ndarray] | None:
    """Read a checkpoint in two passes over the file. The layout pass checks
    the magic, the version and every entry's header and size, and reads no
    values; the value pass reads each entry into a fresh float64 array.

    Without ``params`` return {name: array} for every entry. ``params`` are
    (name, Tensor) pairs, such as ``Module.named_parameters()``: their names
    and shapes are checked against the layout, and only then is each
    tensor's ``.data`` replaced, in its dtype, as its entry is read: at most
    one float64 entry is held beside the tensors. Unnamed entries are skipped.

    A damaged file raises DataError and a missing name or wrong shape
    ShapeError; either way every tensor is left as it was.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            layout = _layout(f, path)
            if params is None:
                return {name: _read_values(f, path, *entry)
                        for name, entry in layout.items()}
            params = list(params)
            check_shapes(params, {name: shape
                                  for name, (shape, _) in layout.items()})
            for name, t in params:
                t.data = _read_values(f, path, *layout[name], t.data.dtype)
            return None
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
