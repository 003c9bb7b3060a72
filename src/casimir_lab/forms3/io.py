"""Serialization: the F3RM flat binary container.

F3RM layout (little-endian):
    bytes 0..3   magic "F3RM"
    uint32       version (1)
    uint32       n (points per axis)
    uint32       rank code: 0..3 for forms, 4 for a vector field
    uint32       component count
    float64[]    components, row-major, concatenated
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from .forms import FORM_CLASSES, VectorField, form_of_rank
from .grid import Grid

MAGIC = b"F3RM"
VERSION = 1
FIELD_RANK_CODE = 4


def save(path, obj) -> None:
    if isinstance(obj, VectorField):
        rank_code, n_comp = FIELD_RANK_CODE, 3
    else:
        rank_code, n_comp = obj.rank, obj.n_comp
    data = obj.data if obj.data.ndim == 4 else obj.data[None, ...]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([VERSION, obj.grid.n, rank_code, n_comp],
                          dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        header = np.frombuffer(fh.read(16), dtype="<u4")
        if header.size != 4:
            raise FormatError("truncated header")
        version, n, rank_code, n_comp = (int(v) for v in header)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if n < 4 or n % 2:
            raise FormatError(f"grid size {n} in the header is not an even integer >= 4")
        raw = fh.read()
    if len(raw) % 8:
        raise FormatError(f"body has {len(raw)} bytes, not a whole number of float64 values")
    body = np.frombuffer(raw, dtype="<f8")
    if body.size != n_comp * n ** 3:
        raise FormatError(f"body has {body.size} values, expected {n_comp * n ** 3}")
    grid = Grid(n)
    data = body.reshape((n_comp, n, n, n)).astype(float)
    if rank_code == FIELD_RANK_CODE:
        if n_comp != 3:
            raise FormatError("vector field container must have 3 components")
        return VectorField(grid, data)
    if rank_code not in FORM_CLASSES:
        raise FormatError(f"unknown rank code {rank_code}")
    if n_comp != FORM_CLASSES[rank_code].n_comp:
        raise FormatError(f"rank {rank_code} container must have "
                          f"{FORM_CLASSES[rank_code].n_comp} components")
    return form_of_rank(rank_code, grid, data if n_comp > 1 else data[0])
