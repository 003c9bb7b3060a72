"""Differential k-forms and vector fields as periodic component grids.

Component bases:
    Form0: {1}
    Form1: {dx, dy, dz}
    Form2: {dy^dz, dz^dx, dx^dy}
    Form3: {dx^dy^dz}
    VectorField: {d/dx, d/dy, d/dz}

The 2-form basis is ordered so that contracting the unit volume form mu
with a vector field V is the identity on components: i_V mu <-> V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from .grid import Grid

# OpenBLAS runs a ddot of at most this many elements on one thread
_DOT_ROW = 10_000


@dataclass(frozen=True, eq=False)
class _GridObject:
    """Components on a grid; subclasses set ``n_comp`` (one means a bare scalar grid)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        want = (self.n_comp,) + self.grid.shape if self.n_comp > 1 else self.grid.shape
        if arr.shape != want:
            raise InvalidParameterError(f"component data must have shape {want}, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    def __add__(self, other):
        self._check_mate(other)
        return type(self)(self.grid, self.data + other.data)

    def __sub__(self, other):
        self._check_mate(other)
        return type(self)(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)(self.grid, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.data)

    def _check_mate(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            raise InvalidParameterError(
                f"operands must be {type(self).__name__} on the same grid"
            )

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))

    def l2(self) -> float:
        """L2 norm: sqrt of the grid mean of the squared component sum.

        One BLAS dot per row of the data (``matmul`` of stacked vectors;
        ``np.vecdot`` needs numpy 2), then numpy's sum of the rows.  OpenBLAS
        splits a ddot longer than ``_DOT_ROW`` elements over its threads, so
        one dot over all the data would move its last bits with the BLAS
        thread count; no row is that long.  A row holds n^2 elements up to
        n = 100, and above that n times the largest divisor of n that keeps
        it within.  Blocked summation stays within the recursive summation
        bound (Higham, *Accuracy and Stability of Numerical Algorithms*,
        ch. 4).  An inf or NaN entry reads through, without a RuntimeWarning.
        """
        n = self.grid.n
        k = n
        while n * k > _DOT_ROW or n % k:
            k -= 1
        rows = self.data.reshape(-1, n * k)
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.matmul(rows[:, None, :], rows[:, :, None])
        return float(np.sqrt(squares.sum() / n ** 3))

    def linf(self) -> float:
        return float(np.abs(self.data).max())


class Form0(_GridObject):
    rank = 0
    n_comp = 1


class Form1(_GridObject):
    rank = 1
    n_comp = 3


class Form2(_GridObject):
    rank = 2
    n_comp = 3


class Form3(_GridObject):
    rank = 3
    n_comp = 1


class VectorField(_GridObject):
    rank = None
    n_comp = 3


FORM_CLASSES = {0: Form0, 1: Form1, 2: Form2, 3: Form3}


def form_of_rank(rank: int, grid: Grid, data) -> _GridObject:
    try:
        cls = FORM_CLASSES[rank]
    except KeyError:
        raise InvalidParameterError(f"form rank must be 0..3, got {rank}") from None
    return cls(grid, data)


def zero_field(grid: Grid) -> VectorField:
    return VectorField(grid, np.zeros((3,) + grid.shape))


def constant_field(grid: Grid, ux: float, uy: float, uz: float) -> VectorField:
    data = np.empty((3,) + grid.shape)
    data[0], data[1], data[2] = ux, uy, uz
    return VectorField(grid, data)


def volume_form(grid: Grid) -> Form3:
    """mu = dx^dy^dz; the torus has total volume 1."""
    return Form3(grid, np.ones(grid.shape))


def coordinate_oneform(grid: Grid, axis: int) -> Form1:
    """The constant basis 1-form dx, dy or dz."""
    data = np.zeros((3,) + grid.shape)
    data[axis] = 1.0
    return Form1(grid, data)


def one_form(grid: Grid, fx, fy, fz) -> Form1:
    """Build a 1-form from three component callables of (x, y, z)."""
    x, y, z = grid.meshes
    return Form1(grid, np.stack([np.broadcast_to(np.asarray(f(x, y, z), dtype=float), grid.shape)
                                 for f in (fx, fy, fz)]))


def scale_by(f: Form0, obj):
    """Multiply any form or field pointwise by a scalar field."""
    return type(obj)(obj.grid, f.data * obj.data)
