"""Collocated periodic grid on the unit 3-torus [0, 1)^3.

Axis 0 is x, axis 1 is y, axis 2 is z; node (i, j, k) sits at
(i/n, j/n, k/n).  All derivatives are Fourier multipliers on the
trigonometric interpolant, so they are exact (to roundoff) for
band-limited data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidParameterError


@dataclass(frozen=True)
class Grid:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4 or self.n % 2 != 0:
            raise InvalidParameterError("grid size n must be an even integer >= 4")
        object.__setattr__(self, "n", int(self.n))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @cached_property
    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.axis_coords
        return tuple(np.meshgrid(x, x, x, indexing="ij"))

    @cached_property
    def k_full(self) -> np.ndarray:
        """Integer wavenumbers in fft order (0, 1, ..., n/2-1, -n/2, ..., -1)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @cached_property
    def k_half(self) -> np.ndarray:
        """Non-negative wavenumbers of the real transform (0 ... n/2)."""
        return np.arange(self.n // 2 + 1, dtype=float)

    @cached_property
    def deriv_multiplier(self) -> np.ndarray:
        """2*pi*i*k for the rfft of one axis, Nyquist mode zeroed."""
        mult = 2j * np.pi * self.k_half
        mult[-1] = 0.0  # the lone Nyquist cosine has no representable derivative
        return mult

    @cached_property
    def k_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumbers (kx, ky, kz), each shaped to broadcast on rfftn layout."""
        return (self.k_full[:, None, None], self.k_full[None, :, None],
                self.k_half[None, None, :])

    @cached_property
    def ik_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """2*pi*i*k per axis on rfftn layout, Nyquist zeroed as in spectral_derivative."""
        full = 2j * np.pi * self.k_full
        full[self.n // 2] = 0.0
        return (full[:, None, None], full[None, :, None],
                self.deriv_multiplier[None, None, :])

    @cached_property
    def leray_factor(self) -> np.ndarray:
        """k / |k|^2 on rfftn layout, shape (3, n, n, n/2+1); zero at k = 0."""
        return _leray_factor(self.k_r)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Weights along the rfft axis that turn a half-spectrum sum into a grid mean.

        Modes 1 .. n/2-1 stand for themselves and their conjugates; the
        zero and Nyquist planes hold both.  The 1/n^6 undoes the unnormalized
        forward transforms of the two factors.
        """
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w / float(self.n) ** 6

    @cached_property
    def box(self) -> "Box":
        """The 2/3-rule coefficient box of this grid and its multipliers."""
        return Box(self.n)


@dataclass(frozen=True, eq=False)
class Box:
    """The coefficients the 2/3 rule keeps: max|k_i| <= K = n//3.

    Shape (2K+1, 2K+1, K+1): the x and y axes hold k = 0..K, -K..-1 in fft
    order, the z axis k = 0..K of the real transform.  K < n/2, so the box
    never holds a Nyquist mode.  ``k_r``, ``ik_r``, ``leray_factor`` and
    ``parseval_weight`` mean what they mean on ``Grid`` (the full rfftn
    layout), so ``curl_r``, ``grad_r``, ``leray_r`` and ``mean_dot_r`` take
    either.
    """

    n: int

    @property
    def keep(self) -> int:
        return self.n // 3

    @property
    def shape(self) -> tuple[int, int, int]:
        m = self.keep
        return (2 * m + 1, 2 * m + 1, m + 1)

    @cached_property
    def index(self) -> np.ndarray:
        """Positions of the box's kx (and ky) along a full fft axis."""
        return np.r_[0:self.keep + 1, self.n - self.keep:self.n]

    @cached_property
    def k_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)[self.index]
        kz = np.arange(self.keep + 1, dtype=float)
        return (k[:, None, None], k[None, :, None], kz[None, None, :])

    @cached_property
    def ik_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(2j * np.pi * k for k in self.k_r)

    @cached_property
    def leray_factor(self) -> np.ndarray:
        return _leray_factor(self.k_r)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """As on Grid, with no Nyquist plane: kz = 1..K count twice."""
        w = np.full(self.keep + 1, 2.0)
        w[0] = 1.0
        return w / float(self.n) ** 6


def _leray_factor(k_r) -> np.ndarray:
    """k / |k|^2 stacked over the three axes; zero at k = 0."""
    kx, ky, kz = k_r
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = np.inf
    return np.stack(np.broadcast_arrays(kx / k2, ky / k2, kz / k2))


def spectral_derivative(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """d/dx_axis of the trigonometric interpolant; works on trailing-3D stacks."""
    ax = data.ndim - 3 + axis
    spec = np.fft.rfft(data, axis=ax)
    shape = [1] * data.ndim
    shape[ax] = grid.n // 2 + 1
    spec *= grid.deriv_multiplier.reshape(shape)
    return np.fft.irfft(spec, n=grid.n, axis=ax)


def rfft3(data: np.ndarray) -> np.ndarray:
    """rfftn coefficients over the trailing three axes."""
    return np.fft.rfftn(data, axes=(-3, -2, -1))


def irfft3(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid values from rfftn coefficients over the trailing three axes."""
    return np.fft.irfftn(spec, s=grid.shape, axes=(-3, -2, -1))


def rfft3_box(data: np.ndarray, grid: Grid, work: dict | None = None) -> np.ndarray:
    """``rfft3(data)`` restricted to ``grid.box``, bit for bit.

    rfftn runs rfft along z, then fft along y, then fft along x.  This runs
    the same 1-D passes, each only on the lines that reach the box: every
    line it skips would feed nothing but discarded coefficients.  ``work``
    keeps the pass buffers between calls, one per name and shape (allocated
    on first use; the pass outputs "x" and "y" are shared with
    ``irfft3_box``); the result is always a new array.
    """
    n, m = grid.n, grid.box.keep
    lead = data.shape[:-3]
    work = {} if work is None else work
    z = np.fft.rfft(data, axis=-1, out=_buffer(work, "rz", lead + (n, n, n // 2 + 1)))
    y = np.fft.fft(z[..., :m + 1], axis=-2, out=_buffer(work, "y", lead + (n, n, m + 1)))
    y = _keep(y, -2, _buffer(work, "ky", lead + (n, 2 * m + 1, m + 1)), grid.box)
    x = np.fft.fft(y, axis=-3, out=_buffer(work, "x", y.shape))
    return _keep(x, -3, np.empty(lead + grid.box.shape, complex), grid.box)


def irfft3_box(box: np.ndarray, grid: Grid, work: dict | None = None) -> np.ndarray:
    """``irfft3`` of the box coefficients zero-filled to the full layout, bit for bit.

    The reverse of ``rfft3_box``: zero-fill and ifft along x, zero-fill and
    ifft along y, then irfft along z (which pads kz itself), as irfftn does
    on the zero-filled stack minus its all-zero lines.  ``work`` as for
    ``rfft3_box``; its zero-fill buffers are written only inside the box.
    """
    n, m = grid.n, grid.box.keep
    lead = box.shape[:-3]
    work = {} if work is None else work
    x = _fill(box, -3, _buffer(work, "zx", lead + (n, 2 * m + 1, m + 1)), grid.box)
    x = np.fft.ifft(x, axis=-3, out=_buffer(work, "x", x.shape))
    y = _fill(x, -2, _buffer(work, "zy", lead + (n, n, m + 1)), grid.box)
    y = np.fft.ifft(y, axis=-2, out=_buffer(work, "y", y.shape))
    return np.fft.irfft(y, n=n, axis=-1)


def _buffer(work: dict, key: str, shape: tuple) -> np.ndarray:
    """work[key, shape], allocated zeroed on first use: scalar and 3-stack
    transforms sharing one ``work`` keep their own buffers."""
    buf = work.get((key, shape))
    if buf is None:
        buf = work[key, shape] = np.zeros(shape, complex)
    return buf


def _box_halves(axis: int, box: Box):
    """(box index, full index) pairs of k = 0..K and k = -K..-1 along ``axis``."""
    m, tail = box.keep, (slice(None),) * (-1 - axis)
    return (((..., slice(0, m + 1)) + tail, (..., slice(0, m + 1)) + tail),
            ((..., slice(m + 1, None)) + tail, (..., slice(box.n - m, None)) + tail))


def _keep(full: np.ndarray, axis: int, out: np.ndarray, box: Box) -> np.ndarray:
    """Copy the box's wavenumbers along ``axis`` of a full fft axis into ``out``."""
    for in_box, in_full in _box_halves(axis, box):
        out[in_box] = full[in_full]
    return out


def _fill(coeffs: np.ndarray, axis: int, out: np.ndarray, box: Box) -> np.ndarray:
    """Write a box axis of ``coeffs`` into its places along a full fft axis of ``out``."""
    for in_box, in_full in _box_halves(axis, box):
        out[in_full] = coeffs[in_box]
    return out


def dealias(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every mode with max |k| beyond the 2/3-rule cutoff: a box round trip."""
    return irfft3_box(rfft3_box(data, grid), grid)


# The coefficient functions below take a layout: a Grid for the full rfftn
# layout, or grid.box for the 2/3-rule box.


def curl_r(spec: np.ndarray, layout: Grid | Box) -> np.ndarray:
    """Coefficients of the curl (d of a 1-form) from the coefficients of a 3-stack."""
    ikx, iky, ikz = layout.ik_r
    return np.stack([iky * spec[2] - ikz * spec[1],
                     ikz * spec[0] - ikx * spec[2],
                     ikx * spec[1] - iky * spec[0]])


def grad_r(spec: np.ndarray, layout: Grid | Box) -> np.ndarray:
    """Coefficients of the gradient (d of a 0-form) from a scalar's coefficients."""
    return np.stack([ik * spec for ik in layout.ik_r])


def leray_r(spec: np.ndarray, layout: Grid | Box) -> np.ndarray:
    """Divergence-free part of a 3-stack of coefficients; the mean is kept."""
    kx, ky, kz = layout.k_r
    return spec - layout.leray_factor * (kx * spec[0] + ky * spec[1] + kz * spec[2])


def mean_dot_r(a: np.ndarray, b: np.ndarray, layout: Grid | Box) -> float:
    """Grid mean of sum_i a_i b_i for real fields, from their coefficients (Parseval)."""
    return float(np.sum(np.sum((a * b.conj()).real, axis=0) @ layout.parseval_weight))


def spectral_tail_fraction(data: np.ndarray, grid: Grid) -> float:
    """Fraction of spectral energy at or beyond wavenumber n/2 - 1.

    Used to warn about non-periodic or under-resolved inputs.  Scaling by the
    peak keeps the squared spectrum finite and nonzero at any amplitude.
    """
    peak = np.abs(data).max()
    if peak == 0.0:
        return 0.0
    spec = np.fft.fftn(data / peak, axes=(-3, -2, -1))
    k = np.abs(grid.k_full)
    kmax = np.maximum(np.maximum(k[:, None, None], k[None, :, None]), k[None, None, :])
    total = float(np.sum(np.abs(spec) ** 2))
    tail = float(np.sum(np.abs(spec) ** 2 * (kmax >= grid.n // 2 - 1)))
    return tail / total
