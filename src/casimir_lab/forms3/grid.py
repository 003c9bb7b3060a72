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
    def dealias_keep(self) -> int:
        """Largest |k| kept by the 2/3-rule filter."""
        return self.n // 3

    @cached_property
    def kmax_r(self) -> np.ndarray:
        """max(|kx|, |ky|, |kz|) in rfftn layout (n, n, n/2+1)."""
        kx, ky, kz = (np.abs(k) for k in self.k_r)
        return np.maximum(np.maximum(kx, ky), kz)

    @cached_property
    def dealias_mask_r(self) -> np.ndarray:
        """Boolean keep-mask for rfftn layout (n, n, n/2+1)."""
        return self.kmax_r <= self.dealias_keep

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
        kx, ky, kz = self.k_r
        k2 = kx ** 2 + ky ** 2 + kz ** 2
        k2[0, 0, 0] = np.inf
        return np.stack(np.broadcast_arrays(kx / k2, ky / k2, kz / k2))

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


def dealias(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every mode with max |k| beyond the 2/3-rule cutoff."""
    return irfft3(rfft3(data) * grid.dealias_mask_r, grid)


def band_limit(data: np.ndarray, grid: Grid, bandwidth: int) -> np.ndarray:
    """Project onto modes with max |k| <= bandwidth."""
    return irfft3(rfft3(data) * (grid.kmax_r <= bandwidth), grid)


def curl_r(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the curl (d of a 1-form) from the coefficients of a 3-stack."""
    ikx, iky, ikz = grid.ik_r
    return np.stack([iky * spec[2] - ikz * spec[1],
                     ikz * spec[0] - ikx * spec[2],
                     ikx * spec[1] - iky * spec[0]])


def grad_r(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the gradient (d of a 0-form) from a scalar's coefficients."""
    return np.stack([ik * spec for ik in grid.ik_r])


def leray_r(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence-free part of a 3-stack of coefficients; the mean is kept."""
    kx, ky, kz = grid.k_r
    return spec - grid.leray_factor * (kx * spec[0] + ky * spec[1] + kz * spec[2])


def mean_dot_r(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Grid mean of sum_i a_i b_i for real fields, from their coefficients (Parseval)."""
    return float(np.sum(np.sum((a * b.conj()).real, axis=0) @ grid.parseval_weight))


def spectral_tail_fraction(data: np.ndarray, grid: Grid) -> float:
    """Fraction of spectral energy at or beyond wavenumber n/2 - 1.

    Used to warn about non-periodic or under-resolved inputs.
    """
    spec = np.fft.fftn(data, axes=(-3, -2, -1))
    k = np.abs(grid.k_full)
    kmax = np.maximum(np.maximum(k[:, None, None], k[None, :, None]), k[None, None, :])
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    tail = float(np.sum(np.abs(spec) ** 2 * (kmax >= grid.n // 2 - 1)))
    return tail / total
