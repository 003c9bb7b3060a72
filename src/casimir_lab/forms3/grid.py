"""Collocated periodic grid on the unit 3-torus [0, 1)^3.

Axis 0 is x, axis 1 is y, axis 2 is z; node (i, j, k) sits at
(i/n, j/n, k/n).  All derivatives are Fourier multipliers on the
trigonometric interpolant, so they are exact (to roundoff) for
band-limited data.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ..errors import InvalidParameterError

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@cache
def _pin_heap_thresholds() -> None:
    """Keep freed field temporaries in glibc's heap for reuse.

    Every d, wedge, l2 and transform at n = 32 makes 0.25-1.5 MiB
    temporaries.  By default glibc mmaps blocks above 128 KiB and trims
    the heap back to the kernel, so each temporary is faulted in afresh;
    its dynamic rule only raises the thresholds after the process frees a
    large block.  Pinning them where that rule tops out on 64-bit (mmap
    above 32 MiB, trim above twice that) lets the heap reuse them.  Once
    per process, on the first Grid or Box; a no-op where the C library
    has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@dataclass(frozen=True)
class Grid:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4 or self.n % 2 != 0:
            raise InvalidParameterError("grid size n must be an even integer >= 4")
        object.__setattr__(self, "n", int(self.n))
        _pin_heap_thresholds()

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @cached_property
    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.axis_coords
        return tuple(np.meshgrid(x, x, x, indexing="ij"))

    @cached_property
    def diff_matrix(self) -> np.ndarray:
        """d/dx along one axis as a dense (n, n) matrix on the grid values.

        D[i, j] = d(i - j mod n) with d(k) = pi (-1)^k cot(pi k / n), the
        Fourier differentiation matrix on [0, 1) (Trefethen, *Spectral
        Methods in MATLAB*, ch. 3): the rfft multiplier 2 pi i k with the
        lone Nyquist cosine, which has no representable derivative, zeroed.
        Built exactly circulant and antisymmetric, d(0) = d(n/2) = 0 and
        d(n - k) = -d(k).
        """
        n = self.n
        k = np.arange(1, n // 2)
        half = np.pi * (-1.0) ** k / np.tan(np.pi * k / n)
        d = np.zeros(n)
        d[1:n // 2], d[n // 2 + 1:] = half, -half[::-1]
        j = np.arange(n)
        return d[np.subtract.outer(j, j) % n]

    @cached_property
    def box(self) -> "Box":
        """The 2/3-rule box of this grid: the one place that chooses its K.

        K = (n - 1)//3, the largest K with 3K < n (Orszag, J. Atmos. Sci.
        28, 1971): a product of two modes within K then aliases only onto
        modes beyond K, which the box drops.  n//3 would give 3K = n when 3
        divides n, and fold a product of edge modes back onto |k| = K.
        """
        return self.box_of(self.n, (self.n - 1) // 3)

    @cached_property
    def _boxes(self) -> dict:
        return {}

    def box_of(self, n: int, keep: int) -> "Box":
        """Box(n, keep), built on the first ask and kept with this grid, so
        its matrices and multipliers are built once per grid that uses them
        and are freed with it.  Each spectral layer asks the grid of the
        form it works on; ``n`` differs from the grid's only for transport's
        product grids."""
        box = self._boxes.get((n, keep))
        if box is None:
            box = self._boxes[n, keep] = Box(n, keep)
        return box


@dataclass(frozen=True, eq=False)
class Box:
    """The Fourier coefficients with max|k_i| <= K = ``keep`` on an n-grid.

    Shape (2K+1, 2K+1, K+1), in the cos/sin (cs) layout: the z axis holds
    kz = 0..K of the real transform, and the x and y axes the real basis
    f = A_0 + sum_k A_k cos 2 pi k x + B_k sin 2 pi k x, with A_k in row k
    (k = 0..K) and B_k in row 2K+1-k (so the sines run k = K..1).  In the
    coefficients a_k of the complex exponentials, A_k = a_k + a_-k and
    B_k = i (a_k - a_-k).  0 <= K < n/2, so a box never holds a Nyquist
    mode.  ``Grid.box`` is the 2/3-rule box, K = (n - 1)//3; ``Grid.box_of``
    keeps the boxes a grid uses.

    ``rfft3_cs``, ``irfft3_cs``, ``curl_cs``, ``grad_cs``, ``leray_cs`` and
    ``mean_dot_cs`` work on it.  ``forward_cs`` and ``inverse_cs`` are its
    real x and y DFT matrices and ``forward_z`` and ``inverse_z`` its z
    pass, so every pass of its transforms is a real matrix product.  Both
    transforms run z first, the forward on the grid values and the inverse
    on the box's coefficients, then x, then y as a batch over the x rows;
    ``k_r`` are the axes' signed wavenumbers shaped to broadcast (row
    2K+1-k stands for -k), ``diff_cs`` and ``ikz`` its derivatives,
    ``inverse_laplacian_cs`` and ``parseval_cs`` its Leray and Parseval
    weights.
    """

    n: int
    keep: int

    def __post_init__(self):
        ints = all(isinstance(v, (int, np.integer)) for v in (self.n, self.keep))
        if not (ints and 0 <= 2 * self.keep < self.n):
            raise InvalidParameterError(f"a box needs integers 0 <= keep < n/2, got "
                                        f"n = {self.n!r}, keep = {self.keep!r}")
        _pin_heap_thresholds()

    @property
    def shape(self) -> tuple[int, int, int]:
        m = self.keep
        return (2 * m + 1, 2 * m + 1, m + 1)

    @cached_property
    def k_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = np.r_[0:self.keep + 1, -self.keep:0].astype(float)
        kz = np.arange(self.keep + 1, dtype=float)
        return (k[:, None, None], k[None, :, None], kz[None, None, :])

    @cached_property
    def forward_cs(self) -> np.ndarray:
        """Rows [1; 2 cos(2 pi k x / n), k = 1..K; 2 sin(2 pi k x / n), k = K..1],
        shape (2K+1, n): grid x to the cs layout's rows (or y to its columns)."""
        return np.vstack([np.ones((1, self.n)), 2.0 * self._cos_sin()])

    @cached_property
    def inverse_cs(self) -> np.ndarray:
        """Columns [1, cos, sin] / n in ``forward_cs``'s order, shape (n, 2K+1):
        the cs layout's rows to grid x."""
        return np.ascontiguousarray(np.vstack([np.ones((1, self.n)), self._cos_sin()]).T
                                    / self.n)

    def _cos_sin(self) -> np.ndarray:
        """cos(2 pi k x / n) for k = 1..K over sin(2 pi k x / n) for k = K..1,
        shape (2K, n), from the unit roots."""
        k = np.arange(1, self.keep + 1)
        w = _unit_roots(self.n)[np.outer(np.r_[k, k[::-1]], np.arange(self.n)) % self.n]
        return np.vstack([w.real[:self.keep], w.imag[self.keep:]])

    @cached_property
    def diff_cs(self) -> np.ndarray:
        """d/dx on the cs layout's rows (or d/dy on its columns), shape
        (2K+1, 2K+1): row k >= 0 takes 2 pi k times row -k's sine, and row -k
        takes -2 pi k times row k's cosine.  One nonzero per row, so a matrix
        product with it rounds each entry once, as a multiply would."""
        p, k = 2 * self.keep + 1, self.k_r[0].ravel()
        d = np.zeros((p, p))
        d[np.arange(1, p), np.arange(p - 1, 0, -1)] = 2.0 * np.pi * k[1:]
        return d

    @cached_property
    def ikz(self) -> np.ndarray:
        """2 pi i kz, box-shaped, contiguous and complex, so a multiply into a
        box array neither casts nor broadcasts: d/dz."""
        return np.broadcast_to(2j * np.pi * self.k_r[2], self.shape).astype(complex, order="C")

    @cached_property
    def inverse_laplacian_cs(self) -> np.ndarray:
        """1 / (4 pi^2 |k|^2) on the float view of a cs-layout array; zero at k = 0."""
        kx, ky, kz = self.k_r
        k2 = kx ** 2 + ky ** 2 + kz ** 2
        k2[0, 0, 0] = np.inf
        return np.repeat(1.0 / (4.0 * np.pi ** 2 * k2), 2, axis=-1)

    @cached_property
    def parseval_cs(self) -> np.ndarray:
        """Weights on the float view of a cs-layout array, flattened: the grid
        mean of f g is the sum of these weights times the products of their
        cs coefficients (each kz's real and imaginary parts).

        1/2 per cos or sin row and column; along z, kz = 1..K stand for
        themselves and their conjugates and kz = 0 holds both, so they
        weigh 2 and 1.  The 1/n^6 undoes the unnormalized forward
        transforms of the two factors.
        """
        w = np.full(2 * self.keep + 1, 0.5)
        w[0] = 1.0
        wz = np.repeat(np.r_[1.0, np.full(self.keep, 2.0)] / float(self.n) ** 6, 2)
        return (w[:, None, None] * w[None, :, None] * wz[None, None, :]).ravel()

    @cached_property
    def forward_z(self) -> np.ndarray:
        """Shape (n, 2(K+1)): real z values to kz = 0..K, interleaved (Re, Im),
        so a real matrix product writes complex coefficients."""
        w = self._roots_z()
        return np.stack([w.real, w.imag], axis=-1).reshape(self.n, -1)

    @cached_property
    def inverse_z(self) -> np.ndarray:
        """Shape (2(K+1), n): interleaved (Re, Im) of kz = 0..K to real z values.

        The real part of the inverse sum, with each kz > 0 doubled for its
        conjugate and the imaginary part of kz = 0 dropped, as irfft does.
        """
        w = self._roots_z().T / self.n
        w[1:] *= 2.0
        w[0] = w[0].real
        return np.stack([w.real, w.imag], axis=1).reshape(-1, self.n)

    def _roots_z(self) -> np.ndarray:
        """exp(-2 pi i z k / n), shape (n, K+1)."""
        return _unit_roots(self.n)[np.outer(np.arange(self.n), -np.arange(self.keep + 1))
                                   % self.n]


def _unit_roots(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for j = 0..n-1.

    Evaluated at the angle reduced to (-pi, pi], so that entry n - j is the
    exact conjugate of entry j; the quarter turns are exact.
    """
    j = np.arange(n)
    turn = 2.0 * np.pi * np.abs(np.where(2 * j <= n, j, j - n)) / n
    c, s = np.cos(turn), np.sin(turn)
    quarter = 4 * j % n == 0
    c[quarter], s[quarter] = np.round(c[quarter]), np.round(s[quarter])
    return c + 1j * np.where(2 * j <= n, s, -s)


def spectral_derivative(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """d/dx_axis of the trigonometric interpolant; works on trailing-3D stacks.

    One real matrix product against ``grid.diff_matrix`` along the axis:
    ``D @ (..., n, n*n)`` for x, the broadcast ``D @ data`` for y and
    ``(..., n) @ D`` for z.  It matches the rfft/irfft multiplier to a few
    ulps of the result's largest value.  D's rows sum to zero, but a matrix
    product cancels them only up to roundoff, so the data is first
    differenced against ``first``, its first node along the axis (a view):
    a field constant along it differentiates to exact zeros.  Along z the
    difference is taken as ``first - data``: D.T == -D exactly, so
    ``(first - data) @ D`` is ``(data - first) @ D.T`` bit for bit, without
    BLAS's slower kernel for a transposed operand.
    """
    n, dm = grid.n, grid.diff_matrix
    first = data[(Ellipsis, slice(0, 1)) + (slice(None),) * (2 - axis)]
    if axis == 0:
        rel = (data - first).reshape(data.shape[:-3] + (n, n * n))
        return np.matmul(dm, rel).reshape(data.shape)
    if axis == 1:
        return np.matmul(dm, data - first)
    return np.matmul(first - data, dm)


def rfft3_cs(data: np.ndarray, box: Box) -> np.ndarray:
    """cs-layout coefficients of ``data`` (trailing three axes) on ``box``.

    Three real matrix products on the float view of the interleaved
    (Re, Im) kz coefficients: z against ``forward_z``, one x-plane at a
    time, then x and y against ``forward_cs``, y as a batch over the x
    rows, which lands in the box's layout with no transposed copy.  They
    equal the box's entries of rfftn's coefficients changed to the cos/sin
    basis to a few ulps of the largest.  Each pass's input is released once
    read; the result is a new C-contiguous complex array.
    """
    n, (p, _, q) = box.n, box.shape
    lead = data.shape[:-3]
    z = np.matmul(data.reshape(-1, n, n), box.forward_z)
    x = np.matmul(box.forward_cs, z.reshape(-1, n, 2 * n * q))
    del z
    return np.matmul(box.forward_cs, x.reshape(lead + (p, n, 2 * q))).view(complex)


def irfft3_cs(coefs: np.ndarray, box: Box) -> np.ndarray:
    """Grid values of ``box``'s cs-layout coefficients: the reverse of
    ``rfft3_cs``, all real matrix products.  z runs first, against
    ``inverse_z`` on the box-sized array, then x against ``inverse_cs``,
    one product per stacked component, and y last, a batch over the x
    rows.  This order hands BLAS no long, thin product: z last, on the
    grid-sized array, would be one (n^2, 2K+2) by (2K+2, n) product per
    component, the slowest pass.  Each pass's input is released once read;
    the result is a new C-contiguous array."""
    n, (p, _, q) = box.n, box.shape
    lead = coefs.shape[:-3]
    z = np.matmul(coefs.view(float).reshape(-1, 2 * q), box.inverse_z)
    x = np.matmul(box.inverse_cs, z.reshape(lead + (p, p * n)))
    del z
    return np.matmul(box.inverse_cs, x.reshape(lead + (n, p, n)))


def _cross(a, b: np.ndarray) -> np.ndarray:
    """Pointwise a x b of two 3-stacks; ``a`` may be a triple of arrays that
    broadcast against ``b``."""
    out = np.empty(b.shape, np.result_type(a[0], b))
    tmp = np.empty(b.shape[1:], out.dtype)  # one scratch row for the a_k b_j
    for i in range(3):  # out_i = a_j b_k - a_k b_j, (i, j, k) cyclic
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=tmp)
    return out


def dealias(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every mode with max |k| beyond the 2/3-rule cutoff: a box round trip."""
    return irfft3_cs(rfft3_cs(data, grid.box), grid.box)


def _d_cs(spec: np.ndarray, box: Box, axis: int, out: np.ndarray) -> np.ndarray:
    """d/dx_axis of cs-layout coefficients, written into ``out`` (C-contiguous).

    Along x or y it swaps each k's cos and sin rows, A_k' = 2 pi k B_k and
    B_k' = -2 pi k A_k: a real product with ``diff_cs`` on the float views
    (which beats a multiply on the rows reversed, whose strides numpy
    iterates slowly).  Along z it is the multiply by 2 pi i kz.
    """
    if axis == 2:
        return np.multiply(spec, box.ikz, out=out)
    f, o = spec.view(float), out.view(float)
    if axis == 0:  # x rows against everything after them
        f, o = (a.reshape(a.shape[:-3] + (a.shape[-3], -1)) for a in (f, o))
    np.matmul(box.diff_cs, f, out=o)
    return out


def grad_cs(spec: np.ndarray, box: Box) -> np.ndarray:
    """cs-layout coefficients of the gradient (d of a 0-form) from a scalar's."""
    out = np.empty((3,) + spec.shape, complex)
    for axis in range(3):
        _d_cs(spec, box, axis, out[axis])
    return out


def curl_cs(spec: np.ndarray, box: Box) -> np.ndarray:
    """cs-layout coefficients of the curl (d of a 1-form) from a 3-stack's.

    d/dx of components 1 and 2, d/dy of 0 and 2 and d/dz of 0 and 1, each
    pair at once, then curl_i = d_j a_k - d_k a_j, (i, j, k) cyclic.
    """
    dx, dy, dz = (_d_cs(spec[pair], box, axis, np.empty((2,) + spec.shape[1:], complex))
                  for axis, pair in enumerate((slice(1, 3), slice(0, 3, 2), slice(0, 2))))
    out = np.empty_like(spec)
    np.subtract(dy[1], dz[1], out=out[0])
    np.subtract(dz[0], dx[1], out=out[1])
    np.subtract(dx[0], dy[0], out=out[2])
    return out


def leray_cs(spec: np.ndarray, box: Box) -> np.ndarray:
    """cs-layout coefficients of the divergence-free part of a 3-stack,
    a + grad(div(a) / (4 pi^2 |k|^2)); the mean is kept."""
    div = _d_cs(spec[0], box, 0, np.empty(spec.shape[1:], complex))
    div += _d_cs(spec[1], box, 1, np.empty_like(div))
    div += _d_cs(spec[2], box, 2, np.empty_like(div))
    div.view(float)[...] *= box.inverse_laplacian_cs
    out = grad_cs(div, box)
    out += spec
    return out


def mean_dot_cs(a: np.ndarray, b: np.ndarray, box: Box) -> float:
    """Grid mean of sum_i a_i b_i for real fields, from their cs-layout
    coefficients (Parseval).  The weighted sum is an einsum, not a BLAS
    dot, whose last bits move with the BLAS thread count."""
    return float(np.einsum("i,i->", np.sum(a.view(float) * b.view(float), axis=0).ravel(),
                           box.parseval_cs))


def spectral_tail_fraction(data: np.ndarray, grid: Grid) -> float:
    """Fraction of spectral energy at or beyond wavenumber n/2 - 1.

    Used to warn about non-periodic or under-resolved inputs.  By Parseval it
    is the mean square of what a round trip through the box K = n/2 - 2 drops
    over the data's.  Scaling by the peak keeps both finite and nonzero.
    """
    peak = np.abs(data).max()
    if peak == 0.0:
        return 0.0
    scaled, box = data / peak, grid.box_of(grid.n, grid.n // 2 - 2)
    tail = scaled - irfft3_cs(rfft3_cs(scaled, box), box)
    return float(np.mean(tail ** 2) / np.mean(scaled ** 2))
