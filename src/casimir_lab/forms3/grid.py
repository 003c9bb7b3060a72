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
    per process, on the first Grid; a no-op where the C library has no
    mallopt.
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
        """The 2/3-rule box of this grid: the one place that chooses K = n//3."""
        return Box.of(self.n, self.n // 3)


@dataclass(frozen=True, eq=False)
class Box:
    """The rfftn coefficients with max|k_i| <= K = ``keep`` on an n-grid.

    Shape (2K+1, 2K+1, K+1): the x and y axes hold k = 0..K, -K..-1 in fft
    order, the z axis k = 0..K of the real transform.  0 <= K < n/2, so a
    box never holds a Nyquist mode.  ``Grid.box`` is the 2/3-rule box,
    K = n//3; ``Box.of`` builds each (n, K) once.  ``k_r`` are the axes'
    wavenumbers shaped to broadcast; the multipliers ``k``, ``ik_r`` and
    ``leray_factor`` are box-shaped, contiguous and complex, so a multiply
    into a box array neither casts nor broadcasts (numpy would buffer a
    copy of the operand).  ``leray_r``, ``curl_r``, ``grad_r`` and
    ``mean_dot_r`` take the box.  ``forward``, ``inverse``, ``forward_z``
    and ``inverse_z`` are the DFT matrices of the box transforms.
    """

    n: int
    keep: int

    def __post_init__(self):
        ints = all(isinstance(v, (int, np.integer)) for v in (self.n, self.keep))
        if not (ints and 0 <= 2 * self.keep < self.n):
            raise InvalidParameterError(f"a box needs integers 0 <= keep < n/2, got "
                                        f"n = {self.n!r}, keep = {self.keep!r}")

    @classmethod
    @cache
    def of(cls, n: int, keep: int) -> "Box":
        """The shared Box(n, keep): its matrices and multipliers are built once."""
        return cls(n, keep)

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
        k = np.r_[0:self.keep + 1, -self.keep:0].astype(float)
        kz = np.arange(self.keep + 1, dtype=float)
        return (k[:, None, None], k[None, :, None], kz[None, None, :])

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._filled(self.k_r)

    @cached_property
    def ik_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._filled(2j * np.pi * k for k in self.k_r)

    @cached_property
    def leray_factor(self) -> np.ndarray:
        """k / |k|^2 stacked over the three axes; zero at k = 0."""
        kx, ky, kz = self.k_r
        k2 = kx ** 2 + ky ** 2 + kz ** 2
        k2[0, 0, 0] = np.inf
        return np.stack(np.broadcast_arrays(kx / k2, ky / k2, kz / k2)).astype(complex)

    def _filled(self, multipliers) -> tuple[np.ndarray, ...]:
        return tuple(np.broadcast_to(m, self.shape).astype(complex, order="C")
                     for m in multipliers)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Weights along kz that turn a half-spectrum sum into a grid mean.

        kz = 1..K stand for themselves and their conjugates, kz = 0 holds
        both.  The 1/n^6 undoes the unnormalized forward transforms of the
        two factors.
        """
        w = np.full(self.keep + 1, 2.0)
        w[0] = 1.0
        return w / float(self.n) ** 6

    @cached_property
    def forward(self) -> np.ndarray:
        """exp(-2 pi i k x / n), shape (2K+1, n): grid x to the box's kx (or y to ky)."""
        return _unit_roots(self.n)[np.outer(-self.index, np.arange(self.n)) % self.n]

    @cached_property
    def inverse(self) -> np.ndarray:
        """exp(2 pi i x k / n) / n, shape (n, 2K+1): the box's kx to grid x."""
        return np.ascontiguousarray(self.forward.conj().T) / self.n

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
    ``(..., n) @ D.T`` for z.  It matches the rfft/irfft multiplier to a few
    ulps of the result's largest value.  D's rows sum to zero, but a matrix
    product cancels them only up to roundoff, so the data is first
    differenced against its first node along the axis: a field constant
    along it differentiates to exact zeros.
    """
    n, dm = grid.n, grid.diff_matrix
    ax = data.ndim - 3 + axis
    rel = data - np.take(data, [0], axis=ax)
    if axis == 0:
        return np.matmul(dm, rel.reshape(data.shape[:-3] + (n, n * n))).reshape(data.shape)
    if axis == 1:
        return np.matmul(dm, rel)
    return np.matmul(rel, dm.T)


def rfft3_box(data: np.ndarray, box: Box) -> np.ndarray:
    """rfftn coefficients of ``data`` (trailing three axes) on ``box``, as DFT products.

    One matrix product per axis, against the box's DFT matrices: a real one
    along z, then a complex one along x and one along y.  The y axis lies
    between the others, so it is moved to the front for its pass and back
    after it, making that pass a single product too.  Each pass maps n
    points to the 2K+1 (or K+1) wavenumbers the box keeps, so the result
    matches rfftn's to a few ulps of its largest coefficient, not bit for
    bit.  Each pass's input is released once read; the result is a new
    C-contiguous array.
    """
    n, (p, _, q) = box.n, box.shape
    lead = data.shape[:-3]
    z = np.matmul(data.reshape(-1, n), box.forward_z)
    x = np.matmul(box.forward, z.view(complex).reshape(-1, n, n * q))
    del z
    y_in = _y_first(x.reshape(lead + (p, n, q))).reshape(n, -1)
    del x
    y = np.matmul(box.forward, y_in)
    del y_in
    return np.ascontiguousarray(_y_back(y.reshape((p,) + lead + (p, q))))


def irfft3_box(coefs: np.ndarray, box: Box) -> np.ndarray:
    """Grid values of ``box``'s coefficients: irfftn of them zero-filled to the
    full layout, as dense DFT products.

    The reverse of ``rfft3_box``: y (moved to the front and back), then x,
    then a real product along z that keeps the real part of the
    half-spectrum sum, as irfft does.  The zeros outside the box are never
    formed.  Each pass's input is released once read.
    """
    n, (p, _, q) = box.n, box.shape
    lead = coefs.shape[:-3]
    y = np.matmul(box.inverse, _y_first(coefs).reshape(p, -1))
    x = np.ascontiguousarray(_y_back(y.reshape((n,) + lead + (p, q))))
    del y
    z = np.matmul(box.inverse, x.reshape(-1, p, n * q))
    del x
    return np.matmul(z.view(float).reshape(-1, 2 * q), box.inverse_z).reshape(lead + (n, n, n))


def _y_first(a: np.ndarray) -> np.ndarray:
    """View of ``a`` with its y axis (the middle of the trailing three) in front.

    Spelled out rather than np.moveaxis, whose tuple(generator) results pile
    up on Python's tuple free list, memory tracemalloc counts as held.
    """
    nd = a.ndim
    return a.transpose(nd - 2, *range(nd - 2), nd - 1)


def _y_back(a: np.ndarray) -> np.ndarray:
    """The inverse of ``_y_first``: the leading axis moved back to y."""
    nd = a.ndim
    return a.transpose(*range(1, nd - 1), 0, nd - 1)


def _cross(a, b: np.ndarray) -> np.ndarray:
    """Pointwise a x b of two 3-stacks; ``a`` may be a triple of arrays that
    broadcast against ``b``."""
    out = np.empty(b.shape, np.result_type(a[0], b))
    for i in range(3):  # out_i = a_j b_k - a_k b_j, (i, j, k) cyclic
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def dealias(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero every mode with max |k| beyond the 2/3-rule cutoff: a box round trip."""
    return irfft3_box(rfft3_box(data, grid.box), grid.box)


def curl_r(spec: np.ndarray, box: Box) -> np.ndarray:
    """Box coefficients of the curl (d of a 1-form) from a 3-stack's box coefficients."""
    return _cross(box.ik_r, spec)


def grad_r(spec: np.ndarray, box: Box) -> np.ndarray:
    """Box coefficients of the gradient (d of a 0-form) from a scalar's box coefficients."""
    return np.stack([ik * spec for ik in box.ik_r])


def leray_r(spec: np.ndarray, box: Box) -> np.ndarray:
    """Box coefficients of the divergence-free part of a 3-stack; the mean is kept."""
    kx, ky, kz = box.k
    return spec - box.leray_factor * (kx * spec[0] + ky * spec[1] + kz * spec[2])


def mean_dot_r(a: np.ndarray, b: np.ndarray, box: Box) -> float:
    """Grid mean of sum_i a_i b_i for real fields, from their box coefficients (Parseval)."""
    return float(np.sum(np.sum((a * b.conj()).real, axis=0) @ box.parseval_weight))


def spectral_tail_fraction(data: np.ndarray, grid: Grid) -> float:
    """Fraction of spectral energy at or beyond wavenumber n/2 - 1.

    Used to warn about non-periodic or under-resolved inputs.  By Parseval it
    is the mean square of what a round trip through the box K = n/2 - 2 drops
    over the data's.  Scaling by the peak keeps both finite and nonzero.
    """
    peak = np.abs(data).max()
    if peak == 0.0:
        return 0.0
    scaled, box = data / peak, Box.of(grid.n, grid.n // 2 - 2)
    tail = scaled - irfft3_box(rfft3_box(scaled, box), box)
    return float(np.mean(tail ** 2) / np.mean(scaled ** 2))
