"""Seeded band-limited random fields for property suites and tests.

A field of bandwidth b draws a complex standard normal coefficient c_k for
each mode with max |k_i| <= b, in C order over the fft-ordered cube, sets
c_0 = 0, and is Re(sum_k c_k e^{2 pi i k.x}) scaled to grid rms ``rms``.
b is clamped to n/2 - 1, so no Nyquist mode is drawn.  The sum is the
inverse cs transform on the grid's box ``Box(n, b)`` of the Hermitian part
h_k = (c_k + conj(c_-k))/2 on kz >= 0, changed to the cos/sin basis along
x and y; a stack of fields is one transform.
"""

from __future__ import annotations

import numpy as np

from .forms import Form0, Form1, VectorField, form_of_rank
from .grid import Box, Grid, irfft3_cs, leray_cs, mean_dot_cs


def random_scalar_array(grid: Grid, bandwidth: int, rng: np.random.Generator,
                        rms: float = 1.0) -> np.ndarray:
    """Real zero-mean scalar grid supported on modes with max |k| <= bandwidth."""
    return _random_stack(grid, bandwidth, rng, rms, count=1)[0]


def random_form0(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> Form0:
    return Form0(grid, random_scalar_array(grid, bandwidth, rng, rms))


def random_form1(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> Form1:
    return Form1(grid, _random_stack(grid, bandwidth, rng, rms))


def random_form(grid: Grid, rank: int, bandwidth: int, rng, rms: float = 1.0):
    if rank in (0, 3):
        return form_of_rank(rank, grid, random_scalar_array(grid, bandwidth, rng, rms))
    return form_of_rank(rank, grid, _random_stack(grid, bandwidth, rng, rms))


def random_vector_field(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> VectorField:
    return VectorField(grid, _random_stack(grid, bandwidth, rng, rms))


def _random_stack(grid: Grid, bandwidth: int, rng, rms: float, count: int = 3) -> np.ndarray:
    """``count`` ``random_scalar_array`` draws, stacked as components: one transform."""
    coefs, box = _draw(grid, bandwidth, rng, count)
    return _at_rms(irfft3_cs(coefs, box), rms)


def random_divfree_field(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> VectorField:
    """A random vector field's Leray projection on its bandwidth's box, at ``rms``.

    Each drawn component is brought to unit rms, projected, and the
    projection brought to ``rms``, all on the coefficients; then one
    inverse transform.
    """
    coefs, box = _draw(grid, bandwidth, rng, 3)
    v = _at_rms([leray_cs(_at_rms(coefs, 1.0, box), box)], rms, box)[0]
    return VectorField(grid, irfft3_cs(v, box))


def _draw(grid: Grid, bandwidth: int, rng, count: int) -> tuple[np.ndarray, Box]:
    """``count`` fields' cs-layout coefficients, shape (count,) + box.shape, and their box."""
    box = grid.box_of(grid.n, min(bandwidth, grid.n // 2 - 1))
    m = box.keep
    p = 2 * m + 1
    c = np.stack([rng.standard_normal(p ** 3) + 1j * rng.standard_normal(p ** 3)
                  for _ in range(count)]).reshape(count, p, p, p)
    c[:, 0, 0, 0] = 0.0
    c_neg = np.roll(c[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))  # c_-k in fft order
    h = 0.5 * (c[..., :m + 1] + c_neg[..., :m + 1].conj())
    for axis in (1, 2):  # rows k = 0..K, -K..-1 to A_k, then B_k for k = K..1
        rows = h.swapaxes(0, axis)
        cos, sin = rows[1:m + 1], rows[m + 1:]
        b = rows[m:0:-1] - sin  # h_k - h_-k, k = K..1
        cos += sin[::-1]
        np.multiply(b, 1j, out=sin)
    return h, box


def _at_rms(fields, rms: float, box: Box | None = None):
    """Each of ``fields`` (scaled in place) brought to root mean square ``rms``;
    a zero field is left as it is.  The fields are grid values, or
    cs-layout coefficients on ``box``, whose grid mean square is their
    Parseval sum (``parseval_cs`` includes the inverse transform's 1/n^3)."""
    for f in fields:
        if box is None:
            ms = np.mean(f ** 2)
        else:
            stack = f.reshape((-1,) + box.shape)
            ms = mean_dot_cs(stack, stack, box)
        norm = float(np.sqrt(ms))
        if norm > 0:
            f *= rms / norm
    return fields
