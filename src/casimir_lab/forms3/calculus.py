"""Exterior calculus: d, wedge, interior product, Lie derivative, bracket.

Derivatives are Fourier multipliers (exact on band-limited data); products
are pointwise in the collocated representation, so algebraic identities
like a^a = 0 and (i_V a) mu = a ^ i_V mu hold pointwise, many of them to
the last bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import RankError
from .forms import Form0, Form1, Form2, Form3, VectorField, volume_form
from .grid import _cross, irfft3_cs, leray_cs, rfft3_cs, spectral_derivative


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise a . b of two 3-stacks in one pass, without the product
    temporaries: the bits of a0 b0 + a1 b1 + a2 b2, except that the sum
    starts from +0, so three -0 products give +0."""
    return np.einsum("i...,i...->...", a, b)


def d(form):
    """Exterior derivative: gradient, curl or divergence of the components.

    One axis at a time, each derivative written or summed into the result
    before the next is taken.  The curl takes each axis's pair of
    components in one call, d/dx of a1 and a2, d/dy of a0 and a2, d/dz of
    a0 and a1; curl_1 = d_z a0 - d_x a2 is formed as -d_x a2 + d_z a0,
    the same bits.
    """
    g = form.grid
    if isinstance(form, Form0):
        f = form.data
        out = np.empty((3,) + f.shape)
        for ax in range(3):
            out[ax] = spectral_derivative(f, g, ax)
        return Form1(g, out)
    if isinstance(form, Form1):
        a = form.data
        out = np.empty(a.shape)
        dx = spectral_derivative(a[1:3], g, 0)
        out[2] = dx[0]
        np.negative(dx[1], out=out[1])
        del dx
        dy = spectral_derivative(a[0::2], g, 1)
        out[2] -= dy[0]
        out[0] = dy[1]
        del dy
        dz = spectral_derivative(a[0:2], g, 2)
        out[1] += dz[0]
        out[0] -= dz[1]
        return Form2(g, out)
    if isinstance(form, Form2):
        b = form.data
        out = spectral_derivative(b[0], g, 0)
        out += spectral_derivative(b[1], g, 1)
        out += spectral_derivative(b[2], g, 2)
        return Form3(g, out)
    raise RankError("d of a 3-form exceeds the top rank")


def wedge(a, b):
    """Graded pointwise product; a^b = (-1)^(jk) b^a."""
    ra, rb = a.rank, b.rank
    if ra is None or rb is None:
        raise RankError("wedge expects differential forms")
    if ra + rb > 3:
        raise RankError(f"wedge of ranks {ra} and {rb} exceeds the top rank")
    g = a.grid
    if ra == 0:
        return type(b)(g, a.data * b.data)
    if rb == 0:
        return type(a)(g, b.data * a.data)
    if ra == 1 and rb == 1:
        return Form2(g, _cross(a.data, b.data))
    if ra == 1 and rb == 2:
        return Form3(g, _dot(a.data, b.data))
    # ra == 2, rb == 1: even permutation, same sign as 1^2
    return Form3(g, _dot(b.data, a.data))


def interior(v: VectorField, form):
    """Contraction i_V in the first slot."""
    g = form.grid
    if isinstance(form, Form1):
        return Form0(g, _dot(form.data, v.data))
    if isinstance(form, Form2):
        return Form1(g, _cross(form.data, v.data))
    if isinstance(form, Form3):
        return Form2(g, form.data * v.data)
    raise RankError("interior product needs rank >= 1")


def lie_derivative(v: VectorField, form):
    """Cartan formula L_V = d i_V + i_V d."""
    if isinstance(form, Form0):
        return interior(v, d(form))
    if isinstance(form, Form3):
        return d(interior(v, form))
    return d(interior(v, form)) + interior(v, d(form))


def _advect(a: np.ndarray, b: np.ndarray, g) -> np.ndarray:
    """sum_j a^j d_j b, accumulated one axis at a time into the first derivative."""
    out = spectral_derivative(b, g, 0)
    out *= a[0]
    for ax in (1, 2):
        db = spectral_derivative(b, g, ax)
        db *= a[ax]
        out += db
    return out


def vf_bracket(u: VectorField, v: VectorField) -> VectorField:
    """Commutator [u, v]^i = u^j d_j v^i - v^j d_j u^i.  The two sums are
    formed separately, so [u, v] == -[v, u] and [u, u] == 0 bit for bit."""
    out = _advect(u.data, v.data, u.grid)
    out -= _advect(v.data, u.data, u.grid)
    return VectorField(u.grid, out)


def integrate3(form: Form3) -> float:
    """Integral over the torus: the grid mean is exact for the interpolant."""
    return float(np.mean(form.data))


def divergence(v: VectorField) -> Form0:
    """div v: d of the 2-form with v's components, read as a 0-form."""
    return Form0(v.grid, d(Form2(v.grid, v.data)).data)


def sharp(alpha: Form1) -> VectorField:
    """Flat-metric index raising (components unchanged)."""
    return VectorField(alpha.grid, alpha.data.copy())


def flat(v: VectorField) -> Form1:
    return Form1(v.grid, v.data.copy())


def vorticity_from(alpha: Form1) -> VectorField:
    """The field W with d(alpha) = i_W mu: the curl of the components."""
    return VectorField(alpha.grid, d(alpha).data)


def leray_project(v: VectorField) -> VectorField:
    """Divergence-free part of v (mean flow is kept) on the Nyquist-free box,
    which drops the modes with some |k_i| = n/2."""
    box = v.grid.box_of(v.grid.n, v.grid.n // 2 - 1)
    return VectorField(v.grid, irfft3_cs(leray_cs(rfft3_cs(v.data, box), box), box))


def contraction_identity_residual(v: VectorField, alpha: Form1) -> float:
    """Max deviation in (i_V alpha) mu = alpha ^ i_V mu (zero by construction)."""
    g = alpha.grid
    lhs = wedge(interior(v, alpha), volume_form(g))
    rhs = wedge(alpha, interior(v, volume_form(g)))
    return float(np.abs(lhs.data - rhs.data).max())

