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
from .grid import _cross, irfft3, leray_r, rfft3, spectral_derivative


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def d(form):
    """Exterior derivative: gradient, curl or divergence of the components."""
    g = form.grid
    if isinstance(form, Form0):
        f = form.data
        return Form1(g, np.stack([spectral_derivative(f, g, ax) for ax in range(3)]))
    if isinstance(form, Form1):
        a = form.data
        return Form2(g, np.stack([
            spectral_derivative(a[2], g, 1) - spectral_derivative(a[1], g, 2),
            spectral_derivative(a[0], g, 2) - spectral_derivative(a[2], g, 0),
            spectral_derivative(a[1], g, 0) - spectral_derivative(a[0], g, 1),
        ]))
    if isinstance(form, Form2):
        b = form.data
        return Form3(g, spectral_derivative(b[0], g, 0)
                     + spectral_derivative(b[1], g, 1)
                     + spectral_derivative(b[2], g, 2))
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


def vf_bracket(u: VectorField, v: VectorField) -> VectorField:
    """Commutator [u, v]^i = u^j d_j v^i - v^j d_j u^i."""
    g = u.grid
    du = np.stack([spectral_derivative(u.data, g, ax) for ax in range(3)])  # du[j, i]
    dv = np.stack([spectral_derivative(v.data, g, ax) for ax in range(3)])
    out = np.einsum("j...,ji...->i...", u.data, dv) - np.einsum("j...,ji...->i...", v.data, du)
    return VectorField(g, out)


def integrate3(form: Form3) -> float:
    """Integral over the torus: the grid mean is exact for the interpolant."""
    return float(np.mean(form.data))


def divergence(v: VectorField) -> Form0:
    g = v.grid
    return Form0(g, spectral_derivative(v.data[0], g, 0)
                 + spectral_derivative(v.data[1], g, 1)
                 + spectral_derivative(v.data[2], g, 2))


def sharp(alpha: Form1) -> VectorField:
    """Flat-metric index raising (components unchanged)."""
    return VectorField(alpha.grid, alpha.data.copy())


def flat(v: VectorField) -> Form1:
    return Form1(v.grid, v.data.copy())


def vorticity_from(alpha: Form1) -> VectorField:
    """The field W with d(alpha) = i_W mu: the curl of the components."""
    return VectorField(alpha.grid, d(alpha).data)


def leray_project(v: VectorField) -> VectorField:
    """Divergence-free part of v (mean flow is kept)."""
    g = v.grid
    return VectorField(g, irfft3(leray_r(rfft3(v.data), g), g))


def contraction_identity_residual(v: VectorField, alpha: Form1) -> float:
    """Max deviation in (i_V alpha) mu = alpha ^ i_V mu (zero by construction)."""
    g = alpha.grid
    lhs = wedge(interior(v, alpha), volume_form(g))
    rhs = wedge(alpha, interior(v, volume_form(g)))
    return float(np.abs(lhs.data - rhs.data).max())

