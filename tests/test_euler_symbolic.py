"""Euler's right-hand side against a closed form derived with sympy.

alpha is a band-1 trigonometric 1-form with a gradient part and a mean, so
the Leray projection matters.  v = alpha minus its gradient part, and the
right-hand side v x curl(alpha) has band 2 <= (n - 1)//3, so no dealiasing mask
can hide an error in either the grid oracle or the box right-hand side.

The boosted ABC field that verify's Euler evolution is measured against is
derived here too: it solves the coset equation exactly, so its Leray part is
the exact solution at every t.
"""

import numpy as np
import pytest

from casimir_lab import forms3 as f3
from casimir_lab import verify
from casimir_lab.fluid import FluidState, _rhs, euler_rhs

sp = pytest.importorskip("sympy")

X = sp.symbols("x y z", real=True)
T = sp.symbols("t", real=True)
COS = [sp.cos(2 * sp.pi * s) for s in X]
SIN = [sp.sin(2 * sp.pi * s) for s in X]
R = sp.Rational


def _alpha():
    (cx, cy, cz), (sx, sy, sz) = COS, SIN
    return [R(1, 4) + sy + R(3, 10) * cz + R(1, 2) * sx * cy,
            cz + R(2, 5) * sx + R(1, 5) * cx * sz - R(1, 3) * sx * sy * cz,
            sx + R(3, 5) * cy * sz - R(1, 10) * sy * cx]


def _gradient_part(alpha):
    """phi with grad(phi) the gradient part of alpha: solves lap(phi) = div(alpha).

    Every monomial in the cosines and sines (at most one factor per axis, as
    band 1 gives) is an eigenfunction of the Laplacian, with eigenvalue
    -(2 pi)^2 times its number of factors.
    """
    div = sp.expand(sum(sp.diff(a, s) for a, s in zip(alpha, X)))
    poly = sp.Poly(div, *COS, *SIN)
    phi = 0
    for powers, coeff in poly.terms():
        per_axis = [powers[i] + powers[i + 3] for i in range(3)]
        assert max(per_axis) <= 1 and sum(per_axis) > 0
        mono = sp.Mul(*(g ** p for g, p in zip(COS + SIN, powers)))
        phi += coeff * mono / (-(2 * sp.pi) ** 2 * sum(per_axis))
    return phi


def _closed_form_rhs():
    alpha = _alpha()
    phi = _gradient_part(alpha)
    v = [a - sp.diff(phi, s) for a, s in zip(alpha, X)]
    assert sp.expand(_div(v)) == 0
    return alpha, _cross(v, _curl(alpha))


def _div(a):
    return sum(sp.diff(c, s) for c, s in zip(a, X))


def _curl(a):
    x, y, z = X
    return [sp.diff(a[2], y) - sp.diff(a[1], z),
            sp.diff(a[0], z) - sp.diff(a[2], x),
            sp.diff(a[1], x) - sp.diff(a[0], y)]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _on_grid(exprs, g):
    f = sp.lambdify(X, exprs, "numpy")
    return np.stack([np.broadcast_to(c, g.shape) for c in f(*g.meshes)]).astype(float)


@pytest.mark.parametrize("n", [8, 32])
def test_euler_rhs_matches_closed_form(n):
    g = f3.Grid(n)
    alpha, rhs = _closed_form_rhs()
    a = f3.Form1(g, _on_grid(alpha, g))
    expect = _on_grid(rhs, g)
    scale = np.abs(expect).max()
    assert np.abs(euler_rhs(FluidState(a)).data - expect).max() <= 1e-12 * scale
    coefs = _rhs(f3.rfft3_cs(a.data, g.box), g.box)
    assert np.abs(f3.irfft3_cs(coefs, g.box) - expect).max() <= 1e-12 * scale


def _abc(shift):
    """The ABC field (sin 2 pi z + 0.6 cos 2 pi y, 0.8 sin 2 pi x + cos 2 pi z,
    0.6 sin 2 pi y + 0.8 cos 2 pi x) at x - shift."""
    x, y, z = (2 * sp.pi * (s - c) for s, c in zip(X, shift))
    return [sp.sin(z) + R(3, 5) * sp.cos(y), R(4, 5) * sp.sin(x) + sp.cos(z),
            R(3, 5) * sp.sin(y) + R(4, 5) * sp.cos(x)]


def _expanded(expr):
    """expr as a sum of products of sines and cosines of 2 pi x, 2 pi y,
    2 pi z and of multiples of pi t."""
    return sp.expand(sp.expand_trig(sp.expand(expr)))


def _vanishes(expr) -> bool:
    return _expanded(expr) == 0


def test_boosted_beltrami_solves_the_coset_equation():
    # alpha(t) = U + B(x - U t) + d(phi), for any phi: its Leray part is
    # v = U + B(x - U t), and d(alpha)/dt - v x curl(alpha) is the exact form
    # -d(U . B(x - U t)), so the coset evolution carries Leray(alpha) exactly
    boost = [R(7, 10), R(-2, 5), R(3, 10)]
    assert tuple(float(u) for u in boost) == verify.EULER_BOOST
    b = _abc([0, 0, 0])
    assert all(_vanishes(w - 2 * sp.pi * c) for w, c in zip(_curl(b), b))
    moved = _abc([u * T for u in boost])
    v = [u + c for u, c in zip(boost, moved)]
    phi = sp.Function("phi")(*X)
    alpha = [c + sp.diff(phi, s) for c, s in zip(v, X)]
    assert _vanishes(_div([a - sp.diff(phi, s) for a, s in zip(alpha, X)]))
    assert all(sp.integrate(_expanded(c), *((s, 0, 1) for s in X)) == 0 for c in moved)
    pressure = sum(u * c for u, c in zip(boost, moved))
    rhs = _cross(v, _curl(alpha))
    assert all(_vanishes(sp.diff(a, T) - r + sp.diff(pressure, s))
               for a, r, s in zip(alpha, rhs, X))


def test_boosted_beltrami_reference_on_the_grid():
    g = f3.Grid(8)
    shift = [0.07, -0.04, 0.03]
    expect = _on_grid(_abc(shift), g)
    assert np.abs(verify._abc(g, shift).data - expect).max() <= 1e-14
