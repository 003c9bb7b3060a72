"""Euler's right-hand side against a closed form derived with sympy.

alpha is a band-1 trigonometric 1-form with a gradient part and a mean, so
the Leray projection matters.  v = alpha minus its gradient part, and the
right-hand side v x curl(alpha) has band 2 <= (n - 1)//3, so no dealiasing mask
can hide an error in either the grid oracle or the box right-hand side.
"""

import numpy as np
import pytest

from casimir_lab import forms3 as f3
from casimir_lab.fluid import FluidState, _rhs, euler_rhs

sp = pytest.importorskip("sympy")

X = sp.symbols("x y z", real=True)
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
    assert sp.expand(sum(sp.diff(c, s) for c, s in zip(v, X))) == 0
    x, y, z = X
    w = [sp.diff(alpha[2], y) - sp.diff(alpha[1], z),
         sp.diff(alpha[0], z) - sp.diff(alpha[2], x),
         sp.diff(alpha[1], x) - sp.diff(alpha[0], y)]
    rhs = [v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0]]
    return alpha, rhs


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
