"""Advection of 1-forms: d(alpha)/dt = -L_u alpha, RK4 in time, 2/3-rule dealiased.

This is the pullback transport along the flow of u: for u = d/dx the profile
translates, alpha(t) = f(x - t) dx.  Divergence-free u preserves the helicity
integral of alpha; any u preserves foliation invariants of integrable alpha.

The RK4 state is the rfftn coefficient stack of alpha: derivatives are
multiplies, dealiasing is a mask, and only the products u x curl(alpha) and
u . alpha are formed on the grid.  ``generator`` is the physical-space
oracle of the same right-hand side.
"""

from __future__ import annotations

import numpy as np

from ..errors import BlowUpError, InvalidParameterError
from .calculus import _cross, _dot, lie_derivative
from .forms import Form1, VectorField
from .grid import curl_r, dealias, grad_r, irfft3, rfft3


def transport(alpha: Form1, u: VectorField, t_final: float, dt: float,
              check_every: int = 16) -> Form1:
    """Solve d(alpha)/dt = -L_u alpha up to t_final.

    u is projected below the 2/3-rule cutoff on entry (a no-op for compliant
    fields); each right-hand side is dealiased.  Non-finite values raise
    BlowUpError with the failing time.
    """
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if t_final < 0:
        raise InvalidParameterError("t_final must be nonnegative")
    g = alpha.grid
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    if n_steps == 0 or float(np.abs(u.data).max()) == 0.0:
        return Form1(g, alpha.data.copy())
    u = dealias(u.data, g)

    a = rfft3(alpha.data)
    t = 0.0
    # divergence shows up as inf/nan mid-step; the contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            h = min(dt, t_final - t)
            a = _rk4_step(a, u, h, g)
            t += h
            if step % check_every == 0 or step == n_steps - 1:
                if not np.all(np.isfinite(a)):
                    raise BlowUpError("transport blew up", time=t)
    return Form1(g, irfft3(a, g))


def _rhs(a: np.ndarray, u: np.ndarray, g) -> np.ndarray:
    """-L_u alpha = u x curl(alpha) - grad(u . alpha), coefficients in and out."""
    w = irfft3(curl_r(a, g), g)
    out = rfft3(_cross(u, w)) - grad_r(rfft3(_dot(u, irfft3(a, g))), g)
    out *= g.dealias_mask_r
    return out


def _rk4_step(a: np.ndarray, u: np.ndarray, h: float, g) -> np.ndarray:
    k1 = _rhs(a, u, g)
    k2 = _rhs(a + 0.5 * h * k1, u, g)
    k3 = _rhs(a + 0.5 * h * k2, u, g)
    k4 = _rhs(a + h * k3, u, g)
    return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def generator(alpha: Form1, u: VectorField) -> Form1:
    """The instantaneous transport direction -L_u alpha (not dealiased)."""
    return -lie_derivative(u, alpha)
