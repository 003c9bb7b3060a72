"""Advection of 1-forms: d(alpha)/dt = -L_u alpha, RK4 in time, 2/3-rule dealiased.

This is the pullback transport along the flow of u: for u = d/dx the profile
translates, alpha(t) = f(x - t) dx.  Divergence-free u preserves the helicity
integral of alpha; any u preserves foliation invariants of integrable alpha.

The RK4 state is the rfftn coefficient stack of alpha: derivatives are
multiplies, dealiasing is a mask, and only the products u x curl(alpha) and
u . alpha are formed on the grid.  ``generator`` is the physical-space
oracle of the same right-hand side.  ``rk4_evolve`` is the time loop of
both this transport and the Euler evolution in ``fluid``.
"""

from __future__ import annotations

import numpy as np

from ..errors import BlowUpError, InvalidParameterError
from .calculus import _cross, _dot, lie_derivative
from .forms import Form1, VectorField
from .grid import curl_r, dealias, grad_r, irfft3, rfft3


def transport(alpha: Form1, u: VectorField, t_final: float, dt: float) -> Form1:
    """Solve d(alpha)/dt = -L_u alpha up to t_final.

    u is projected below the 2/3-rule cutoff on entry (a no-op for compliant
    fields); each right-hand side is dealiased.  Non-finite values raise
    BlowUpError with the failing time.
    """
    g = alpha.grid
    if _step_count(t_final, dt) == 0 or float(np.abs(u.data).max()) == 0.0:
        return Form1(g, alpha.data.copy())
    u = dealias(u.data, g)
    a = rk4_evolve(rfft3(alpha.data), lambda s: _rhs(s, u, g), dt, t_final)
    return Form1(g, irfft3(a, g))


def rk4_evolve(a: np.ndarray, rhs, dt: float, t_final: float, sample=None) -> np.ndarray:
    """Classical RK4 for da/dt = rhs(a) from t = 0 to t_final; returns a(t_final).

    Steps are dt, the last one shortened to end on t_final.  Every step is
    checked for non-finite values (BlowUpError with that step's time).
    ``rhs`` returns a new array; ``sample(t, a)``, if given, is called at
    t = 0 and after each step.
    """
    n_steps = _step_count(t_final, dt)
    t = 0.0
    if sample is not None:
        sample(t, a)
    # divergence shows up as inf/nan mid-step; the contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            h = min(dt, t_final - t)
            a = _rk4_step(a, rhs, h)
            t += h
            if not np.all(np.isfinite(a)):
                raise BlowUpError("state became non-finite", time=t)
            if sample is not None:
                sample(t, a)
    return a


def _step_count(t_final: float, dt: float) -> int:
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if not 0 <= t_final < np.inf:
        raise InvalidParameterError("t_final must be finite and nonnegative")
    return int(np.ceil(t_final / dt - 1e-12))


def _rhs(a: np.ndarray, u: np.ndarray, g) -> np.ndarray:
    """-L_u alpha = u x curl(alpha) - grad(u . alpha), coefficients in and out."""
    w = irfft3(curl_r(a, g), g)
    out = rfft3(_cross(u, w)) - grad_r(rfft3(_dot(u, irfft3(a, g))), g)
    out *= g.dealias_mask_r
    return out


def _rk4_step(a: np.ndarray, rhs, h: float) -> np.ndarray:
    """a + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order.

    The sum accumulates in place in k2 and each stage is dropped once used,
    so few coefficient stacks are freed at once: freeing four at the end of
    each step made glibc hand heap pages back to the OS and fault them in
    again on every step (29x the page faults and 10 % more time in the
    lie-poisson suite at n = 32).
    ``rhs`` must return a new array.
    """
    k1 = rhs(a)
    k2 = rhs(a + 0.5 * h * k1)
    stage = a + 0.5 * h * k2
    k2 *= 2.0
    k2 += k1
    del k1
    k3 = rhs(stage)
    stage = a + h * k3
    k3 *= 2.0
    k2 += k3
    del k3
    k2 += rhs(stage)
    k2 *= h / 6.0
    k2 += a
    return k2


def generator(alpha: Form1, u: VectorField) -> Form1:
    """The instantaneous transport direction -L_u alpha (not dealiased)."""
    return -lie_derivative(u, alpha)
