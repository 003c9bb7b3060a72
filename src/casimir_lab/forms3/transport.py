"""Advection of 1-forms: d(alpha)/dt = -L_u alpha, 2/3-rule dealiased.

This is the pullback transport along the flow of u: for u = d/dx the profile
translates, alpha(t) = f(x - t) dx.  Divergence-free u preserves the helicity
integral of alpha; any u preserves foliation invariants of integrable alpha.

The state is alpha's coefficients on the 2/3-rule box, as for Euler:
derivatives are multiplies, the box is the dealiasing, and only the products
u x curl(alpha) and u . alpha are formed on the grid.  -L_u is linear in
alpha and constant in time, so the exact flow is exp(-t L_u) alpha;
``transport`` applies it as a truncated Taylor series over equal substeps
(Al-Mohy & Higham, "Computing the action of the matrix exponential", SIAM
J. Sci. Comput. 33, 2011; see Hochbruck & Ostermann, "Exponential
integrators", Acta Numerica 19, 2010).
``generator`` is the physical-space oracle of the same right-hand side.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BlowUpError, InvalidParameterError
from .calculus import _dot, d, lie_derivative
from .forms import Form1, VectorField
from .grid import _cross, curl_r, dealias, grad_r, irfft3_box, rfft3_box, spectral_derivative

MAX_SUBSTEPS = 10_000  # substeps one transport call may take
SUBSTEP_NORM = 8.0     # bound on h * rho for one substep
MAX_DEGREE = 40        # Taylor terms per substep
SERIES_TOL = 1e-16     # stop once max|term| <= SERIES_TOL * max|partial sum|


def transport(alpha: Form1, u: VectorField, t_final: float, dt: float) -> Form1:
    """Solve d(alpha)/dt = -L_u alpha up to t_final with the propagator exp(-t L_u).

    ``dt`` is the longest substep allowed.  The interval is cut into
    max(ceil(t_final/dt), ceil(t_final*rho/8)) equal substeps, where
    rho = 2 pi K sum_i max|u_i| + 3 max|grad u|, K = grid.box.keep, bounds
    the size of L_u on the box (the advective part by the triangle inequality
    over u_i d_i, exact for constant u on the corner mode); more than
    MAX_SUBSTEPS raises InvalidParameterError before any transform.  Each
    substep sums the Taylor series of exp(-h L_u) to at most MAX_DEGREE
    terms, stopping once a term is below SERIES_TOL of the partial sum; a
    series that has not converged by then is discarded and the substeps
    left are halved, so an unconverged sum is never kept, and a halving
    past MAX_SUBSTEPS raises InvalidParameterError.  u is projected onto
    the box on entry (a no-op for compliant fields); alpha's modes above the
    cutoff are carried through untouched as grid values and, as every
    increment is cut to the box, enter only each substep's first Taylor
    term.  Non-finite values raise BlowUpError.
    """
    g = alpha.grid
    n_dt = _step_count(t_final, dt)
    u_max = np.abs(u.data).reshape(3, -1).max(axis=1)
    if n_dt == 0 or not u_max.any():
        return Form1(g, alpha.data.copy())
    if not np.all(np.isfinite(u_max)):
        raise BlowUpError("transport field is non-finite", time=0.0)
    advection = 2.0 * np.pi * g.box.keep * float(u_max.sum())
    _substep_count(n_dt, t_final * advection)  # refuse before any transform
    u = dealias(u.data, g)
    shear = max(float(np.abs(spectral_derivative(u, g, ax)).max()) for ax in range(3))
    left = _substep_count(n_dt, t_final * (advection + 3.0 * shear))
    h = t_final / left
    taken = 0

    work = {}  # pass buffers of the pruned transforms, shared by every call
    # divergence shows up as inf/nan; the contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        a = rfft3_box(alpha.data, g, work)
        high = alpha.data - irfft3_box(a, g, work)  # the modes above the cutoff
        forcing = _rhs(high, d(Form1(g, high)).data, u, g, work)
        total, term = np.empty_like(a), np.empty_like(a)
        while left:
            np.copyto(total, a)
            np.copyto(term, a)
            for degree in range(1, MAX_DEGREE + 1):
                step = _rhs(irfft3_box(term, g, work),
                            irfft3_box(curl_r(term, g.box), g, work), u, g, work)
                if degree == 1:
                    step += forcing
                np.multiply(step, h / degree, out=term)
                total += term
                # a nan or inf also ends the series; the check below raises
                if not np.abs(term).max() > SERIES_TOL * np.abs(total).max():
                    break
            else:
                left, h = 2 * left, h / 2
                _substep_count(taken + left, 0.0, "the Taylor series of exp(-h L_u) "
                               "did not converge in MAX_DEGREE terms and halving h")
                continue
            if not np.all(np.isfinite(total)):
                raise BlowUpError("state became non-finite", time=t_final - (left - 1) * h)
            a, total = total, a
            taken, left = taken + 1, left - 1
        return Form1(g, irfft3_box(a, g, work) + high)


def _step_count(t_final: float, dt: float) -> int:
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if not 0 <= t_final < np.inf:
        raise InvalidParameterError("t_final must be finite and nonnegative")
    return int(np.ceil(t_final / dt - 1e-12))


def _substep_count(n_dt: int, t_rho: float, why: str = "transport") -> int:
    """max(n_dt, ceil(t_final*rho/SUBSTEP_NORM)), bounded by MAX_SUBSTEPS."""
    n_sub = max(n_dt, t_rho / SUBSTEP_NORM)
    if not n_sub <= MAX_SUBSTEPS:
        raise InvalidParameterError(
            f"{why} needs {n_sub:.4g} substeps, more than MAX_SUBSTEPS = {MAX_SUBSTEPS}")
    return math.ceil(n_sub)


def _rhs(alpha: np.ndarray, curl: np.ndarray, u: np.ndarray, g, work: dict) -> np.ndarray:
    """Box coefficients of -L_u alpha = u x curl(alpha) - grad(u . alpha), from
    the grid values of alpha and its curl."""
    out = rfft3_box(_cross(u, curl), g, work)
    out -= grad_r(rfft3_box(_dot(u, alpha), g, work), g.box)
    return out


def generator(alpha: Form1, u: VectorField) -> Form1:
    """The instantaneous transport direction -L_u alpha (not dealiased)."""
    return -lie_derivative(u, alpha)
