"""Advection of 1-forms: d(alpha)/dt = -L_u alpha, 2/3-rule dealiased.

This is the pullback transport along the flow of u: for u = d/dx the profile
translates, alpha(t) = f(x - t) dx.  Divergence-free u preserves the helicity
integral of alpha; any u preserves foliation invariants of integrable alpha.

The state is alpha's coefficients on the 2/3-rule box in the cos/sin (cs)
layout, as for Euler (see ``Box``): every transform pass is a real matrix
product, derivatives are multiplies and row swaps, the box is the
dealiasing, and only the products u x curl(alpha) and u . alpha are formed
on a grid.  They are linear in alpha, so with alpha on the box K and u of
bandwidth B <= K they are formed on the M = 2K + B + 1 grid, the smallest
whose aliases of the product's modes (|k| <= K + B) miss the box (Orszag,
J. Atmos. Sci. 28, 1971); 3K < n, so M <= n.  -L_u is linear in alpha and
constant in time, so the exact flow is exp(-t L_u) alpha; ``transport``
applies it as a truncated Taylor series over equal substeps (Al-Mohy &
Higham, "Computing the action of the matrix exponential", SIAM J. Sci.
Comput. 33, 2011; see Hochbruck & Ostermann, "Exponential integrators",
Acta Numerica 19, 2010).
``generator`` is the physical-space oracle of the same right-hand side.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BlowUpError, InvalidParameterError
from .calculus import _dot, d, lie_derivative
from .forms import Form1, VectorField
from .grid import Box, _cross, curl_cs, dealias, grad_cs, irfft3_cs, rfft3_cs, spectral_derivative

MAX_SUBSTEPS = 10_000  # substeps one transport call may take
SUBSTEP_NORM = 8.0     # bound on h * rho for one substep
MAX_DEGREE = 40        # Taylor terms per substep
SERIES_TOL = 1e-16     # stop once max|term| <= SERIES_TOL * max|partial sum|
BAND_TOL = 1e-13       # u's coefficients at most BAND_TOL of its largest count as zero


def transport(alpha: Form1, u: VectorField, t_final: float, dt: float) -> Form1:
    """Solve d(alpha)/dt = -L_u alpha up to t_final with the propagator exp(-t L_u).

    ``dt`` is the longest substep allowed.  The interval is cut into
    max(ceil(t_final/dt), ceil(t_final*rho/8)) equal substeps, where
    rho = 2 pi K sum_i max|u_i| + 3 max|grad u|, K = grid.box.keep, bounds
    the size of L_u on the box (the advective part by the triangle inequality
    over u_i d_i, exact for constant u on the corner mode); more than
    MAX_SUBSTEPS raises InvalidParameterError before any transform.  Each
    substep sums the Taylor series of exp(-h L_u) to at most MAX_DEGREE
    terms, stopping once a term's largest cs-layout coefficient is below
    SERIES_TOL of the partial sum's; a series that has not converged by then
    is discarded and the substeps left are halved, so an unconverged sum is
    never kept, and a halving past MAX_SUBSTEPS raises InvalidParameterError.  u is projected onto
    the box on entry (a no-op for compliant fields); alpha's modes above the
    cutoff are carried through untouched as grid values and, as every
    increment is cut to the box, enter only each substep's first Taylor
    term.  Non-finite values raise BlowUpError.

    u's bandwidth B is the largest max|k_i| among its box coefficients
    above BAND_TOL of the largest, and the coefficients beyond B are
    zeroed, so every use of u (rho, the forcing of the high modes, the
    Taylor terms) sees the same u.  The Taylor terms' products are formed
    on ``Box(2K + B + 1, K)``, the smallest grid that aliases nothing
    into the box; the state, the forcing and the series test stay on
    ``grid.box``.
    """
    g, box = alpha.grid, alpha.grid.box
    n_dt = _step_count(t_final, dt)
    u_max = np.abs(u.data).reshape(3, -1).max(axis=1)
    if n_dt == 0 or not u_max.any():
        return Form1(g, alpha.data.copy())
    if not np.all(np.isfinite(u_max)):
        raise BlowUpError("transport field is non-finite", time=0.0)
    advection = 2.0 * np.pi * box.keep * float(u_max.sum())
    _substep_count(n_dt, t_final * advection)  # refuse before any transform
    u_hat = rfft3_cs(dealias(u.data, g), box)
    band = _band_cut(u_hat, box)
    u = irfft3_cs(u_hat, box)
    shear = max(float(np.abs(spectral_derivative(u, g, ax)).max()) for ax in range(3))
    left = _substep_count(n_dt, t_final * (advection + 3.0 * shear))
    h = t_final / left
    taken = 0

    box_m = g.box_of(2 * box.keep + band + 1, box.keep)
    # the cs coefficients carry the forward grid's n^3, so u_m is rescaled
    # and the terms' coefficients stay n-scaled
    u_m = irfft3_cs(u_hat, box_m) * (box_m.n / g.n) ** 3
    # divergence shows up as inf/nan; the contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        a = rfft3_cs(alpha.data, box)
        high = alpha.data - irfft3_cs(a, box)  # the modes above the cutoff
        forcing = _rhs(high, d(Form1(g, high)).data, u, box, box)
        del u, u_hat
        while left:
            total, term = a.copy(), a
            for degree in range(1, MAX_DEGREE + 1):
                term = _rhs(irfft3_cs(term, box_m), irfft3_cs(curl_cs(term, box), box_m),
                            u_m, box_m, box)
                if degree == 1:
                    term += forcing
                term *= h / degree
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
            a = total
            taken, left = taken + 1, left - 1
        return Form1(g, irfft3_cs(a, box) + high)


def _step_count(t_final: float, dt: float) -> int:
    """The steps of at most dt that make up t_final: none for t_final = 0,
    else at least one, however small t_final / dt is."""
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if not 0 <= t_final < np.inf:
        raise InvalidParameterError("t_final must be finite and nonnegative")
    try:
        n = int(np.ceil(t_final / dt - 1e-12))
    except OverflowError:  # t_final / dt, or an int operand, beyond the float range
        raise InvalidParameterError("t_final / dt is beyond the float range") from None
    return max(n, 1) if t_final > 0 else 0


def _substep_count(n_dt: int, t_rho: float, why: str = "transport") -> int:
    """max(n_dt, ceil(t_final*rho/SUBSTEP_NORM)), bounded by MAX_SUBSTEPS."""
    n_sub = max(n_dt, t_rho / SUBSTEP_NORM)
    if not n_sub <= MAX_SUBSTEPS:
        raise InvalidParameterError(
            f"{why} needs {n_sub:.4g} substeps, more than MAX_SUBSTEPS = {MAX_SUBSTEPS}")
    return math.ceil(n_sub)


def _band_cut(spec: np.ndarray, box: Box) -> int:
    """The bandwidth B of a 3-stack's box coefficients: the largest max|k_i|
    among those above BAND_TOL of the largest (0 if none is).  The
    coefficients beyond B are zeroed in place."""
    kx, ky, kz = (np.abs(k) for k in box.k_r)
    level = np.maximum(np.maximum(kx, ky), kz)
    mag = np.abs(spec)
    band = int(level[(mag > BAND_TOL * mag.max()).any(axis=0)].max(initial=0))
    spec[:, level > band] = 0.0
    return band


def _rhs(alpha: np.ndarray, curl: np.ndarray, u: np.ndarray, grid_box: Box,
         box: Box) -> np.ndarray:
    """cs-layout coefficients on ``box`` of -L_u alpha = u x curl(alpha) - grad(u . alpha),
    from the values of alpha and its curl on ``grid_box``'s grid.  The two
    boxes share their K; the gradient takes ``box``'s multipliers, so a
    product grid's box builds only its transform matrices."""
    out = rfft3_cs(_cross(u, curl), grid_box)
    out -= grad_cs(rfft3_cs(_dot(u, alpha), grid_box), box)
    return out


def generator(alpha: Form1, u: VectorField) -> Form1:
    """The instantaneous transport direction -L_u alpha (not dealiased)."""
    return -lie_derivative(u, alpha)
