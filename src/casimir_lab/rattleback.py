"""Finite-dimensional Lie-Poisson engine for the rattleback spinning top.

The algebra is the three-dimensional solvable algebra of Bianchi type VI_h,
spanned by pitching, rolling and spinning generators (P, R, S) with

    [P, R] = 0,    [S, P] = h P,    [S, R] = R.

Dual coordinates are written (p, r, s).  The quadratic Hamiltonian
H = (p^2 + r^2 + s^2)/2 produces the flow

    dp/dt = -h p s,   dr/dt = -r s,   ds/dt = r^2 + h p^2,

whose generic Casimir is C = p * r**(-h).  On the singular line (0, 0, s)
the Poisson matrix vanishes identically and s itself becomes invariant: a
Casimir of the restricted (trivial) bracket on the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .errors import DomainError, InvalidParameterError

__all__ = [
    "RattlebackState",
    "Trajectory",
    "antisymmetry_residual",
    "bianchi_vi",
    "jacobi_residual",
    "poisson_matrix",
    "rattleback_rhs",
    "hamiltonian",
    "casimir",
    "casimir_gradient",
    "casimir_gradient_check",
    "integrate",
    "integrate_legs",
    "restricted_casimir_report",
    "step_count",
]

METHODS = ("rk4", "rk45")
RK45_RTOL = 1e-10
RK45_ATOL = 1e-12
RK45_MAX_STEPS = 10_000_000  # attempted steps
LEG_STEPS = 5_000  # rk4 steps in one piece of integrate_legs

# The 19 cubic monomials p^a r^b s^c with 1 <= a+b+c <= 3 that probe the
# bracket, as exponent rows (a, b, c) in the loop order over a, b, c
_MONOMIALS = np.array([(a, b, c) for a in range(4) for b in range(4 - a)
                       for c in range(4 - a - b) if a + b + c], dtype=float)


def _is_finite(x) -> bool:
    try:
        return math.isfinite(float(x))
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class RattlebackState:
    """Dual-space point: pitching, rolling and spinning amplitudes."""

    p: float
    r: float
    s: float

    def __post_init__(self):
        for name in ("p", "r", "s"):
            v = getattr(self, name)
            if not _is_finite(v):
                raise InvalidParameterError(f"component {name} must be finite")
            object.__setattr__(self, name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.r, self.s])


@dataclass(eq=False)
class Trajectory:
    """Sampled solution with per-sample energy and Casimir diagnostics."""

    times: np.ndarray
    states: np.ndarray          # shape (m, 3), rows (p, r, s)
    hamiltonians: np.ndarray
    casimirs: np.ndarray        # nan where r <= 0 leaves the Casimir chart

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise InvalidParameterError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParameterError("times must be strictly increasing")


def bianchi_vi(h: float) -> np.ndarray:
    """Structure constants c[k, i, j] of e_k in [e_i, e_j] for Bianchi VI_h,
    in the ordered basis (P, R, S).

    The algebraic identities hold for any finite h; the chiral spinning-top
    interpretation needs h < -1.
    """
    if not (isinstance(h, (int, float)) and _is_finite(h)):
        raise InvalidParameterError("h must be a finite real number")
    c = np.zeros((3, 3, 3))
    # [S, P] = h P, [S, R] = R, [P, R] = 0; indices (P, R, S) = (0, 1, 2).
    c[0, 2, 0] = h
    c[0, 0, 2] = -h
    c[1, 2, 1] = 1.0
    c[1, 1, 2] = -1.0
    return c


def antisymmetry_residual(c: np.ndarray) -> float:
    """Max-norm of c[k, i, j] + c[k, j, i]."""
    return float(np.abs(c + c.transpose(0, 2, 1)).max())


def jacobi_residual(c: np.ndarray) -> float:
    """Max-norm of sum_m c[m,i,j] c[l,m,k] + cyclic in (i, j, k), over every l."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN at extreme h
        t = np.einsum("mij,lmk->lijk", c, c)
        res = t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)
    return float(np.abs(res).max())


def poisson_matrix(c: np.ndarray, xi: RattlebackState) -> np.ndarray:
    """Lie-Poisson matrix J_ij = c[k, i, j] xi_k, so that {F, G} = grad F . J grad G."""
    return np.einsum("kij,k->ij", c, xi.as_array())


def rattleback_rhs(xi: RattlebackState, h: float) -> RattlebackState:
    """Time derivative (-h p s, -r s, r^2 + h p^2); equals J(xi) grad H."""
    p, r, s = xi.p, xi.r, xi.s
    return RattlebackState(-h * p * s, -r * s, r * r + h * p * p)


def hamiltonian(xi: RattlebackState) -> float:
    return 0.5 * (xi.p ** 2 + xi.r ** 2 + xi.s ** 2)


def _chart_power(r: float, e: float) -> float:
    """r ** e on the Casimir chart r > 0; inf where float ** raises
    OverflowError, as a multiply would overflow."""
    if r <= 0:
        raise DomainError("Casimir chart requires r > 0 (non-integer power of r)")
    try:
        return r ** e
    except OverflowError:
        return math.inf


def casimir(xi: RattlebackState, h: float) -> float:
    """Generic Casimir C = p * r**(-h) on the chart r > 0."""
    return xi.p * _chart_power(xi.r, -h)


def casimir_gradient(xi: RattlebackState, h: float) -> np.ndarray:
    return np.array([_chart_power(xi.r, -h), -h * xi.p * _chart_power(xi.r, -h - 1.0), 0.0])


def casimir_gradient_check(xi: RattlebackState, h: float) -> float:
    """Max-norm of J grad C; vanishes identically when C is a Casimir."""
    j = poisson_matrix(bianchi_vi(h), xi)
    grad = casimir_gradient(xi, h)
    with np.errstate(invalid="ignore"):  # 0 * inf where the gradient overflows: NaN fails
        return float(np.abs(j @ grad).max())


def step_count(h, dt, t_final, method, stride) -> int | None:
    """The rattleback run rules, which ``integrate`` and ``integrate_legs``
    apply and scenarios apply with exit 2: h finite, dt > 0, t_final positive
    and finite, method one of METHODS and stride an integer >= 1; an rk4 run
    takes a whole number of steps of dt (to 1e-9 of max(1, t_final)) and a
    stride that divides them, an rk45 run stride 1.  Returns the rk4 step
    count, None for rk45."""
    if not (dt > 0):
        raise InvalidParameterError("dt must be positive")
    if not (t_final > 0 and _is_finite(t_final)):
        raise InvalidParameterError("t_final must be positive and finite")
    if not _is_finite(h):
        raise InvalidParameterError("h must be finite")
    if method not in METHODS:
        raise InvalidParameterError(f"unknown method {method!r}")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise InvalidParameterError(f"stride must be an integer >= 1, got {stride!r}")
    if method == "rk45":
        if stride != 1:
            raise InvalidParameterError("stride must be 1 with method 'rk45', which "
                                        f"records every accepted step, got {stride!r}")
        return None
    try:
        n_steps = int(round(t_final / dt))
    except OverflowError:  # t_final / dt, or an int operand, beyond the float range
        raise InvalidParameterError("t_final / dt is beyond the float range") from None
    if not abs(n_steps * dt - t_final) <= 1e-9 * max(1.0, t_final):
        raise InvalidParameterError("t_final must be an integer number of steps of "
                                    f"dt = {dt!r}, got {t_final!r}")
    if n_steps % stride:
        raise InvalidParameterError(f"stride must divide the {n_steps} rk4 steps, "
                                    f"got {stride}")
    return n_steps


def integrate(
    xi0: RattlebackState,
    h: float,
    dt: float,
    t_final: float,
    method: str = "rk4",
    *,
    stride: int = 1,
) -> Trajectory:
    """Integrate the rattleback flow: ``integrate_legs``'s one piece as it is,
    or its pieces joined, which holds the run twice for a moment.

    method="rk4" takes fixed steps of size dt and records every ``stride``-th
    step, the last at t_final.  method="rk45" is adaptive Dormand-Prince (dt
    is ignored) at RK45_RTOL and RK45_ATOL within RK45_MAX_STEPS attempted
    steps, and records every accepted step.  ``step_count`` states the
    argument rules.  A non-finite state or an exhausted step budget raises
    BlowUpError.  No conservation projection is applied: drift in H and C is
    a genuine accuracy diagnostic.
    """
    pieces = list(integrate_legs(xi0, h, dt, t_final, method, stride=stride))
    if len(pieces) == 1:
        return pieces[0]
    return Trajectory(**{f.name: np.concatenate([getattr(tr, f.name) for tr in pieces])
                         for f in fields(Trajectory)})


def _piece(times, x_rec, first, h) -> Trajectory:
    """A loop's array('d') from row ``first`` on, as writable views, with H and C."""
    states = np.frombuffer(x_rec).reshape(-1, 3)[first:]
    ham = 0.5 * np.einsum("ij,ij->i", states, states)
    r = states[:, 1]
    # r ** (-h) overflows to inf for large |h|, and the rows off the chart
    # r > 0, which are discarded, divide by zero or take a power of r < 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cas = r ** (-h)
        cas *= states[:, 0]
    cas[~(r > 0)] = np.nan
    return Trajectory(times=times, states=states, hamiltonians=ham, casimirs=cas)


def integrate_legs(
    xi0: RattlebackState,
    h: float,
    dt: float,
    t_final: float,
    method: str = "rk4",
    *,
    stride: int = 1,
):
    """``integrate``'s run as consecutive Trajectory pieces, so that a caller
    who reduces or writes each piece holds one piece at a time.

    An rk4 piece is one loop over at most LEG_STEPS steps (rounded down to a
    multiple of ``stride``, or one stride if that is longer), started from
    the last row of the piece before, whose repeated row it drops; its times
    are absolute.  rk4 carries nothing from step to step but the state, so
    the pieces concatenate to a single loop's records bit for bit, and a
    blow-up raises at the whole run's time.  rk45 cannot restart without
    changing its steps: its run is one piece.
    """
    n_steps = step_count(h, dt, t_final, method, stride)
    p, r, s = xi0.p, xi0.r, xi0.s
    if method == "rk45":
        t_rec, x_rec = kernels.rk45_loop(p, r, s, float(h), float(t_final),
                                         RK45_RTOL, RK45_ATOL, RK45_MAX_STEPS)
        yield _piece(np.frombuffer(t_rec), x_rec, 0, h)
        return
    leg = max(stride, LEG_STEPS - LEG_STEPS % stride)
    for step in range(0, max(n_steps, 1), leg):
        x_rec = kernels.rk4_loop(p, r, s, float(h), float(dt),
                                 min(leg, n_steps - step), stride, step)
        first, row = int(step > 0), step // stride
        yield _piece(np.arange(row + first, row + len(x_rec) // 3) * (stride * dt),
                     x_rec, first, h)
        p, r, s = x_rec[-3:]


def restricted_casimir_report(s0: float, h: float) -> dict:
    """The singular-line residuals at (0, 0, s0), each exactly zero there.

    ``rhs_zero_on_line``: the flow vanishes; ``poisson_matrix_zero_on_line``:
    the Poisson matrix is identically zero; ``bracket_trivial_on_line``: the
    bracket of any function of s with a basis of cubic monomials vanishes,
    so every function of s (s itself in particular) is a Casimir of the
    bracket restricted to the line.  Each is a numpy max, which keeps a NaN.
    """
    xi = RattlebackState(0.0, 0.0, float(s0))
    j = poisson_matrix(bianchi_vi(h), xi)
    # {phi(s), F} = grad phi . J grad F with grad phi = (0, 0, phi'(s)).
    # J = 0 makes every such bracket vanish exactly; probe a monomial basis.
    grad_phi = np.array([0.0, 0.0, 1.0])  # any phi'(s0) rescales this
    return {
        "rhs_zero_on_line": float(np.abs(rattleback_rhs(xi, h).as_array()).max()),
        "poisson_matrix_zero_on_line": float(np.abs(j).max()),
        "bracket_trivial_on_line": float(np.abs(_monomial_gradients(xi) @ (grad_phi @ j)).max()),
    }


def _monomial_gradients(xi: RattlebackState) -> np.ndarray:
    """Gradients at xi of the monomials in _MONOMIALS, one row each: entry i
    is e_i * prod(xi ** (e - unit_i)) where e_i > 0, and 0 where it is not."""
    e = _MONOMIALS[:, None, :] - np.eye(3)  # [k, i]: e_k less the unit in slot i
    e[_MONOMIALS == 0] = 0.0  # a zero entry takes no power: 0 ** -1 is never formed
    return _MONOMIALS * np.prod(xi.as_array() ** e, axis=2)
