"""Lie-Poisson structure of ideal fluids on the spectral torus engine.

State is a velocity 1-form representative alpha of the coset modulo exact
forms.  The pairing with a vector field u is <alpha, u> = int (i_u alpha) mu;
the coadjoint action is [u, alpha]+ = -i_u d(alpha); helicity int alpha^d(alpha)
is the generic Casimir.  Representative independence is never assumed: it is
tested by shifting alpha by exact forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidParameterError, PreconditionError
from .forms3 import (
    Form0,
    Form1,
    VectorField,
    curl_r,
    d,
    eval_at,
    integrate3,
    interior,
    irfft3_box,
    leray_project,
    leray_r,
    mean_dot_r,
    rfft3_box,
    scale_by,
    sharp,
    vf_bracket,
    closed_curve,
    curve_velocity,
    wedge,
)
from .forms3.grid import _buffer, _cross
from .forms3.transport import _step_count

__all__ = [
    "FluidState",
    "pairing",
    "lie_poisson_bracket",
    "coadjoint",
    "helicity",
    "helicity_gradient_check",
    "velocity_of",
    "energy",
    "euler_rhs",
    "euler_evolve",
    "subalgebra_orthogonality",
    "loop_integral",
    "helicity_density_check",
]


@dataclass(frozen=True)
class FluidState:
    """A representative velocity 1-form on its grid."""

    alpha: Form1

    def __post_init__(self):
        if not self.alpha.is_finite():
            raise InvalidParameterError("fluid state must have finite components")

    @property
    def grid(self):
        return self.alpha.grid


def pairing(alpha: Form1, u: VectorField) -> float:
    """<alpha, u> = int (i_u alpha) mu; representative independent for div-free u."""
    return float(np.mean(np.sum(alpha.data * u.data, axis=0)))


def lie_poisson_bracket(alpha: Form1, u: VectorField, v: VectorField) -> float:
    """<alpha, [u, v]>, the ideal-fluid Lie-Poisson bracket on representatives."""
    return pairing(alpha, vf_bracket(u, v))


def coadjoint(u: VectorField, alpha: Form1) -> Form1:
    """[u, alpha]+ = -i_u d(alpha), the motion generated by u on the dual."""
    return -interior(u, d(alpha))


def helicity(alpha: Form1) -> float:
    return integrate3(wedge(alpha, d(alpha)))


def helicity_gradient_check(alpha: Form1, da: Form1) -> tuple[float, float]:
    """Directional derivative of helicity two ways.

    Returns (centered finite difference, pairing of da with twice the
    vorticity).  Helicity is quadratic, so the centered difference is exact
    up to roundoff and the two values agree to the functional-gradient
    identity delta H = <da, 2 W>.
    """
    eps = 1e-5
    lhs = (helicity(alpha + eps * da) - helicity(alpha - eps * da)) / (2.0 * eps)
    rhs = 2.0 * integrate3(wedge(da, d(alpha)))
    return lhs, rhs


def velocity_of(alpha: Form1) -> VectorField:
    """Divergence-free velocity representative: Leray projection of alpha sharp."""
    return leray_project(sharp(alpha))


def energy(alpha: Form1) -> float:
    """Kinetic energy (1/2) <alpha, v>; depends only on the coset of alpha."""
    return 0.5 * pairing(alpha, velocity_of(alpha))


def euler_rhs(state: FluidState) -> Form1:
    """Coset representative of d(alpha)/dt = -i_v d(alpha), v = Leray(alpha sharp).

    The pressure term of Euler's equations is an exact form and is dropped:
    only the coset evolves.
    """
    v = velocity_of(state.alpha)
    return -interior(v, d(state.alpha))


@dataclass
class EvolveDiagnostics:
    times: np.ndarray
    energies: np.ndarray
    helicities: np.ndarray


def euler_evolve(state: FluidState, dt: float,
                 t_final: float) -> tuple[FluidState, EvolveDiagnostics]:
    """RK4 Euler evolution with 2/3-rule dealiasing of each right-hand side.

    The RK4 state is alpha's coefficients on the 2/3-rule box
    (``grid.box``), which is the dealiasing: nothing outside it is ever
    formed.  A right-hand side is ``_rhs``.  Diagnostics record energy and
    helicity at t = 0 and after every step, read off the coefficients by
    Parseval's theorem.  A state that is non-finite once transformed
    raises BlowUpError at t = 0.  Every array a right-hand side or a step
    writes lives in ``work`` or in ``rk4_evolve``'s stage buffers, for
    this call only; the returned state and diagnostics are new arrays.
    """
    g = state.grid
    box = g.box
    work = {}  # transform buffers and right-hand-side arrays, shared by every call

    def rhs(s, out):
        return _rhs(s, g, work, out)

    times, energies, helicities = [], [], []

    def sample(t, a):
        coef, tmp = _coef_buffers(a, work)
        times.append(t)
        energies.append(0.5 * mean_dot_r(a, leray_r(a, box, coef, tmp), box))
        helicities.append(mean_dot_r(a, curl_r(a, box, coef, tmp), box))

    # divergence shows up as inf/nan, from the first transform on; the
    # contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        a = rk4_evolve(rfft3_box(state.alpha.data, g, work), rhs, dt, t_final, sample)
    diag = EvolveDiagnostics(np.asarray(times), np.asarray(energies), np.asarray(helicities))
    return FluidState(Form1(g, irfft3_box(a, g, work))), diag


def _coef_buffers(s: np.ndarray, work: dict) -> tuple[np.ndarray, np.ndarray]:
    """A box 3-stack and a box scalar for ``leray_r``/``curl_r`` results."""
    return _buffer(work, "coef", s.shape), _buffer(work, "coef tmp", s.shape[1:])


def _rhs(s: np.ndarray, g, work: dict, out: np.ndarray | None = None) -> np.ndarray:
    """Box coefficients of v x curl(alpha), v = Leray(alpha), from alpha's box coefficients.

    The product of the oracle ``euler_rhs`` (two pruned inverse transforms,
    one pruned forward), with the 2/3 mask applied by the box itself.  The
    result goes to ``out``, or to a new array; every other array it writes
    is a ``work`` buffer, allocated on the first call.
    """
    box = g.box
    coef, tmp = _coef_buffers(s, work)
    shape = s.shape[:-3] + g.shape
    v = irfft3_box(leray_r(s, box, coef, tmp), g, work, _buffer(work, "v", shape, float))
    w = irfft3_box(curl_r(s, box, coef, tmp), g, work, _buffer(work, "curl", shape, float))
    vxw = _cross(v, w, _buffer(work, "v x curl", shape, float),
                 _buffer(work, "v x curl tmp", g.shape, float))
    return rfft3_box(vxw, g, work, out)


def rk4_evolve(a: np.ndarray, rhs, dt: float, t_final: float, sample) -> np.ndarray:
    """Classical RK4 for da/dt = rhs(a) from t = 0 to t_final; returns a(t_final).

    Steps are dt, the last one shortened to end on t_final.  The initial
    state and every step are checked for non-finite values (BlowUpError
    with that time), so callers run it with overflow warnings off.
    ``rhs(s, out)`` writes the derivative at ``s`` into ``out`` and returns
    it; ``sample(t, a)`` is called at t = 0 and after each step and must
    not keep ``a``.  The three stage buffers are allocated once per call,
    and the state alternates between ``a`` (which is overwritten) and one
    of them, so a step allocates nothing of its own.
    """
    n_steps = _step_count(t_final, dt)
    t = 0.0
    if not np.all(np.isfinite(a)):
        raise BlowUpError("state became non-finite", time=t)
    sample(t, a)
    k1, k2, stage = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    for _ in range(n_steps):
        h = min(dt, t_final - t)
        a, k2 = _rk4_step(a, rhs, h, k1, k2, stage), a
        t += h
        if not np.all(np.isfinite(a)):
            raise BlowUpError("state became non-finite", time=t)
        sample(t, a)
    return a


def _rk4_step(a: np.ndarray, rhs, h: float, k1: np.ndarray, k2: np.ndarray,
              stage: np.ndarray) -> np.ndarray:
    """a + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order into ``k2``.

    ``k1`` holds k1, then k3, then k4; ``stage`` holds each stage state.
    Every operation writes into one of the three buffers, so the step
    allocates nothing; ``a`` is only read.
    """
    rhs(a, k1)
    np.add(a, np.multiply(0.5 * h, k1, out=stage), out=stage)
    rhs(stage, k2)
    np.add(a, np.multiply(0.5 * h, k2, out=stage), out=stage)
    k2 *= 2.0
    k2 += k1
    rhs(stage, k1)  # k3
    np.add(a, np.multiply(h, k1, out=stage), out=stage)
    k1 *= 2.0
    k2 += k1
    k2 += rhs(stage, k1)  # k4
    k2 *= h / 6.0
    k2 += a
    return k2


def subalgebra_orthogonality(alpha: Form1, beta: Form1, h_fn: Form0) -> float:
    """<alpha, Y> for the leaf-tangent field Y with i_Y mu = d(h_fn * beta).

    Vanishes whenever alpha is a function multiple of the integrable defining
    form beta; the returned pairing is the raw residual.
    """
    from .foliation import check_integrability  # local import avoids a module cycle

    report = check_integrability(beta)
    if not report["integrable"]:
        raise PreconditionError(
            f"beta is not integrable: residual {report['relative_residual']:.3e}"
        )
    nu = d(scale_by(h_fn, beta))
    y = VectorField(alpha.grid, nu.data)
    return pairing(alpha, y)


def loop_integral(alpha: Form1, points: np.ndarray) -> float:
    """int_gamma alpha over a closed curve given as uniform parameter samples.

    ``points`` includes the closing row (last == first mod 1, to 1e-12);
    quadrature is the uniform-grid mean of the pulled-back integrand, which
    is spectrally accurate for smooth curves.
    """
    samples = closed_curve(np.asarray(points, dtype=float))
    vel = curve_velocity(samples)
    vals = eval_at(alpha, samples)          # (m, 3) component samples
    return float(np.mean(np.sum(vals * vel, axis=1)))


def helicity_density_check(alpha: Form1) -> float:
    """Pointwise max of |alpha ^ d(alpha)|; zero iff the helicity density vanishes."""
    return wedge(alpha, d(alpha)).linf()
