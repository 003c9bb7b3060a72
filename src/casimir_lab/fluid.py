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
from .forms3.calculus import _cross
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
    raises BlowUpError at t = 0.
    """
    g = state.grid
    box = g.box
    work = {}  # pass buffers of the pruned transforms, shared by every call

    def rhs(s):
        return _rhs(s, g, work)

    times, energies, helicities = [], [], []

    def sample(t, a):
        times.append(t)
        energies.append(0.5 * mean_dot_r(a, leray_r(a, box), box))
        helicities.append(mean_dot_r(a, curl_r(a, box), box))

    # divergence shows up as inf/nan, from the first transform on; the
    # contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        a = rk4_evolve(rfft3_box(state.alpha.data, g, work), rhs, dt, t_final, sample)
    diag = EvolveDiagnostics(np.asarray(times), np.asarray(energies), np.asarray(helicities))
    return FluidState(Form1(g, irfft3_box(a, g, work))), diag


def _rhs(s: np.ndarray, g, work: dict) -> np.ndarray:
    """Box coefficients of v x curl(alpha), v = Leray(alpha), from alpha's box coefficients.

    The product of the oracle ``euler_rhs`` (two pruned inverse transforms,
    one pruned forward), with the 2/3 mask applied by the box itself.  The
    two grid-space factors are freed before the forward transform runs.
    """
    box = g.box
    return rfft3_box(_cross(irfft3_box(leray_r(s, box), g, work),
                            irfft3_box(curl_r(s, box), g, work)), g, work)


def rk4_evolve(a: np.ndarray, rhs, dt: float, t_final: float, sample) -> np.ndarray:
    """Classical RK4 for da/dt = rhs(a) from t = 0 to t_final; returns a(t_final).

    Steps are dt, the last one shortened to end on t_final.  The initial
    state and every step are checked for non-finite values (BlowUpError
    with that time), so callers run it with overflow warnings off.
    ``rhs`` returns a new array; ``sample(t, a)`` is called at t = 0 and
    after each step.
    """
    n_steps = _step_count(t_final, dt)
    t = 0.0
    if not np.all(np.isfinite(a)):
        raise BlowUpError("state became non-finite", time=t)
    sample(t, a)
    for _ in range(n_steps):
        h = min(dt, t_final - t)
        a = _rk4_step(a, rhs, h)
        t += h
        if not np.all(np.isfinite(a)):
            raise BlowUpError("state became non-finite", time=t)
        sample(t, a)
    return a


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
