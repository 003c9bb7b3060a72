"""Lie-Poisson structure of ideal fluids on the spectral torus engine.

State is a velocity 1-form representative alpha of the coset modulo exact
forms.  The pairing with a vector field u is <alpha, u> = int (i_u alpha) mu;
the coadjoint action is [u, alpha]+ = -i_u d(alpha); helicity int alpha^d(alpha)
is the generic Casimir.  Representative independence is never assumed: it is
tested by shifting alpha by exact forms.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidParameterError
from .forms3 import (
    Form1,
    Form2,
    VectorField,
    curl_cs,
    d,
    eval_at,
    integrate3,
    interior,
    irfft3_cs,
    leray_cs,
    leray_project,
    mean_dot_cs,
    rfft3_cs,
    sharp,
    vf_bracket,
    closed_curve,
    curve_velocity,
    wedge,
)
from .forms3.grid import _cross
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
    "EULER_DT",
    "euler_dt",
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
    return integrate3(interior(u, alpha))


def lie_poisson_bracket(alpha: Form1, u: VectorField, v: VectorField) -> float:
    """<alpha, [u, v]>, the ideal-fluid Lie-Poisson bracket on representatives."""
    return pairing(alpha, vf_bracket(u, v))


def coadjoint(u: VectorField, alpha: Form1) -> Form1:
    """[u, alpha]+ = -i_u d(alpha), the motion generated by u on the dual."""
    return -interior(u, d(alpha))


def helicity(alpha: Form1, da: Form2 | None = None) -> float:
    """int alpha ^ d(alpha); ``da`` is d(alpha) when the caller already has it."""
    return integrate3(wedge(alpha, d(alpha) if da is None else da))


def helicity_gradient_check(alpha: Form1,
                            directions: Iterable[Form1]) -> list[tuple[float, float]]:
    """Directional derivatives of helicity at ``alpha`` two ways, one pair
    per direction da, each read as it is needed.

    Each pair is (centered finite difference, pairing of da with twice the
    vorticity).  Helicity is quadratic, so the centered difference is exact
    up to roundoff and the two values agree to the functional-gradient
    identity delta H = <da, 2 W>.  d(alpha) is formed once for them all.
    """
    eps = 0.5
    d_alpha = d(alpha)
    return [((helicity(alpha + eps * da) - helicity(alpha - eps * da)) / (2.0 * eps),
             2.0 * integrate3(wedge(da, d_alpha)))
            for da in directions]


def velocity_of(alpha: Form1) -> VectorField:
    """Divergence-free velocity representative: Leray projection of alpha sharp."""
    return leray_project(sharp(alpha))


def energy(alpha: Form1) -> float:
    """Kinetic energy (1/2) <alpha, v>; depends only on the coset of alpha."""
    return 0.5 * pairing(alpha, velocity_of(alpha))


def euler_rhs(state: FluidState) -> Form1:
    """Coset representative of d(alpha)/dt = -i_v d(alpha), v = Leray(alpha sharp).

    The pressure term of Euler's equations is an exact form and is dropped:
    the coset evolves by the coadjoint motion its own velocity generates.
    """
    return coadjoint(velocity_of(state.alpha), state.alpha)


def _lower_triangle(rows) -> np.ndarray:
    a = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        a[i, :i] = row
    return a


# Dormand-Prince 8(5,3) tableau, the 12 stages of the 8th-order solution:
# DOP853_A[i, :i] are stage i's coefficients, DOP853_B the weights (B_2..B_5
# vanish); values as in Hairer's DOP853 and scipy's dop853_coefficients
DOP853_A = _lower_triangle((
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
))
DOP853_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])


# The Euler step at n = 32, where its margin was measured: drift grows as
# about dt^8.7; at 2e-2 helicity and energy drift about 3e-9, more than 150x
# inside the suite's 1e-6 bound.
EULER_DT = 2e-2


def euler_dt(grid) -> float:
    """The Euler step wherever none is given (the verify suite's evolutions
    and the CLI's default): EULER_DT, shortened in proportion to the 2/3-rule
    cutoff above n = 32's K = 10, so the fastest kept mode keeps its margin."""
    return EULER_DT * min(1, 10 / grid.box.keep)


@dataclass
class EvolveDiagnostics:
    times: np.ndarray
    energies: np.ndarray
    helicities: np.ndarray


def euler_evolve(state: FluidState, dt: float,
                 t_final: float) -> tuple[FluidState, EvolveDiagnostics]:
    """Fixed-step DOP853 Euler evolution with 2/3-rule dealiasing of each right-hand side.

    The method is Dormand and Prince's explicit 8th-order Runge-Kutta
    method (Prince & Dormand, J. Comput. Appl. Math. 7, 1981; Hairer,
    Norsett & Wanner, *Solving ODEs I*, II.10) without its error estimate
    or step control.  Its state is alpha's coefficients on the 2/3-rule
    box (``grid.box``) in the cos/sin layout (see ``Box``), so every pass of
    its transforms is a real matrix product; the box is the dealiasing:
    nothing outside it is ever formed.  A right-hand side is ``_rhs`` and a
    step ``_dop853_step``; steps are dt, the last one shortened to end on
    t_final.  Diagnostics record energy and helicity at t = 0 and after
    every step, read off the cos/sin coefficients by Parseval's theorem.
    A state that is non-finite at t = 0 (once transformed) or after a step
    raises BlowUpError with that time.
    """
    box = state.grid.box

    def rhs(s):
        return _rhs(s, box)

    times, energies, helicities = [], [], []

    def record(t, a):
        if not np.all(np.isfinite(a)):
            raise BlowUpError("state became non-finite", time=t)
        times.append(t)
        energies.append(0.5 * mean_dot_cs(a, leray_cs(a, box), box))
        helicities.append(mean_dot_cs(a, curl_cs(a, box), box))

    n_steps = _step_count(t_final, dt)  # refuse before any transform
    # divergence shows up as inf/nan, from the first transform on; the
    # contract is the exception
    with np.errstate(over="ignore", invalid="ignore"):
        a = rfft3_cs(state.alpha.data, box)
        t = 0.0
        record(t, a)
        for _ in range(n_steps):
            h = min(dt, t_final - t)
            a = _dop853_step(a, rhs, h)
            t += h
            record(t, a)
    diag = EvolveDiagnostics(np.asarray(times), np.asarray(energies), np.asarray(helicities))
    return FluidState(Form1(state.grid, irfft3_cs(a, box))), diag


def _rhs(s: np.ndarray, box) -> np.ndarray:
    """cs-layout box coefficients of v x curl(alpha), v = Leray(alpha), from alpha's.

    The product of the oracle ``euler_rhs`` (two inverse box transforms,
    one forward), with the 2/3 mask applied by the box itself.
    """
    return rfft3_cs(_cross(irfft3_cs(leray_cs(s, box), box),
                           irfft3_cs(curl_cs(s, box), box)), box)


def _last_reader(j: int) -> int:
    """The last stage whose combination reads slope k_j, or len(DOP853_B)
    for the final one."""
    return len(DOP853_B) if DOP853_B[j] else int(np.flatnonzero(DOP853_A[:, j]).max())


# _DOP853_FREED[i]: the slopes whose last reader is stage i's combination,
# dropped once k_i is formed; from the tableau's zeros (1-based) k2 goes
# after stage 3, k3 after stage 5, k4 and k5 after stage 12, before the
# final combination
_DOP853_FREED = [[j for j in range(len(DOP853_B)) if _last_reader(j) == i]
                 for i in range(len(DOP853_B))]


def _dop853_step(a: np.ndarray, rhs, h: float) -> np.ndarray:
    """One DOP853 step, a + h sum_j B_j k_j; stage slope k_i is ``rhs`` at
    a + h sum_{j<i} A_ij k_j.  Each slope is dropped after its last reader."""
    k = [rhs(a)]
    for i in range(1, len(DOP853_B)):
        k.append(rhs(_combine(a, h, DOP853_A[i], k)))
        for j in _DOP853_FREED[i]:
            k[j] = None
    return _combine(a, h, DOP853_B, k)


def _combine(a: np.ndarray, h: float, coefs: np.ndarray, k) -> np.ndarray:
    """a + h * sum_j coefs[j] k[j], over the nonzero coefs in j order.

    The coefficients are real, so the sums run on float64 views of the
    complex arrays: the same values as the complex arithmetic, half the
    flops (a complex times a real differs only in the sign of a zero).
    """
    (c0, k0), *terms = [(c, kj.view(float)) for c, kj in zip(coefs, k) if c]
    total = c0 * k0
    for c, kj in terms:
        total += c * kj
    total *= h
    total += a.view(float)
    return total.view(complex)


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
