"""Codimension-1 foliation machinery and the Godbillon-Vey verification chain.

For a nonvanishing integrable 1-form alpha (alpha ^ d(alpha) = 0) the chain

    d(alpha) = alpha ^ eta,      d(eta) = alpha ^ gamma,
    chi = 2 (eta ^ gamma - d(gamma)),        GV = int eta ^ d(eta)

is solved with the deterministic pointwise representative

    X = alpha_sharp / |alpha|^2,   eta = i_X d(alpha),   gamma = i_X d(eta).

The choice is metric dependent only up to the allowed gauge freedom

    eta -> eta + f alpha,   gamma -> gamma + f eta - df + g alpha,

under which GV is invariant and chi shifts by a member of the degeneracy
family nu = q d(alpha) + d(q alpha); both facts are verified, not assumed.
Every accepted state caches its defining-identity residuals so downstream
claims carry provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError, PreconditionError
from .fluid import helicity, pairing
from .forms3 import (
    Form0,
    Form1,
    Form2,
    VectorField,
    d,
    integrate3,
    interior,
    scale_by,
    transport,
    vf_bracket,
    wedge,
)

__all__ = [
    "FoliatedState",
    "XiGenerator",
    "check_integrability",
    "gate_failure",
    "solve_eta",
    "chi_from",
    "godbillon_vey",
    "gauge_shift",
    "gv_variation",
    "xi_generator",
    "bracket_degeneracy_check",
    "restricted_bracket",
    "gv_casimir_suite",
    "graph_foliation_form",
]

INTEGRABILITY_TOL = 1e-9
NONVANISH_FLOOR = 1e-6
CHI_TOL = 1e-8
DEGENERACY_TOL = 1e-9
# A variation alpha_dot is tangent to the integrable stratum when alpha +
# VARIATION_EPS * alpha_dot is integrable to VARIATION_TANGENCY_TOL.
VARIATION_EPS = 1e-4
VARIATION_TANGENCY_TOL = 1e-6


def check_integrability(alpha: Form1) -> dict:
    """Frobenius test: relative L2 norm of alpha ^ d(alpha), plus min |alpha|.

    An overflowing alpha gives inf/nan residuals, which the gates refuse.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        da = d(alpha)
        res = wedge(alpha, da).l2()
        scale = alpha.l2() * da.l2()
        rel = res / scale if scale > 0 else res
        min_abs = float(np.sqrt(np.sum(alpha.data ** 2, axis=0).min()))
    return {
        "residual": res,
        "relative_residual": rel,
        "min_abs": min_abs,
        "integrable": rel <= INTEGRABILITY_TOL,
    }


def _reference_field(alpha: Form1) -> VectorField:
    """X = alpha_sharp / |alpha|^2, so i_X alpha = 1 pointwise.

    Where alpha vanishes or |alpha|^2 overflows X is NaN or zero; the gates
    reject such an alpha.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return VectorField(alpha.grid, alpha.data / np.sum(alpha.data ** 2, axis=0))


def _integrability_residuals(alpha: Form1) -> dict:
    report = check_integrability(alpha)
    return {"integrability": report["relative_residual"], "min_abs_alpha": report["min_abs"]}


def gate_failure(res: dict) -> PreconditionError | InconsistencyError | None:
    """The first membership gate a residual record fails, as the exception to
    raise, or None.  The gates run in order: the nonvanishing floor,
    integrability, then the defining identities the record holds; NaN fails."""
    if not res["min_abs_alpha"] >= NONVANISH_FLOOR:
        return PreconditionError(
            f"alpha vanishes: min |alpha| = {res['min_abs_alpha']:.3e} "
            f"< floor {NONVANISH_FLOOR:g}"
        )
    if not res["integrability"] <= INTEGRABILITY_TOL:
        return PreconditionError(
            f"alpha is not integrable: relative residual "
            f"{res['integrability']:.3e} > {INTEGRABILITY_TOL:g}"
        )
    for key in ("eta_defining", "gamma_defining", "gamma_certificate"):
        if not res.get(key, 0.0) <= INTEGRABILITY_TOL:
            return InconsistencyError(
                f"defining identity {key} residual {res[key]:.3e} "
                f"exceeds {INTEGRABILITY_TOL:g} (aliasing or non-integrability)"
            )
    return None


def _enforce_gates(res: dict) -> None:
    """Raise the first membership gate ``res`` fails, if any."""
    failure = gate_failure(res)
    if failure:
        try:
            raise failure
        finally:
            # a frame holding the exception it raised is a reference cycle
            # (frame -> exception -> traceback -> frame) that keeps every
            # caller's arrays alive until the cyclic collector runs
            del failure


def solve_eta(alpha: Form1) -> Form1:
    """A 1-form with d(alpha) = alpha ^ eta (defect absorbed by gauge freedom)."""
    _enforce_gates(_integrability_residuals(alpha))
    return interior(_reference_field(alpha), d(alpha))


def _solve_chi(alpha: Form1, da: Form2, eta: Form1, deta: Form2,
               gamma: Form1) -> tuple[Form2, dict]:
    """chi = 2 (eta ^ gamma - d(gamma)) and the relative residuals of the chain:
    d(alpha) = alpha ^ eta, d(eta) = alpha ^ gamma, the solvability
    certificate alpha ^ d(eta) = 0, alpha ^ chi = 0 and d(chi) = eta ^ chi."""
    chi = 2.0 * (wedge(eta, gamma) - d(gamma))
    dchi = d(chi)
    return chi, {
        "eta_defining": (da - wedge(alpha, eta)).l2() / max(da.l2(), 1e-30),
        "gamma_defining": (deta - wedge(alpha, gamma)).l2() / max(deta.l2(), 1e-30),
        "gamma_certificate": wedge(alpha, deta).l2()
                             / max(alpha.l2() * deta.l2(), 1e-30),
        "chi_tangency": wedge(alpha, chi).l2() / max(alpha.l2() * chi.l2(), 1e-30),
        "chi_closure": (dchi - wedge(eta, chi)).l2()
                       / max(dchi.l2(), eta.l2() * chi.l2(), 1e-30),
    }


def chi_from(alpha: Form1, eta: Form1, gamma: Form1) -> Form2:
    """chi = 2 (eta ^ gamma - d(gamma)); verifies alpha^chi = 0 and d(chi) = eta^chi."""
    chi, res = _solve_chi(alpha, d(alpha), eta, d(eta), gamma)
    r1, r2 = res["chi_tangency"], res["chi_closure"]
    if not (r1 <= CHI_TOL and r2 <= CHI_TOL):  # a NaN fails
        raise InconsistencyError(
            f"chi identities failed: |alpha^chi| rel {r1:.3e}, "
            f"|d(chi) - eta^chi| rel {r2:.3e} (tol {CHI_TOL:g})"
        )
    return chi


@dataclass(frozen=True, eq=False)
class FoliatedState:
    """An accepted integrable 1-form with its solved chain and residual record."""

    alpha: Form1
    eta: Form1
    gamma: Form1
    chi: Form2
    residuals: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.alpha.grid

    @classmethod
    def from_alpha(cls, alpha: Form1, *, strict: bool = True) -> "FoliatedState":
        """Solve the full chain and record its residuals.  With strict=True a
        state that fails a membership gate raises; with strict=False it is
        returned, and ``gate_failure(state.residuals)`` names the failure.
        An overflowing alpha gives inf/nan residuals, which the gates refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = _reference_field(alpha)
            da = d(alpha)
            eta = interior(x, da)
            deta = d(eta)
            gamma = interior(x, deta)
            chi, chain = _solve_chi(alpha, da, eta, deta, gamma)

            res = {
                **_integrability_residuals(alpha),
                **chain,
                "x_ref_normalization": float(
                    np.abs(np.sum(alpha.data * x.data, axis=0) - 1.0).max()),
                "helicity": abs(helicity(alpha)),
            }
        if strict:
            _enforce_gates(res)
        return cls(alpha=alpha, eta=eta, gamma=gamma, chi=chi, residuals=res)


def godbillon_vey(state: FoliatedState) -> float:
    """GV = int eta ^ d(eta); gauge, scaling and diffeomorphism invariant."""
    return integrate3(wedge(state.eta, d(state.eta)))


def gauge_shift(state: FoliatedState, f: Form0, g: Form0) -> FoliatedState:
    """Apply eta -> eta + f alpha, gamma -> gamma + f eta - df + g alpha.

    The defining identities are preserved exactly; chi changes by
    -2 (q d(alpha) + d(q alpha)) with effective q = g - f^2/2, a member of
    the degeneracy family (pure g shifts realize the formula with q = g).
    """
    alpha = state.alpha
    eta = state.eta + scale_by(f, alpha)
    gamma = state.gamma + scale_by(f, state.eta) - d(f) + scale_by(g, alpha)
    chi, chain = _solve_chi(alpha, d(alpha), eta, d(eta), gamma)
    res = {**state.residuals, **chain}
    return FoliatedState(alpha=alpha, eta=eta, gamma=gamma, chi=chi, residuals=res)


def chi_shift_expected(state: FoliatedState, f: Form0, g: Form0) -> Form2:
    """Predicted chi change under gauge_shift: -2 (q d(alpha) + d(q alpha)), q = g - f^2/2."""
    q = Form0(state.grid, g.data - 0.5 * f.data ** 2)
    return -2.0 * (scale_by(q, d(state.alpha)) + d(scale_by(q, state.alpha)))


def gv_variation(state: FoliatedState, alpha_dot: Form1) -> float:
    """Directional derivative of GV: int alpha_dot ^ chi.

    alpha_dot must be tangent to the integrable stratum: alpha + eps*alpha_dot
    has to pass the integrability check at the probe amplitude eps.
    """
    res = check_integrability(state.alpha + VARIATION_EPS * alpha_dot)["relative_residual"]
    if not res <= VARIATION_TANGENCY_TOL:  # a NaN fails
        raise PreconditionError(
            f"variation leaves the integrable stratum: residual {res:.3e} "
            f"at eps = {VARIATION_EPS:g}"
        )
    return integrate3(wedge(alpha_dot, state.chi))


@dataclass(frozen=True, eq=False)
class XiGenerator:
    """A degeneracy field V with i_V mu = f d(alpha) + d(f alpha)."""

    v: VectorField
    residuals: dict


def _degeneracy_gate(state: FoliatedState, v: VectorField) -> tuple[dict, str | None]:
    """The two membership gates of a degeneracy field V, with nu = i_V mu:
    leaf tangency i_V alpha = 0 and closure d(nu) = eta ^ nu.  Returns their
    relative residuals and the failure message, or None if both pass."""
    alpha = state.alpha
    nu = Form2(state.grid, v.data)
    tangency = Form0(state.grid, np.sum(alpha.data * v.data, axis=0)).l2() / max(
        alpha.l2() * v_l2(v), 1e-30)
    dnu = d(nu)
    closure = (dnu - wedge(state.eta, nu)).l2() / max(
        dnu.l2(), state.eta.l2() * nu.l2(), 1e-30)
    res = {"tangency": tangency, "condon": closure}
    if tangency <= DEGENERACY_TOL and closure <= DEGENERACY_TOL:
        return res, None
    return res, (f"field fails degeneracy gates: tangency {tangency:.3e}, "
                 f"closure {closure:.3e} (tol {DEGENERACY_TOL:g})")


def xi_generator(state: FoliatedState, f: Form0) -> XiGenerator:
    """Construct the degeneracy field of f and verify its membership gates."""
    alpha = state.alpha
    nu = scale_by(f, d(alpha)) + d(scale_by(f, alpha))
    v = VectorField(state.grid, nu.data)
    res, failure = _degeneracy_gate(state, v)
    if failure:
        raise InconsistencyError(failure)
    return XiGenerator(v=v, residuals=res)


def v_l2(v: VectorField) -> float:
    return float(np.sqrt(np.mean(np.sum(v.data ** 2, axis=0))))


def bracket_degeneracy_check(state: FoliatedState, a: VectorField, v: VectorField) -> float:
    """<alpha, [a, v]> for a leaf-tangent degeneracy representative a.

    The membership gates on a are re-verified here, so arbitrary fields are
    rejected rather than silently paired.
    """
    _, failure = _degeneracy_gate(state, a)
    if failure:
        raise PreconditionError(failure)
    return pairing(state.alpha, vf_bracket(a, v))


def restricted_bracket(state: FoliatedState, u: VectorField, v: VectorField) -> float:
    """<alpha, [u, v]> on functional-derivative representatives.

    Antisymmetric in (u, v); invariant under shifting either argument by a
    verified degeneracy field, which is what makes it well defined on cosets.
    """
    return pairing(state.alpha, vf_bracket(u, v))


def gv_casimir_suite(state: FoliatedState, fields: list[VectorField], t: float) -> dict:
    """Transport alpha along each field, re-solve the chain and measure GV drift.

    Each transported state is solved once without raising; its ``degraded``
    entry is the message of the first membership gate it fails, or None.
    """
    gv0 = godbillon_vey(state)
    records = []
    for idx, u in enumerate(fields):
        new_state = FoliatedState.from_alpha(transport(state.alpha, u, t, t), strict=False)
        gv_t = godbillon_vey(new_state)
        failure = gate_failure(new_state.residuals)
        records.append({
            "field": idx,
            "gv_final": gv_t,
            "drift": abs(gv_t - gv0),
            "degraded": str(failure) if failure else None,
            "residuals": new_state.residuals,
        })
    return {"gv_initial": gv0, "records": records}


def graph_foliation_form(grid, profile: Form0, scale: Form0 | None = None) -> Form1:
    """alpha = f * (dz + a(z) dx): the graph-foliation test family.

    ``profile`` is the slope field a (a function of z for exact
    integrability); ``scale`` is the optional nonvanishing multiplier f.
    """
    data = np.zeros((3,) + grid.shape)
    data[0] = profile.data
    data[2] = 1.0
    beta = Form1(grid, data)
    if scale is None:
        return beta
    return scale_by(scale, beta)
