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
Every accepted state caches its GV and its defining-identity residuals so
downstream claims carry provenance.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError, PreconditionError
from .fluid import helicity, lie_poisson_bracket, pairing
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
    wedge,
)

__all__ = [
    "FoliatedState",
    "XiGenerator",
    "check_integrability",
    "subalgebra_orthogonality",
    "gate_failure",
    "godbillon_vey",
    "gauge_shift",
    "gv_variation",
    "xi_generator",
    "bracket_degeneracy_check",
    "gv_casimir_suite",
    "graph_foliation_form",
]

INTEGRABILITY_TOL = 1e-9
NONVANISH_FLOOR = 1e-6
DEGENERACY_TOL = 1e-9
# A variation alpha_dot is tangent to the integrable stratum when alpha +
# VARIATION_EPS * alpha_dot is integrable to VARIATION_TANGENCY_TOL.
VARIATION_EPS = 1e-4
VARIATION_TANGENCY_TOL = 1e-6


def check_integrability(alpha: Form1) -> float:
    """Frobenius test: the relative L2 norm of alpha ^ d(alpha), which
    INTEGRABILITY_TOL judges.

    An overflowing alpha gives an inf/nan residual, which the gates refuse.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _frobenius(alpha, d(alpha))


def _abs_sq(alpha: Form1) -> np.ndarray:
    """|alpha|^2 pointwise, i_V alpha for V = alpha_sharp (without sharp's
    copy)."""
    return interior(VectorField(alpha.grid, alpha.data), alpha).data


def _frobenius(alpha: Form1, da: Form2) -> float:
    """check_integrability's residual, given d(alpha)."""
    res = wedge(alpha, da).l2()
    scale = alpha.l2() * da.l2()
    return res / scale if scale > 0 else res


def subalgebra_orthogonality(alpha: Form1, beta: Form1,
                             h_fns: Iterable[Form0]) -> list[tuple[float, float]]:
    """<alpha, Y> for the leaf-tangent field Y with i_Y mu = nu = d(h * beta),
    one pair per h in ``h_fns``, each read as it is needed.

    Each pair is the raw pairing and its Cauchy-Schwarz bound |alpha| |nu|
    (L2 norms), the scale to judge it by.  The pairing vanishes whenever
    alpha is a function multiple of the integrable defining form beta.
    beta's integrability is checked once, before the first h is read.
    """
    res = check_integrability(beta)
    if not res <= INTEGRABILITY_TOL:  # a NaN fails
        raise PreconditionError(f"beta is not integrable: residual {res:.3e}")
    alpha_l2 = alpha.l2()
    out = []
    for h_fn in h_fns:
        nu = d(scale_by(h_fn, beta))
        out.append((pairing(alpha, VectorField(alpha.grid, nu.data)), alpha_l2 * nu.l2()))
    return out


def _reference_field(alpha: Form1, alpha_sq: np.ndarray) -> VectorField:
    """X = alpha_sharp / |alpha|^2, so i_X alpha = 1 pointwise, given
    |alpha|^2 pointwise.

    Where alpha vanishes or |alpha|^2 overflows X is NaN or zero; the gates
    reject such an alpha.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return VectorField(alpha.grid, alpha.data / alpha_sq)


def _gates(res: dict) -> None:
    """Raise the first membership gate a residual record fails.  The gates
    run in order: the nonvanishing floor, integrability, then the defining
    identities the record holds; NaN fails.  A defining identity is judged
    on a state already found integrable, so its failure is read as
    under-resolution, with the integrability residual that rules out the
    other cause."""
    if not res["min_abs_alpha"] >= NONVANISH_FLOOR:
        raise PreconditionError(
            f"alpha vanishes: min |alpha| = {res['min_abs_alpha']:.3e} "
            f"< floor {NONVANISH_FLOOR:g}"
        )
    if not res["integrability"] <= INTEGRABILITY_TOL:
        raise PreconditionError(
            f"alpha is not integrable: relative residual "
            f"{res['integrability']:.3e} > {INTEGRABILITY_TOL:g}"
        )
    for key in ("eta_defining", "gamma_defining", "gamma_certificate"):
        if not res.get(key, 0.0) <= INTEGRABILITY_TOL:
            raise InconsistencyError(
                f"defining identity {key} residual {res[key]:.3e} "
                f"exceeds {INTEGRABILITY_TOL:g} on an integrable state "
                f"(integrability {res['integrability']:.3e}): under-resolved"
            )


def gate_failure(res: dict) -> PreconditionError | InconsistencyError | None:
    """The first membership gate a residual record fails, as the exception
    ``_gates`` raises, or None.  The exception is returned without its
    traceback: a caller holding it would otherwise hold its own frame in a
    reference cycle (frame -> exception -> traceback -> frame), which keeps
    the caller's arrays alive until the cyclic collector runs."""
    try:
        _gates(res)
    except (PreconditionError, InconsistencyError) as failure:
        return failure.with_traceback(None)
    return None


def _gap(a, b) -> float:
    """||a - b||, with the difference written into ``b``: a fresh product
    that the caller drops."""
    np.subtract(a.data, b.data, out=b.data)
    return b.l2()


def _solve_chain(alpha: Form1, eta_of, gamma_of) -> tuple[Form1, Form1, Form2, float, dict]:
    """The chain from d(alpha): eta = eta_of(d(alpha)), gamma = gamma_of(d(eta)),
    chi = 2 (eta ^ gamma - d(gamma)) and GV = int eta ^ d(eta), with the
    relative residuals of d(alpha) = alpha ^ eta, d(eta) = alpha ^ gamma, the
    solvability certificate alpha ^ d(eta) = 0, alpha ^ chi = 0 and
    d(chi) = eta ^ chi.  Each residual is formed as soon as its inputs
    exist, and d(alpha), d(eta) and d(chi) are dropped after their last
    reader, so a solve never holds two of them; chi and each difference are
    formed in place in a fresh wedge.  Returns (eta, gamma, chi, GV,
    residuals)."""
    da = d(alpha)
    eta = eta_of(da)
    res = {"eta_defining": _gap(da, wedge(alpha, eta)) / max(da.l2(), 1e-30)}
    del da
    deta = d(eta)
    gamma = gamma_of(deta)
    alpha_l2, deta_l2 = alpha.l2(), deta.l2()
    res["gamma_defining"] = _gap(deta, wedge(alpha, gamma)) / max(deta_l2, 1e-30)
    res["gamma_certificate"] = (wedge(alpha, deta).l2()
                                / max(alpha_l2 * deta_l2, 1e-30))
    gv = integrate3(wedge(eta, deta))
    del deta
    chi = wedge(eta, gamma).data
    chi -= d(gamma).data
    chi *= 2.0
    chi = Form2(alpha.grid, chi)
    chi_l2 = chi.l2()
    res["chi_tangency"] = wedge(alpha, chi).l2() / max(alpha_l2 * chi_l2, 1e-30)
    dchi = d(chi)
    res["chi_closure"] = (_gap(dchi, wedge(eta, chi))
                          / max(dchi.l2(), eta.l2() * chi_l2, 1e-30))
    return eta, gamma, chi, gv, res


@dataclass(frozen=True, eq=False)
class FoliatedState:
    """An accepted integrable 1-form with its solved chain, its GV and its
    residual record."""

    alpha: Form1
    eta: Form1
    gamma: Form1
    chi: Form2
    gv: float
    residuals: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.alpha.grid

    @classmethod
    def from_alpha(cls, alpha: Form1, *, strict: bool = True) -> "FoliatedState":
        """Solve the chain, the library's one solver of eta, gamma and chi,
        and record its residuals; the Frobenius test and the helicity
        reuse the chain's d(alpha), and X and min |alpha| share one
        |alpha|^2.  X goes once gamma is formed, and every other chain
        term after its last reader (``_solve_chain``).  With strict=True a
        state that fails a membership gate raises; with strict=False it is
        returned, and ``gate_failure(state.residuals)`` names the failure.
        An overflowing alpha gives inf/nan residuals, which the gates
        refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            alpha_sq = _abs_sq(alpha)
            min_abs = float(np.sqrt(alpha_sq.min()))
            x = _reference_field(alpha, alpha_sq)
            del alpha_sq  # not held through the chain solve, whose peak sets RSS
            x_ref = float(np.abs(interior(x, alpha).data - 1.0).max())
            of_da = {}

            def eta_of(da):
                of_da["integrability"] = _frobenius(alpha, da)
                of_da["helicity"] = abs(helicity(alpha, da))
                return interior(x, da)

            def gamma_of(deta):
                nonlocal x
                gamma = interior(x, deta)
                del x  # its last reader
                return gamma

            eta, gamma, chi, gv, chain = _solve_chain(alpha, eta_of, gamma_of)
        res = {
            "integrability": of_da["integrability"],
            "min_abs_alpha": min_abs,
            **chain,
            "x_ref_normalization": x_ref,
            "helicity": of_da["helicity"],
        }
        if strict:
            _gates(res)
        return cls(alpha=alpha, eta=eta, gamma=gamma, chi=chi, gv=gv, residuals=res)


def godbillon_vey(state: FoliatedState) -> float:
    """GV = int eta ^ d(eta); gauge, scaling and diffeomorphism invariant.
    Computed when the state is solved, from the chain's own d(eta)."""
    return state.gv


def gauge_shift(state: FoliatedState, f: Form0, g: Form0) -> FoliatedState:
    """Apply eta -> eta + f alpha, gamma -> gamma + f eta - df + g alpha.

    The defining identities are preserved exactly; chi changes by
    -2 (q d(alpha) + d(q alpha)) with effective q = g - f^2/2, a member of
    the degeneracy family (pure g shifts realize the formula with q = g).
    """
    alpha = state.alpha
    eta = f.data * alpha.data
    eta += state.eta.data
    gamma = f.data * state.eta.data
    gamma += state.gamma.data
    gamma -= d(f).data
    gamma += g.data * alpha.data
    eta, gamma = Form1(state.grid, eta), Form1(state.grid, gamma)
    eta, gamma, chi, gv, chain = _solve_chain(alpha, lambda da: eta, lambda deta: gamma)
    return FoliatedState(alpha=alpha, eta=eta, gamma=gamma, chi=chi, gv=gv,
                         residuals={**state.residuals, **chain})


def chi_shift_expected(state: FoliatedState, f: Form0, g: Form0) -> Form2:
    """Predicted chi change under gauge_shift: -2 (q d(alpha) + d(q alpha)), q = g - f^2/2."""
    q = Form0(state.grid, g.data - 0.5 * f.data ** 2)
    return -2.0 * (scale_by(q, d(state.alpha)) + d(scale_by(q, state.alpha)))


def gv_variation(state: FoliatedState, alpha_dot: Form1) -> float:
    """Directional derivative of GV: int alpha_dot ^ chi.

    alpha_dot must be tangent to the integrable stratum: alpha + eps*alpha_dot
    has to pass the integrability check at the probe amplitude eps.
    """
    res = check_integrability(state.alpha + VARIATION_EPS * alpha_dot)
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


def _degeneracy_gate(state: FoliatedState, v: VectorField, error: type) -> dict:
    """The two membership gates of a degeneracy field V, with nu = i_V mu:
    leaf tangency i_V alpha = 0 and closure d(nu) = eta ^ nu.  Returns their
    relative residuals, or raises ``error`` if either fails."""
    alpha = state.alpha
    nu = Form2(state.grid, v.data)
    size = v.l2()  # |nu| too: nu holds v's data
    tangency = interior(v, alpha).l2() / max(alpha.l2() * size, 1e-30)
    dnu = d(nu)
    closure = _gap(dnu, wedge(state.eta, nu)) / max(dnu.l2(), state.eta.l2() * size, 1e-30)
    if not (tangency <= DEGENERACY_TOL and closure <= DEGENERACY_TOL):
        raise error(f"field fails degeneracy gates: tangency {tangency:.3e}, "
                    f"closure {closure:.3e} (tol {DEGENERACY_TOL:g})")
    return {"tangency": tangency, "condon": closure}


def xi_generator(state: FoliatedState, f: Form0) -> XiGenerator:
    """Construct the degeneracy field of f and verify its membership gates."""
    alpha = state.alpha
    nu = d(scale_by(f, alpha)).data
    f_da = d(alpha).data
    f_da *= f.data
    nu += f_da
    v = VectorField(state.grid, nu)
    return XiGenerator(v=v, residuals=_degeneracy_gate(state, v, InconsistencyError))


def bracket_degeneracy_check(state: FoliatedState, a: VectorField, v: VectorField) -> float:
    """<alpha, [a, v]> for a leaf-tangent degeneracy representative a.

    The membership gates on a are re-verified here, so arbitrary fields are
    rejected rather than silently paired.
    """
    _degeneracy_gate(state, a, PreconditionError)
    return lie_poisson_bracket(state.alpha, a, v)


def gv_casimir_suite(state: FoliatedState, fields: Iterable[VectorField], t: float) -> dict:
    """Transport alpha along each field, re-solve the chain and measure GV drift.

    Each transported state is solved once without raising; its ``degraded``
    entry is the message of the first membership gate it fails, or None.
    The state and its field are freed before the next field is taken, so
    a generator of fields holds one at a time.
    """
    gv0 = godbillon_vey(state)
    records = []
    for idx, u in enumerate(fields):
        new_state = FoliatedState.from_alpha(transport(state.alpha, u, t, t), strict=False)
        gv_t = godbillon_vey(new_state)
        failure = gate_failure(new_state.residuals)
        records.append({
            "field": idx,
            "drift": abs(gv_t - gv0),
            "degraded": str(failure) if failure else None,
            "residuals": new_state.residuals,
        })
        del new_state, u
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
