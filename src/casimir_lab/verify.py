"""Named verification suites with machine-readable reports.

Each check yields a record {check, value, tolerance, pass}: ``value`` is the
measured residual (relative to the natural scale of the identity, noted per
check) and ``tolerance`` the bound it must satisfy.  Reports are
deterministic: random data comes from a seeded generator whose seed is in
the header, so identical scenario + seed reproduces the report byte for
byte.  Wall-clock timing is deliberately excluded from reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__, kernels
from . import foliation as fol
from . import forms3 as f3
from . import rattleback as rb
from .errors import InconsistencyError, PreconditionError
from .fluid import (
    FluidState,
    coadjoint,
    energy,
    euler_dt,
    euler_evolve,
    euler_rhs,
    helicity,
    helicity_density_check,
    helicity_gradient_check,
    lie_poisson_bracket,
    loop_integral,
    pairing,
    subalgebra_orthogonality,
)

DEFAULT_SEED = 1729

# Frozen regression values for the chirality probe: h = -2, dt = 1e-3,
# start (0.01, 0.02, 1.0).  The spin reverses to ~ -s0 near t = 5.18 and
# swings back; the integration arithmetic is IEEE-deterministic, so the
# snapshot is tight.
CHIRALITY_IC = (0.01, 0.02, 1.0)
CHIRALITY_S_MIN = -1.000011889760899
CHIRALITY_S_RETURN = 1.0000118897643504

# Canonical foliation family for identity checks at n = 32: amplitudes are
# chosen so the rational chain factors (1/|alpha|^2 and friends) are resolved
# to roundoff on the grid; see the profile helpers below.
PROFILE_MAIN = (0.15, 0.03)
PROFILE_SPEC_EXAMPLE = (0.3, 0.1)
SCALING_RMS = 0.05
GAUGE_RMS = 0.1


@dataclass
class SuiteConfig:
    grid_n: int = 32
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    rattleback_h: float = -2.0

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _check(cfg: SuiteConfig, name: str, value, default_tol: float, **extra) -> dict:
    tol = cfg.tol(name, default_tol)
    rec = {"check": name, "value": float(value), "tolerance": tol, "pass": bool(value <= tol)}
    rec.update(extra)
    return rec


def _gate_check(name: str, passed: bool, **extra) -> dict:
    rec = {"check": name, "value": None, "tolerance": None, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _rejects(fn, *args) -> bool:
    """Whether fn(*args) refuses its input with a PreconditionError."""
    try:
        fn(*args)
    except PreconditionError:
        return True
    return False


# ---------------------------------------------------------------------------
# rattleback suite
# ---------------------------------------------------------------------------

def suite_rattleback(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.rattleback_h
    alg = rb.bianchi_vi_quiet(h)
    checks = []

    checks.append(_check(cfg, "rattleback-jacobi-identity", alg.jacobi_residual(), 1e-14))
    checks.append(_check(cfg, "rattleback-structure-antisymmetry",
                         alg.antisymmetry_residual(), 0.0))

    # bracket antisymmetry on cubic monomial gradients at random states
    worst = 0.0
    for _ in range(5):
        xi = rb.RattlebackState(*rng.uniform(-2, 2, 3))
        j = rb.poisson_matrix(alg, xi)
        grads = rb._monomial_gradients(xi)
        for gf in grads:
            for gg in grads:
                a = float(gf @ j @ gg)
                b = float(gg @ j @ gf)
                scale = max(1.0, abs(a), abs(b))
                worst = max(worst, abs(a + b) / scale)
    checks.append(_check(cfg, "rattleback-bracket-antisymmetry", worst, 1e-13))

    # rhs formula agrees with J grad H
    worst = 0.0
    for _ in range(20):
        xi = rb.RattlebackState(*rng.uniform(-3, 3, 3))
        rhs = rb.rattleback_rhs(xi, h).as_array()
        jgh = rb.poisson_matrix(alg, xi) @ xi.as_array()
        worst = max(worst, np.abs(rhs - jgh).max() / max(1.0, np.abs(jgh).max()))
    checks.append(_check(cfg, "rattleback-rhs-matches-bracket", worst, 1e-13))

    # Casimir gradient kernel identity
    worst = 0.0
    for _ in range(20):
        xi = rb.RattlebackState(rng.uniform(-2, 2), rng.uniform(0.2, 3), rng.uniform(-3, 3))
        res = rb.casimir_gradient_check(xi, h)
        scale = max(1.0, np.abs(rb.casimir_gradient(xi, h)).max())
        worst = max(worst, res / scale)
    checks.append(_check(cfg, "rattleback-casimir-gradient-kernel", worst, 1e-12))

    # conservation along the reference run (also acceptance data)
    tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), h, dt=1e-3, t_final=100.0)
    h_drift = float(np.abs(tr.hamiltonians - tr.hamiltonians[0]).max() / tr.hamiltonians[0])
    c_drift = float(np.abs(tr.casimirs - tr.casimirs[0]).max() / abs(tr.casimirs[0]))
    checks.append(_check(cfg, "rattleback-energy-conservation-rk4", h_drift, 1e-8))
    checks.append(_check(cfg, "rattleback-casimir-conservation-rk4", c_drift, 1e-8))

    tr45 = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), h, dt=1e-3, t_final=100.0,
                        method="rk45", rtol=1e-10, atol=1e-12)
    h_drift = float(np.abs(tr45.hamiltonians - tr45.hamiltonians[0]).max() / tr45.hamiltonians[0])
    c_drift = float(np.abs(tr45.casimirs - tr45.casimirs[0]).max() / abs(tr45.casimirs[0]))
    checks.append(_check(cfg, "rattleback-energy-conservation-rk45", h_drift, 1e-8))
    checks.append(_check(cfg, "rattleback-casimir-conservation-rk45", c_drift, 1e-8))

    # parity: integrating (-p0, r0, s0) mirrors (p0, r0, s0) bit for bit
    t1 = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), h, dt=1e-3, t_final=5.0)
    t2 = rb.integrate(rb.RattlebackState(-0.1, 0.2, 1.0), h, dt=1e-3, t_final=5.0)
    mirror = float(np.abs(t2.states - t1.states * np.array([-1.0, 1.0, 1.0])).max())
    checks.append(_check(cfg, "rattleback-parity-symmetry", mirror, 0.0))

    # singular line (0, 0, s)
    rep = rb.restricted_casimir_report(3.7, h)
    for key, sub in rep["checks"].items():
        checks.append(_check(cfg, f"rattleback-{key.replace('_', '-')}", sub["residual"], 0.0))
    tr_line = rb.integrate(rb.RattlebackState(0.0, 0.0, 5.0), h, dt=1e-3, t_final=1.0)
    line_residual = float(max(np.abs(tr_line.states[:, :2]).max(),
                              np.abs(tr_line.states[:, 2] - 5.0).max()))
    checks.append(_check(cfg, "rattleback-singular-line-constant", line_residual, 0.0))

    # chirality regression snapshot (qualitative reversal, frozen at h = -2)
    if h == -2.0:
        trc = rb.integrate(rb.RattlebackState(*CHIRALITY_IC), h, dt=1e-3, t_final=40.0)
        s = trc.states[:, 2]
        s_min = float(s.min())
        s_ret = float(s[np.argmin(s):].max())
        non_monotone = bool(np.any(np.diff(s) > 0) and np.any(np.diff(s) < 0))
        checks.append(_check(cfg, "rattleback-chirality-reversal-snapshot",
                             max(abs(s_min - CHIRALITY_S_MIN),
                                 abs(s_ret - CHIRALITY_S_RETURN)),
                             1e-9, non_monotone=non_monotone))
    return checks


# ---------------------------------------------------------------------------
# forms suite
# ---------------------------------------------------------------------------

def suite_forms(cfg: SuiteConfig) -> list[dict]:
    g = f3.Grid(cfg.grid_n)
    rng = np.random.default_rng(cfg.seed + 1)
    X, Y, Z = g.meshes
    bw = max(2, g.n // 8)
    checks = []

    # d o d = 0 over 200 random band-limited forms (ranks 0 and 1)
    worst = 0.0
    for rank in (0, 1):
        for _ in range(100):
            a = f3.random_form(g, rank, bw, rng)
            da = f3.d(a)
            worst = max(worst, f3.d(da).l2() / max(da.l2(), 1e-30))
    checks.append(_check(cfg, "forms-dd-zero", worst, 1e-12))

    # contraction identity (i_V a) mu = a ^ i_V mu
    worst = 0.0
    for _ in range(20):
        a = f3.random_form1(g, bw, rng)
        v = f3.random_vector_field(g, bw, rng)
        worst = max(worst, f3.contraction_identity_residual(v, a)
                    / max(1.0, a.linf() * v.linf()))
    checks.append(_check(cfg, "forms-contraction-identity", worst, 1e-12))

    # graded Leibniz rule within the exactness budget
    worst = 0.0
    for ra, rk in ((0, 0), (0, 1), (1, 1), (0, 2)):
        a = f3.random_form(g, ra, bw, rng)
        b = f3.random_form(g, rk, bw, rng)
        lhs = f3.d(f3.wedge(a, b))
        rhs = f3.wedge(f3.d(a), b) + (-1.0) ** ra * f3.wedge(a, f3.d(b))
        worst = max(worst, (lhs - rhs).l2() / max(rhs.l2(), 1e-30))
    checks.append(_check(cfg, "forms-leibniz", worst, 1e-11))

    # Cartan commutation d L_V = L_V d
    worst = 0.0
    for rank in (0, 1, 2):
        a = f3.random_form(g, rank, bw, rng)
        v = f3.random_vector_field(g, bw, rng)
        lhs = f3.d(f3.lie_derivative(v, a))
        rhs = f3.lie_derivative(v, f3.d(a))
        worst = max(worst, (lhs - rhs).l2() / max(rhs.l2(), 1e-30))
    checks.append(_check(cfg, "forms-cartan-commutation", worst, 1e-11))

    # integration by parts on a closed manifold
    worst = 0.0
    for ra, rk in ((0, 2), (1, 1), (2, 0)):
        a = f3.random_form(g, ra, bw, rng)
        b = f3.random_form(g, rk, bw, rng)
        lhs = f3.integrate3(f3.wedge(f3.d(a), b))
        rhs = (-1.0) ** (ra + 1) * f3.integrate3(f3.wedge(a, f3.d(b)))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(_check(cfg, "forms-integration-by-parts", worst, 1e-12))

    # wedge graded anticommutativity
    a1 = f3.random_form1(g, bw, rng)
    b1 = f3.random_form1(g, bw, rng)
    b2 = f3.random_form(g, 2, bw, rng)
    anti = max((f3.wedge(a1, b1) + f3.wedge(b1, a1)).linf(),
               (f3.wedge(a1, b2) - f3.wedge(b2, a1)).linf(),
               f3.wedge(a1, a1).linf())
    checks.append(_check(cfg, "forms-wedge-anticommutativity", anti, 0.0))

    # analytic derivative oracle
    df = f3.d(f3.Form0(g, np.sin(2 * np.pi * X)))
    err = max(float(np.abs(df.data[0] - 2 * np.pi * np.cos(2 * np.pi * X)).max()),
              float(np.abs(df.data[1:]).max()))
    checks.append(_check(cfg, "forms-d-analytic-oracle", err, 1e-12))

    # exact integration values
    checks.append(_check(cfg, "forms-unit-volume",
                         abs(f3.integrate3(f3.volume_form(g)) - 1.0), 0.0))
    checks.append(_check(cfg, "forms-stokes-closed",
                         abs(f3.integrate3(f3.d(f3.random_form(g, 2, bw, rng)))), 1e-13))
    tf = f3.Form3(g, 2 * np.pi * (np.sin(2 * np.pi * Z) ** 2 + np.cos(2 * np.pi * Z) ** 2))
    checks.append(_check(cfg, "forms-integrate-analytic",
                         abs(f3.integrate3(tf) - 2 * np.pi), 1e-12))

    # vorticity correspondence
    al = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                     lambda x, y, z: np.cos(2 * np.pi * z), lambda x, y, z: 0 * z)
    w = f3.vorticity_from(al)
    err = max(float(np.abs(w.data[0] - 2 * np.pi * np.sin(2 * np.pi * Z)).max()),
              float(np.abs(w.data[1] - 2 * np.pi * np.cos(2 * np.pi * Z)).max()),
              float(np.abs(w.data[2]).max()))
    checks.append(_check(cfg, "forms-vorticity-curl-oracle", err, 1e-12))
    checks.append(_check(cfg, "forms-vorticity-exact-form",
                         f3.vorticity_from(f3.d(f3.random_form0(g, bw, rng))).linf(), 1e-11))
    checks.append(_check(cfg, "forms-vorticity-divergence-free",
                         f3.divergence(f3.vorticity_from(f3.random_form1(g, bw, rng))).linf(),
                         1e-11))

    # commutator identity for the field bracket (pinned at n = 48, bw = 4)
    g48 = f3.Grid(48)
    rng48 = np.random.default_rng(cfg.seed + 2)
    u = f3.random_vector_field(g48, 4, rng48)
    v = f3.random_vector_field(g48, 4, rng48)
    ff = f3.random_form0(g48, 4, rng48)
    lhs = f3.lie_derivative(f3.vf_bracket(u, v), ff)
    rhs = f3.lie_derivative(u, f3.lie_derivative(v, ff)) \
        - f3.lie_derivative(v, f3.lie_derivative(u, ff))
    checks.append(_check(cfg, "forms-bracket-commutator-oracle",
                         (lhs - rhs).linf() / max(rhs.linf(), 1e-30), 1e-9))

    # point evaluation of the interpolant
    f0 = f3.random_form0(g, bw, rng)
    nodes = np.stack([m.ravel()[:: max(1, g.n ** 3 // 64)] for m in g.meshes], axis=1)
    vals = f3.eval_at(f0, nodes)
    node_err = float(np.abs(vals - f0.data.ravel()[:: max(1, g.n ** 3 // 64)]).max())
    sin_err = abs(f3.eval_at(f3.Form0(g, np.sin(2 * np.pi * X)), (0.25, 0.3, 0.8)) - 1.0)
    checks.append(_check(cfg, "forms-eval-grid-reproduction", node_err, 1e-13))
    checks.append(_check(cfg, "forms-eval-analytic-point", sin_err, 1e-14))

    # transport oracles
    prof = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    shear = f3.one_form(g, lambda x, y, z: prof(x), lambda x, y, z: 0 * x,
                        lambda x, y, z: 0 * x)
    still = f3.transport(shear, f3.zero_field(g), 0.25, 0.25)
    checks.append(_check(cfg, "forms-transport-zero-generator",
                         float(np.abs(still.data - shear.data).max()), 0.0))
    moved = f3.transport(shear, f3.constant_field(g, 1.0, 0.0, 0.0), 0.25, 0.25)
    expect = f3.one_form(g, lambda x, y, z: prof(x - 0.25), lambda x, y, z: 0 * x,
                         lambda x, y, z: 0 * x)
    checks.append(_check(cfg, "forms-transport-translation-oracle",
                         (moved - expect).linf(), 1e-8))

    # helicity is a transport invariant for divergence-free generators
    ar = f3.Form1(g, f3.dealias(f3.random_form1(g, 3, rng, rms=0.5).data, g)
                  + np.stack([np.sin(2 * np.pi * Z), np.cos(2 * np.pi * Z), 0 * Z]))
    u = f3.random_divfree_field(g, 3, rng, rms=0.3)
    h0 = helicity(ar)
    drift = abs(helicity(f3.transport(ar, u, 0.5, 0.5)) - h0) / abs(h0)
    checks.append(_check(cfg, "forms-transport-helicity-invariance", drift, 1e-6))
    return checks


# ---------------------------------------------------------------------------
# lie-poisson (fluid) suite
# ---------------------------------------------------------------------------

def suite_lie_poisson(cfg: SuiteConfig) -> list[dict]:
    g = f3.Grid(cfg.grid_n)
    rng = np.random.default_rng(cfg.seed + 3)
    X, Y, Z = g.meshes
    bw = max(2, g.n // 8)
    checks = []

    beltrami = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                           lambda x, y, z: np.cos(2 * np.pi * z), lambda x, y, z: 0 * z)

    # pairing
    checks.append(_check(cfg, "fluid-pairing-basis",
                         abs(pairing(f3.coordinate_oneform(g, 0),
                                     f3.constant_field(g, 1, 0, 0)) - 1.0), 0.0))
    gg = f3.random_form0(g, bw, rng)
    u_df = f3.random_divfree_field(g, bw, rng)
    checks.append(_check(cfg, "fluid-pairing-representative-independence",
                         abs(pairing(f3.d(gg), u_df)), 1e-12))
    a_sin = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                        lambda x, y, z: 0 * z, lambda x, y, z: 0 * z)
    u_sin = f3.vector_field(g, lambda x, y, z: np.sin(2 * np.pi * z),
                            lambda x, y, z: 0 * z, lambda x, y, z: 0 * z)
    checks.append(_check(cfg, "fluid-pairing-analytic",
                         abs(pairing(a_sin, u_sin) - 0.5), 1e-14))

    # coadjoint action
    checks.append(_check(cfg, "fluid-coadjoint-closed-form",
                         coadjoint(u_df, f3.d(gg)).linf()
                         / max(1.0, u_df.linf()), 1e-11))
    worst = 0.0
    for _ in range(20):
        u = f3.random_divfree_field(g, bw, rng)
        v = f3.random_divfree_field(g, bw, rng)
        aa = f3.random_form1(g, bw, rng)
        lhs = pairing(coadjoint(u, aa), v)
        rhs = lie_poisson_bracket(aa, u, v)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    checks.append(_check(cfg, "fluid-coadjoint-adjunction", worst, 1e-9))
    w_b = f3.vorticity_from(beltrami)
    checks.append(_check(cfg, "fluid-coadjoint-beltrami-self",
                         coadjoint(w_b, beltrami).linf(), 1e-13))

    # helicity
    checks.append(_check(cfg, "fluid-helicity-beltrami",
                         abs(helicity(beltrami) - 2 * np.pi), 1e-10))
    checks.append(_check(cfg, "fluid-helicity-exact-form",
                         abs(helicity(f3.d(gg))), 1e-12))
    shift = f3.d(f3.random_form0(g, bw, rng))
    checks.append(_check(cfg, "fluid-helicity-gauge-invariance",
                         abs(helicity(beltrami + shift) - helicity(beltrami)), 1e-11))

    # functional gradient of helicity
    worst = 0.0
    for _ in range(20):
        da = f3.random_form1(g, bw, rng)
        lhs, rhs = helicity_gradient_check(beltrami, da)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-10))
    checks.append(_check(cfg, "fluid-helicity-gradient", worst, 1e-6))
    lhs, rhs = helicity_gradient_check(beltrami, f3.d(gg))
    checks.append(_check(cfg, "fluid-helicity-gradient-gauge-direction",
                         max(abs(lhs), abs(rhs)), 1e-10))
    lhs, rhs = helicity_gradient_check(beltrami, beltrami)
    checks.append(_check(cfg, "fluid-helicity-gradient-homogeneity",
                         max(abs(lhs - 2 * helicity(beltrami)),
                             abs(rhs - 2 * helicity(beltrami))) / (2 * helicity(beltrami)),
                         1e-7))

    # Euler right-hand side oracles
    checks.append(_check(cfg, "fluid-euler-beltrami-steady",
                         euler_rhs(FluidState(beltrami)).linf(), 1e-10))
    rhs_gauge = euler_rhs(FluidState(f3.d(gg)))
    checks.append(_check(cfg, "fluid-euler-pure-gauge",
                         f3.leray_project(f3.sharp(rhs_gauge)).linf()
                         / max(1.0, f3.d(gg).linf()), 1e-10))
    shear = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                        lambda x, y, z: 0 * z, lambda x, y, z: 0 * z)
    vincr = f3.leray_project(f3.sharp(euler_rhs(FluidState(shear))))
    checks.append(_check(cfg, "fluid-euler-shear-steady", vincr.linf(), 1e-10))

    # Euler evolution conserves helicity and energy
    ar = f3.Form1(g, f3.dealias(f3.random_form1(g, 3, rng, rms=0.3).data, g)
                  + 0.5 * beltrami.data)
    st = FluidState(ar)
    h0, e0 = helicity(ar), energy(ar)
    _, diag = euler_evolve(st, dt=euler_dt(g), t_final=0.5)
    checks.append(_check(cfg, "fluid-euler-helicity-conservation",
                         float(np.abs(diag.helicities - h0).max() / abs(h0)), 1e-6))
    checks.append(_check(cfg, "fluid-euler-energy-conservation",
                         float(np.abs(diag.energies - e0).max() / e0), 1e-6))
    fin_b, _ = euler_evolve(FluidState(beltrami), dt=euler_dt(g), t_final=0.5)
    checks.append(_check(cfg, "fluid-euler-beltrami-persistence",
                         (fin_b.alpha - beltrami).l2() / beltrami.l2(), 1e-6))

    # foliation-aligned states: orthogonality, helicity density, loops
    a_prof = f3.Form0(g, PROFILE_MAIN[0] * np.sin(2 * np.pi * Z)
                      + PROFILE_MAIN[1] * np.cos(4 * np.pi * Z))
    beta = fol.graph_foliation_form(g, a_prof)
    f_scale = f3.Form0(g, np.exp(f3.random_scalar_array(g, 1, rng, rms=0.1)))
    alpha = fol.graph_foliation_form(g, a_prof, f_scale)

    worst = 0.0
    for _ in range(20):
        h_fn = f3.random_form0(g, bw, rng)
        val = abs(subalgebra_orthogonality(alpha, beta, h_fn))
        nu = f3.d(f3.scale_by(h_fn, beta))
        worst = max(worst, val / max(1.0, alpha.l2() * nu.l2()))
    checks.append(_check(cfg, "fluid-subalgebra-orthogonality", worst, 1e-10))

    checks.append(_check(cfg, "fluid-helicity-density-foliated",
                         helicity_density_check(alpha)
                         / max(1.0, alpha.linf() * f3.d(alpha).linf()), 1e-10))
    w_fol = f3.vorticity_from(alpha)
    checks.append(_check(cfg, "fluid-vorticity-leaf-tangency",
                         f3.interior(w_fol, alpha).linf()
                         / max(1.0, alpha.linf() * w_fol.linf()), 1e-10))
    contact = beltrami
    density = helicity_density_check(contact)
    checks.append(_gate_check("fluid-helicity-density-contact-control",
                              density > 1.0, value_observed=density,
                              note="non-integrable control must show O(2*pi) density"))

    leaf_loop = f3.circle_loop(1, (0.3, 0.0, 0.7))
    checks.append(_check(cfg, "fluid-loop-leaf-tangent",
                         abs(loop_integral(alpha, leaf_loop)), 1e-10))
    xloop = f3.circle_loop(0, (0.0, 0.2, 0.5))
    checks.append(_check(cfg, "fluid-loop-period-class",
                         abs(loop_integral(f3.coordinate_oneform(g, 0), xloop) - 1.0),
                         1e-12))
    i0 = loop_integral(alpha, xloop)
    i1 = loop_integral(alpha + f3.d(f3.random_form0(g, bw, rng)), xloop)
    checks.append(_check(cfg, "fluid-loop-gauge-invariance", abs(i1 - i0), 1e-11))
    return checks


# ---------------------------------------------------------------------------
# godbillon-vey suite
# ---------------------------------------------------------------------------

def _canonical_profile(g, amplitudes):
    _, _, Z = g.meshes
    return f3.Form0(g, amplitudes[0] * np.sin(2 * np.pi * Z)
                    + amplitudes[1] * np.cos(4 * np.pi * Z))


def _chain_pool(g, a_prof, beta, rng, strict: bool = True):
    """The canonical family, beta and 20 random rescalings, and a gauge shift of
    each: the first three states, the only ones used again, and the
    (residuals, GV) of the members and of the shifts."""
    def measured(st):
        return st.residuals, fol.godbillon_vey(st)

    states = [fol.FoliatedState.from_alpha(beta, strict=strict)]
    family, shifted = [measured(states[0])], []
    for _ in range(20):
        q = f3.random_scalar_array(g, 2, rng, rms=SCALING_RMS)
        alpha_i = fol.graph_foliation_form(g, a_prof, f3.Form0(g, np.exp(q)))
        st = fol.FoliatedState.from_alpha(alpha_i, strict=strict)
        if len(states) < 3:
            states.append(st)
        family.append(measured(st))
        f_gauge = f3.random_form0(g, 1, rng, rms=GAUGE_RMS)
        g_gauge = f3.random_form0(g, 1, rng, rms=GAUGE_RMS)
        shifted.append(measured(fol.gauge_shift(st, f_gauge, g_gauge)))
        del st  # freed before the next member is solved
    return states, family, shifted


def suite_godbillon_vey(cfg: SuiteConfig) -> list[dict]:
    g = f3.Grid(cfg.grid_n)
    rng = np.random.default_rng(cfg.seed + 4)
    X, Y, Z = g.meshes
    checks = []

    a_prof = _canonical_profile(g, PROFILE_MAIN)
    beta = fol.graph_foliation_form(g, a_prof)

    # integrability gates
    checks.append(_check(cfg, "gv-integrability-graph-family",
                         fol.check_integrability(beta)["relative_residual"], 1e-12))
    closed = fol.graph_foliation_form(g, f3.Form0(g, np.full(g.shape, 0.4)))
    checks.append(_check(cfg, "gv-integrability-closed-form",
                         fol.check_integrability(closed)["relative_residual"], 0.0))
    contact = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                          lambda x, y, z: np.cos(2 * np.pi * z), lambda x, y, z: 0 * z)
    rep = fol.check_integrability(contact)
    checks.append(_gate_check("gv-integrability-contact-control",
                              rep["relative_residual"] > 1e-3,
                              value_observed=rep["relative_residual"],
                              note="contact form must be flagged non-integrable"))
    vanishing = f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                            lambda x, y, z: 0 * z, lambda x, y, z: 0 * z)
    checks.append(_gate_check("gv-nonvanishing-floor-gate",
                              _rejects(fol.FoliatedState.from_alpha, vanishing),
                              note="a vanishing 1-form must be rejected"))

    states, family, shifted = _chain_pool(g, a_prof, beta, rng)

    def worst_residual(key, pool):
        return max(res[key] for res, _ in pool)

    chain_pool = family + shifted
    checks.append(_check(cfg, "gv-eta-defining-residual",
                         worst_residual("eta_defining", chain_pool), 1e-9))
    checks.append(_check(cfg, "gv-gamma-defining-residual",
                         worst_residual("gamma_defining", chain_pool), 1e-9))
    checks.append(_check(cfg, "gv-gamma-solvability-certificate",
                         worst_residual("gamma_certificate", family), 1e-10))
    checks.append(_check(cfg, "gv-chi-tangency",
                         worst_residual("chi_tangency", chain_pool), 1e-8))
    checks.append(_check(cfg, "gv-chi-closure",
                         worst_residual("chi_closure", chain_pool), 1e-8))
    checks.append(_check(cfg, "gv-helicity-hierarchy",
                         worst_residual("helicity", family), 1e-11))

    # solver gauge agrees with the hand gauge for the graph family
    ap = f3.Form0(g, f3.spectral_derivative(a_prof.data, g, 2))
    denom = 1.0 + a_prof.data ** 2
    eta_hand = np.zeros((3,) + g.shape)
    eta_hand[0] = ap.data / denom
    eta_hand[2] = -a_prof.data * ap.data / denom
    st0 = states[0]
    checks.append(_check(cfg, "gv-eta-hand-gauge-agreement",
                         float(np.abs(st0.eta.data - eta_hand).max())
                         / max(1.0, float(np.abs(eta_hand).max())), 1e-11))
    closed_state = fol.FoliatedState.from_alpha(closed)
    checks.append(_check(cfg, "gv-eta-closed-form-zero", closed_state.eta.linf(), 0.0))

    # eta under rescaling: d(bt) = bt ^ eta(bt) still holds
    bt = f3.scale_by(f3.Form0(g, np.exp(0.1 * np.sin(2 * np.pi * (X + Y)))), beta)
    st_bt = fol.FoliatedState.from_alpha(bt)
    checks.append(_check(cfg, "gv-eta-rescaling-law",
                         st_bt.residuals["eta_defining"], 1e-10))

    # GV values: family zero, scaling invariance, spread
    gv0 = fol.godbillon_vey(st0)
    checks.append(_check(cfg, "gv-graph-family-zero", abs(gv0), 1e-10))
    spec_prof = _canonical_profile(g, PROFILE_SPEC_EXAMPLE)
    st_spec = fol.FoliatedState.from_alpha(fol.graph_foliation_form(g, spec_prof))
    checks.append(_check(cfg, "gv-graph-family-zero-steep",
                         abs(fol.godbillon_vey(st_spec)), 1e-10))
    big_scale = f3.Form0(g, np.exp(0.2 * np.sin(2 * np.pi * (X + Y))))
    st_big = fol.FoliatedState.from_alpha(
        fol.graph_foliation_form(g, spec_prof, big_scale), strict=False)
    checks.append(_check(cfg, "gv-scaling-invariance",
                         abs(fol.godbillon_vey(st_big) - fol.godbillon_vey(st_spec)),
                         1e-9))
    gvs = np.array([gv for _, gv in chain_pool])
    checks.append(_check(cfg, "gv-gauge-scaling-spread",
                         float(gvs.max() - gvs.min()),
                         1e-9 * (1.0 + float(np.abs(gvs).max()))))

    # chi gauge-shift formula, pure g (exact member of the degeneracy family)
    st_s = states[1]
    zero = f3.Form0(g, np.zeros(g.shape))
    g_gauge = f3.random_form0(g, 2, rng, rms=0.5)
    st_gs = fol.gauge_shift(st_s, zero, g_gauge)
    predicted = fol.chi_shift_expected(st_s, zero, g_gauge)
    scale = max(1.0, predicted.linf())
    checks.append(_check(cfg, "gv-chi-gauge-shift-formula",
                         (st_gs.chi - st_s.chi - predicted).linf() / scale, 1e-10))
    # combined (f, g) shifts satisfy the formula with q = g - f^2/2 up to
    # defining-residual terms multiplied by the gauge amplitude
    f_gauge = f3.random_form0(g, 2, rng, rms=0.5)
    st_fg = fol.gauge_shift(st_s, f_gauge, g_gauge)
    predicted = fol.chi_shift_expected(st_s, f_gauge, g_gauge)
    checks.append(_check(cfg, "gv-chi-gauge-shift-combined",
                         (st_fg.chi - st_s.chi - predicted).linf()
                         / max(1.0, predicted.linf()), 1e-8))

    # variation formula: d(GV)/dt = int alpha_dot ^ chi for three classes
    eps = 1e-4
    st_c = states[2]

    da_prof = f3.Form0(g, 0.1 * np.sin(4 * np.pi * Z))
    adot = f3.Form1(g, np.stack([da_prof.data, np.zeros(g.shape), np.zeros(g.shape)]))
    pred = fol.gv_variation(st0, adot)
    gv_p = fol.godbillon_vey(fol.FoliatedState.from_alpha(
        fol.graph_foliation_form(g, a_prof + eps * da_prof)))
    gv_m = fol.godbillon_vey(fol.FoliatedState.from_alpha(
        fol.graph_foliation_form(g, a_prof + (-eps) * da_prof)))
    fd = (gv_p - gv_m) / (2 * eps)
    scale = 1.0 + adot.l2() * st0.chi.l2()
    checks.append(_check(cfg, "gv-variation-profile-deformation",
                         abs(fd - pred) / scale, 1e-6))

    g_fun = f3.random_form0(g, 2, rng, rms=0.3)
    adot = f3.scale_by(g_fun, st_c.alpha)
    pred = fol.gv_variation(st_c, adot)
    gv_p = fol.godbillon_vey(fol.FoliatedState.from_alpha(
        f3.scale_by(f3.Form0(g, np.exp(eps * g_fun.data)), st_c.alpha)))
    gv_m = fol.godbillon_vey(fol.FoliatedState.from_alpha(
        f3.scale_by(f3.Form0(g, np.exp(-eps * g_fun.data)), st_c.alpha)))
    fd = (gv_p - gv_m) / (2 * eps)
    scale = 1.0 + adot.l2() * st_c.chi.l2()
    checks.append(_check(cfg, "gv-variation-rescaling", abs(fd - pred) / scale, 1e-6))

    u_var = f3.random_divfree_field(g, 3, rng, rms=0.5)
    adot = f3.generator(st_c.alpha, u_var)
    pred = fol.gv_variation(st_c, adot)
    a_p = f3.transport(st_c.alpha, u_var, eps, eps)
    a_m = f3.transport(st_c.alpha, f3.VectorField(g, -u_var.data), eps, eps)
    gv_p = fol.godbillon_vey(fol.FoliatedState.from_alpha(a_p, strict=False))
    gv_m = fol.godbillon_vey(fol.FoliatedState.from_alpha(a_m, strict=False))
    fd = (gv_p - gv_m) / (2 * eps)
    scale = 1.0 + adot.l2() * st_c.chi.l2()
    checks.append(_check(cfg, "gv-variation-diffeo-transport", abs(fd - pred) / scale, 1e-6))

    checks.append(_gate_check("gv-variation-tangency-gate",
                              _rejects(fol.gv_variation, st_c, f3.random_form1(g, 2, rng)),
                              note="a non-tangent variation must be rejected"))

    # degeneracy fields
    ones = f3.Form0(g, np.ones(g.shape))
    xg_unit = fol.xi_generator(st_c, ones)
    two_da = 2.0 * f3.d(st_c.alpha)
    checks.append(_check(cfg, "gv-xi-unit-generator",
                         float(np.abs(xg_unit.v.data - two_da.data).max())
                         / max(1.0, two_da.linf()), 1e-12))
    checks.append(_check(cfg, "gv-xi-zero-generator",
                         fol.xi_generator(st_c, zero).v.linf(), 0.0))
    gens = [xg_unit] + [fol.xi_generator(st_c, f3.random_form0(g, 2, rng, rms=0.5))
                        for _ in range(3)]
    checks.append(_check(cfg, "gv-xi-tangency",
                         max(x.residuals["tangency"] for x in gens), 1e-9))
    checks.append(_check(cfg, "gv-xi-closure-condition",
                         max(x.residuals["condon"] for x in gens), 1e-9))

    # degeneracy pairings <alpha_dot, V> over tangent variations
    variations = [f3.scale_by(f3.random_form0(g, 2, rng, rms=0.3), st_c.alpha)
                  for _ in range(5)]
    variations += [f3.generator(st_c.alpha, f3.random_divfree_field(g, 2, rng, rms=0.3))
                   for _ in range(5)]
    worst = 0.0
    for adot_i in variations:
        for xg in gens:
            val = abs(pairing(adot_i, xg.v))
            worst = max(worst, val / max(1.0, adot_i.l2() * xg.v.l2()))
    checks.append(_check(cfg, "gv-degeneracy-pairing", worst, 1e-9))

    # bracket degeneracy <alpha, [A, V]>
    worst = 0.0
    for _ in range(10):
        a_field = fol.xi_generator(st_c, f3.random_form0(g, 2, rng, rms=0.5)).v
        v_field = f3.random_vector_field(g, 3, rng)
        val = abs(fol.bracket_degeneracy_check(st_c, a_field, v_field))
        scale = max(1.0, st_c.alpha.l2() * a_field.l2() * v_field.l2())
        worst = max(worst, val / scale)
    checks.append(_check(cfg, "gv-bracket-degeneracy", worst, 1e-8))
    checks.append(_gate_check("gv-bracket-degeneracy-gate",
                              _rejects(fol.bracket_degeneracy_check, st_c,
                                       f3.random_vector_field(g, 2, rng),
                                       f3.random_vector_field(g, 2, rng)),
                              note="fields failing the membership gates must be rejected"))

    # restricted bracket <alpha, [u, v]> on representatives: antisymmetric and
    # invariant under a degeneracy shift, so well defined on cosets
    u1 = f3.random_vector_field(g, 3, rng)
    v1 = f3.random_vector_field(g, 3, rng)
    b_uv = lie_poisson_bracket(st_c.alpha, u1, v1)
    b_vu = lie_poisson_bracket(st_c.alpha, v1, u1)
    checks.append(_check(cfg, "gv-restricted-bracket-antisymmetry",
                         max(abs(lie_poisson_bracket(st_c.alpha, u1, u1)),
                             abs(b_uv + b_vu)) / max(1.0, abs(b_uv)), 1e-13))
    xg = gens[1]
    b_shift = lie_poisson_bracket(st_c.alpha, f3.VectorField(g, u1.data + xg.v.data), v1)
    checks.append(_check(cfg, "gv-restricted-bracket-xi-shift",
                         abs(b_shift - b_uv) / max(1.0, abs(b_uv)), 1e-8))
    # for divergence-free u, v: [u, v] = -curl(u x v), so
    # <alpha, [u, v]> = -int curl(alpha) . (u x v) = -int d(alpha) ^ (u x v)
    u_div = f3.random_divfree_field(g, 3, rng)
    v_div = f3.random_divfree_field(g, 3, rng)
    u_x_v = f3.Form1(g, np.cross(u_div.data, v_div.data, axis=0))
    checks.append(_check(cfg, "gv-restricted-bracket-divfree-consistency",
                         abs(lie_poisson_bracket(st_c.alpha, u_div, v_div)
                             + f3.integrate3(f3.wedge(f3.d(st_c.alpha), u_x_v))), 1e-10))

    # GV as a transport (restricted Casimir) invariant
    def transport_drift_check(name, fields):
        rep = fol.gv_casimir_suite(st_c, fields, t=0.2)
        return _check(cfg, name, max(r["drift"] for r in rep["records"]),
                      1e-6 * (1.0 + abs(rep["gv_initial"])),
                      degraded=[r["field"] for r in rep["records"] if r["degraded"]])

    fields = [f3.random_divfree_field(g, 1 + (i % 2), rng, rms=0.08) for i in range(5)]
    checks.append(transport_drift_check("gv-transport-casimir-drift", fields))
    checks.append(transport_drift_check("gv-transport-nondivfree-drift",
                                        [f3.random_vector_field(g, 1, rng, rms=0.05)]))

    checks.append(_gate_check(
        "gv-nonzero-example-gap", True, informational=True,
        note="no grid-representable integrable form with numerically resolvable "
             "nonzero GV is included; the identity chain is validated at GV = 0"))
    return checks


SUITES = {
    "rattleback": suite_rattleback,
    "forms": suite_forms,
    "lie-poisson": suite_lie_poisson,
    "godbillon-vey": suite_godbillon_vey,
}


def run_suite(name: str, cfg: SuiteConfig | None = None) -> dict:
    """Run one suite (or "all") and assemble the deterministic report.

    A suite stopped by a failed gate (a PreconditionError or an
    InconsistencyError) gives one failed ``<suite>-aborted`` record, noting
    the gate's message, in place of its checks; the other suites still run.
    """
    cfg = cfg or SuiteConfig()
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    checks = []
    for n in names:
        try:
            checks.extend(SUITES[n](cfg))
        except (PreconditionError, InconsistencyError) as exc:
            checks.append(_gate_check(f"{n}-aborted", False, note=str(exc)))
    return {
        "library": "casimir-lab",
        "version": __version__,
        "suite": name,
        "grid": cfg.grid_n,
        "seed": cfg.seed,
        "numba": kernels.USING_NUMBA,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
        "failed_checks": [c["check"] for c in checks if not c["pass"]],
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

