"""Named verification suites with machine-readable reports.

Each check yields a record {check, value, tolerance, pass}: ``value`` is the
largest of the check's measured residuals, its samples (each relative to the
natural scale of the identity, noted per check), and ``tolerance`` the bound
it must satisfy.  ``_check`` alone reduces the samples and judges the
value, so a NaN sample fails the check; a value that is not finite is
recorded as null and named in the record's note, so the report stays JSON.
Reports are deterministic: random data comes from a seeded generator whose
seed is in the header, so identical scenario + seed reproduces the report
byte for byte.  Wall-clock timing is deliberately excluded from reports.

A suite is a sequence of check units, functions of ``(cfg, fx)`` returning
the records of one check or of a small group.  ``fx`` holds what several
units read; the rest is freed when its unit returns, and the last unit to
read a large fixture takes it out with ``fx.pop``.  A unit stopped by any
library refusal, a CasimirLabError (a failed gate, a blow-up, a parameter
out of range), gives a failed record, noting the message, for each check
it would have written.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import foliation as fol
from . import forms3 as f3
from . import rattleback as rb
from .errors import CasimirLabError, PreconditionError
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
    velocity_of,
)

DEFAULT_SEED = 1729

# Start of the chirality probe (rk4, dt = 1e-3, to t = 40): for h < -1 the
# spin reverses to -s* and swings back to +s*, the turning points fixed by H
# and C (see _chirality_turning_point).
CHIRALITY_IC = (0.01, 0.02, 1.0)

# The boosted-Beltrami Euler oracle's mean flow U and the time it runs to:
# 5 steps of fluid.euler_dt up to n = 32
EULER_BOOST = (0.7, -0.4, 0.3)
EULER_BOOST_T = 0.1

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
    rattleback_h: float = -2.0


def _check(name: str, value, tol: float, **extra) -> dict:
    """The record of one residual or of a list of samples, valued at their largest."""
    value = float(np.max(value))
    rec = {"check": name, "value": value, "tolerance": tol, "pass": value <= tol, **extra}
    return _finite(rec, "value")


def _gate_check(name: str, passed: bool, **extra) -> dict:
    rec = {"check": name, "value": None, "tolerance": None, "pass": bool(passed), **extra}
    return _finite(rec, "value_observed")


def _finite(rec: dict, key: str) -> dict:
    """``rec``; failed, with ``rec[key]`` null and named in its note, when that
    float is not finite (JSON cannot hold it)."""
    if key in rec and not math.isfinite(rec[key]):
        rec["note"] = "; ".join(filter(None, [rec.get("note"), f"{key} is {rec[key]}"]))
        rec[key], rec["pass"] = None, False
    return rec


def _rejects(fn, *args) -> bool:
    """Whether fn(*args) refuses its input with a PreconditionError."""
    try:
        fn(*args)
    except PreconditionError:
        return True
    return False


SUITES: dict[str, list] = {}


def _unit(suite: str, *checks: str):
    """Append fn(cfg, fx) to ``suite``'s units, as the unit writing ``checks``."""
    def register(fn):
        fn.checks = checks
        SUITES.setdefault(suite, []).append(fn)
        return fn
    return register


class _Fixtures(dict):
    """A suite's shared fixtures; a unit reading one that a gate left unbuilt stops too."""

    def __missing__(self, key):
        raise PreconditionError(f"fixture {key!r} was not built: a gate stopped its unit")

    def pop(self, key):
        """``self[key]``, taken out so that it is freed when its last reader returns."""
        value = self[key]
        del self[key]
        return value


def _beltrami(g):
    """The Beltrami (contact) form sin(2 pi z) dx + cos(2 pi z) dy."""
    return f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                       lambda x, y, z: np.cos(2 * np.pi * z), lambda x, y, z: 0 * z)


def _shear(g):
    """The shear sin(2 pi z) dx, which vanishes on two planes."""
    return f3.one_form(g, lambda x, y, z: np.sin(2 * np.pi * z),
                       lambda x, y, z: 0 * z, lambda x, y, z: 0 * z)


def _canonical_profile(g, amplitudes):
    _, _, Z = g.meshes
    return f3.Form0(g, amplitudes[0] * np.sin(2 * np.pi * Z)
                    + amplitudes[1] * np.cos(4 * np.pi * Z))


@_unit("rattleback", "rattleback-jacobi-identity", "rattleback-structure-antisymmetry",
       "rattleback-bracket-antisymmetry", "rattleback-rhs-matches-bracket",
       "rattleback-casimir-gradient-kernel")
def _rb_bracket(cfg, fx):
    """Structure constants; at random states, antisymmetry on cubic monomial
    gradients, the rhs against J grad H and the Casimir gradient's kernel."""
    rng, h = np.random.default_rng(cfg.seed), cfg.rattleback_h
    c = rb.bianchi_vi(h)
    anti = []
    for _ in range(5):
        xi = rb.RattlebackState(*rng.uniform(-2, 2, 3))
        grads = rb._monomial_gradients(xi)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN at extreme h
            a = grads @ rb.poisson_matrix(c, xi) @ grads.T  # a[f, g] = {f, g}
            anti.append(np.abs(a + a.T) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(a.T))))
    rhs_gap = []
    for _ in range(20):
        xi = rb.RattlebackState(*rng.uniform(-3, 3, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            jgh = rb.poisson_matrix(c, xi) @ xi.as_array()
        rhs_gap.append(np.abs(rb.rattleback_rhs(xi, h).as_array() - jgh).max()
                       / max(1.0, np.abs(jgh).max()))
    kernel = []
    for _ in range(20):
        xi = rb.RattlebackState(rng.uniform(-2, 2), rng.uniform(0.2, 3), rng.uniform(-3, 3))
        kernel.append(rb.casimir_gradient_check(xi, h)
                      / max(1.0, np.abs(rb.casimir_gradient(xi, h)).max()))
    return [_check("rattleback-jacobi-identity", rb.jacobi_residual(c), 1e-14),
            _check("rattleback-structure-antisymmetry", rb.antisymmetry_residual(c), 0.0),
            _check("rattleback-bracket-antisymmetry", anti, 1e-13),
            _check("rattleback-rhs-matches-bracket", rhs_gap, 1e-13),
            _check("rattleback-casimir-gradient-kernel", kernel, 1e-12)]


@_unit("rattleback", "rattleback-energy-conservation-rk4",
       "rattleback-casimir-conservation-rk4", "rattleback-energy-conservation-rk45",
       "rattleback-casimir-conservation-rk45", "rattleback-parity-symmetry",
       "rattleback-rhs-zero-on-line", "rattleback-poisson-matrix-zero-on-line",
       "rattleback-bracket-trivial-on-line", "rattleback-singular-line-constant",
       "rattleback-chirality-turning-points")
def _rb_trajectories(cfg, fx):
    """Conservation along the reference run (also acceptance data), parity
    (-p0, r0, s0) mirroring (p0, r0, s0) bit for bit, the singular line
    (0, 0, s), and for chiral h < -1 the spin's turning points against the
    invariants' prediction."""
    h, checks, t1 = cfg.rattleback_h, [], np.empty((0, 3))
    for method in ("rk4", "rk45"):
        # read leg by leg (rk45 is one leg): the drifts from row 0 are
        # maxima over the legs, and rk4's fixed steps to t = 5, its first
        # 5,001 rows, are the parity start's run
        deviations = []
        for leg in rb.integrate_legs(rb.RattlebackState(0.1, 0.2, 1.0), h, dt=1e-3,
                                     t_final=100.0, method=method):
            if not deviations:
                h0, c0 = leg.hamiltonians[0], leg.casimirs[0]
            deviations.append((np.abs(leg.hamiltonians - h0).max(),
                               np.abs(leg.casimirs - c0).max()))
            if method == "rk4" and len(t1) < 5001:
                t1 = np.concatenate([t1, leg.states[:5001 - len(t1)]])
        h_dev, c_dev = np.max(deviations, axis=0)
        checks += [_check(f"rattleback-energy-conservation-{method}", h_dev / h0, 1e-8),
                   _check(f"rattleback-casimir-conservation-{method}", c_dev / abs(c0), 1e-8)]
    t2 = rb.integrate(rb.RattlebackState(-0.1, 0.2, 1.0), h, dt=1e-3, t_final=5.0)
    mirror = float(np.abs(t2.states - t1 * np.array([-1.0, 1.0, 1.0])).max())
    checks.append(_check("rattleback-parity-symmetry", mirror, 0.0))
    for key, residual in rb.restricted_casimir_report(3.7, h).items():
        checks.append(_check(f"rattleback-{key.replace('_', '-')}", residual, 0.0))
    line = rb.integrate(rb.RattlebackState(0.0, 0.0, 5.0), h, dt=1e-3, t_final=1.0).states
    checks.append(_check("rattleback-singular-line-constant",
                         [np.abs(line[:, :2]).max(), np.abs(line[:, 2] - 5.0).max()], 0.0))
    if h < -1.0:
        xi = rb.RattlebackState(*CHIRALITY_IC)
        s = np.concatenate([leg.states[:, 2].copy()  # not a view holding the leg
                            for leg in rb.integrate_legs(xi, h, dt=1e-3, t_final=40.0)])
        s_min, s_ret = float(s.min()), float(s[np.argmin(s):].max())
        s_star = _chirality_turning_point(xi, h)
        non_monotone = bool(np.any(np.diff(s) > 0) and np.any(np.diff(s) < 0))
        checks.append(_check("rattleback-chirality-turning-points",
                             [abs(s_min + s_star), abs(s_ret - s_star)],
                             1e-9, non_monotone=non_monotone))
    return checks


def _chirality_turning_point(xi, h):
    """|s| where the spin turns (ds/dt = r^2 + h p^2 = 0) on xi's level set of
    H = (p^2 + r^2 + s^2)/2 and C = p r^(-h): there r^2 = -h p^2, so
    C = p*^(1-h) (-h)^(-h/2) and s*^2 = 2H - (1 - h) p*^2."""
    p_star = (rb.casimir(xi, h) * (-h) ** (h / 2)) ** (1 / (1 - h))
    return math.sqrt(2 * rb.hamiltonian(xi) - (1 - h) * p_star ** 2)


@_unit("forms")
def _forms_fixtures(cfg, fx):
    g = fx["g"] = f3.Grid(cfg.grid_n)
    fx.update(rng=np.random.default_rng(cfg.seed + 1), bw=max(2, g.n // 8))
    return []


@_unit("forms", "forms-dd-zero", "forms-contraction-identity", "forms-leibniz",
       "forms-cartan-commutation", "forms-integration-by-parts",
       "forms-wedge-anticommutativity")
def _forms_identities(cfg, fx):
    """On random band-limited forms: d o d = 0 (ranks 0 and 1), (i_V a) mu =
    a ^ i_V mu, the graded Leibniz rule within the exactness budget, d L_V =
    L_V d, integration by parts, and the wedge's graded anticommutativity."""
    g, rng, bw = fx["g"], fx["rng"], fx["bw"]
    dd = []
    for rank in (0, 1):
        for _ in range(100):
            da = f3.d(f3.random_form(g, rank, bw, rng))
            dd.append(f3.d(da).l2() / max(da.l2(), 1e-30))
    contraction = []
    for _ in range(20):
        a = f3.random_form1(g, bw, rng)
        v = f3.random_vector_field(g, bw, rng)
        contraction.append(f3.contraction_identity_residual(v, a)
                           / max(1.0, a.linf() * v.linf()))
    leibniz = []
    for ra, rk in ((0, 0), (0, 1), (1, 1), (0, 2)):
        a = f3.random_form(g, ra, bw, rng)
        b = f3.random_form(g, rk, bw, rng)
        lhs = f3.d(f3.wedge(a, b))
        rhs = f3.wedge(f3.d(a), b) + (-1.0) ** ra * f3.wedge(a, f3.d(b))
        leibniz.append((lhs - rhs).l2() / max(rhs.l2(), 1e-30))
    cartan = []
    for rank in (0, 1, 2):
        a = f3.random_form(g, rank, bw, rng)
        v = f3.random_vector_field(g, bw, rng)
        rhs = f3.lie_derivative(v, f3.d(a))
        cartan.append((f3.d(f3.lie_derivative(v, a)) - rhs).l2() / max(rhs.l2(), 1e-30))
    parts = []
    for ra, rk in ((0, 2), (1, 1), (2, 0)):
        a = f3.random_form(g, ra, bw, rng)
        b = f3.random_form(g, rk, bw, rng)
        lhs = f3.integrate3(f3.wedge(f3.d(a), b))
        rhs = (-1.0) ** (ra + 1) * f3.integrate3(f3.wedge(a, f3.d(b)))
        parts.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    a1, b1 = f3.random_form1(g, bw, rng), f3.random_form1(g, bw, rng)
    b2 = f3.random_form(g, 2, bw, rng)
    anti = [(f3.wedge(a1, b1) + f3.wedge(b1, a1)).linf(),
            (f3.wedge(a1, b2) - f3.wedge(b2, a1)).linf(), f3.wedge(a1, a1).linf()]
    return [_check("forms-dd-zero", dd, 1e-12),
            _check("forms-contraction-identity", contraction, 1e-12),
            _check("forms-leibniz", leibniz, 1e-11),
            _check("forms-cartan-commutation", cartan, 1e-11),
            _check("forms-integration-by-parts", parts, 1e-12),
            _check("forms-wedge-anticommutativity", anti, 0.0)]


@_unit("forms", "forms-d-analytic-oracle", "forms-unit-volume", "forms-stokes-closed",
       "forms-integrate-analytic", "forms-vorticity-curl-oracle",
       "forms-vorticity-exact-form", "forms-vorticity-divergence-free")
def _forms_exact_values(cfg, fx):
    """An analytic derivative, exact integrals and the vorticity correspondence;
    curl grad f = 0 and div curl a = 0 relative to the field differentiated."""
    g, rng, bw = fx["g"], fx["rng"], fx["bw"]
    X, _, Z = g.meshes
    df = f3.d(f3.Form0(g, np.sin(2 * np.pi * X)))
    tf = f3.Form3(g, 2 * np.pi * (np.sin(2 * np.pi * Z) ** 2 + np.cos(2 * np.pi * Z) ** 2))
    checks = [
        _check("forms-d-analytic-oracle",
               [np.abs(df.data[0] - 2 * np.pi * np.cos(2 * np.pi * X)).max(),
                np.abs(df.data[1:]).max()], 1e-12),
        _check("forms-unit-volume", abs(f3.integrate3(f3.volume_form(g)) - 1.0), 0.0),
        _check("forms-stokes-closed",
               abs(f3.integrate3(f3.d(f3.random_form(g, 2, bw, rng)))), 1e-13),
        _check("forms-integrate-analytic", abs(f3.integrate3(tf) - 2 * np.pi), 1e-12)]
    w = f3.vorticity_from(_beltrami(g)).data
    grad = f3.d(f3.random_form0(g, bw, rng))
    curl = f3.vorticity_from(f3.random_form1(g, bw, rng))
    return checks + [
        _check("forms-vorticity-curl-oracle",
               [np.abs(w[0] - 2 * np.pi * np.sin(2 * np.pi * Z)).max(),
                np.abs(w[1] - 2 * np.pi * np.cos(2 * np.pi * Z)).max(),
                np.abs(w[2]).max()], 1e-12),
        _check("forms-vorticity-exact-form", f3.vorticity_from(grad).linf() / grad.linf(),
               1e-11),
        _check("forms-vorticity-divergence-free", f3.divergence(curl).linf() / curl.linf(),
               1e-11)]


@_unit("forms", "forms-bracket-commutator-oracle", "forms-eval-grid-reproduction",
       "forms-eval-analytic-point", "forms-transport-zero-generator",
       "forms-transport-translation-oracle", "forms-transport-helicity-invariance")
def _forms_oracles(cfg, fx):
    """The commutator identity for the field bracket (pinned at n = 48, bw = 4),
    point evaluation, transport oracles and helicity as a transport invariant
    for divergence-free generators."""
    g48 = f3.Grid(48)
    rng48 = np.random.default_rng(cfg.seed + 2)
    u = f3.random_vector_field(g48, 4, rng48)
    v = f3.random_vector_field(g48, 4, rng48)
    ff = f3.random_form0(g48, 4, rng48)
    lhs = f3.lie_derivative(f3.vf_bracket(u, v), ff)
    rhs = f3.lie_derivative(u, f3.lie_derivative(v, ff)) \
        - f3.lie_derivative(v, f3.lie_derivative(u, ff))
    g, rng, bw = fx["g"], fx["rng"], fx["bw"]
    f0 = f3.random_form0(g, bw, rng)
    stride = max(1, g.n ** 3 // 64)
    nodes = np.stack([m.ravel()[::stride] for m in g.meshes], axis=1)
    sin_x = f3.Form0(g, np.sin(2 * np.pi * g.meshes[0]))
    checks = [_check("forms-bracket-commutator-oracle",
                     (lhs - rhs).linf() / max(rhs.linf(), 1e-30), 1e-9),
              _check("forms-eval-grid-reproduction",
                     float(np.abs(f3.eval_at(f0, nodes) - f0.data.ravel()[::stride]).max()),
                     1e-13),
              _check("forms-eval-analytic-point",
                     abs(f3.eval_at(sin_x, (0.25, 0.3, 0.8)) - 1.0), 1e-14)]
    prof = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    shear = f3.one_form(g, lambda x, y, z: prof(x), lambda x, y, z: 0 * x,
                        lambda x, y, z: 0 * x)
    still = f3.transport(shear, f3.zero_field(g), 0.25, 0.25)
    moved = f3.transport(shear, f3.constant_field(g, 1.0, 0.0, 0.0), 0.25, 0.25)
    expect = f3.one_form(g, lambda x, y, z: prof(x - 0.25), lambda x, y, z: 0 * x,
                         lambda x, y, z: 0 * x)
    checks += [_check("forms-transport-zero-generator",
                      float(np.abs(still.data - shear.data).max()), 0.0),
               _check("forms-transport-translation-oracle", (moved - expect).linf(), 1e-8)]
    ar = f3.Form1(g, f3.dealias(f3.random_form1(g, 3, rng, rms=0.5).data, g)
                  + _beltrami(g).data)
    u = f3.random_divfree_field(g, 3, rng, rms=0.3)
    h0 = helicity(ar)
    drift = abs(helicity(f3.transport(ar, u, 0.5, 0.5)) - h0) / abs(h0)
    return checks + [_check("forms-transport-helicity-invariance", drift, 1e-6)]


@_unit("lie-poisson")
def _lp_fixtures(cfg, fx):
    g = fx["g"] = f3.Grid(cfg.grid_n)
    # bw <= (n - 1)//3: the coadjoint adjunction takes grid means of triple
    # products of band-bw fields, whose band 3 bw must stay below n
    fx.update(rng=np.random.default_rng(cfg.seed + 3), bw=min(max(2, g.n // 8), g.box.keep),
              beltrami=_beltrami(g))
    fx["exact"] = f3.d(f3.random_form0(g, fx["bw"], fx["rng"]))
    return []


@_unit("lie-poisson", "fluid-pairing-basis", "fluid-pairing-representative-independence",
       "fluid-pairing-analytic", "fluid-coadjoint-closed-form", "fluid-coadjoint-adjunction",
       "fluid-coadjoint-beltrami-self")
def _lp_pairing_coadjoint(cfg, fx):
    """The pairing, and the coadjoint action with its adjunction."""
    g, rng, bw, exact, beltrami = fx["g"], fx["rng"], fx["bw"], fx["exact"], fx["beltrami"]
    u_df = f3.random_divfree_field(g, bw, rng)
    shear = _shear(g)
    checks = [
        _check("fluid-pairing-basis",
               abs(pairing(f3.coordinate_oneform(g, 0), f3.constant_field(g, 1, 0, 0)) - 1.0),
               0.0),
        _check("fluid-pairing-representative-independence",
               abs(pairing(exact, u_df)), 1e-12),
        _check("fluid-pairing-analytic",
               abs(pairing(shear, f3.VectorField(g, shear.data)) - 0.5), 1e-14),
        _check("fluid-coadjoint-closed-form",
               coadjoint(u_df, exact).linf() / max(1.0, u_df.linf()), 1e-11)]
    adjunction = []
    for _ in range(20):
        u = f3.random_divfree_field(g, bw, rng)
        v = f3.random_divfree_field(g, bw, rng)
        aa = f3.random_form1(g, bw, rng)
        rhs = lie_poisson_bracket(aa, u, v)
        adjunction.append(abs(pairing(coadjoint(u, aa), v) - rhs) / max(abs(rhs), 1.0))
    return checks + [
        _check("fluid-coadjoint-adjunction", adjunction, 1e-9),
        _check("fluid-coadjoint-beltrami-self",
               coadjoint(f3.vorticity_from(beltrami), beltrami).linf(), 1e-13)]


@_unit("lie-poisson", "fluid-helicity-beltrami", "fluid-helicity-exact-form",
       "fluid-helicity-gauge-invariance", "fluid-helicity-gradient",
       "fluid-helicity-gradient-gauge-direction", "fluid-helicity-gradient-homogeneity")
def _lp_helicity(cfg, fx):
    """Helicity, and its functional gradient."""
    g, rng, bw, beltrami = fx["g"], fx["rng"], fx["bw"], fx["beltrami"]
    hb = helicity(beltrami)
    shift = f3.d(f3.random_form0(g, bw, rng))
    checks = [_check("fluid-helicity-beltrami", abs(hb - 2 * np.pi), 1e-10),
              _check("fluid-helicity-exact-form", abs(helicity(fx["exact"])), 1e-12),
              _check("fluid-helicity-gauge-invariance",
                     abs(helicity(beltrami + shift) - hb), 1e-11)]
    *random, (lhs_g, rhs_g), (lhs, rhs) = helicity_gradient_check(
        beltrami, itertools.chain((f3.random_form1(g, bw, rng) for _ in range(20)),
                                  (fx["exact"], beltrami)))
    gradient = [abs(dh - dw) / max(abs(dw), 1e-10) for dh, dw in random]
    return checks + [
        _check("fluid-helicity-gradient", gradient, 1e-6),
        _check("fluid-helicity-gradient-gauge-direction",
               [abs(lhs_g), abs(rhs_g)], 1e-10),
        _check("fluid-helicity-gradient-homogeneity",
               [abs(lhs - 2 * hb) / (2 * hb), abs(rhs - 2 * hb) / (2 * hb)], 1e-7)]


@_unit("lie-poisson", "fluid-euler-beltrami-steady", "fluid-euler-pure-gauge",
       "fluid-euler-shear-steady", "fluid-euler-helicity-conservation",
       "fluid-euler-energy-conservation", "fluid-euler-boosted-beltrami-oracle")
def _lp_euler(cfg, fx):
    """Euler right-hand side oracles; Euler evolution conserves helicity and
    energy, and carries a boosted ABC field exactly.  The oracles' fields go
    before the evolutions."""
    g, exact, beltrami = fx["g"], fx.pop("exact"), fx["beltrami"]
    checks = [_check("fluid-euler-beltrami-steady",
                     euler_rhs(FluidState(beltrami)).linf(), 1e-10)]
    gauge = velocity_of(euler_rhs(FluidState(exact)))
    checks.append(_check("fluid-euler-pure-gauge", gauge.linf() / max(1.0, exact.linf()),
                         1e-10))
    del gauge, exact
    shear = velocity_of(euler_rhs(FluidState(_shear(g))))
    checks.append(_check("fluid-euler-shear-steady", shear.linf(), 1e-10))
    del shear
    ar = f3.Form1(g, f3.dealias(f3.random_form1(g, 3, fx["rng"], rms=0.3).data, g)
                  + 0.5 * beltrami.data)
    h0, e0 = helicity(ar), energy(ar)
    _, diag = euler_evolve(FluidState(ar), dt=euler_dt(g), t_final=0.5)
    del ar
    return checks + [
        _check("fluid-euler-helicity-conservation",
               float(np.abs(diag.helicities - h0).max() / abs(h0)), 1e-6),
        _check("fluid-euler-energy-conservation",
               float(np.abs(diag.energies - e0).max() / e0), 1e-6),
        _check("fluid-euler-boosted-beltrami-oracle", _boosted_beltrami_error(g), 1e-12)]


def _abc(g, shift=(0.0, 0.0, 0.0)) -> f3.VectorField:
    """The ABC field (sin 2 pi z + 0.6 cos 2 pi y, 0.8 sin 2 pi x + cos 2 pi z,
    0.6 sin 2 pi y + 0.8 cos 2 pi x) at x - shift: a Beltrami field,
    curl B = 2 pi B (Dombre et al., J. Fluid Mech. 167, 1986)."""
    x, y, z = (2 * np.pi * (m - s) for m, s in zip(g.meshes, shift))
    return f3.VectorField(g, np.stack([np.sin(z) + 0.6 * np.cos(y),
                                       0.8 * np.sin(x) + np.cos(z),
                                       0.6 * np.sin(y) + 0.8 * np.cos(x)]))


def _boosted_beltrami_error(g) -> float:
    """Relative linf error of Leray(alpha(t)) against U + B(x - U t).

    A Galilean boost of a Beltrami field is an exact Euler solution (Arnold
    & Khesin, *Topological Methods in Hydrodynamics*, II.1): with constant U
    and curl B = 2 pi B, alpha(t) = U + B(x - U t) solves the coset equation
    up to the exact form -d(U . B(x - U t)), so Leray(alpha(t)) is exact.
    The state moves, so a phase error or a faulty step shows within a few
    steps, where a steady state's right-hand sides are all roundoff."""
    fin, _ = euler_evolve(FluidState(_boosted_start(g)), dt=euler_dt(g), t_final=EULER_BOOST_T)
    v = velocity_of(fin.alpha)
    del fin
    ref = f3.constant_field(g, *EULER_BOOST) + _abc(g, [u * EULER_BOOST_T for u in EULER_BOOST])
    return (v - ref).linf() / ref.linf()


def _boosted_start(g) -> f3.Form1:
    """U + B + d(phi) for a fixed band-1 phi.  d(phi) leaves the solution's
    Leray part alone, but not a right-hand side that skips the projection."""
    x, y, z = g.meshes
    phi = f3.Form0(g, 0.4 * np.sin(2 * np.pi * (x + y)) + 0.3 * np.cos(2 * np.pi * (y - z)))
    return f3.flat(f3.constant_field(g, *EULER_BOOST) + _abc(g)) + f3.d(phi)


@_unit("lie-poisson", "fluid-subalgebra-orthogonality", "fluid-helicity-density-foliated",
       "fluid-vorticity-leaf-tangency", "fluid-helicity-density-contact-control",
       "fluid-loop-leaf-tangent", "fluid-loop-period-class", "fluid-loop-gauge-invariance")
def _lp_foliated(cfg, fx):
    """Foliation-aligned states: orthogonality, helicity density, loops."""
    g, rng, bw = fx["g"], fx["rng"], fx["bw"]
    a_prof = _canonical_profile(g, PROFILE_MAIN)
    beta = fol.graph_foliation_form(g, a_prof)
    f_scale = f3.Form0(g, np.exp(f3.random_scalar_array(g, 1, rng, rms=0.1)))
    alpha = fol.graph_foliation_form(g, a_prof, f_scale)
    orthogonality = [abs(val) / max(1.0, scale) for val, scale in fol.subalgebra_orthogonality(
        alpha, beta, (f3.random_form0(g, bw, rng) for _ in range(20)))]
    w_fol = f3.vorticity_from(alpha)
    density = helicity_density_check(fx["beltrami"])
    xloop = f3.circle_loop(0, (0.0, 0.2, 0.5))
    checks = [
        _check("fluid-subalgebra-orthogonality", orthogonality, 1e-10),
        _check("fluid-helicity-density-foliated",
               helicity_density_check(alpha) / max(1.0, alpha.linf() * w_fol.linf()),
               1e-10),
        _check("fluid-vorticity-leaf-tangency",
               f3.interior(w_fol, alpha).linf() / max(1.0, alpha.linf() * w_fol.linf()), 1e-10),
        _gate_check("fluid-helicity-density-contact-control", density > 1.0,
                    value_observed=density,
                    note="non-integrable control must show O(2*pi) density"),
        _check("fluid-loop-leaf-tangent",
               abs(loop_integral(alpha, f3.circle_loop(1, (0.3, 0.0, 0.7)))), 1e-10),
        _check("fluid-loop-period-class",
               abs(loop_integral(f3.coordinate_oneform(g, 0), xloop) - 1.0), 1e-12)]
    i0 = loop_integral(alpha, xloop)
    i1 = loop_integral(alpha + f3.d(f3.random_form0(g, bw, rng)), xloop)
    return checks + [_check("fluid-loop-gauge-invariance", abs(i1 - i0), 1e-11)]


def _chain_pool(g, a_prof, beta, rng):
    """The canonical family, beta and 20 random rescalings, and a gauge shift of
    each rescaling, solved without raising: the first three states (the only
    ones used again) and the (residuals, GV) of the members and of the
    shifts, in that order.  The first two rescalings and their gauges are
    drawn first, as a member-by-member loop draws them; members 3-20 are
    then solved, each freed with its shift before the next, and the three
    kept states last, so none is held through that loop."""

    def draw():
        return (f3.random_scalar_array(g, 2, rng, rms=SCALING_RMS),
                f3.random_form0(g, 1, rng, rms=GAUGE_RMS),
                f3.random_form0(g, 1, rng, rms=GAUGE_RMS))

    def solve(q, f_gauge, g_gauge):
        st = fol.FoliatedState.from_alpha(
            fol.graph_foliation_form(g, a_prof, f3.Form0(g, np.exp(q))), strict=False)
        shift = fol.gauge_shift(st, f_gauge, g_gauge)
        return st, ((st.residuals, st.gv), (shift.residuals, shift.gv))

    first = [draw(), draw()]
    later = [solve(*draw())[1] for _ in range(18)]
    kept = [solve(*first.pop(0)) for _ in range(2)]
    states = [fol.FoliatedState.from_alpha(beta, strict=False)] + [st for st, _ in kept]
    records = [record for _, record in kept] + later
    family = [(states[0].residuals, states[0].gv)] + [member for member, _ in records]
    return states, family, [shift for _, shift in records]


def _kept(state):
    """A kept state of the chain pool; the first membership gate it fails is raised."""
    fol._gates(state.residuals)
    return state


@_unit("godbillon-vey")
def _gv_fixtures(cfg, fx):
    g = fx["g"] = f3.Grid(cfg.grid_n)
    a_prof = fx["a_prof"] = _canonical_profile(g, PROFILE_MAIN)
    fx.update(rng=np.random.default_rng(cfg.seed + 4), beta=fol.graph_foliation_form(g, a_prof))
    return []


@_unit("godbillon-vey", "gv-integrability-graph-family", "gv-integrability-closed-form",
       "gv-integrability-contact-control", "gv-nonvanishing-floor-gate")
def _gv_integrability(cfg, fx):
    """Integrability controls and gates, which need no solved chain."""
    g = fx["g"]
    closed = fol.graph_foliation_form(g, f3.Form0(g, np.full(g.shape, 0.4)))
    contact = fol.check_integrability(_beltrami(g))
    return [_check("gv-integrability-graph-family",
                   fol.check_integrability(fx["beta"]), 1e-12),
            _check("gv-integrability-closed-form",
                   fol.check_integrability(closed), 0.0),
            _gate_check("gv-integrability-contact-control", contact > 1e-3,
                        value_observed=contact,
                        note="contact form must be flagged non-integrable"),
            _gate_check("gv-nonvanishing-floor-gate",
                        _rejects(fol.FoliatedState.from_alpha, _shear(g)),
                        note="a vanishing 1-form must be rejected")]


@_unit("godbillon-vey", "gv-eta-defining-residual", "gv-gamma-defining-residual",
       "gv-gamma-solvability-certificate", "gv-chi-tangency", "gv-chi-closure",
       "gv-helicity-hierarchy")
def _gv_chain_residuals(cfg, fx):
    """The chain pool's worst residuals; keeps its first three states and its GVs."""
    states, family, shifted = _chain_pool(fx["g"], fx["a_prof"], fx["beta"], fx["rng"])
    fx["state0"], fx["state1"], fx["state2"] = states
    pool = family + shifted
    fx["pool_gvs"] = np.array([gv for _, gv in pool])
    return [_check(name, [res[key] for res, _ in members], tol)
            for name, key, members, tol in (
                ("gv-eta-defining-residual", "eta_defining", pool, 1e-9),
                ("gv-gamma-defining-residual", "gamma_defining", pool, 1e-9),
                ("gv-gamma-solvability-certificate", "gamma_certificate", family, 1e-10),
                ("gv-chi-tangency", "chi_tangency", pool, 1e-8),
                ("gv-chi-closure", "chi_closure", pool, 1e-8),
                ("gv-helicity-hierarchy", "helicity", family, 1e-11))]


@_unit("godbillon-vey", "gv-eta-hand-gauge-agreement", "gv-eta-closed-form-zero",
       "gv-eta-rescaling-law")
def _gv_eta(cfg, fx):
    """eta agrees with the hand gauge on the graph family, vanishes for a closed
    form, and d(bt) = bt ^ eta(bt) still holds for a rescaling bt of beta.
    Each check's inputs are freed before the next check's are built."""
    g, a_prof, beta, st0 = fx["g"], fx["a_prof"], fx.pop("beta"), _kept(fx["state0"])
    ap, denom = f3.spectral_derivative(a_prof.data, g, 2), 1.0 + a_prof.data ** 2
    eta_hand = np.stack([ap / denom, np.zeros(g.shape), -a_prof.data * ap / denom])
    del ap, denom
    checks = [_check("gv-eta-hand-gauge-agreement",
                     float(np.abs(st0.eta.data - eta_hand).max())
                     / max(1.0, float(np.abs(eta_hand).max())), 1e-11)]
    del eta_hand
    closed = fol.graph_foliation_form(g, f3.Form0(g, np.full(g.shape, 0.4)))
    checks.append(_check("gv-eta-closed-form-zero",
                         fol.FoliatedState.from_alpha(closed).eta.linf(), 0.0))
    del closed
    X, Y, _ = g.meshes
    bt = f3.scale_by(f3.Form0(g, np.exp(0.1 * np.sin(2 * np.pi * (X + Y)))), beta)
    del beta
    return checks + [_check("gv-eta-rescaling-law",
                            fol.FoliatedState.from_alpha(bt).residuals["eta_defining"],
                            1e-10)]


@_unit("godbillon-vey", "gv-graph-family-zero", "gv-graph-family-zero-steep",
       "gv-scaling-invariance", "gv-gauge-scaling-spread")
def _gv_values(cfg, fx):
    """GV vanishes on the graph family and on a steep one, and is invariant
    under a large rescaling and across the gauge-shifted, rescaled pool."""
    g, gvs = fx["g"], fx["pool_gvs"]
    X, Y, _ = g.meshes
    spec_prof = _canonical_profile(g, PROFILE_SPEC_EXAMPLE)
    gv_spec = fol.FoliatedState.from_alpha(fol.graph_foliation_form(g, spec_prof)).gv
    big = fol.graph_foliation_form(g, spec_prof,
                                   f3.Form0(g, np.exp(0.2 * np.sin(2 * np.pi * (X + Y)))))
    del spec_prof  # not held through big's solve
    gv_big = fol.FoliatedState.from_alpha(big, strict=False).gv
    return [_check("gv-graph-family-zero", abs(_kept(fx["state0"]).gv), 1e-10),
            _check("gv-graph-family-zero-steep", abs(gv_spec), 1e-10),
            _check("gv-scaling-invariance", abs(gv_big - gv_spec), 1e-9),
            _check("gv-gauge-scaling-spread", float(gvs.max() - gvs.min()),
                   1e-9 * (1.0 + float(np.abs(gvs).max())))]


@_unit("godbillon-vey", "gv-chi-gauge-shift-formula", "gv-chi-gauge-shift-combined")
def _gv_chi_gauge_shift(cfg, fx):
    """chi's gauge-shift formula for a pure g shift (an exact member of the
    degeneracy family), and for (f, g) shifts, which satisfy it with q = g -
    f^2/2 up to defining-residual terms times the gauge amplitude."""
    g, rng, st_s = fx["g"], fx["rng"], _kept(fx.pop("state1"))
    g_gauge = f3.random_form0(g, 2, rng, rms=0.5)

    def shift_check(name, f_gauge, tol):
        # the shifted state goes before the prediction is formed
        moved = fol.gauge_shift(st_s, f_gauge, g_gauge).chi - st_s.chi
        predicted = fol.chi_shift_expected(st_s, f_gauge, g_gauge)
        return _check(name, (moved - predicted).linf() / max(1.0, predicted.linf()), tol)
    return [shift_check("gv-chi-gauge-shift-formula", f3.Form0(g, np.zeros(g.shape)), 1e-10),
            shift_check("gv-chi-gauge-shift-combined", f3.random_form0(g, 2, rng, rms=0.5), 1e-8)]


def _variation_check(name, state, adot, solve, eps=1e-4):
    """d(GV)/dt = int alpha_dot ^ chi against the central difference of GV
    over the states solve(eps) and solve(-eps)."""
    pred = fol.gv_variation(state, adot)
    fd = (solve(eps).gv - solve(-eps).gv) / (2 * eps)
    return _check(name, abs(fd - pred) / (1.0 + adot.l2() * state.chi.l2()), 1e-6)


@_unit("godbillon-vey", "gv-variation-profile-deformation")
def _gv_variation_profile(cfg, fx):
    g, a_prof, st0 = fx["g"], fx.pop("a_prof"), _kept(fx.pop("state0"))
    dprof = f3.Form0(g, 0.1 * np.sin(4 * np.pi * g.meshes[2]))
    adot = f3.Form1(g, np.stack([dprof.data, np.zeros(g.shape), np.zeros(g.shape)]))
    return [_variation_check(
        "gv-variation-profile-deformation", st0, adot,
        lambda s: fol.FoliatedState.from_alpha(fol.graph_foliation_form(g, a_prof + s * dprof)))]


@_unit("godbillon-vey", "gv-variation-rescaling", "gv-variation-diffeo-transport",
       "gv-variation-tangency-gate")
def _gv_variations(cfg, fx):
    """The variation formula along a rescaling and a diffeomorphism of the
    third pool state; a variation off the integrable stratum is refused."""
    g, rng, st_c = fx["g"], fx["rng"], _kept(fx["state2"])
    g_fun = f3.random_form0(g, 2, rng, rms=0.3)
    checks = [_variation_check(
        "gv-variation-rescaling", st_c, f3.scale_by(g_fun, st_c.alpha),
        lambda s: fol.FoliatedState.from_alpha(
            f3.scale_by(f3.Form0(g, np.exp(s * g_fun.data)), st_c.alpha)))]
    u_var = f3.random_divfree_field(g, 3, rng, rms=0.5)
    u_back = f3.VectorField(g, -u_var.data)
    checks.append(_variation_check(
        "gv-variation-diffeo-transport", st_c, f3.generator(st_c.alpha, u_var),
        lambda s: fol.FoliatedState.from_alpha(
            f3.transport(st_c.alpha, u_var if s > 0 else u_back, abs(s), abs(s)), strict=False)))
    return checks + [_gate_check("gv-variation-tangency-gate",
                                 _rejects(fol.gv_variation, st_c, f3.random_form1(g, 2, rng)),
                                 note="a non-tangent variation must be rejected")]


@_unit("godbillon-vey", "gv-xi-unit-generator", "gv-xi-zero-generator", "gv-xi-tangency",
       "gv-xi-closure-condition")
def _gv_xi_generators(cfg, fx):
    """Degeneracy fields; keeps the unit generator and three random ones."""
    g, rng, st_c = fx["g"], fx["rng"], _kept(fx["state2"])
    xg_unit = fol.xi_generator(st_c, f3.Form0(g, np.ones(g.shape)))
    two_da = 2.0 * f3.d(st_c.alpha)
    checks = [_check("gv-xi-unit-generator",
                     float(np.abs(xg_unit.v.data - two_da.data).max())
                     / max(1.0, two_da.linf()), 1e-12),
              _check("gv-xi-zero-generator",
                     fol.xi_generator(st_c, f3.Form0(g, np.zeros(g.shape))).v.linf(), 0.0)]
    gens = fx["gens"] = [xg_unit] + [
        fol.xi_generator(st_c, f3.random_form0(g, 2, rng, rms=0.5)) for _ in range(3)]
    return checks + [
        _check("gv-xi-tangency", [x.residuals["tangency"] for x in gens], 1e-9),
        _check("gv-xi-closure-condition", [x.residuals["condon"] for x in gens], 1e-9)]


@_unit("godbillon-vey", "gv-degeneracy-pairing", "gv-bracket-degeneracy",
       "gv-bracket-degeneracy-gate")
def _gv_degeneracy(cfg, fx):
    """<alpha_dot, V> vanishes over five rescalings and five diffeomorphisms
    alpha_dot; <alpha, [A, V]> vanishes for degeneracy fields A, other A are refused."""
    g, rng, st_c = fx["g"], fx["rng"], _kept(fx["state2"])
    pairing_gap = []
    for i in range(10):
        adot = (f3.scale_by(f3.random_form0(g, 2, rng, rms=0.3), st_c.alpha) if i < 5
                else f3.generator(st_c.alpha, f3.random_divfree_field(g, 2, rng, rms=0.3)))
        for xg in fx["gens"]:
            pairing_gap.append(abs(pairing(adot, xg.v)) / max(1.0, adot.l2() * xg.v.l2()))
    bracket_gap = []
    for _ in range(10):
        a_field = fol.xi_generator(st_c, f3.random_form0(g, 2, rng, rms=0.5)).v
        v_field = f3.random_vector_field(g, 3, rng)
        val = abs(fol.bracket_degeneracy_check(st_c, a_field, v_field))
        bracket_gap.append(val / max(1.0, st_c.alpha.l2() * a_field.l2() * v_field.l2()))
    return [_check("gv-degeneracy-pairing", pairing_gap, 1e-9),
            _check("gv-bracket-degeneracy", bracket_gap, 1e-8),
            _gate_check("gv-bracket-degeneracy-gate",
                        _rejects(fol.bracket_degeneracy_check, st_c,
                                 f3.random_vector_field(g, 2, rng),
                                 f3.random_vector_field(g, 2, rng)),
                        note="fields failing the membership gates must be rejected")]


@_unit("godbillon-vey", "gv-restricted-bracket-antisymmetry", "gv-restricted-bracket-xi-shift",
       "gv-restricted-bracket-divfree-consistency")
def _gv_restricted_bracket(cfg, fx):
    """The restricted bracket <alpha, [u, v]> on representatives: antisymmetric
    and invariant under a degeneracy shift, so well defined on cosets.  For
    divergence-free u, v, [u, v] = -curl(u x v), so
    <alpha, [u, v]> = -int curl(alpha) . (u x v) = -int d(alpha) ^ (u x v)."""
    g, rng, alpha = fx["g"], fx["rng"], _kept(fx["state2"]).alpha
    u1 = f3.random_vector_field(g, 3, rng)
    v1 = f3.random_vector_field(g, 3, rng)
    b_uv = lie_poisson_bracket(alpha, u1, v1)
    b_vu = lie_poisson_bracket(alpha, v1, u1)
    b_shift = lie_poisson_bracket(alpha, f3.VectorField(g, u1.data + fx.pop("gens")[1].v.data),
                                  v1)
    scale = max(1.0, abs(b_uv))
    u_div = f3.random_divfree_field(g, 3, rng)
    v_div = f3.random_divfree_field(g, 3, rng)
    u_x_v = f3.Form1(g, np.cross(u_div.data, v_div.data, axis=0))
    return [_check("gv-restricted-bracket-antisymmetry",
                   [abs(lie_poisson_bracket(alpha, u1, u1)) / scale, abs(b_uv + b_vu) / scale],
                   1e-13),
            _check("gv-restricted-bracket-xi-shift", abs(b_shift - b_uv) / scale, 1e-8),
            _check("gv-restricted-bracket-divfree-consistency",
                   abs(lie_poisson_bracket(alpha, u_div, v_div)
                       + f3.integrate3(f3.wedge(f3.d(alpha), u_x_v))), 1e-10)]


@_unit("godbillon-vey", "gv-transport-casimir-drift", "gv-transport-nondivfree-drift")
def _gv_transport_drift(cfg, fx):
    """GV as a transport (restricted Casimir) invariant."""
    g, rng, st_c = fx["g"], fx["rng"], _kept(fx.pop("state2"))

    def drift_check(name, fields):
        rep = fol.gv_casimir_suite(st_c, fields, t=0.2)
        return _check(name, [r["drift"] for r in rep["records"]],
                      1e-6 * (1.0 + abs(rep["gv_initial"])),
                      degraded=[r["field"] for r in rep["records"] if r["degraded"]])
    return [drift_check("gv-transport-casimir-drift",
                        (f3.random_divfree_field(g, 1 + (i % 2), rng, rms=0.08)
                         for i in range(5))),
            drift_check("gv-transport-nondivfree-drift",
                        (f3.random_vector_field(g, 1, rng, rms=0.05) for _ in range(1)))]


@_unit("godbillon-vey", "gv-nonzero-example-gap")
def _gv_nonzero_example_gap(cfg, fx):
    return [_gate_check(
        "gv-nonzero-example-gap", True, informational=True,
        note="no grid-representable integrable form with numerically resolvable "
             "nonzero GV is included; the identity chain is validated at GV = 0")]


def _unit_records(name: str, cfg: SuiteConfig):
    """Yield the records of each of suite ``name``'s check units (every suite's
    for "all", on fresh fixtures per suite); any library refusal, a
    CasimirLabError, fails its unit's checks."""
    for suite in SUITES if name == "all" else [name]:
        fx = _Fixtures()
        for unit in SUITES[suite]:
            try:
                yield unit(cfg, fx)
            except CasimirLabError as exc:
                yield [_gate_check(check, False, note=str(exc)) for check in unit.checks]


def run_suite(name: str, cfg: SuiteConfig | None = None) -> dict:
    """Run one suite (or "all"), each on its own fixtures, and assemble the report."""
    cfg = cfg or SuiteConfig()
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    checks = [check for records in _unit_records(name, cfg) for check in records]
    return {
        "library": "casimir-lab",
        "version": __version__,
        "suite": name,
        "grid": cfg.grid_n,
        "seed": cfg.seed,
        "h": cfg.rattleback_h,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
        "failed_checks": [c["check"] for c in checks if not c["pass"]],
    }


def report_json(doc: dict) -> str:
    """Sorted, indented JSON; a document holding NaN or Infinity raises."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN and Infinity are not JSON
        raise CasimirLabError("the result holds NaN or Infinity, which JSON "
                              "cannot hold") from None
