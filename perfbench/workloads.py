"""The four benchmark workloads, built from a seed and run through the
public entry points of casimir_lab.

A workload is a sequence of units.  Each unit returns ``(checks, record)``:
``checks`` is a list of ``(name, value, tolerance, passed)`` tuples and
``record`` a deterministic string of the unit's output, used to prove that
tracing changes no arithmetic.  A unit never raises: a failure is counted
as failed checks so timing goes on.

* euler       run_suite("lie-poisson") at n = 32
* transport   run_suite("godbillon-vey") at n = 32
* chain       one fresh scaled, gauge-shifted graph foliation per unit
* rattleback  run_suite("rattleback")
"""

from __future__ import annotations

import json
import traceback

import numpy as np

from casimir_lab import foliation as fol
from casimir_lab import forms3 as f3
from casimir_lab import rattleback as rb
from casimir_lab import verify
from casimir_lab.fluid import FluidState, energy, euler_rhs, helicity

GRID_N = 32

# Checks each suite report must hold.
EXPECTED_CHECKS = {"lie-poisson": 25, "godbillon-vey": 36, "rattleback": 15}

# The godbillon-vey suite's tolerances for the chain residuals.
CHAIN_TOL = {
    "eta_defining": 1e-9,
    "gamma_defining": 1e-9,
    "gamma_certificate": 1e-10,
    "chi_tangency": 1e-8,
    "chi_closure": 1e-8,
    "helicity": 1e-11,
}
SHIFTED_KEYS = ("eta_defining", "gamma_defining", "chi_tangency", "chi_closure")
XI_TOL = 1e-9
GV_SPREAD_TOL = 1e-9
VARIATION_TOL = 1e-6
CHAIN_CHECKS = len(CHAIN_TOL) + len(SHIFTED_KEYS) + 2 + 2 + 1


class SuiteWorkload:
    """Each unit is one ``verify.run_suite`` call on the seeded config."""

    def __init__(self, suite, seed):
        self.suite = suite
        self.cfg = verify.SuiteConfig(grid_n=GRID_N, seed=seed)

    def prepare(self, i):
        return None

    def run(self, prepared):
        expected = EXPECTED_CHECKS[self.suite]
        try:
            report = verify.run_suite(self.suite, self.cfg)
        except Exception:  # a unit that raises counts as all checks failed
            traceback.print_exc()
            return [(self.suite, None, None, False)] * expected, "raised"
        checks = [(c["check"], c["value"], c["tolerance"], c["pass"])
                  for c in report["checks"]]
        if not report["passed"] and all(c[3] for c in checks):
            checks.append(("report-passed", None, None, False))
        missing = expected - len(report["checks"])
        checks += [("missing-check", None, None, False)] * max(missing, 0)
        if missing < 0:
            checks.append(("unexpected-check-count", None, None, False))
        return checks, verify.report_json(report)


class EulerWorkload(SuiteWorkload):
    def __init__(self, seed):
        super().__init__("lie-poisson", seed)

    def warm(self):
        g = f3.Grid(GRID_N)
        rng = np.random.default_rng(self.cfg.seed)
        a = f3.random_form1(g, 3, rng, rms=0.3)
        euler_rhs(FluidState(a))
        energy(a)
        helicity(a)
        f3.dealias(a.data, g)
        f3.eval_at(f3.random_form0(g, 2, rng), (0.1, 0.2, 0.3))
        fol.graph_foliation_form(g, f3.Form0(g, np.zeros(g.shape)))


class TransportWorkload(SuiteWorkload):
    def __init__(self, seed):
        super().__init__("godbillon-vey", seed)

    def warm(self):
        g = f3.Grid(GRID_N)
        rng = np.random.default_rng(self.cfg.seed)
        _, _, z = g.meshes
        beta = fol.graph_foliation_form(g, f3.Form0(g, 0.15 * np.sin(2 * np.pi * z)))
        st = fol.FoliatedState.from_alpha(beta)
        u = f3.random_divfree_field(g, 1, rng, rms=0.08)
        f3.transport(st.alpha, u, 2e-3, 2e-3)
        fol.godbillon_vey(st)


class RattlebackWorkload(SuiteWorkload):
    def __init__(self, seed):
        super().__init__("rattleback", seed)

    def warm(self):
        rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), self.cfg.rattleback_h,
                     dt=1e-3, t_final=0.01)
        rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), self.cfg.rattleback_h,
                     dt=1e-3, t_final=0.01, method="rk45")


class ChainWorkload:
    """Unit i: a scaled graph foliation alpha = f (dz + a(z) dx) drawn from
    (seed, i), solved, gauge shifted, and put through GV, a degeneracy
    field and a rescaling variation.  Inputs are built by ``prepare``,
    outside the timed region.  Units count from 1 (member 0 warms up), so
    every timed unit sees a fresh alpha."""

    def __init__(self, seed):
        self.seed = seed
        self.grid = f3.Grid(GRID_N)

    def prepare(self, i):
        g = self.grid
        rng = np.random.default_rng([self.seed, i])
        _, _, z = g.meshes
        a1, a2 = rng.uniform(0.10, 0.15), rng.uniform(-0.02, 0.02)
        phase = rng.uniform(0.0, 1.0)
        profile = f3.Form0(g, a1 * np.sin(2 * np.pi * (z + phase))
                           + a2 * np.cos(4 * np.pi * (z + phase)))
        scale = f3.Form0(g, np.exp(f3.random_scalar_array(g, 2, rng, rms=0.05)))
        alpha = fol.graph_foliation_form(g, profile, scale)
        return {
            "alpha": alpha,
            "f": f3.random_form0(g, 1, rng, rms=0.1),
            "g": f3.random_form0(g, 1, rng, rms=0.1),
            "xi": f3.random_form0(g, 2, rng, rms=0.5),
            "adot": f3.scale_by(f3.random_form0(g, 2, rng, rms=0.3), alpha),
        }

    def warm(self):
        self.run(self.prepare(0))

    def run(self, m):
        try:
            st = fol.FoliatedState.from_alpha(m["alpha"])
            sh = fol.gauge_shift(st, m["f"], m["g"])
            gv, gv_shifted = fol.godbillon_vey(st), fol.godbillon_vey(sh)
            xg = fol.xi_generator(st, m["xi"])
            var = fol.gv_variation(st, m["adot"])
        except Exception:  # a unit that raises counts as all checks failed
            traceback.print_exc()
            return [("chain-member", None, None, False)] * CHAIN_CHECKS, "raised"
        checks = [(f"state-{k}", st.residuals[k], tol) for k, tol in CHAIN_TOL.items()]
        checks += [(f"shifted-{k}", sh.residuals[k], CHAIN_TOL[k]) for k in SHIFTED_KEYS]
        checks += [("xi-tangency", xg.residuals["tangency"], XI_TOL),
                   ("xi-closure", xg.residuals["condon"], XI_TOL)]
        spread_tol = GV_SPREAD_TOL * (1.0 + abs(gv))
        checks += [("gv-gauge-invariance", abs(gv_shifted - gv), spread_tol),
                   ("gv-graph-family-zero", abs(gv), spread_tol)]
        # GV is scaling invariant, so its derivative along adot = g alpha is zero
        scale = 1.0 + m["adot"].l2() * st.chi.l2()
        checks.append(("gv-variation-rescaling", abs(var) / scale, VARIATION_TOL))
        checks = [(n, float(v), t, bool(v <= t)) for n, v, t in checks]
        return checks, json.dumps([[n, repr(v)] for n, v, _, _ in checks])


WORKLOADS = {
    "euler": EulerWorkload,
    "transport": TransportWorkload,
    "chain": ChainWorkload,
    "rattleback": RattlebackWorkload,
}

# Units in one traced run: enough for stable per-layer numbers, fixed so
# every count repeats exactly.
TRACE_UNITS = {"euler": 1, "transport": 1, "chain": 32, "rattleback": 4}

# Spans that must fire on each workload; a wrapper that failed to rebind a
# name shows up here as a missing span.
REQUIRED_SPANS = {
    "euler": ("verify.run_suite", "fluid.euler_evolve", "fluid.euler_rhs", "fluid.energy",
              "fluid.helicity", "forms3.calculus.leray_project", "forms3.calculus.d",
              "forms3.grid.dealias", "forms3.grid.spectral_derivative"),
    "transport": ("verify.run_suite", "foliation.gv_casimir_suite",
                  "forms3.transport.transport", "forms3.calculus.lie_derivative",
                  "forms3.grid.dealias", "foliation.from_alpha", "foliation.gauge_shift",
                  "forms3.randfields.random_divfree_field"),
    "chain": ("foliation.from_alpha", "foliation.gauge_shift", "foliation.godbillon_vey",
              "foliation.xi_generator", "foliation.gv_variation", "forms3.calculus.wedge",
              "forms3.calculus.interior", "forms3.calculus.d", "fluid.helicity"),
    "rattleback": ("verify.run_suite", "rattleback.integrate", "kernels.rk4_loop",
                   "kernels.rk45_loop"),
}
