import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from casimir_lab import foliation as fol
from casimir_lab import verify
from casimir_lab import forms3 as f3
from casimir_lab.forms3 import calculus
from casimir_lab.errors import InconsistencyError, PreconditionError
from casimir_lab.fluid import helicity, lie_poisson_bracket, pairing


def graph_state(grid, profile, scale=None, **kw):
    return fol.FoliatedState.from_alpha(
        fol.graph_foliation_form(grid, profile, scale), **kw)


class TestIntegrability:
    def test_graph_profiles(self, grid32, rng):
        _, _, z = grid32.meshes
        for amp in (0.1, 0.3, 0.8):
            a = f3.Form0(grid32, amp * np.sin(2 * np.pi * z))
            rel = fol.check_integrability(fol.graph_foliation_form(grid32, a))
            assert rel <= 1e-12
            assert rel <= fol.INTEGRABILITY_TOL

    def test_closed_nonvanishing_form(self, grid32):
        beta = fol.graph_foliation_form(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        # d(beta) = 0, so the residual is the absolute one, exactly zero
        assert fol.check_integrability(beta) == 0.0

    def test_contact_form_flagged(self, grid32, beltrami):
        rel = fol.check_integrability(beltrami)
        assert not rel <= fol.INTEGRABILITY_TOL
        # alpha ^ d(alpha) = 2*pi*mu against |alpha| = 1, |d alpha| = 2*pi
        assert rel == pytest.approx(1.0, rel=1e-10)

    def test_vanishing_form_rejected(self, grid32):
        _, _, z = grid32.meshes
        sine = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        with pytest.raises(PreconditionError, match="vanishes"):
            fol.FoliatedState.from_alpha(sine)

    def test_non_integrable_rejected(self, beltrami):
        with pytest.raises(PreconditionError, match="not integrable"):
            fol.FoliatedState.from_alpha(beltrami)

    def test_from_alpha_takes_d_alpha_once_for_the_chain(self, foliated_state, monkeypatch):
        # d(alpha), d(eta), d(gamma) at 6 derivative components each and
        # d(chi) at 3; the Frobenius test and helicity reuse the chain's
        # d(alpha).  A call may take several components at once.
        components = []
        derivative = calculus.spectral_derivative

        def counted(data, grid, axis):
            components.append(data.shape[0] if data.ndim == 4 else 1)
            return derivative(data, grid, axis)

        monkeypatch.setattr(calculus, "spectral_derivative", counted)
        fol.FoliatedState.from_alpha(foliated_state.alpha)
        assert sum(components) == 21

    def test_check_integrability_matches_the_chain(self, foliated_state, beltrami):
        for alpha in (foliated_state.alpha, beltrami):
            res = fol.FoliatedState.from_alpha(alpha, strict=False).residuals
            assert fol.check_integrability(alpha) == res["integrability"]


class TestMembershipGate:
    def test_accepted_state_passes(self, foliated_state):
        assert fol.gate_failure(foliated_state.residuals) is None

    def test_lenient_solve_names_the_failure(self, beltrami):
        st = fol.FoliatedState.from_alpha(beltrami, strict=False)
        failure = fol.gate_failure(st.residuals)
        assert isinstance(failure, PreconditionError)
        assert "not integrable" in str(failure)
        with pytest.raises(PreconditionError, match="not integrable"):
            fol.FoliatedState.from_alpha(beltrami)

    def test_xi_generator_on_a_lenient_solve_fails_its_gate(self, beltrami):
        # the contact form's leaves do not exist: nu = d(alpha) + d(alpha) is
        # not leaf tangent, so the degeneracy gate refuses it
        st = fol.FoliatedState.from_alpha(beltrami, strict=False)
        with pytest.raises(InconsistencyError, match="field fails degeneracy gates: tangency "):
            fol.xi_generator(st, f3.Form0(beltrami.grid, np.ones(beltrami.grid.shape)))

    def test_defining_identity_failure(self, foliated_state):
        res = {**foliated_state.residuals, "gamma_defining": 1e-6}
        failure = fol.gate_failure(res)
        assert isinstance(failure, InconsistencyError)
        assert "gamma_defining" in str(failure)

    def test_a_refusal_leaves_no_reference_cycle(self, beltrami):
        # a frame holding the exception it raised, or a caller holding a
        # named failure, would keep the solve's arrays alive until the
        # cyclic collector runs
        def refuse():
            return verify._rejects(fol.FoliatedState.from_alpha, beltrami)

        def name_failure():
            state = fol.FoliatedState.from_alpha(beltrami, strict=False)
            failure = fol.gate_failure(state.residuals)
            return "not integrable" in str(failure)

        for probe in (refuse, name_failure):
            assert probe()  # warm-up
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert all(probe() for _ in range(3))
                kept = tracemalloc.get_traced_memory()[0] - before
                assert gc.collect() == 0
            finally:
                tracemalloc.stop()
                gc.enable()
            assert kept < 0.5 * 2 ** 20, kept / 2 ** 20


class TestNanFailsEveryGate:
    """NaN compares False with everything, so a gate written as
    ``residual > tol`` would let it through."""

    @pytest.mark.parametrize("key", ["min_abs_alpha", "integrability", "eta_defining",
                                     "gamma_defining", "gamma_certificate"])
    def test_membership_gate(self, foliated_state, key):
        assert fol.gate_failure({**foliated_state.residuals, key: np.nan}) is not None

    def test_overflowing_profile_is_refused(self):
        # the chain of 1e300 sin(2 pi z) dx + dz overflows: eta_defining is NaN
        g = f3.Grid(8)
        profile = f3.Form0(g, 1e300 * np.sin(2 * np.pi * g.meshes[2]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InconsistencyError, match="eta_defining residual nan"):
                fol.FoliatedState.from_alpha(fol.graph_foliation_form(g, profile))

    def test_overflowing_profile_warns_nothing(self):
        # the chain runs under np.errstate, so a library caller sees only the
        # gate's error, not numpy's overflow warnings ahead of it
        g = f3.Grid(8)
        x, y, z = (2 * np.pi * c for c in g.meshes)
        profile = f3.Form0(g, 1e300 * np.sin(z))
        alpha = fol.graph_foliation_form(g, profile)
        # plus a small ABC flow, which is not integrable: alpha ^ d(alpha) overflows
        abc = f3.Form1(g, alpha.data + 1e-3 * np.stack([np.sin(z) + np.cos(y),
                                                         np.sin(x) + np.cos(z),
                                                         np.sin(y) + np.cos(x)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fol.check_integrability(alpha) <= fol.INTEGRABILITY_TOL
            assert not fol.check_integrability(abc) <= fol.INTEGRABILITY_TOL
            with pytest.raises(InconsistencyError, match="eta_defining residual nan"):
                fol.FoliatedState.from_alpha(alpha)
            with pytest.raises(PreconditionError, match="not integrable"):
                fol.FoliatedState.from_alpha(abc)

    def test_chi_and_variation_and_degeneracy_gates(self, foliated_state):
        st = foliated_state
        nan = f3.Form1(st.grid, np.full_like(st.alpha.data, np.nan))
        with np.errstate(invalid="ignore"):
            with pytest.raises(PreconditionError, match="integrable stratum"):
                fol.gv_variation(st, nan)
            with pytest.raises(PreconditionError, match="degeneracy gates"):
                fol.bracket_degeneracy_check(st, f3.VectorField(st.grid, nan.data),
                                             f3.zero_field(st.grid))


class TestEtaSolver:
    def test_matches_hand_formula(self, grid32, graph_profile):
        a = graph_profile.data
        ap = f3.spectral_derivative(a, grid32, 2)
        st = graph_state(grid32, graph_profile)
        expect = np.zeros((3,) + grid32.shape)
        expect[0] = ap / (1 + a ** 2)
        expect[2] = -a * ap / (1 + a ** 2)
        assert np.abs(st.eta.data - expect).max() <= 1e-11

    def test_defining_residual(self, foliated_state):
        assert foliated_state.residuals["eta_defining"] <= 1e-9

    def test_closed_form_gives_zero(self, grid32):
        st = graph_state(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        assert st.eta.linf() == 0.0

    def test_rescaled_form_still_solves(self, grid32, graph_profile):
        x, y, _ = grid32.meshes
        scale = f3.Form0(grid32, np.exp(0.1 * np.sin(2 * np.pi * (x + y))))
        st = graph_state(grid32, graph_profile, scale)
        assert st.residuals["eta_defining"] <= 1e-10

    def test_reference_field_normalization(self, foliated_state):
        assert foliated_state.residuals["x_ref_normalization"] <= 1e-10


class TestGammaSolver:
    def test_hand_gauge_satisfies_chain(self, grid32, graph_profile):
        # with eta = a' dx the compatible gamma is a'' dx
        beta = fol.graph_foliation_form(grid32, graph_profile)
        ap = f3.spectral_derivative(graph_profile.data, grid32, 2)
        app = f3.spectral_derivative(ap, grid32, 2)
        eta = f3.Form1(grid32, np.stack([ap, 0 * ap, 0 * ap]))
        gamma = f3.Form1(grid32, np.stack([app, 0 * app, 0 * app]))
        res = (f3.d(eta) - f3.wedge(beta, gamma)).l2()
        assert res <= 1e-10 * max(f3.d(eta).l2(), 1.0)

    def test_solver_residuals(self, foliated_state):
        assert foliated_state.residuals["gamma_defining"] <= 1e-9
        assert foliated_state.residuals["gamma_certificate"] <= 1e-10

    def test_zero_eta_gives_zero_gamma(self, grid32):
        st = graph_state(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        assert st.gamma.linf() == 0.0


class TestGodbillonVey:
    def test_graph_family_zero(self, grid32):
        _, _, z = grid32.meshes
        prof = f3.Form0(grid32, 0.3 * np.sin(2 * np.pi * z) + 0.1 * np.cos(4 * np.pi * z))
        st = graph_state(grid32, prof)
        assert abs(fol.godbillon_vey(st)) <= 1e-10

    def test_scaling_invariance(self, grid32):
        _, _, z = grid32.meshes
        x, y, _ = grid32.meshes
        prof = f3.Form0(grid32, 0.3 * np.sin(2 * np.pi * z) + 0.1 * np.cos(4 * np.pi * z))
        st = graph_state(grid32, prof)
        scale = f3.Form0(grid32, np.exp(0.2 * np.sin(2 * np.pi * (x + y))))
        st2 = graph_state(grid32, prof, scale, strict=False)
        assert abs(fol.godbillon_vey(st2) - fol.godbillon_vey(st)) <= 1e-9

    def test_gauge_invariance(self, foliated_state, rng):
        gv0 = fol.godbillon_vey(foliated_state)
        g = foliated_state.grid
        for _ in range(5):
            f_g = f3.random_form0(g, 2, rng, rms=0.3)
            g_g = f3.random_form0(g, 2, rng, rms=0.3)
            shifted = fol.gauge_shift(foliated_state, f_g, g_g)
            assert abs(fol.godbillon_vey(shifted) - gv0) <= 1e-9 * (1 + abs(gv0))

    def test_spec_amplitudes_resolve_at_n48(self):
        g = f3.Grid(48)
        x, y, z = g.meshes
        prof = f3.Form0(g, 0.3 * np.sin(2 * np.pi * z) + 0.1 * np.cos(4 * np.pi * z))
        scale = f3.Form0(g, np.exp(0.2 * np.sin(2 * np.pi * (x + y))))
        st = graph_state(g, prof, scale)
        assert st.residuals["eta_defining"] <= 1e-9
        assert st.residuals["gamma_defining"] <= 1e-9
        assert st.residuals["chi_tangency"] <= 1e-8
        assert st.residuals["chi_closure"] <= 1e-8
        assert abs(fol.godbillon_vey(st)) <= 1e-9

    def test_cached_gv_is_the_chain_integral(self, foliated_state, rng):
        g = foliated_state.grid
        shifted = fol.gauge_shift(foliated_state, f3.random_form0(g, 2, rng, rms=0.3),
                                  f3.random_form0(g, 2, rng, rms=0.3))
        u = f3.random_divfree_field(g, 4, rng, rms=0.5)
        transported = fol.FoliatedState.from_alpha(
            f3.transport(foliated_state.alpha, u, 0.2, 0.2), strict=False)
        for st in (foliated_state, shifted, transported):
            assert st.gv == f3.integrate3(f3.wedge(st.eta, f3.d(st.eta)))
            assert fol.godbillon_vey(st) == st.gv


class TestGaugeShift:
    def test_identity_shift(self, foliated_state):
        g = foliated_state.grid
        zero = f3.Form0(g, np.zeros(g.shape))
        out = fol.gauge_shift(foliated_state, zero, zero)
        assert np.array_equal(out.eta.data, foliated_state.eta.data)
        assert np.array_equal(out.chi.data, foliated_state.chi.data)

    def test_defining_residuals_preserved(self, foliated_state, rng):
        g = foliated_state.grid
        f_g = f3.random_form0(g, 2, rng, rms=0.5)
        g_g = f3.random_form0(g, 2, rng, rms=0.5)
        out = fol.gauge_shift(foliated_state, f_g, g_g)
        assert out.residuals["eta_defining"] <= 1e-9
        assert out.residuals["gamma_defining"] <= 1e-9

    def test_pure_g_chi_shift_formula(self, foliated_state, rng):
        g = foliated_state.grid
        zero = f3.Form0(g, np.zeros(g.shape))
        g_g = f3.random_form0(g, 2, rng, rms=0.5)
        out = fol.gauge_shift(foliated_state, zero, g_g)
        predicted = fol.chi_shift_expected(foliated_state, zero, g_g)
        err = (out.chi - foliated_state.chi - predicted).linf()
        assert err <= 1e-10 * max(1.0, predicted.linf())

    def test_combined_chi_shift_effective_gauge(self, foliated_state, rng):
        # with f active the shift realizes q = g - f^2/2 in the family formula
        g = foliated_state.grid
        f_g = f3.random_form0(g, 2, rng, rms=0.5)
        g_g = f3.random_form0(g, 2, rng, rms=0.5)
        out = fol.gauge_shift(foliated_state, f_g, g_g)
        predicted = fol.chi_shift_expected(foliated_state, f_g, g_g)
        err = (out.chi - foliated_state.chi - predicted).linf()
        assert err <= 1e-8 * max(1.0, predicted.linf())
        naive = fol.chi_shift_expected(foliated_state, zero_like(f_g), g_g)
        assert (predicted - naive).linf() > 1e-3  # the f^2/2 term matters


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


class TestInPlaceChain:
    """chi, the chain's residuals, the gauge-shifted eta and gamma and the
    degeneracy field, which are formed in place, against the same
    expressions in form arithmetic, bit for bit."""

    @pytest.fixture()
    def shifted(self, foliated_state, rng):
        g = foliated_state.grid
        f, h = (f3.random_form0(g, 2, rng, rms=0.5) for _ in range(2))
        return f, h, fol.gauge_shift(foliated_state, f, h)

    def test_solve_chi(self, foliated_state, shifted):
        for st in (foliated_state, shifted[2]):
            alpha, eta, gamma = st.alpha, st.eta, st.gamma
            da, deta = f3.d(alpha), f3.d(eta)
            *_, chi, gv, res = fol._solve_chain(alpha, lambda _: eta, lambda _: gamma)
            assert gv == f3.integrate3(f3.wedge(eta, deta))
            want = 2.0 * (f3.wedge(eta, gamma) - f3.d(gamma))
            assert np.array_equal(_bits(chi.data), _bits(want.data))
            dchi = f3.d(want)
            assert res["eta_defining"] == ((da - f3.wedge(alpha, eta)).l2()
                                           / max(da.l2(), 1e-30))
            assert res["gamma_defining"] == ((deta - f3.wedge(alpha, gamma)).l2()
                                             / max(deta.l2(), 1e-30))
            assert res["chi_closure"] == ((dchi - f3.wedge(eta, want)).l2()
                                          / max(dchi.l2(), eta.l2() * want.l2(), 1e-30))
            assert res["eta_defining"] > 0.0 and res["chi_closure"] > 0.0

    def test_gauge_shift(self, foliated_state, shifted):
        st, (f, h, out) = foliated_state, shifted
        eta = st.eta + f3.scale_by(f, st.alpha)
        gamma = st.gamma + f3.scale_by(f, st.eta) - f3.d(f) + f3.scale_by(h, st.alpha)
        assert np.array_equal(_bits(out.eta.data), _bits(eta.data))
        assert np.array_equal(_bits(out.gamma.data), _bits(gamma.data))
        *_, chi, gv, chain = fol._solve_chain(st.alpha, lambda _: eta, lambda _: gamma)
        assert np.array_equal(_bits(out.chi.data), _bits(chi.data))
        assert out.gv == gv
        assert out.residuals == {**st.residuals, **chain}

    def test_xi_generator(self, foliated_state, rng):
        st, g = foliated_state, foliated_state.grid
        f = f3.random_form0(g, 2, rng, rms=0.5)
        xg = fol.xi_generator(st, f)
        nu = f3.scale_by(f, f3.d(st.alpha)) + f3.d(f3.scale_by(f, st.alpha))
        assert np.array_equal(_bits(xg.v.data), _bits(nu.data))
        tangency = f3.Form0(g, np.sum(st.alpha.data * nu.data, axis=0)).l2() / max(
            st.alpha.l2() * xg.v.l2(), 1e-30)
        dnu = f3.d(nu)
        closure = (dnu - f3.wedge(st.eta, nu)).l2() / max(
            dnu.l2(), st.eta.l2() * nu.l2(), 1e-30)
        assert xg.residuals == {"tangency": tangency, "condon": closure}
        assert tangency > 0.0 and closure > 0.0


# The chain solve as it was before each term was freed after its last
# reader, kept verbatim as the reference for the lean solve: every term held
# to the end of the solve, chi and its residuals formed from all of them.
d, wedge, interior, integrate3 = f3.d, f3.wedge, f3.interior, f3.integrate3
Form1, Form2 = f3.Form1, f3.Form2


def _frobenius_in_order(alpha, da, alpha_sq):
    res = wedge(alpha, da).l2()
    scale = alpha.l2() * da.l2()
    rel = res / scale if scale > 0 else res
    return {
        "residual": res,
        "relative_residual": rel,
        "min_abs": float(np.sqrt(alpha_sq.min())),
        "integrable": rel <= fol.INTEGRABILITY_TOL,
    }


def _solve_chi_in_order(alpha, da, eta, deta, gamma):
    chi = wedge(eta, gamma).data
    chi -= d(gamma).data
    chi *= 2.0
    chi = Form2(alpha.grid, chi)
    dchi = d(chi)
    alpha_l2, deta_l2, chi_l2 = alpha.l2(), deta.l2(), chi.l2()
    return chi, {
        "eta_defining": fol._gap(da, wedge(alpha, eta)) / max(da.l2(), 1e-30),
        "gamma_defining": fol._gap(deta, wedge(alpha, gamma)) / max(deta_l2, 1e-30),
        "gamma_certificate": wedge(alpha, deta).l2()
                             / max(alpha_l2 * deta_l2, 1e-30),
        "chi_tangency": wedge(alpha, chi).l2() / max(alpha_l2 * chi_l2, 1e-30),
        "chi_closure": fol._gap(dchi, wedge(eta, chi))
                       / max(dchi.l2(), eta.l2() * chi_l2, 1e-30),
    }


def _from_alpha_in_order(alpha):
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_sq = fol._abs_sq(alpha)
        x = fol._reference_field(alpha, alpha_sq)
        da = d(alpha)
        frobenius = _frobenius_in_order(alpha, da, alpha_sq)
        del alpha_sq  # not held through the chain solve, whose peak sets RSS
        eta = interior(x, da)
        deta = d(eta)
        gamma = interior(x, deta)
        chi, chain = _solve_chi_in_order(alpha, da, eta, deta, gamma)
        gv = integrate3(wedge(eta, deta))
        res = {
            "integrability": frobenius["relative_residual"],
            "min_abs_alpha": frobenius["min_abs"],
            **chain,
            "x_ref_normalization": float(np.abs(interior(x, alpha).data - 1.0).max()),
            "helicity": abs(helicity(alpha, da)),
        }
    return eta, gamma, chi, gv, res


def _gauge_shift_in_order(state, f, g):
    alpha = state.alpha
    eta = f.data * alpha.data
    eta += state.eta.data
    gamma = f.data * state.eta.data
    gamma += state.gamma.data
    gamma -= d(f).data
    gamma += g.data * alpha.data
    eta, gamma = Form1(state.grid, eta), Form1(state.grid, gamma)
    deta = d(eta)
    chi, chain = _solve_chi_in_order(alpha, d(alpha), eta, deta, gamma)
    res = {**state.residuals, **chain}
    return eta, gamma, chi, integrate3(wedge(eta, deta)), res


def _scaled_graph_form(n, seed=1729):
    g = f3.Grid(n)
    rng = np.random.default_rng(seed)
    z = g.meshes[2]
    profile = f3.Form0(g, 0.15 * np.sin(2 * np.pi * z) + 0.03 * np.cos(4 * np.pi * z))
    scale = f3.Form0(g, np.exp(f3.random_scalar_array(g, 2, rng, rms=0.05)))
    return fol.graph_foliation_form(g, profile, scale)


def _overflowing_form():
    g = f3.Grid(8)
    return fol.graph_foliation_form(g, f3.Form0(g, 1e300 * np.sin(2 * np.pi * g.meshes[2])))


class TestLeanChain:
    """from_alpha and gauge_shift free each chain term after its last reader;
    every array, GV and residual is the in-order solve's, bit for bit."""

    @staticmethod
    def assert_same(state, eta, gamma, chi, gv, res):
        for got, want in ((state.eta, eta), (state.gamma, gamma), (state.chi, chi)):
            assert np.array_equal(_bits(got.data), _bits(want.data))
        assert _bits(np.array([state.gv])) == _bits(np.array([gv]))
        assert list(state.residuals) == list(res)
        assert np.array_equal(_bits(np.array(list(state.residuals.values()))),
                              _bits(np.array(list(res.values()))))

    @pytest.mark.parametrize("alpha, gates", [
        pytest.param(lambda: _scaled_graph_form(32), True, id="n32"),
        pytest.param(lambda: _scaled_graph_form(16), False, id="n16"),
        pytest.param(_overflowing_form, False, id="overflow"),
    ])
    def test_matches_the_in_order_solve(self, alpha, gates):
        alpha = alpha()
        st = fol.FoliatedState.from_alpha(alpha, strict=False)
        assert (fol.gate_failure(st.residuals) is None) == gates
        self.assert_same(st, *_from_alpha_in_order(alpha))
        rng = np.random.default_rng(5)
        f, h = (f3.random_form0(alpha.grid, 1, rng, rms=0.1) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = fol.gauge_shift(st, f, h)
            want = _gauge_shift_in_order(st, f, h)
        self.assert_same(shifted, *want)

    def test_working_set(self, foliated_state, rng):
        # at n = 32 a solve peaks 4.0 MiB above its input, output included;
        # with every term held to its end 6.25 MiB (gauge_shift 5.5)
        st = foliated_state
        f, h = (f3.random_form0(st.grid, 1, rng, rms=0.1) for _ in range(2))
        for solve in (lambda: fol.FoliatedState.from_alpha(st.alpha),
                      lambda: fol.gauge_shift(st, f, h)):
            solve()  # warm-up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                solve()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 4.5 * 2 ** 20, peak / 2 ** 20


def zero_like(form):
    return f3.Form0(form.grid, np.zeros(form.grid.shape))


class TestChi:
    def test_identities(self, foliated_state):
        assert foliated_state.residuals["chi_tangency"] <= 1e-8
        assert foliated_state.residuals["chi_closure"] <= 1e-8

    def test_hand_gauge_chi(self, grid32, graph_profile):
        # eta = a' dx, gamma = a'' dx gives chi = -2 a''' dz^dx
        a = graph_profile.data
        d3a = a
        for _ in range(3):
            d3a = f3.spectral_derivative(d3a, grid32, 2)
        beta = fol.graph_foliation_form(grid32, graph_profile)
        ap = f3.spectral_derivative(a, grid32, 2)
        app = f3.spectral_derivative(ap, grid32, 2)
        eta = f3.Form1(grid32, np.stack([ap, 0 * a, 0 * a]))
        gamma = f3.Form1(grid32, np.stack([app, 0 * a, 0 * a]))
        *_, chi, _, _ = fol._solve_chain(beta, lambda _: eta, lambda _: gamma)
        expect = np.zeros((3,) + grid32.shape)
        expect[1] = -2.0 * d3a
        assert np.abs(chi.data - expect).max() <= 1e-9

    def test_closed_form_zero_chi(self, grid32):
        st = graph_state(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        assert st.chi.linf() == 0.0


class TestVariation:
    def test_profile_deformation(self, grid32, graph_profile):
        st = graph_state(grid32, graph_profile)
        _, _, z = grid32.meshes
        da = f3.Form0(grid32, 0.1 * np.sin(4 * np.pi * z))
        adot = f3.Form1(grid32, np.stack([da.data, 0 * da.data, 0 * da.data]))
        eps = 1e-4
        pred = fol.gv_variation(st, adot)
        gv_p = fol.godbillon_vey(graph_state(grid32, graph_profile + eps * da))
        gv_m = fol.godbillon_vey(graph_state(grid32, graph_profile + (-eps) * da))
        fd = (gv_p - gv_m) / (2 * eps)
        assert abs(fd - pred) <= 1e-8

    def test_rescaling_direction(self, foliated_state, rng):
        g = foliated_state.grid
        g_fun = f3.random_form0(g, 2, rng, rms=0.3)
        adot = f3.scale_by(g_fun, foliated_state.alpha)
        pred = fol.gv_variation(foliated_state, adot)
        assert abs(pred) <= 1e-8

    def test_nontangent_rejected(self, foliated_state, rng):
        bad = f3.random_form1(foliated_state.grid, 2, rng)
        with pytest.raises(PreconditionError, match="integrable stratum"):
            fol.gv_variation(foliated_state, bad)


class TestXiGenerators:
    def test_zero_function(self, foliated_state):
        g = foliated_state.grid
        xg = fol.xi_generator(foliated_state, f3.Form0(g, np.zeros(g.shape)))
        assert xg.v.linf() == 0.0

    def test_unit_function_doubles_vorticity_flux(self, foliated_state):
        g = foliated_state.grid
        xg = fol.xi_generator(foliated_state, f3.Form0(g, np.ones(g.shape)))
        expect = 2.0 * f3.d(foliated_state.alpha)
        assert np.abs(xg.v.data - expect.data).max() <= 1e-12 * max(1.0, expect.linf())

    def test_membership_gates(self, foliated_state, rng):
        g = foliated_state.grid
        for _ in range(3):
            xg = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5))
            assert xg.residuals["tangency"] <= 1e-9
            assert xg.residuals["condon"] <= 1e-9

    def test_degeneracy_pairing(self, foliated_state, rng):
        g = foliated_state.grid
        xg = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5))
        for _ in range(5):
            g_fun = f3.random_form0(g, 2, rng, rms=0.3)
            adot = f3.scale_by(g_fun, foliated_state.alpha)
            val = abs(pairing(adot, xg.v))
            assert val <= 1e-9 * max(1.0, adot.l2() * xg.v.l2())


class TestRestrictedBracket:
    """<alpha, [u, v]>, the Lie-Poisson bracket, on the foliated state."""

    def test_diagonal_exactly_zero(self, foliated_state, rng):
        u = f3.random_vector_field(foliated_state.grid, 3, rng)
        assert lie_poisson_bracket(foliated_state.alpha, u, u) == 0.0

    def test_antisymmetry(self, foliated_state, rng):
        g = foliated_state.grid
        u = f3.random_vector_field(g, 3, rng)
        v = f3.random_vector_field(g, 3, rng)
        buv = lie_poisson_bracket(foliated_state.alpha, u, v)
        bvu = lie_poisson_bracket(foliated_state.alpha, v, u)
        assert abs(buv + bvu) <= 1e-13 * max(1.0, abs(buv))

    def test_xi_shift_invariance(self, foliated_state, rng):
        g = foliated_state.grid
        u = f3.random_vector_field(g, 3, rng)
        v = f3.random_vector_field(g, 3, rng)
        xg = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5))
        b0 = lie_poisson_bracket(foliated_state.alpha, u, v)
        b1 = lie_poisson_bracket(foliated_state.alpha,
                                 f3.VectorField(g, u.data + xg.v.data), v)
        assert abs(b1 - b0) <= 1e-8 * max(1.0, abs(b0))

    def test_divfree_matches_curl_oracle(self, foliated_state, rng):
        # [u, v] = -curl(u x v) for divergence-free u, v, so the bracket is
        # -int d(alpha) ^ (u x v), with the cross product taken by numpy
        g = foliated_state.grid
        u = f3.random_divfree_field(g, 3, rng)
        v = f3.random_divfree_field(g, 3, rng)
        u_x_v = f3.Form1(g, np.cross(u.data, v.data, axis=0))
        oracle = -f3.integrate3(f3.wedge(f3.d(foliated_state.alpha), u_x_v))
        b = lie_poisson_bracket(foliated_state.alpha, u, v)
        assert abs(b) > 1e-3 and b == pytest.approx(oracle, abs=1e-10)

    def test_shower_identity(self, foliated_state, rng):
        g = foliated_state.grid
        a = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5)).v
        v = f3.random_vector_field(g, 3, rng)
        val = abs(fol.bracket_degeneracy_check(foliated_state, a, v))
        scale = max(1.0, foliated_state.alpha.l2() * a.l2() * v.l2())
        assert val <= 1e-8 * scale

    def test_xi_generators_pass_the_bracket_gate(self, foliated_state, rng):
        # f = 1 gives nu = 2 d(alpha), whose d(nu) is roundoff against zero
        g = foliated_state.grid
        v = f3.random_vector_field(g, 3, rng)
        for f in (f3.Form0(g, np.ones(g.shape)), f3.random_form0(g, 2, rng, rms=0.5)):
            a = fol.xi_generator(foliated_state, f).v
            fol.bracket_degeneracy_check(foliated_state, a, v)

    def test_shower_gate(self, foliated_state, rng):
        g = foliated_state.grid
        with pytest.raises(PreconditionError, match="degeneracy gates"):
            fol.bracket_degeneracy_check(foliated_state,
                                         f3.random_vector_field(g, 2, rng),
                                         f3.random_vector_field(g, 2, rng))


class TestTransportSuite:
    def test_single_field_drift(self, foliated_state, rng):
        u = f3.random_divfree_field(foliated_state.grid, 1, rng, rms=0.1)
        rep = fol.gv_casimir_suite(foliated_state, [u], t=0.1)
        assert rep["records"][0]["drift"] <= 1e-6

    def test_zero_field_no_drift(self, foliated_state):
        rep = fol.gv_casimir_suite(foliated_state, [f3.zero_field(foliated_state.grid)],
                                   t=0.1)
        assert rep["records"][0]["drift"] == 0.0

    def test_violent_field_reports_degraded(self, foliated_state, rng):
        u = f3.random_divfree_field(foliated_state.grid, 4, rng, rms=0.5)
        rep = fol.gv_casimir_suite(foliated_state, [u], t=0.2)
        assert "not integrable" in rep["records"][0]["degraded"]
        assert "integrability" in rep["records"][0]["residuals"]

    def test_one_solve_per_field(self, foliated_state, rng, monkeypatch):
        g = foliated_state.grid
        fields = [f3.random_divfree_field(g, 4, rng, rms=0.5), f3.zero_field(g)]
        calls = []
        solve = fol.FoliatedState.from_alpha

        def counted(alpha, **kw):
            calls.append(kw)
            return solve(alpha, **kw)

        monkeypatch.setattr(fol.FoliatedState, "from_alpha", counted)
        rep = fol.gv_casimir_suite(foliated_state, fields, t=0.2)
        assert [bool(r["degraded"]) for r in rep["records"]] == [True, False]
        assert len(calls) == len(fields)


def test_helicity_hierarchy(foliated_state):
    assert abs(helicity(foliated_state.alpha)) <= 1e-11
    assert foliated_state.residuals["helicity"] <= 1e-11


# 64 ulps: the level the chain's worst residuals settle at from n = 40 up
ROUNDOFF_FLOOR = 64 * np.finfo(float).eps


def test_chain_residuals_converge_spectrally():
    # grid refinement as an oracle for the residuals truncation limits at
    # n = 32: the random fields draw the same normals at every n, so the
    # verify suite's chain pool is one family, whose worst residuals must
    # fall 100x per step of 8 until they reach roundoff
    from casimir_lab import verify

    worst = []
    for n in (24, 32, 40):
        g = f3.Grid(n)
        a_prof = verify._canonical_profile(g, verify.PROFILE_MAIN)
        rng = np.random.default_rng(verify.DEFAULT_SEED + 4)  # the suite's stream
        _, family, shifted = verify._chain_pool(
            g, a_prof, fol.graph_foliation_form(g, a_prof), rng)
        worst.append({key: max(res[key] for res, _ in family + shifted)
                      for key in ("gamma_defining", "chi_tangency", "chi_closure")})
    for coarse, fine in zip(worst, worst[1:]):
        for key, value in fine.items():
            assert value <= max(coarse[key] / 100.0, ROUNDOFF_FLOOR), (key, worst)
