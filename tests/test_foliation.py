import warnings

import numpy as np
import pytest

from casimir_lab import foliation as fol
from casimir_lab import forms3 as f3
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
            rep = fol.check_integrability(fol.graph_foliation_form(grid32, a))
            assert rep["relative_residual"] <= 1e-12
            assert rep["integrable"]

    def test_closed_nonvanishing_form(self, grid32):
        beta = fol.graph_foliation_form(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        rep = fol.check_integrability(beta)
        assert rep["residual"] == 0.0

    def test_contact_form_flagged(self, grid32, beltrami):
        rep = fol.check_integrability(beltrami)
        assert not rep["integrable"]
        # alpha ^ d(alpha) = 2*pi*mu against |alpha| = 1, |d alpha| = 2*pi
        assert rep["relative_residual"] == pytest.approx(1.0, rel=1e-10)

    def test_vanishing_form_rejected(self, grid32):
        _, _, z = grid32.meshes
        sine = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        with pytest.raises(PreconditionError, match="vanishes"):
            fol.solve_eta(sine)

    def test_non_integrable_rejected(self, beltrami):
        with pytest.raises(PreconditionError, match="not integrable"):
            fol.solve_eta(beltrami)


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

    def test_defining_identity_failure(self, foliated_state):
        res = {**foliated_state.residuals, "gamma_defining": 1e-6}
        failure = fol.gate_failure(res)
        assert isinstance(failure, InconsistencyError)
        assert "gamma_defining" in str(failure)


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
            assert fol.check_integrability(alpha)["integrable"]
            assert not fol.check_integrability(abc)["integrable"]
            with pytest.raises(InconsistencyError, match="eta_defining residual nan"):
                fol.FoliatedState.from_alpha(alpha)
            with pytest.raises(PreconditionError, match="not integrable"):
                fol.FoliatedState.from_alpha(abc)

    def test_chi_and_variation_and_degeneracy_gates(self, foliated_state):
        st = foliated_state
        nan = f3.Form1(st.grid, np.full_like(st.alpha.data, np.nan))
        with np.errstate(invalid="ignore"):
            with pytest.raises(InconsistencyError, match="chi identities"):
                fol.chi_from(st.alpha, nan, st.gamma)
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


def zero_like(form):
    return f3.Form0(form.grid, np.zeros(form.grid.shape))


class TestChi:
    def test_identities(self, foliated_state):
        assert foliated_state.residuals["chi_tangency"] <= 1e-8
        assert foliated_state.residuals["chi_closure"] <= 1e-8

    def test_chi_from_verifies(self, foliated_state):
        chi = fol.chi_from(foliated_state.alpha, foliated_state.eta,
                           foliated_state.gamma)
        assert np.array_equal(chi.data, foliated_state.chi.data)

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
        chi = fol.chi_from(beta, eta, gamma)
        expect = np.zeros((3,) + grid32.shape)
        expect[1] = -2.0 * d3a
        assert np.abs(chi.data - expect).max() <= 1e-9

    def test_closed_form_zero_chi(self, grid32):
        st = graph_state(grid32, f3.Form0(grid32, np.full(grid32.shape, 0.7)))
        assert st.chi.linf() == 0.0

    def test_inconsistent_inputs_rejected(self, grid32, foliated_state, rng):
        bogus = f3.random_form1(grid32, 3, rng)
        with pytest.raises(InconsistencyError):
            fol.chi_from(foliated_state.alpha, bogus, foliated_state.gamma)


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
            assert val <= 1e-9 * max(1.0, adot.l2() * fol.v_l2(xg.v))


class TestRestrictedBracket:
    def test_diagonal_exactly_zero(self, foliated_state, rng):
        u = f3.random_vector_field(foliated_state.grid, 3, rng)
        assert fol.restricted_bracket(foliated_state, u, u) == 0.0

    def test_antisymmetry(self, foliated_state, rng):
        g = foliated_state.grid
        u = f3.random_vector_field(g, 3, rng)
        v = f3.random_vector_field(g, 3, rng)
        buv = fol.restricted_bracket(foliated_state, u, v)
        bvu = fol.restricted_bracket(foliated_state, v, u)
        assert abs(buv + bvu) <= 1e-13 * max(1.0, abs(buv))

    def test_xi_shift_invariance(self, foliated_state, rng):
        g = foliated_state.grid
        u = f3.random_vector_field(g, 3, rng)
        v = f3.random_vector_field(g, 3, rng)
        xg = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5))
        b0 = fol.restricted_bracket(foliated_state, u, v)
        b1 = fol.restricted_bracket(foliated_state,
                                    f3.VectorField(g, u.data + xg.v.data), v)
        assert abs(b1 - b0) <= 1e-8 * max(1.0, abs(b0))

    def test_reduces_to_lie_poisson_on_divfree(self, foliated_state, rng):
        g = foliated_state.grid
        u = f3.random_divfree_field(g, 3, rng)
        v = f3.random_divfree_field(g, 3, rng)
        assert fol.restricted_bracket(foliated_state, u, v) == pytest.approx(
            lie_poisson_bracket(foliated_state.alpha, u, v), abs=1e-10)

    def test_shower_identity(self, foliated_state, rng):
        g = foliated_state.grid
        a = fol.xi_generator(foliated_state, f3.random_form0(g, 2, rng, rms=0.5)).v
        v = f3.random_vector_field(g, 3, rng)
        val = abs(fol.bracket_degeneracy_check(foliated_state, a, v))
        scale = max(1.0, foliated_state.alpha.l2() * fol.v_l2(a) * fol.v_l2(v))
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
