import numpy as np
import pytest

from casimir_lab import fluid, foliation
from casimir_lab import forms3 as f3
from casimir_lab.errors import InvalidParameterError, PreconditionError
from casimir_lab.fluid import (
    FluidState,
    coadjoint,
    EULER_DT,
    energy,
    euler_dt,
    euler_evolve,
    euler_rhs,
    helicity,
    helicity_density_check,
    helicity_gradient_check,
    lie_poisson_bracket,
    pairing,
    velocity_of,
)
from casimir_lab.foliation import graph_foliation_form, subalgebra_orthogonality


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_component(grid16, bad):
    data = np.zeros((3,) + grid16.shape)
    data[2, 1, 2, 3] = bad
    with pytest.raises(InvalidParameterError, match="fluid state must have finite components"):
        FluidState(f3.Form1(grid16, data))


class TestPairing:
    def test_basis(self, grid32):
        assert pairing(f3.coordinate_oneform(grid32, 0),
                       f3.constant_field(grid32, 1, 0, 0)) == 1.0

    def test_representative_independence(self, grid32, rng):
        dg = f3.d(f3.random_form0(grid32, 4, rng))
        u = f3.random_divfree_field(grid32, 4, rng)
        assert abs(pairing(dg, u)) <= 1e-12

    def test_analytic_half(self, grid32):
        _, _, z = grid32.meshes
        a = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        u = f3.VectorField(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        assert pairing(a, u) == pytest.approx(0.5, abs=1e-14)


class TestCoadjoint:
    def test_closed_form_maps_to_zero(self, grid32, rng):
        dg = f3.d(f3.random_form0(grid32, 4, rng))
        u = f3.random_vector_field(grid32, 4, rng)
        assert coadjoint(u, dg).linf() <= 1e-11 * u.linf()

    def test_adjunction_identity(self, grid32, rng):
        for _ in range(20):
            u = f3.random_divfree_field(grid32, 4, rng)
            v = f3.random_divfree_field(grid32, 4, rng)
            a = f3.random_form1(grid32, 4, rng)
            lhs = pairing(coadjoint(u, a), v)
            rhs = lie_poisson_bracket(a, u, v)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)

    def test_beltrami_self_contraction_exact_zero(self, grid32, beltrami):
        w = f3.vorticity_from(beltrami)
        assert coadjoint(w, beltrami).linf() <= 1e-12


class TestHelicity:
    def test_beltrami_value(self, beltrami):
        assert helicity(beltrami) == pytest.approx(2 * np.pi, abs=1e-10)

    def test_exact_form(self, grid32, rng):
        assert abs(helicity(f3.d(f3.random_form0(grid32, 4, rng)))) <= 1e-12

    def test_gauge_shift(self, grid32, rng, beltrami):
        dg = f3.d(f3.random_form0(grid32, 4, rng))
        assert abs(helicity(beltrami + dg) - helicity(beltrami)) <= 1e-11


class TestHelicityGradient:
    def test_gauge_direction(self, grid32, rng, beltrami):
        dg = f3.d(f3.random_form0(grid32, 4, rng))
        [(lhs, rhs)] = helicity_gradient_check(beltrami, [dg])
        assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10

    def test_gauge_directions_read_roundoff(self, grid32, rng, beltrami):
        # H is quadratic, so the centred difference is exact at any eps; at a
        # small eps it would read ulps of H divided by 2 eps instead
        directions = (f3.d(f3.random_form0(grid32, 4, rng)) for _ in range(20))
        for lhs, rhs in helicity_gradient_check(beltrami, directions):
            assert max(abs(lhs), abs(rhs)) <= 1e-13

    def test_euler_homogeneity(self, beltrami):
        [(lhs, rhs)] = helicity_gradient_check(beltrami, [beltrami])
        expect = 2 * helicity(beltrami)
        assert lhs == pytest.approx(expect, rel=1e-7)
        assert rhs == pytest.approx(expect, rel=1e-12)

    def test_alpha_is_differentiated_once(self, grid16, rng, monkeypatch):
        # one d(alpha) for every direction, and the two of H(alpha +- eps da)
        calls = []
        monkeypatch.setattr(fluid, "d", lambda form: calls.append(form) or f3.d(form))
        alpha = f3.random_form1(grid16, 2, rng)
        directions = [f3.random_form1(grid16, 2, rng) for _ in range(3)]
        assert len(helicity_gradient_check(alpha, directions)) == 3
        assert len(calls) == 1 + 2 * 3

    def test_random_directions(self, grid32, rng, beltrami):
        directions = (f3.random_form1(grid32, 4, rng) for _ in range(20))
        pairs = helicity_gradient_check(beltrami, directions)
        assert len(pairs) == 20
        assert max(abs(lhs - rhs) / max(abs(rhs), 1e-10) for lhs, rhs in pairs) <= 1e-6


class TestEuler:
    def test_beltrami_steady(self, beltrami):
        assert euler_rhs(FluidState(beltrami)).linf() <= 1e-10

    def test_pure_gauge_velocity_vanishes(self, grid32, rng):
        dg = f3.d(f3.random_form0(grid32, 4, rng))
        assert velocity_of(dg).linf() <= 1e-11 * dg.linf()
        rhs = euler_rhs(FluidState(dg))
        assert f3.leray_project(f3.sharp(rhs)).linf() <= 1e-10

    def test_shear_is_steady_modulo_gauge(self, grid32):
        _, _, z = grid32.meshes
        shear = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        rhs = euler_rhs(FluidState(shear))
        # the increment is exact: d(sin^2(2 pi z)/2)
        expect = f3.d(f3.Form0(grid32, 0.5 * np.sin(2 * np.pi * z) ** 2))
        assert (rhs - expect).linf() <= 1e-12
        assert f3.leray_project(f3.sharp(rhs)).linf() <= 1e-10

    def test_step_follows_the_cutoff(self):
        # EULER_DT exactly up to n = 32's cutoff K = 10, then shortened as 10/K
        for n in (4, 16, 30, 32):
            assert euler_dt(f3.Grid(n)) == EULER_DT
        for n, keep in ((34, 11), (48, 15), (64, 21), (256, 85)):
            assert f3.Grid(n).box.keep == keep
            assert euler_dt(f3.Grid(n)) == EULER_DT * (10 / keep)

    def test_beltrami_persists(self, beltrami):
        fin, _ = euler_evolve(FluidState(beltrami), dt=1e-2, t_final=0.05)
        assert (fin.alpha - beltrami).l2() / beltrami.l2() <= 1e-6

    def test_short_run_conservation(self, grid32, rng, beltrami):
        a = f3.Form1(grid32, f3.dealias(f3.random_form1(grid32, 3, rng, rms=0.3).data,
                                        grid32) + 0.5 * beltrami.data)
        h0, e0 = helicity(a), energy(a)
        _, diag = euler_evolve(FluidState(a), dt=1e-2, t_final=0.1)
        assert np.abs(diag.helicities - h0).max() / abs(h0) <= 1e-6
        assert np.abs(diag.energies - e0).max() / e0 <= 1e-6


class TestFoliatedAlignment:
    def test_orthogonality_sweep(self, grid32, rng, graph_profile):
        beta = graph_foliation_form(grid32, graph_profile)
        scale = f3.Form0(grid32, np.exp(f3.random_scalar_array(grid32, 1, rng, rms=0.1)))
        alpha = graph_foliation_form(grid32, graph_profile, scale)
        h_fns = [f3.random_form0(grid32, 4, rng) for _ in range(20)]
        for val, bound in subalgebra_orthogonality(alpha, beta, h_fns):
            assert abs(val) <= 1e-10 and bound > 0.0
        zero = f3.Form0(grid32, np.zeros(grid32.shape))
        one = f3.Form0(grid32, np.ones(grid32.shape))
        (at_zero, zero_bound), (at_one, _) = subalgebra_orthogonality(alpha, beta, [zero, one])
        assert at_zero == 0.0 and zero_bound == 0.0
        assert abs(at_one) <= 1e-11

    def test_orthogonality_checks_beta_once(self, grid32, graph_profile, rng, monkeypatch):
        # beta's gate forms d(beta) once, and each h its nu once; the bound
        # is |alpha| |nu|
        beta = graph_foliation_form(grid32, graph_profile)
        calls = []
        monkeypatch.setattr(foliation, "d", lambda form: calls.append(form) or f3.d(form))
        h_fns = [f3.random_form0(grid32, 2, rng) for _ in range(3)]
        pairs = subalgebra_orthogonality(beta, beta, h_fns)
        assert len(calls) == 1 + 3
        nu = f3.d(f3.scale_by(h_fns[-1], beta))
        assert pairs[-1][1] == beta.l2() * nu.l2()

    def test_orthogonality_requires_integrable_beta(self, grid32, beltrami, rng):
        h_fn = f3.random_form0(grid32, 3, rng)
        with pytest.raises(PreconditionError, match="not integrable"):
            subalgebra_orthogonality(beltrami, beltrami, [h_fn])

    def test_helicity_density(self, grid32, rng, graph_profile, beltrami):
        alpha = graph_foliation_form(grid32, graph_profile)
        assert helicity_density_check(alpha) <= 1e-12
        scale = f3.Form0(grid32, np.exp(0.1 * np.sin(2 * np.pi * grid32.meshes[1])))
        scaled = graph_foliation_form(grid32, graph_profile, scale)
        assert helicity_density_check(scaled) <= 1e-10
        # non-integrable control: ~2*pi everywhere
        assert helicity_density_check(beltrami) == pytest.approx(2 * np.pi, rel=1e-6)

    def test_vorticity_tangent_to_leaves(self, grid32, rng, graph_profile):
        scale = f3.Form0(grid32, np.exp(f3.random_scalar_array(grid32, 1, rng, rms=0.1)))
        alpha = graph_foliation_form(grid32, graph_profile, scale)
        w = f3.vorticity_from(alpha)
        assert f3.interior(w, alpha).linf() <= 1e-10 * max(1.0, alpha.linf() * w.linf())
