"""The rfftn-coefficient evolutions of euler_evolve (RK4) and transport (the
propagator exp(-t L_u)) against physical-space oracles: a plain RK4 loop
over dealiased euler_rhs/generator, and the energy/helicity functionals
evaluated on the grid."""

import numpy as np
import pytest

from casimir_lab import forms3 as f3
from casimir_lab.errors import BlowUpError, InvalidParameterError
from casimir_lab.fluid import FluidState, energy, euler_evolve, euler_rhs, helicity

DT, STEPS = 1e-3, 10


def _rk4_physical(rhs, a, dt, n_steps):
    for _ in range(n_steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * dt * k1)
        k3 = rhs(a + 0.5 * dt * k2)
        k4 = rhs(a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.fixture()
def alpha(grid32, rng, beltrami):
    return f3.Form1(grid32, f3.random_form1(grid32, 4, rng, rms=0.3).data + 0.5 * beltrami.data)


class TestEulerSpectralState:
    def test_matches_physical_rk4(self, grid32, alpha):
        g = grid32

        def rhs(a):
            return f3.dealias(euler_rhs(FluidState(f3.Form1(g, a))).data, g)

        expect = _rk4_physical(rhs, f3.dealias(alpha.data, g), DT, STEPS)
        fin, _ = euler_evolve(FluidState(alpha), dt=DT, t_final=STEPS * DT)
        assert _rel(fin.alpha.data, expect) <= 1e-12

    def test_parseval_diagnostics_match_oracles(self, grid32, alpha):
        start = f3.Form1(grid32, f3.dealias(alpha.data, grid32))
        fin, diag = euler_evolve(FluidState(alpha), dt=DT, t_final=STEPS * DT)
        assert len(diag.times) == STEPS + 1
        assert diag.times[-1] == STEPS * DT
        for i, state in ((0, start), (-1, fin.alpha)):
            assert diag.energies[i] == pytest.approx(energy(state), rel=1e-12, abs=0)
            assert diag.helicities[i] == pytest.approx(helicity(state), rel=1e-12, abs=0)

    def test_blowup_at_unstable_dt(self, grid16, rng):
        a = f3.random_form1(grid16, 3, rng, rms=5.0)
        with pytest.raises(BlowUpError) as info:
            euler_evolve(FluidState(a), dt=5.0, t_final=1e3)
        assert 0.0 < info.value.time < 1e3


class TestTransportSpectralState:
    def test_matches_physical_rk4(self, grid16, rng):
        # the propagator against small-dt RK4 on the dealiased generator;
        # modes beyond the 2/3 cutoff are carried, untouched by the increments
        g = grid16
        alpha = f3.random_form1(g, 4, rng, rms=0.3) + f3.random_form1(g, g.n // 2, rng, rms=1e-3)
        u = f3.random_divfree_field(g, 3, rng, rms=0.3)
        u_dealiased = f3.VectorField(g, f3.dealias(u.data, g))

        def rhs(a):
            return f3.dealias(f3.generator(f3.Form1(g, a), u_dealiased).data, g)

        expect = _rk4_physical(rhs, alpha.data, 5e-4, 40)
        out = f3.transport(alpha, u, 0.02, 0.02)
        assert _rel(out.data, expect) <= 1e-10
        high = ~g.dealias_mask_r
        spec = f3.rfft3(alpha.data)
        assert _rel(f3.rfft3(out.data)[:, high], spec[:, high]) <= 1e-12

    def test_zero_time_is_identity(self, grid32, alpha, rng):
        u = f3.random_divfree_field(grid32, 3, rng, rms=0.3)
        out = f3.transport(alpha, u, 0.0, DT)
        assert np.array_equal(out.data, alpha.data)
        assert out.data is not alpha.data


def _euler(a, dt, t_final):
    return euler_evolve(FluidState(a), dt=dt, t_final=t_final)


def _transport(a, dt, t_final):
    return f3.transport(a, f3.constant_field(a.grid, 60.0, 0, 0), t_final, dt)


@pytest.mark.parametrize("evolve", [_euler, _transport], ids=["euler", "transport"])
def test_shared_step_rule(evolve, grid16, rng):
    a = f3.random_form1(grid16, 3, rng, rms=5.0)
    for dt, t_final in ((0.0, 1.0), (-1e-3, 1.0), (1e-3, -1.0), (1e-3, np.inf), (1e-3, np.nan)):
        with pytest.raises(InvalidParameterError):
            evolve(a, dt, t_final)


class TestSpectralMultipliers:
    def test_curl_and_grad_match_d(self, grid32, rng):
        # full band, so the Nyquist modes d drops are present
        g = grid32
        alpha = f3.random_form1(g, g.n // 2, rng)
        spec = f3.rfft3(alpha.data)
        assert _rel(f3.irfft3(f3.curl_r(spec, g), g), f3.d(alpha).data) <= 1e-13
        f = f3.random_form0(g, g.n // 2, rng)
        grad = f3.irfft3(f3.grad_r(f3.rfft3(f.data), g), g)
        assert _rel(grad, f3.d(f).data) <= 1e-13

    def test_leray_is_divergence_free_projection(self, grid32, rng):
        v = f3.random_vector_field(grid32, 5, rng) + f3.constant_field(grid32, 0.7, -0.2, 0.1)
        p = f3.leray_project(v)
        assert f3.divergence(p).linf() <= 1e-11 * v.linf()
        assert (f3.leray_project(p) - p).linf() <= 1e-13 * v.linf()
        np.testing.assert_allclose(p.data.mean(axis=(1, 2, 3)), v.data.mean(axis=(1, 2, 3)),
                                   atol=1e-14)

    def test_mean_dot_is_grid_mean(self, grid32, rng):
        a = f3.random_vector_field(grid32, 16, rng).data
        b = f3.random_vector_field(grid32, 16, rng).data
        got = f3.mean_dot_r(f3.rfft3(a), f3.rfft3(b), grid32)
        assert got == pytest.approx(float(np.mean(np.sum(a * b, axis=0))), rel=1e-12)
