"""The coefficient evolutions of euler_evolve (RK4) and transport (the
propagator exp(-t L_u)), both on the 2/3-rule box, against physical-space
oracles: a plain RK4 loop over dealiased euler_rhs/generator, and the
energy/helicity functionals evaluated on the grid.  The box transforms,
multipliers and ``dealias`` against full-layout counterparts masked by a
2/3 rule built here from np.fft.fftfreq."""

import warnings

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


def _mask(g):
    """The 2/3 rule on the full rfftn layout: max |k_i| <= n//3."""
    k = np.abs(np.fft.fftfreq(g.n, d=1.0 / g.n))
    kz = np.arange(g.n // 2 + 1)
    kmax = np.maximum(np.maximum(k[:, None, None], k[None, :, None]), kz[None, None, :])
    return kmax <= g.n // 3


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

    def test_overflowing_initial_state_blows_up_at_zero(self):
        g = f3.Grid(8)
        z = g.meshes[2]
        a = f3.Form1(g, np.stack([1e308 * np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as info:
                euler_evolve(FluidState(a), dt=1e-3, t_final=0.01)
        assert info.value.time == 0.0

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
        high = ~_mask(g)
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


BOX_N = (4, 6, 8, 10, 32, 34)


def _restrict(full, g):
    """The 2/3-rule box's entries of a full rfftn-layout stack."""
    i = g.box.index
    return full[..., i[:, None], i, :g.box.keep + 1]


def _zero_fill(box, g):
    full = np.zeros(box.shape[:-3] + (g.n, g.n, g.n // 2 + 1), complex)
    i = g.box.index
    full[..., i[:, None], i, :g.box.keep + 1] = box
    return full


@pytest.mark.parametrize("n", BOX_N)
class TestBox:
    """The pruned transforms run the same 1-D passes as rfftn/irfftn and skip
    only lines of zeros, and the box multipliers are the full ones restricted,
    so all of these are bit-identical except the Parseval sum's order."""

    def test_layout(self, n):
        g = f3.Grid(n)
        m = n // 3
        assert g.box.shape == (2 * m + 1, 2 * m + 1, m + 1)
        kx, ky, kz = g.box.k_r
        assert np.array_equal(kx.ravel(), np.r_[0:m + 1, -m:0])
        assert np.array_equal(ky.ravel(), kx.ravel())
        assert np.array_equal(kz.ravel(), np.arange(m + 1))
        mask = _mask(g)
        assert np.array_equal(_zero_fill(np.ones((3, *g.box.shape)), g) != 0,
                              np.broadcast_to(mask, (3, *mask.shape)))

    def test_transforms_match_full_layout(self, n, rng):
        g = f3.Grid(n)
        work = {}
        for lead in ((3,), (3,), ()):  # reused buffers, then a new shape
            data = rng.standard_normal(lead + g.shape)
            box = f3.rfft3_box(data, g, work)
            assert np.array_equal(_zero_fill(box, g), f3.rfft3(data) * _mask(g))
            assert np.array_equal(f3.irfft3_box(box, g, work),
                                  f3.irfft3(_zero_fill(box, g), g))
        assert np.array_equal(f3.rfft3_box(data, g), box)

    def test_shared_work_keeps_its_buffers(self, n, rng):
        # scalar and 3-stack transforms through one work dict, as in transport's
        # right-hand side: neither replaces the other's buffers
        g = f3.Grid(n)
        work = {}
        fields = (rng.standard_normal((3,) + g.shape), rng.standard_normal(g.shape))
        for data in fields:
            f3.irfft3_box(f3.rfft3_box(data, g, work), g, work)
        first = dict(work)
        for data in fields + fields:
            box = f3.rfft3_box(data, g, work)
            assert np.array_equal(box, f3.rfft3_box(data, g))
            assert np.array_equal(f3.irfft3_box(box, g, work), f3.irfft3_box(box, g))
        assert work.keys() == first.keys()
        assert all(work[key] is buf for key, buf in first.items())

    def test_multipliers_match_full_layout(self, n, rng):
        g = f3.Grid(n)
        a, b = (f3.rfft3(rng.standard_normal((3,) + g.shape)) * _mask(g)
                for _ in range(2))
        for op in (f3.curl_r, f3.leray_r):
            assert np.array_equal(op(_restrict(a, g), g.box), _restrict(op(a, g), g))
        f = f3.rfft3(rng.standard_normal(g.shape)) * _mask(g)
        assert np.array_equal(f3.grad_r(_restrict(f, g), g.box), _restrict(f3.grad_r(f, g), g))
        # relative to |x| |y|, the scale of a dot product's roundoff (x . y may cancel)
        for x, y in ((a, b), (a, f3.leray_r(a, g)), (a, f3.curl_r(a, g))):
            scale = np.sqrt(f3.mean_dot_r(x, x, g) * f3.mean_dot_r(y, y, g))
            got = f3.mean_dot_r(_restrict(x, g), _restrict(y, g), g.box)
            assert abs(got - f3.mean_dot_r(x, y, g)) <= 1e-15 * scale


@pytest.mark.parametrize("n", range(4, 66, 2))
def test_dealias_is_the_masked_full_layout_filter(n, rng):
    # the box round trip against the 2/3 mask on the full layout, bit for bit
    g = f3.Grid(n)
    for lead in ((), (3,)):
        data = rng.standard_normal(lead + g.shape)
        assert np.array_equal(f3.dealias(data, g), f3.irfft3(f3.rfft3(data) * _mask(g), g))
