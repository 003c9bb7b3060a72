"""The coefficient evolutions of euler_evolve (RK4) and transport (the
propagator exp(-t L_u)), both on the 2/3-rule box, against physical-space
oracles: a plain RK4 loop over dealiased euler_rhs/generator, and the
energy/helicity functionals evaluated on the grid.  Euler's workspace
against a loop of fresh arrays written here, bit for bit.  The box
transforms, the Leray multiplier and ``dealias`` against full-layout
counterparts masked by a 2/3 rule built here from np.fft.fftfreq; curl,
grad and the Parseval mean against spectral derivatives and grid means."""

import tracemalloc
import warnings

import numpy as np
import pytest

from casimir_lab import fluid
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


# Python objects a call creates besides its arrays (array headers, shape
# tuples, slices): below one box scalar at n = 16, 11,616 bytes
OBJECT_SLACK = 4096


def _traced_peak(fn):
    """Peak of tracemalloc's traced memory during fn(), above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _old_leray(s, box):
    kx, ky, kz = box.k_r
    return s - box.leray_factor * (kx * s[0] + ky * s[1] + kz * s[2])


def _old_curl(s, box):
    ikx, iky, ikz = box.ik_r
    return np.stack([iky * s[2] - ikz * s[1], ikz * s[0] - ikx * s[2], ikx * s[1] - iky * s[0]])


def _old_cross(a, b):
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _unbuffered_euler(alpha, dt, t_final):
    """euler_evolve as a loop of fresh arrays: each multiplier and product
    written as one expression and the RK4 stages in their summation order."""
    g, box = alpha.grid, alpha.grid.box

    def rhs(s):
        return f3.rfft3_box(_old_cross(f3.irfft3_box(_old_leray(s, box), g),
                                       f3.irfft3_box(_old_curl(s, box), g)), g)

    def sample(t, a):
        times.append(t)
        energies.append(0.5 * f3.mean_dot_r(a, _old_leray(a, box), box))
        helicities.append(f3.mean_dot_r(a, _old_curl(a, box), box))

    times, energies, helicities = [], [], []
    a, t = f3.rfft3_box(alpha.data, g), 0.0
    sample(t, a)
    for _ in range(int(np.ceil(t_final / dt - 1e-12))):
        h = min(dt, t_final - t)
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * h * k1)
        stage = a + 0.5 * h * k2
        k2 *= 2.0
        k2 += k1
        k3 = rhs(stage)
        stage = a + h * k3
        k3 *= 2.0
        k2 += k3
        k2 += rhs(stage)
        k2 *= h / 6.0
        k2 += a
        a, t = k2, t + h
        sample(t, a)
    return f3.irfft3_box(a, g), (times, energies, helicities)


@pytest.mark.parametrize("n", (16, 32))
class TestEulerWorkspace:
    """One workspace per euler_evolve call: after the first call a
    right-hand side allocates only its result and an RK4 step nothing
    stack-sized, with every array bit for bit what fresh arrays give."""

    def test_warmed_rhs_allocates_only_its_result(self, n, rng):
        g = f3.Grid(n)
        m = g.box.keep
        s = f3.rfft3_box(f3.random_form1(g, 4, rng).data, g)
        assert s.nbytes == 3 * (2 * m + 1) ** 2 * (m + 1) * 16
        work = {}
        first = fluid._rhs(s, g, work)
        assert _traced_peak(lambda: fluid._rhs(s, g, work)) <= s.nbytes + OBJECT_SLACK
        assert np.array_equal(fluid._rhs(s, g, work), first)

    def test_warmed_rk4_step_allocates_no_stack(self, n, rng):
        # numpy may still buffer a broadcast multiply, at most one box scalar
        g = f3.Grid(n)
        a = f3.rfft3_box(f3.random_form1(g, 4, rng).data, g)
        work = {}

        def rhs(s, out):
            return fluid._rhs(s, g, work, out)

        bufs = [np.empty_like(a) for _ in range(3)]
        fluid._rk4_step(a, rhs, DT, *bufs)
        assert _traced_peak(lambda: fluid._rk4_step(a, rhs, DT, *bufs)) < a.nbytes

    def test_matches_unbuffered_loop(self, n, rng):
        g = f3.Grid(n)
        alpha = f3.random_form1(g, 4, rng, rms=0.5)
        fin, diag = euler_evolve(FluidState(alpha), dt=DT, t_final=STEPS * DT)
        values, (times, energies, helicities) = _unbuffered_euler(alpha, DT, STEPS * DT)
        assert np.array_equal(fin.alpha.data, values)
        assert np.array_equal(diag.times, times)
        assert np.array_equal(diag.energies, energies)
        assert np.array_equal(diag.helicities, helicities)

    def test_results_outlive_the_workspace(self, n, rng, monkeypatch):
        g = f3.Grid(n)
        seen = []  # every array a right-hand side reads or writes, and its work dict
        rhs = fluid._rhs

        def spy(s, grid, work, out=None):
            seen.append((s, out, work))
            return rhs(s, grid, work, out)

        monkeypatch.setattr(fluid, "_rhs", spy)

        def arrays(alpha):
            state, diag = euler_evolve(FluidState(alpha), dt=DT, t_final=3 * DT)
            return [state.alpha.data, diag.times, diag.energies, diag.helicities]

        alpha = f3.random_form1(g, 4, rng, rms=0.5)
        first = arrays(alpha)
        kept = [x.copy() for x in first]
        results = first + arrays(0.5 * alpha)
        assert all(np.array_equal(x, y) for x, y in zip(first, kept))
        buffers = [x for s, out, work in seen for x in (s, out, *work.values())]
        assert len({id(work) for _, _, work in seen}) == 2
        assert not any(np.shares_memory(x, b) for x in results for b in buffers)


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


def _box_values(rng, g, lead=(3,)):
    """Box coefficients of full-band noise and the grid values they stand for."""
    box = f3.rfft3_box(rng.standard_normal(lead + g.shape), g)
    return box, f3.irfft3_box(box, g)


def _grid_mean_dot(x, y):
    return float(np.mean(np.sum(x * y, axis=0)))


class TestSpectralMultipliers:
    def test_curl_and_grad_match_d(self, grid32, rng):
        # against spectral_derivative of the box's grid values
        g = grid32
        spec, values = _box_values(rng, g)
        curl = f3.irfft3_box(f3.curl_r(spec, g.box), g)
        assert _rel(curl, f3.d(f3.Form1(g, values)).data) <= 1e-13
        spec, values = _box_values(rng, g, ())
        grad = f3.irfft3_box(f3.grad_r(spec, g.box), g)
        assert _rel(grad, f3.d(f3.Form0(g, values)).data) <= 1e-13

    def test_leray_is_divergence_free_projection(self, grid32, rng):
        v = f3.random_vector_field(grid32, 5, rng) + f3.constant_field(grid32, 0.7, -0.2, 0.1)
        p = f3.leray_project(v)
        assert f3.divergence(p).linf() <= 1e-11 * v.linf()
        assert (f3.leray_project(p) - p).linf() <= 1e-13 * v.linf()
        np.testing.assert_allclose(p.data.mean(axis=(1, 2, 3)), v.data.mean(axis=(1, 2, 3)),
                                   atol=1e-14)

    def test_mean_dot_is_grid_mean(self, grid32, rng):
        (a, x), (b, y) = _box_values(rng, grid32), _box_values(rng, grid32)
        got = f3.mean_dot_r(a, b, grid32.box)
        assert got == pytest.approx(_grid_mean_dot(x, y), rel=1e-12)


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
    only lines of zeros, and the box Leray multiplier is the full one
    restricted, so these are bit-identical; curl, grad and the Parseval mean
    have grid-space oracles."""

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
        (a, a_values), (b, b_values) = _box_values(rng, g), _box_values(rng, g)
        assert np.array_equal(f3.leray_r(a, g.box),
                              _restrict(f3.leray_r(_zero_fill(a, g), g), g))
        # curl and grad against spectral_derivative of the grid values
        curl = f3.curl_r(a, g.box)
        assert _rel(f3.irfft3_box(curl, g), f3.d(f3.Form1(g, a_values)).data) <= 1e-13
        f, f_values = _box_values(rng, g, ())
        assert _rel(f3.irfft3_box(f3.grad_r(f, g.box), g),
                    f3.d(f3.Form0(g, f_values)).data) <= 1e-13
        # the Parseval mean against the grid mean, relative to |x| |y|, the
        # scale of a dot product's roundoff (x . y may cancel)
        for x, y in ((a, b), (a, f3.leray_r(a, g.box)), (a, curl)):
            xv, yv = f3.irfft3_box(x, g), f3.irfft3_box(y, g)
            scale = np.sqrt(_grid_mean_dot(xv, xv) * _grid_mean_dot(yv, yv))
            got = f3.mean_dot_r(x, y, g.box)
            assert abs(got - _grid_mean_dot(xv, yv)) <= 1e-15 * scale


@pytest.mark.parametrize("n", range(4, 66, 2))
def test_dealias_is_the_masked_full_layout_filter(n, rng):
    # the box round trip against the 2/3 mask on the full layout, bit for bit
    g = f3.Grid(n)
    for lead in ((), (3,)):
        data = rng.standard_normal(lead + g.shape)
        assert np.array_equal(f3.dealias(data, g), f3.irfft3(f3.rfft3(data) * _mask(g), g))
