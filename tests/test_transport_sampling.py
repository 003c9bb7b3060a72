import inspect
import sys
import time
import warnings

import numpy as np
import pytest

from casimir_lab import forms3 as f3
from casimir_lab.errors import BlowUpError, InvalidParameterError, PreconditionError
from casimir_lab.fluid import helicity, loop_integral


class TestTransport:
    def test_zero_generator_is_identity(self, grid32, rng):
        a = f3.random_form1(grid32, 4, rng)
        out = f3.transport(a, f3.zero_field(grid32), 1.0, 1e-2)
        assert np.array_equal(out.data, a.data)

    def test_translation_oracle(self, grid32):
        prof = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
        a = f3.one_form(grid32, lambda x, y, z: prof(x),
                        lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
        moved = f3.transport(a, f3.constant_field(grid32, 1, 0, 0), 0.125, 0.125)
        expect = f3.one_form(grid32, lambda x, y, z: prof(x - 0.125),
                             lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
        assert (moved - expect).linf() <= 1e-14

    def test_diagonal_translation_of_the_corner_mode(self, grid32):
        # u . k on the kept corner mode is 3x what max|u| alone would bound, and
        # h * |u . k| = 7.5 leaves the series unconverged in MAX_DEGREE terms
        prof = lambda x, y, z: np.sin(2 * np.pi * 10 * (x + y + z))
        zero = lambda x, y, z: 0 * x
        a = f3.one_form(grid32, prof, zero, zero)
        t = 0.12
        moved = f3.transport(a, f3.constant_field(grid32, 1, 1, 1), t, t)
        expect = f3.one_form(grid32, lambda x, y, z: prof(x - t, y - t, z - t), zero, zero)
        assert (moved - expect).linf() <= 1e-13

    def test_shear_pullback_oracle(self, grid32):
        # u = (f(z), 0, 0) flows by x -> x + t f(z), so alpha(t) is alpha pulled
        # back along Phi = (x - t f(z), y, z): a(Phi) dx + b(Phi) dy
        # + (c(Phi) - t f'(z) a(Phi)) dz.  The last term is the stretching
        # alpha_j d_i u^j, which a constant u never exercises; leaving it out
        # misses by 1.02, 0.061 and 1.02.  The errors, 7.4e-11, 4.9e-9 and
        # 7.4e-11, are the 2/3 rule's truncation of the exact solution, whose
        # z spectrum decays like J_k(2 pi A t).  f's bands 1, 3 and 1 (the last
        # also a translation) put the products on the grids M = 22, 24 and 22
        tau = 2 * np.pi
        a = lambda x, y, z: np.cos(tau * x) * (1 + 0.3 * np.sin(tau * (y + z)))
        b = lambda x, y, z: np.sin(tau * (x + 2 * y)) + 0.5 * np.cos(2 * tau * z)
        c = lambda x, y, z: 0.4 * np.cos(tau * (x - y)) + np.sin(3 * tau * z)
        _, _, z = grid32.meshes
        for mean, amp, band, t, bound in ((0.0, 0.5, 1, 0.25, 1e-9), (0.0, 0.5, 3, 0.005, 1e-8),
                                          (0.5, 0.5, 1, 0.25, 1e-9)):
            f = lambda z: mean + amp * np.sin(band * tau * z)
            df = lambda z: amp * band * tau * np.cos(band * tau * z)
            u = f3.VectorField(grid32, np.stack([f(z), 0 * z, 0 * z]))
            moved = f3.transport(f3.one_form(grid32, a, b, c), u, t, t)
            expect = f3.one_form(
                grid32, lambda x, y, z: a(x - t * f(z), y, z),
                lambda x, y, z: b(x - t * f(z), y, z),
                lambda x, y, z: c(x - t * f(z), y, z) - t * df(z) * a(x - t * f(z), y, z))
            assert (moved - expect).linf() <= bound, (mean, amp, band, t)

    def test_unconverged_series_is_refused(self, grid32, monkeypatch):
        # with one Taylor term no substep converges: halving runs into MAX_SUBSTEPS
        mod = sys.modules["casimir_lab.forms3.transport"]
        monkeypatch.setattr(mod, "MAX_DEGREE", 1)
        x, _, _ = grid32.meshes
        a = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * x)] * 3))
        with pytest.raises(InvalidParameterError, match="did not converge"):
            f3.transport(a, f3.constant_field(grid32, 1.0, 0, 0), 0.1, 0.1)

    def test_helicity_invariance(self, grid32, rng, beltrami):
        a = f3.Form1(grid32, f3.dealias(f3.random_form1(grid32, 3, rng, rms=0.5).data,
                                        grid32) + beltrami.data)
        u = f3.random_divfree_field(grid32, 3, rng, rms=0.3)
        h0 = helicity(a)
        out = f3.transport(a, u, 0.25, 0.25)
        assert abs(helicity(out) - h0) / abs(h0) <= 1e-6

    def test_blowup_detection(self, grid32, rng):
        a = f3.random_form1(grid32, 3, rng)
        u = f3.random_divfree_field(grid32, 2, rng, rms=0.3)
        bad = a.data.copy()
        bad[1, 3, 4, 5] = np.nan
        with pytest.raises(BlowUpError) as info:
            f3.transport(f3.Form1(grid32, bad), u, 0.1, 0.1)
        assert 0.0 < info.value.time <= 0.1
        with pytest.raises(BlowUpError):
            f3.transport(a, f3.VectorField(grid32, np.full_like(u.data, np.nan)), 0.1, 0.1)

    def test_substep_bound(self, grid32):
        # 2 pi (n//3) * 60 * 40 / 8 = 18850 substeps: refused before any transform
        x, y, z = grid32.meshes
        a = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * x)] * 3))
        t0 = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="MAX_SUBSTEPS"):
            f3.transport(a, f3.constant_field(grid32, 60.0, 0, 0), 40.0, 40.0)
        with pytest.raises(InvalidParameterError, match="MAX_SUBSTEPS"):
            f3.transport(a, f3.constant_field(grid32, 1e-3, 0, 0), 1.0, 0.9e-4)
        # diagonal u: 2 pi (n//3) * (20 + 20 + 20) * 25 / 8 = 11781 substeps
        corner = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * 10 * (x + y + z))] * 3))
        with pytest.raises(InvalidParameterError, match="^transport needs"):
            f3.transport(corner, f3.constant_field(grid32, 20.0, 20.0, 20.0), 25.0, 25.0)
        assert time.perf_counter() - t0 < 1.0

    def test_substep_length_does_not_change_the_flow(self, grid32, rng):
        a = f3.random_form1(grid32, 4, rng)
        u = f3.random_divfree_field(grid32, 2, rng, rms=0.3)
        whole = f3.transport(a, u, 0.2, 0.2)
        split = f3.transport(a, u, 0.2, 0.2 / 7)
        assert (whole - split).linf() <= 1e-13 * a.linf()

    def test_call_shape(self, grid32, rng):
        # positional (alpha, u, t_final, dt), with t_final and dt bound by name
        bound = inspect.signature(f3.transport).bind(
            f3.random_form1(grid32, 1, rng), f3.zero_field(grid32), 2e-3, 2e-3)
        assert list(bound.arguments) == ["alpha", "u", "t_final", "dt"]


def _band_field(g, band):
    """(1 + sin 2 pi B z, cos 2 pi B x, 0): divergence-free, of bandwidth B."""
    x, _, z = g.meshes
    return f3.VectorField(g, np.stack([1 + np.sin(2 * np.pi * band * z),
                                       np.cos(2 * np.pi * band * x), 0 * x]))


def _spy_transforms(monkeypatch):
    """The (n, keep) of every box transform transport makes, in a list."""
    mod = sys.modules["casimir_lab.forms3.transport"]
    boxes = []
    for name in ("rfft3_cs", "irfft3_cs"):
        def spy(data, box, real=getattr(mod, name)):
            boxes.append((box.n, box.keep))
            return real(data, box)
        monkeypatch.setattr(mod, name, spy)
    return boxes


def _product(a_hat, u_hat, box, n):
    """transport's right-hand side, the cs coefficients of u x curl(a) - grad(u . a),
    formed on ``box``'s grid from coefficients of the n-grid."""
    mod = sys.modules["casimir_lab.forms3.transport"]
    u = f3.irfft3_cs(u_hat, box) * (box.n / n) ** 3
    return mod._rhs(f3.irfft3_cs(a_hat, box), f3.irfft3_cs(f3.curl_cs(a_hat, box), box),
                    u, box, box)


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("n", (16, 32, 48))
class TestProductGrid:
    """With alpha on the box K and u of bandwidth B, the Taylor terms'
    products run on the M = 2K + B + 1 grid: the smallest on which the
    product's modes, |k| <= K + B, alias nothing into the box."""

    def test_products_run_on_the_smallest_alias_free_grid(self, n, monkeypatch):
        g = f3.Grid(n)
        k = g.box.keep
        a = f3.random_form1(g, k, np.random.default_rng(n))
        boxes = _spy_transforms(monkeypatch)
        for band in range(k + 1):
            boxes.clear()
            f3.transport(a, _band_field(g, band), 1e-3, 1e-3)
            m = 2 * k + band + 1
            assert m <= n
            assert set(boxes) == {(n, k), (m, k)}

    def test_one_point_fewer_aliases(self, n):
        # the product on M equals the n-grid's, which 3K < n makes alias-free;
        # on M - 1 mode K + B folds onto -K, and with B = 0 the box would hold
        # the Nyquist mode
        g = f3.Grid(n)
        box, k = g.box, g.box.keep
        a_hat = f3.rfft3_cs(f3.random_form1(g, k, np.random.default_rng(n)).data, box)
        for band in range(k + 1):
            u_hat = f3.rfft3_cs(_band_field(g, band).data, box)
            exact = _product(a_hat, u_hat, box, n)
            assert _rel(_product(a_hat, u_hat, f3.Box(2 * k + band + 1, k), n), exact) <= 1e-13
            if band == 0:
                with pytest.raises(InvalidParameterError):
                    f3.Box(2 * k, k)
            else:
                assert _rel(_product(a_hat, u_hat, f3.Box(2 * k + band, k), n), exact) > 1e-3

    def test_suite_fields_sit_far_below_the_band_threshold(self, n):
        # the suites' generators have bands 1-3; what their coefficients hold
        # beyond the band is roundoff, at least 100x below BAND_TOL
        mod = sys.modules["casimir_lab.forms3.transport"]
        g = f3.Grid(n)
        rng = np.random.default_rng(n)
        kx, ky, kz = (np.abs(k) for k in g.box.k_r)
        level = np.maximum(np.maximum(kx, ky), kz)
        for band in (1, 2, 3):
            for draw in (f3.random_divfree_field, f3.random_vector_field):
                u_hat = f3.rfft3_cs(draw(g, band, rng, rms=0.1).data, g.box)
                beyond = np.abs(u_hat[:, level > band]).max() / np.abs(u_hat).max()
                assert beyond <= mod.BAND_TOL / 100
                assert mod._band_cut(u_hat, g.box) == band


def test_taylor_terms_stay_on_the_product_grid(grid32, monkeypatch, rng):
    # a band-1 generator at n = 32 puts every Taylor term on M = 22; only the
    # forcing of alpha's high modes and a fixed number of transforms, as
    # many for a long call as for a short one, run on the n-grid
    mod = sys.modules["casimir_lab.forms3.transport"]
    a = f3.random_form1(grid32, 10, rng)
    u = f3.random_divfree_field(grid32, 1, rng, rms=0.3)
    rhs, real = [], mod._rhs

    def spy(alpha, curl, u, grid_box, box):
        rhs.append((grid_box.n, alpha.shape[-1], curl.shape[-1], u.shape[-1]))
        return real(alpha, curl, u, grid_box, box)

    monkeypatch.setattr(mod, "_rhs", spy)
    boxes = _spy_transforms(monkeypatch)
    on_n = []
    for t in (0.05, 0.5):
        rhs.clear()
        boxes.clear()
        f3.transport(a, u, t, t)
        assert rhs.count((32,) * 4) == 1
        assert set(rhs) == {(32,) * 4, (22,) * 4}
        assert {n for n, _ in boxes} == {32, 22}
        on_n.append((boxes.count((32, 10)), len(rhs)))
    assert on_n[0][0] == on_n[1][0] and on_n[0][1] < on_n[1][1]


class TestCurves:
    def test_circle_loop_closure(self):
        pts = f3.circle_loop(0, (0.0, 0.25, 0.5), m=64)
        assert pts.shape == (65, 3)
        samples = f3.closed_curve(pts)
        assert samples.shape == (64, 3)

    def test_open_curve_rejected(self):
        pts = f3.circle_loop(1, (0.1, 0.0, 0.9), m=32)
        pts[-1, 2] += 1e-6
        with pytest.raises(PreconditionError, match="open curve"):
            f3.closed_curve(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_curve_rejected(self, grid32, bad):
        pts = f3.circle_loop(0, (0.0, 0.3, 0.8))
        pts[17, 1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            f3.closed_curve(pts)
        with pytest.raises(PreconditionError, match="finite"):
            loop_integral(f3.coordinate_oneform(grid32, 0), pts)

    def test_velocity_of_winding_circle(self):
        pts = f3.closed_curve(f3.circle_loop(2, (0.3, 0.6, 0.0), m=128))
        vel = f3.curve_velocity(pts)
        np.testing.assert_allclose(vel[:, 2], 1.0, atol=1e-12)
        np.testing.assert_allclose(vel[:, :2], 0.0, atol=1e-12)

    def test_odd_sample_count_loop_integral(self, grid32):
        # an odd m has no Nyquist mode to zero
        pts = f3.circle_loop(0, (0.0, 0.3, 0.8), m=127)
        dx = f3.coordinate_oneform(grid32, 0)
        assert loop_integral(dx, pts) == pytest.approx(1.0, abs=1e-12)

    def test_velocity_of_wavy_loop(self):
        m = 256
        t = np.arange(m) / m
        pts = np.stack([0.5 + 0.2 * np.cos(2 * np.pi * t),
                        (t + 0.1 * np.sin(2 * np.pi * t)) % 1.0,
                        np.full(m, 0.25)], axis=1)
        vel = f3.curve_velocity(pts)
        expect_x = -0.4 * np.pi * np.sin(2 * np.pi * t)
        expect_y = 1.0 + 0.2 * np.pi * np.cos(2 * np.pi * t)
        assert np.abs(vel[:, 0] - expect_x).max() <= 1e-10
        assert np.abs(vel[:, 1] - expect_y).max() <= 1e-10


class TestLoopIntegral:
    def test_period_class(self, grid32):
        dx = f3.coordinate_oneform(grid32, 0)
        assert loop_integral(dx, f3.circle_loop(0, (0.0, 0.3, 0.8))) \
            == pytest.approx(1.0, abs=1e-13)
        assert abs(loop_integral(dx, f3.circle_loop(1, (0.0, 0.3, 0.8)))) <= 1e-13

    def test_exact_form_integrates_to_zero(self, grid32, rng):
        g0 = f3.random_form0(grid32, 4, rng)
        loop = f3.circle_loop(2, (0.37, 0.11, 0.0))
        assert abs(loop_integral(f3.d(g0), loop)) <= 1e-11

    def test_winding_diagonal_loop(self, grid32):
        m = 256
        t = np.arange(m + 1) / m
        pts = np.stack([(2 * t) % 1.0, (3 * t) % 1.0, np.full(m + 1, 0.4)], axis=1)
        pts[-1] = pts[0]
        dx = f3.coordinate_oneform(grid32, 0)
        dy = f3.coordinate_oneform(grid32, 1)
        assert loop_integral(dx, pts) == pytest.approx(2.0, abs=1e-12)
        assert loop_integral(dy, pts) == pytest.approx(3.0, abs=1e-12)


def _fftn_tail_fraction(data, n):
    """The energy fraction of the fftn modes with max|k_i| >= n/2 - 1."""
    spec = np.abs(np.fft.fftn(data / np.abs(data).max(), axes=(-3, -2, -1))) ** 2
    k = np.abs(np.fft.fftfreq(n, 1 / n))
    kmax = np.maximum(np.maximum(k[:, None, None], k[None, :, None]), k[None, None, :])
    return float(np.sum(spec * (kmax >= n // 2 - 1)) / np.sum(spec))


class TestDealias:
    def test_filter_removes_high_modes(self, grid32):
        x, _, _ = grid32.meshes
        hi = np.cos(2 * np.pi * 14 * x)
        lo = np.sin(2 * np.pi * 3 * x)
        filtered = f3.dealias(lo + hi, grid32)
        assert np.abs(filtered - lo).max() <= 1e-12

    def test_tail_fraction(self, grid32):
        x, _, _ = grid32.meshes
        clean = np.sin(2 * np.pi * x)
        assert f3.spectral_tail_fraction(clean, grid32) <= 1e-16
        ramp = grid32.meshes[0]  # sawtooth: slow spectral decay
        assert f3.spectral_tail_fraction(ramp, grid32) > 1e-8

    @pytest.mark.parametrize("n", range(4, 34, 2))
    def test_tail_fraction_matches_fftn_formula(self, n):
        rng = np.random.default_rng(n)
        g = f3.Grid(n)
        smooth = f3.random_scalar_array(g, max(1, n // 4), rng)
        for data in (rng.standard_normal(g.shape), rng.standard_normal((3,) + g.shape),
                     smooth + 1e-3 * rng.standard_normal(g.shape)):
            assert f3.spectral_tail_fraction(data, g) \
                == pytest.approx(_fftn_tail_fraction(data, n), rel=1e-12, abs=1e-15)

    def test_tail_fraction_is_scale_free(self):
        # unscaled, 1e308 overflows the squared spectrum (nan) and 1e-170
        # underflows it (0.0)
        g = f3.Grid(8)
        z = g.meshes[2]
        shape = np.sin(2 * np.pi * z) + np.sin(6 * np.pi * z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [f3.spectral_tail_fraction(amp * shape, g) for amp in (1.0, 1e308, 1e-170)]
        assert got[0] == pytest.approx(0.5, rel=1e-12)
        assert got == pytest.approx([got[0]] * 3, rel=1e-12, abs=0)
