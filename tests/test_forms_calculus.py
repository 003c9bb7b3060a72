import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimir_lab
from casimir_lab import forms3 as f3
from casimir_lab.forms3 import calculus, grid
from casimir_lab.errors import InvalidParameterError, PreconditionError, RankError


class TestGrid:
    def test_rejects_bad_sizes(self):
        for n in (3, 5, 2, 0, -4):
            with pytest.raises(InvalidParameterError):
                f3.Grid(n)

    def test_pin_without_mallopt_is_a_noop(self, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(grid.ctypes, "CDLL", no_library)
        assert grid._pin_heap_thresholds.__wrapped__() is None

    def test_first_box_pins_the_heap_without_a_grid(self):
        # box transforms in a process that builds no Grid reuse their
        # temporaries too: the first Box pins, and no later Box pins again
        src = str(Path(casimir_lab.__file__).resolve().parents[1])
        code = """if True:
            import gc, sys
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from casimir_lab.forms3 import grid
            pin = grid._pin_heap_thresholds
            print(pin.cache_info().misses)
            box = grid.Box(32, 10)
            grid.irfft3_cs(grid.rfft3_cs(np.ones((3, 32, 32, 32)), box), box)
            grid.Box(30, 10)
            grids = sum(isinstance(obj, grid.Grid) for obj in gc.get_objects())
            print(pin.cache_info().misses, grids)
        """
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True)
        assert list(map(int, out.stdout.split())) == [0, 1, 0]

    def test_spacing_and_coords(self, grid32):
        assert grid32.axis_coords[1] == 1.0 / 32

    def test_dealias_cutoff(self, grid32):
        assert grid32.box.keep == 10

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_first_grid_keeps_field_temporaries_in_the_heap(self):
        # glibc's dynamic thresholds depend on what the process freed before,
        # so the probe runs in a fresh interpreter: a rattleback run leaves
        # them alone, and after the first Grid warmed units at n = 32 reuse
        # their temporaries instead of faulting them in.  Without the pin,
        # five chain solves take about 19k faults, three Euler evolutions
        # about 300k and three transports about 270k; with it, next to none.
        src = str(Path(casimir_lab.__file__).resolve().parents[1])
        code = """if True:
            import resource, sys
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from casimir_lab import fluid, foliation as fol, forms3 as f3, rattleback as rb
            from casimir_lab.forms3 import grid
            rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=0.1)
            print(grid._pin_heap_thresholds.cache_info().currsize)
            g = f3.Grid(32)
            rng = np.random.default_rng(1729)
            profile = f3.Form0(g, 0.15 * np.sin(2 * np.pi * g.meshes[2]))
            scale = f3.Form0(g, np.exp(f3.random_scalar_array(g, 2, rng, rms=0.05)))
            alpha = fol.graph_foliation_form(g, profile, scale)
            f, h = (f3.random_form0(g, 1, rng, rms=0.1) for _ in range(2))
            beta = f3.random_form1(g, 4, rng, rms=0.5)
            u = f3.random_divfree_field(g, 3, rng, rms=0.3)
            units = (
                (5, lambda: fol.gauge_shift(fol.FoliatedState.from_alpha(alpha), f, h)),
                (3, lambda: fluid.euler_evolve(fluid.FluidState(beta), 2e-2, 0.2)),
                (3, lambda: f3.transport(beta, u, 0.2, 2e-2)),
            )
            for count, unit in units:
                unit()  # warm-up
                start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(count):
                    unit()
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
        """
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True)
        pinned_by_rattleback, *faults = map(int, out.stdout.split())
        assert pinned_by_rattleback == 0
        chain, euler, transport = faults
        assert chain <= 3000
        assert euler <= 3000
        assert transport <= 3000


def _fft_derivative(data, grid, axis):
    """The rfft/multiply/irfft round trip along one axis, Nyquist mode zeroed."""
    ax = data.ndim - 3 + axis
    mult = 2j * np.pi * np.arange(grid.n // 2 + 1)
    mult[-1] = 0.0
    shape = [1] * data.ndim
    shape[ax] = grid.n // 2 + 1
    return np.fft.irfft(np.fft.rfft(data, axis=ax) * mult.reshape(shape), n=grid.n, axis=ax)


class TestSpectralDerivative:
    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_fft_multiplier(self, n, lead, rng):
        g = f3.Grid(n)
        data = rng.standard_normal(lead + g.shape)
        for axis in range(3):
            ref = _fft_derivative(data, g, axis)
            got = f3.spectral_derivative(data, g, axis)
            assert got.shape == data.shape
            # a dense product rounds unlike the FFT, but within a few ulps
            assert np.abs(got - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("lead", [(), (3,), (2,)])
    def test_constant_along_axis_is_exactly_zero(self, grid16, lead, rng):
        for axis in range(3):
            shape = list(lead + grid16.shape)
            shape[len(lead) + axis] = 1
            data = np.broadcast_to(7.3 + rng.standard_normal(shape), lead + grid16.shape)
            assert np.all(f3.spectral_derivative(data, grid16, axis) == 0.0)

    def test_makes_no_fft_call(self, grid16, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called")

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        for axis in range(3):
            f3.spectral_derivative(rng.standard_normal(grid16.shape), grid16, axis)

    @pytest.mark.parametrize("n", range(4, 66, 2))
    def test_diff_matrix_is_antisymmetric_circulant(self, n):
        # D.T == -D is the premise of the z-derivative's (f0 - f) @ D
        dm = f3.Grid(n).diff_matrix
        assert np.array_equal(dm, -dm.T)
        assert np.all(np.diag(dm) == 0.0)
        assert np.array_equal(np.roll(dm, 1, axis=(0, 1)), dm)

    @pytest.mark.parametrize("n", [8, 32, 48])
    def test_z_derivative_is_the_product_with_d_transposed(self, n, rng):
        # bit for bit against a contiguous copy of D.T; BLAS's kernel for the
        # transposed operand itself rounds otherwise at some n (32), by ulps
        g = f3.Grid(n)
        data = rng.standard_normal((2,) + g.shape)
        rel = data - data[..., :1]
        got = f3.spectral_derivative(data, g, 2)
        assert np.array_equal(_bits(got), _bits(rel @ np.ascontiguousarray(g.diff_matrix.T)))
        ref = rel @ g.diff_matrix.T
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def _ifftn_random_scalar(grid, bandwidth, rng, rms=1.0):
    """Band-limited random scalar through a full n^3 spectrum and ifftn."""
    n = grid.n
    spec = np.zeros((n, n, n), dtype=complex)
    k = np.abs(np.fft.fftfreq(n, 1 / n))
    mask = ((k[:, None, None] <= bandwidth) & (k[None, :, None] <= bandwidth)
            & (k[None, None, :] <= bandwidth))
    m = int(mask.sum())
    spec[mask] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    spec[0, 0, 0] = 0.0
    f = np.fft.ifftn(spec).real * n ** 1.5
    norm = float(np.sqrt(np.mean(f ** 2)))
    if norm > 0:
        f *= rms / norm
    return f


def _grid_random_divfree(grid, bandwidth, rng, rms=1.0):
    """Three ifftn scalars, projected by the Leray multiplier s - k (k . s) / |k|^2
    on the full rfftn layout (mean kept), then rescaled."""
    n = grid.n
    s = np.fft.rfftn([_ifftn_random_scalar(grid, bandwidth, rng) for _ in range(3)],
                     axes=(1, 2, 3))
    kf = np.fft.fftfreq(n, 1 / n)
    kx, ky, kz = kf[:, None, None], kf[None, :, None], np.arange(n // 2 + 1.0)[None, None, :]
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = np.inf
    dot = kx * s[0] + ky * s[1] + kz * s[2]
    s = np.stack([s[i] - (k / k2) * dot for i, k in enumerate((kx, ky, kz))])
    v = np.fft.irfftn(s, grid.shape, axes=(1, 2, 3))
    norm = float(np.sqrt(np.mean(np.sum(v ** 2, axis=0))))
    if norm > 0:
        v *= rms / norm
    return v


class TestRandomFields:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_ifftn_reference(self, n):
        g = f3.Grid(n)
        draws = ((f3.random_scalar_array, _ifftn_random_scalar),
                 (lambda *args: f3.random_divfree_field(*args).data, _grid_random_divfree))
        for draw, reference in draws:
            for bandwidth in (0, 1, 2, n // 4):
                got_rng, ref_rng = (np.random.default_rng(n + bandwidth) for _ in range(2))
                got = draw(g, bandwidth, got_rng, 0.7)
                ref = reference(g, bandwidth, ref_rng, 0.7)
                # same draws in the same order, summed in another order
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state
                assert np.abs(got - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()
            # no Nyquist mode is drawn: bandwidth n/2 is clamped to n/2 - 1
            got_rng, ref_rng = (np.random.default_rng(n) for _ in range(2))
            assert np.array_equal(draw(g, n // 2, got_rng, 0.7), draw(g, n // 2 - 1, ref_rng, 0.7))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_makes_no_fft_call(self, grid16, rng, monkeypatch):
        # each draw is one inverse box transform: no numpy.fft call, no forward transform
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft or forward box transform called")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        patched = [m for name, m in sys.modules.items()
                   if name.startswith("casimir_lab") and hasattr(m, "rfft3_cs")]
        assert grid in patched
        for module in patched:
            monkeypatch.setattr(module, "rfft3_cs", refuse)
        for bandwidth in (1, 4, 8):
            f3.random_scalar_array(grid16, bandwidth, rng)
            f3.random_form1(grid16, bandwidth, rng)
            f3.random_vector_field(grid16, bandwidth, rng)
            f3.random_divfree_field(grid16, bandwidth, rng)
            for rank in range(4):
                f3.random_form(grid16, rank, bandwidth, rng)


def _d_by_components(form):
    """d by the per-component formula, one spectral derivative per component."""
    g, a, sd = form.grid, form.data, f3.spectral_derivative
    if form.rank == 0:
        return np.stack([sd(a, g, ax) for ax in range(3)])
    if form.rank == 1:
        return np.stack([sd(a[2], g, 1) - sd(a[1], g, 2),
                         sd(a[0], g, 2) - sd(a[2], g, 0),
                         sd(a[1], g, 0) - sd(a[0], g, 1)])
    return sd(a[0], g, 0) + sd(a[1], g, 1) + sd(a[2], g, 2)


class TestExteriorDerivative:
    @pytest.mark.parametrize("n", [8, 32, 48])
    def test_is_the_component_formula_bit_for_bit(self, n, rng):
        # contiguous, strided along y, components reversed with z flipped,
        # and axes transposed
        g = f3.Grid(n)
        a = rng.standard_normal((3,) + g.shape)
        wide = rng.standard_normal((3, n, 2 * n, n))
        for data in (a, wide[:, :, 1::2], a[::-1, ..., ::-1], a.transpose(0, 3, 2, 1)):
            for rank in range(3):
                form = f3.form_of_rank(rank, g, data[0] if rank == 0 else data)
                assert np.array_equal(_bits(f3.d(form).data), _bits(_d_by_components(form)))

    @pytest.mark.parametrize("n", [8, 32, 48])
    def test_constant_along_an_axis_differentiates_to_exact_zeros(self, n, rng):
        g = f3.Grid(n)
        div_free = np.empty((3,) + g.shape)
        for axis in range(3):
            flat = [n, n, n]
            flat[axis] = 1
            f = np.broadcast_to(rng.standard_normal(flat), g.shape)
            assert np.all(f3.d(f3.Form0(g, f)).data[axis] == 0.0)
            div_free[axis] = f  # component i constant along axis i
            # components that vary along one axis only: the curl's component
            # along that axis takes derivatives along the other two
            line = [1, 1, 1]
            line[axis] = n
            a = np.broadcast_to(rng.standard_normal([3] + line), (3,) + g.shape)
            assert np.all(f3.d(f3.Form1(g, a)).data[axis] == 0.0)
        assert np.all(f3.d(f3.Form2(g, div_free)).data == 0.0)

    def test_gradient_analytic(self, grid32):
        x, _, _ = grid32.meshes
        df = f3.d(f3.Form0(grid32, np.sin(2 * np.pi * x)))
        assert np.abs(df.data[0] - 2 * np.pi * np.cos(2 * np.pi * x)).max() <= 1e-12
        assert np.abs(df.data[1:]).max() == 0.0

    def test_constant_is_closed(self, grid32):
        df = f3.d(f3.Form0(grid32, np.full(grid32.shape, 3.7)))
        assert df.linf() == 0.0

    @pytest.mark.parametrize("rank", [0, 1])
    def test_dd_zero(self, grid32, rng, rank):
        for _ in range(10):
            a = f3.random_form(grid32, rank, 5, rng)
            da = f3.d(a)
            assert f3.d(da).l2() <= 1e-12 * max(da.l2(), 1.0)

    def test_top_rank_error(self, grid32):
        with pytest.raises(RankError):
            f3.d(f3.volume_form(grid32))


class TestWedge:
    def test_basis_orientation(self, grid32):
        dx = f3.coordinate_oneform(grid32, 0)
        dy = f3.coordinate_oneform(grid32, 1)
        w = f3.wedge(dx, dy)
        assert np.all(w.data[2] == 1.0) and np.all(w.data[:2] == 0.0)

    def test_self_wedge_exactly_zero(self, grid32, rng):
        a = f3.random_form1(grid32, 5, rng)
        assert f3.wedge(a, a).linf() == 0.0

    def test_hand_orientation_signs(self, grid32):
        _, _, z = grid32.meshes
        a = f3.Form1(grid32, np.stack([np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        # -2*pi*sin(2*pi*z) dz^dy = +2*pi*sin(2*pi*z) dy^dz
        b = f3.Form2(grid32, np.stack([2 * np.pi * np.sin(2 * np.pi * z), 0 * z, 0 * z]))
        w = f3.wedge(a, b)
        assert np.abs(w.data - 2 * np.pi * np.sin(2 * np.pi * z) ** 2).max() <= 1e-13

    def test_graded_commutativity(self, grid32, rng):
        a = f3.random_form1(grid32, 4, rng)
        b = f3.random_form1(grid32, 4, rng)
        c = f3.random_form(grid32, 2, 4, rng)
        assert (f3.wedge(a, b) + f3.wedge(b, a)).linf() == 0.0
        assert (f3.wedge(a, c) - f3.wedge(c, a)).linf() == 0.0

    def test_scalar_cases(self, grid32, rng):
        f = f3.random_form0(grid32, 4, rng)
        b = f3.random_form(grid32, 3, 4, rng)
        assert isinstance(f3.wedge(f, f), f3.Form0)
        assert isinstance(f3.wedge(f, b), f3.Form3)

    def test_rank_overflow(self, grid32, rng):
        a = f3.random_form1(grid32, 4, rng)
        b = f3.random_form(grid32, 3, 4, rng)
        with pytest.raises(RankError):
            f3.wedge(a, b)
        with pytest.raises(RankError):
            f3.wedge(f3.random_form(grid32, 2, 4, rng), f3.random_form(grid32, 2, 4, rng))
        with pytest.raises(RankError, match="wedge expects differential forms"):
            f3.wedge(f3.zero_field(grid32), a)

    def test_leibniz(self, grid32, rng):
        for ra, rk in ((0, 0), (0, 1), (1, 1), (0, 2)):
            a = f3.random_form(grid32, ra, 4, rng)
            b = f3.random_form(grid32, rk, 4, rng)
            lhs = f3.d(f3.wedge(a, b))
            rhs = f3.wedge(f3.d(a), b) + (-1.0) ** ra * f3.wedge(a, f3.d(b))
            assert (lhs - rhs).l2() <= 1e-11 * max(rhs.l2(), 1.0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _stack_pairs(n, rng):
    """Pairs of random 3-stacks on an n^3 grid: contiguous, strided along y,
    components reversed with z flipped, and axes transposed."""
    a, b = rng.standard_normal((2, 3, n, n, n))
    wide = rng.standard_normal((2, 3, n, 2 * n, n))
    return [(a, b), (wide[0][:, :, ::2], wide[1][:, :, 1::2]),
            (a[::-1], b[..., ::-1]), (a.transpose(0, 3, 2, 1), b)]


class TestPointwiseKernels:
    @pytest.mark.parametrize("n", [8, 32, 48])
    def test_dot_is_the_component_sum_bit_for_bit(self, n, rng):
        for a, b in _stack_pairs(n, rng):
            want = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            assert np.array_equal(_bits(calculus._dot(a, b)), _bits(want))

    @pytest.mark.parametrize("n", [8, 32, 48])
    def test_cross_is_the_component_formula_bit_for_bit(self, n, rng):
        for a, b in _stack_pairs(n, rng):
            want = np.stack([a[1] * b[2] - a[2] * b[1],
                             a[2] * b[0] - a[0] * b[2],
                             a[0] * b[1] - a[1] * b[0]])
            assert np.array_equal(_bits(grid._cross(a, b)), _bits(want))

    def test_self_wedge_gives_exact_zeros(self, grid16, rng):
        for a, _ in _stack_pairs(16, rng):
            w = f3.wedge(f3.Form1(grid16, a), f3.Form1(grid16, a))
            assert np.array_equal(_bits(w.data), np.zeros(w.data.shape, np.int64))

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_l2_within_the_summation_bound_of_fsum(self, grid16, rng, rank):
        form = f3.random_form(grid16, rank, 5, rng)
        x = form.data.ravel()
        want = math.sqrt(math.fsum(x * x) / grid16.n ** 3)
        # recursive summation of m nonnegative terms is within gamma_(m-1) of
        # the exact sum (Higham, 2nd ed., ch. 4); the squares, the division
        # and the square root add a few roundings, u each
        u = np.finfo(float).eps / 2
        assert abs(form.l2() - want) <= (x.size + 4) * u * want

    def test_l2_reads_strided_data_like_its_copy(self, grid16, rng):
        for a, _ in _stack_pairs(16, rng):
            got = f3.Form1(grid16, a).l2()
            assert got == f3.Form1(grid16, np.ascontiguousarray(a)).l2()

    def test_l2_special_values(self, grid16):
        data = np.zeros((3,) + grid16.shape)
        zero = f3.Form1(grid16, data).l2()
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        data[1, 2, 3, 4] = -np.inf
        assert f3.Form1(grid16, data).l2() == np.inf
        data[1, 2, 3, 4] = np.nan
        assert math.isnan(f3.Form1(grid16, data).l2())
        data[1, 2, 3, 4] = 1e200  # an overflowing square
        assert f3.Form1(grid16, data).l2() == np.inf


class TestInterior:
    def test_basis_pairing(self, grid32):
        ez = f3.constant_field(grid32, 0, 0, 1)
        out = f3.interior(ez, f3.coordinate_oneform(grid32, 2))
        assert np.all(out.data == 1.0)

    def test_volume_contraction_is_identity(self, grid32, rng):
        v = f3.random_vector_field(grid32, 4, rng)
        out = f3.interior(v, f3.volume_form(grid32))
        assert np.array_equal(out.data, v.data)

    def test_contraction_identity_exact(self, grid32, rng):
        v = f3.random_vector_field(grid32, 4, rng)
        a = f3.random_form1(grid32, 4, rng)
        assert f3.contraction_identity_residual(v, a) == 0.0

    def test_rank_zero_error(self, grid32, rng):
        v = f3.random_vector_field(grid32, 4, rng)
        with pytest.raises(RankError):
            f3.interior(v, f3.random_form0(grid32, 4, rng))

    def test_nilpotent(self, grid32, rng):
        v = f3.random_vector_field(grid32, 4, rng)
        b = f3.random_form(grid32, 2, 4, rng)
        out = f3.interior(v, f3.interior(v, b))
        assert out.linf() <= 1e-13 * v.linf() ** 2 * b.linf()


class TestLieDerivative:
    def test_scalar_is_directional_derivative(self, grid32, rng):
        v = f3.random_vector_field(grid32, 4, rng)
        f = f3.random_form0(grid32, 4, rng)
        lhs = f3.lie_derivative(v, f)
        rhs = f3.interior(v, f3.d(f))
        assert np.array_equal(lhs.data, rhs.data)

    def test_translation_analytic(self, grid32):
        x, _, _ = grid32.meshes
        ex = f3.constant_field(grid32, 1, 0, 0)
        om = f3.Form1(grid32, np.stack([0 * x, np.sin(2 * np.pi * x), 0 * x]))
        out = f3.lie_derivative(ex, om)
        assert np.abs(out.data[1] - 2 * np.pi * np.cos(2 * np.pi * x)).max() <= 1e-12

    def test_volume_preservation_iff_divergence_free(self, grid32, rng):
        mu = f3.volume_form(grid32)
        v = f3.random_divfree_field(grid32, 4, rng)
        assert f3.lie_derivative(v, mu).linf() <= 1e-12
        w = f3.random_vector_field(grid32, 4, rng)
        assert f3.lie_derivative(w, mu).linf() > 1e-3

    def test_cartan_commutes_with_d(self, grid32, rng):
        for rank in (0, 1, 2):
            a = f3.random_form(grid32, rank, 4, rng)
            v = f3.random_vector_field(grid32, 4, rng)
            lhs = f3.d(f3.lie_derivative(v, a))
            rhs = f3.lie_derivative(v, f3.d(a))
            assert (lhs - rhs).l2() <= 1e-11 * max(rhs.l2(), 1.0)


class TestBracket:
    def test_constant_fields_commute(self, grid32):
        u = f3.constant_field(grid32, 1, 0, 0)
        v = f3.constant_field(grid32, 0, 1, 0)
        assert f3.vf_bracket(u, v).linf() == 0.0

    def test_antisymmetry_exact(self, grid32, rng):
        u = f3.random_vector_field(grid32, 4, rng)
        v = f3.random_vector_field(grid32, 4, rng)
        assert (f3.vf_bracket(u, v) + f3.vf_bracket(v, u)).linf() == 0.0
        assert f3.vf_bracket(u, u).linf() == 0.0

    def test_commutator_of_lie_derivatives(self):
        g = f3.Grid(48)
        rng = np.random.default_rng(21)
        u = f3.random_vector_field(g, 4, rng)
        v = f3.random_vector_field(g, 4, rng)
        f = f3.random_form0(g, 4, rng)
        lhs = f3.lie_derivative(f3.vf_bracket(u, v), f)
        rhs = f3.lie_derivative(u, f3.lie_derivative(v, f)) \
            - f3.lie_derivative(v, f3.lie_derivative(u, f))
        assert (lhs - rhs).linf() <= 1e-9 * max(rhs.linf(), 1.0)


class TestIntegration:
    def test_unit_volume(self, grid32):
        assert f3.integrate3(f3.volume_form(grid32)) == 1.0

    def test_exact_forms_integrate_to_zero(self, grid32, rng):
        b = f3.random_form(grid32, 2, 5, rng)
        assert abs(f3.integrate3(f3.d(b))) <= 1e-13

    def test_trig_identity_value(self, grid32):
        _, _, z = grid32.meshes
        tf = f3.Form3(grid32, 2 * np.pi * (np.sin(2 * np.pi * z) ** 2
                                           + np.cos(2 * np.pi * z) ** 2))
        assert f3.integrate3(tf) == pytest.approx(2 * np.pi, abs=1e-12)


class TestVorticity:
    def test_beltrami_curl(self, grid32, beltrami):
        _, _, z = grid32.meshes
        w = f3.vorticity_from(beltrami)
        assert np.abs(w.data[0] - 2 * np.pi * np.sin(2 * np.pi * z)).max() <= 1e-12
        assert np.abs(w.data[1] - 2 * np.pi * np.cos(2 * np.pi * z)).max() <= 1e-12
        assert np.abs(w.data[2]).max() == 0.0

    def test_closed_form_has_no_vorticity(self, grid32, rng):
        g0 = f3.random_form0(grid32, 5, rng)
        assert f3.vorticity_from(f3.d(g0)).linf() <= 1e-11

    def test_divergence_free(self, grid32, rng):
        a = f3.random_form1(grid32, 5, rng)
        assert f3.divergence(f3.vorticity_from(a)).linf() <= 1e-11

    def test_divergence_is_d_of_the_flux_form(self, grid16, rng):
        # the sum of the three partials, in that order, bit for bit
        v = f3.random_vector_field(grid16, 5, rng)
        div = f3.divergence(v)
        assert isinstance(div, f3.Form0)
        ref = sum(f3.spectral_derivative(v.data[i], grid16, i) for i in range(3))
        assert np.array_equal(div.data, ref)
        assert np.array_equal(div.data, f3.d(f3.Form2(grid16, v.data)).data)


class TestLeray:
    def test_projects_gradients_away(self, grid32, rng):
        g0 = f3.random_form0(grid32, 4, rng)
        grad = f3.VectorField(grid32, f3.d(g0).data)
        assert f3.leray_project(grad).linf() <= 1e-12 * grad.linf()

    def test_fixes_divergence_free(self, grid32, rng):
        v = f3.random_divfree_field(grid32, 4, rng)
        assert (f3.leray_project(v) - v).linf() <= 1e-13

    def test_keeps_mean_flow(self, grid32):
        v = f3.constant_field(grid32, 1.0, 2.0, -0.5)
        np.testing.assert_allclose(f3.leray_project(v).data, v.data, atol=1e-14)


class TestEvalAt:
    def test_constants(self, rng):
        # exact: each component is evaluated relative to its first node
        pts = rng.uniform(-2.0, 2.0, (9, 3))
        for n in (4, 8, 32):
            g = f3.Grid(n)
            for c in (2.5, -1e-300, 7e300):
                assert np.all(f3.eval_at(f3.Form0(g, np.full(g.shape, c)), pts) == c)
            a = f3.flat(f3.constant_field(g, 1.0, -0.3, 1e-7))
            assert np.all(f3.eval_at(a, pts) == np.array([1.0, -0.3, 1e-7]))

    def test_analytic_point(self, grid32):
        x, _, _ = grid32.meshes
        f = f3.Form0(grid32, np.sin(2 * np.pi * x))
        assert f3.eval_at(f, (0.25, 0.9, 0.1)) == pytest.approx(1.0, abs=1e-14)

    def test_grid_reproduction(self, grid32, rng):
        f = f3.random_form0(grid32, 6, rng)
        pts = np.array([[i / 32, (2 * i) % 32 / 32, (5 * i) % 32 / 32] for i in range(16)])
        vals = f3.eval_at(f, pts)
        stored = np.array([f.data[int(32 * p[0]), int(32 * p[1]), int(32 * p[2])]
                           for p in pts])
        assert np.abs(vals - stored).max() <= 1e-13
        # the widest draw, K = n/2 - 1, has no Nyquist mode for eval_at to drop
        for n in (4, 8, 32):
            f = f3.random_form0(f3.Grid(n), n // 2 - 1, rng)
            idx = rng.integers(0, n, (min(n ** 3, 256), 3))
            assert np.abs(f3.eval_at(f, idx / n) - f.data[tuple(idx.T)]).max() <= 1e-13

    @pytest.mark.parametrize("n", [6, 8, 32])
    def test_off_grid_matches_shifted_interpolant(self, n, rng):
        # at the nodes shifted by half a cell, against the interpolant
        # shifted by its Fourier phases exp(2 pi i k.s): node reproduction
        # cannot tell mode k from k - n, nor catch a wrong sine-row order
        g = f3.Grid(n)
        shift = np.full(3, 0.5 / n)
        k = np.fft.fftfreq(n, 1 / n)
        phase = np.exp(2j * np.pi * shift[0] * (k[:, None, None] + k[None, :, None]
                                                + np.arange(n // 2 + 1)[None, None, :]))
        pts = np.stack([m.ravel() for m in g.meshes], axis=-1) + shift
        for bandwidth in sorted({1, (n - 1) // 3, n // 2 - 1}):
            f = f3.random_form0(g, bandwidth, rng)
            shifted = np.fft.irfftn(np.fft.rfftn(f.data) * phase, g.shape, axes=(0, 1, 2))
            assert np.abs(f3.eval_at(f, pts) - shifted.ravel()).max() <= 1e-13

    def test_vector_output_shape(self, grid32, rng):
        a = f3.random_form1(grid32, 4, rng)
        out = f3.eval_at(a, np.zeros((7, 3)))
        assert out.shape == (7, 3)
        single = f3.eval_at(a, (0.0, 0.0, 0.0))
        assert single.shape == (3,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, grid16, rng, bad):
        f = f3.random_form0(grid16, 3, rng)
        with pytest.raises(PreconditionError, match="finite"):
            f3.eval_at(f, (bad, 0.0, 0.0))
        pts = rng.random((5, 3))
        pts[3, 1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            f3.eval_at(f3.random_form1(grid16, 3, rng), pts)


def test_form_shape_validation(grid16):
    for cls in (f3.Form0, f3.Form1, f3.Form2, f3.Form3, f3.VectorField):
        shape = (3,) + grid16.shape if cls.n_comp == 3 else grid16.shape
        wrong = grid16.shape if cls.n_comp == 3 else (3,) + grid16.shape
        with pytest.raises(InvalidParameterError, match="must have shape"):
            cls(grid16, np.zeros(wrong))
        ints = cls(grid16, np.ones(shape, dtype=int))
        assert ints.data.dtype == float and np.all(ints.data == 1.0)
        data = np.ones(shape)
        assert cls(grid16, data).data is data  # float data is kept, not copied


def test_mixed_grid_arithmetic_rejected(grid32, grid16):
    a = f3.Form1(grid32, np.zeros((3,) + grid32.shape))
    b = f3.Form1(grid16, np.zeros((3,) + grid16.shape))
    with pytest.raises(InvalidParameterError):
        a + b


def test_form_product_is_not_a_scalar_product(grid16, rng):
    a = f3.random_form1(grid16, 2, rng)
    with pytest.raises(TypeError):
        a * a


def test_form_of_rank_rejects_rank_4(grid16):
    with pytest.raises(InvalidParameterError, match="form rank must be 0..3, got 4"):
        f3.form_of_rank(4, grid16, np.zeros(grid16.shape))
