"""The coefficient evolutions of euler_evolve (DOP853) and transport (the
propagator exp(-t L_u)), both on the 2/3-rule box in the cos/sin layout,
against physical-space oracles: a DOP853 loop over dealiased euler_rhs with
scipy's tableau, a plain RK4 loop over the dealiased generator, and the
energy/helicity functionals evaluated on the grid.  euler_evolve against a
DOP853 loop written out here, bit for bit, and against the same loop on
np.fft.rfftn/irfftn's coefficients.  The box transforms, ``leray_cs`` and
``dealias`` against np.fft.rfftn/irfftn and a full-layout Leray projection
written out here, masked by boxes built here from np.fft.fftfreq, with the
rfftn coefficients changed to the cos/sin basis; curl, grad, Leray and the
Parseval mean against spectral derivatives and grid means."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as dop853

import casimir_lab
from casimir_lab import fluid, verify
from casimir_lab import forms3 as f3
from casimir_lab.errors import BlowUpError, InvalidParameterError
from casimir_lab.fluid import FluidState, energy, euler_evolve, euler_rhs, helicity

DT, STEPS = 1e-3, 10
STAGES = dop853.N_STAGES  # 12: the stages of the 8th-order solution


def _combine(a, h, coefs, k):
    """a + h * sum_j coefs[j] k[j] over the nonzero coefs, summed in j order."""
    total = None
    for c, kj in zip(coefs, k):
        if c:
            total = c * kj if total is None else total + c * kj
    return a + h * total


def _dop853_step(rhs, a, h):
    """One DOP853 step of fresh arrays with scipy's tableau."""
    k = [rhs(a)]
    for i in range(1, STAGES):
        k.append(rhs(_combine(a, h, dop853.A[i, :i], k)))
    return _combine(a, h, dop853.B, k)


def _dop853_physical(rhs, a, dt, n_steps):
    for _ in range(n_steps):
        a = _dop853_step(rhs, a, dt)
    return a


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


def _rfftn(data):
    return np.fft.rfftn(data, axes=(-3, -2, -1))


def _irfftn(spec, n):
    return np.fft.irfftn(spec, s=(n, n, n), axes=(-3, -2, -1))


def _full_k(n):
    """Integer wavenumbers (kx, ky, kz) shaped to broadcast on the full rfftn layout."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None, None], k[None, :, None], np.arange(n // 2 + 1.0)[None, None, :]


def _index(box):
    """Positions of the box's kx (and ky) along a full fft axis."""
    return np.r_[0:box.keep + 1, box.n - box.keep:box.n]


def _mask(n, keep=None):
    """A box on the full rfftn layout: max |k_i| <= keep, by default the 2/3
    rule's (n - 1)//3."""
    kx, ky, kz = (np.abs(k) for k in _full_k(n))
    return np.maximum(np.maximum(kx, ky), kz) <= ((n - 1) // 3 if keep is None else keep)


def _full_leray(spec, n):
    """The Leray projection on the full rfftn layout, s - k (k . s) / |k|^2,
    with the mean kept."""
    kx, ky, kz = _full_k(n)
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = np.inf
    dot = kx * spec[0] + ky * spec[1] + kz * spec[2]
    return np.stack([spec[i] - (k / k2) * dot for i, k in enumerate((kx, ky, kz))])


@pytest.fixture()
def alpha(grid32, rng, beltrami):
    return f3.Form1(grid32, f3.random_form1(grid32, 4, rng, rms=0.3).data + 0.5 * beltrami.data)


class TestEulerSpectralState:
    def test_matches_physical_dop853(self, grid32, alpha):
        g = grid32

        def rhs(a):
            return f3.dealias(euler_rhs(FluidState(f3.Form1(g, a))).data, g)

        expect = _dop853_physical(rhs, f3.dealias(alpha.data, g), DT, STEPS)
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


class TestDop853:
    def test_tableau_is_scipys(self):
        assert np.array_equal(fluid.DOP853_A, dop853.A[:STAGES, :STAGES])
        assert np.array_equal(fluid.DOP853_B, dop853.B)
        # each stage's coefficients sum to its node and the weights to 1; a
        # literal rounds by half an ulp of itself, so the bound scales with
        # the row's entries (up to 43 in row 8)
        for row, c in zip(np.vstack([fluid.DOP853_A, fluid.DOP853_B]),
                          np.append(dop853.C[:STAGES], 1.0)):
            assert abs(math.fsum(row) - c) <= 1e-15 * max(1.0, np.abs(row).sum())

    def test_slopes_are_freed_after_their_last_reader(self):
        # 0-based: k1 after stage 2, k2 after stage 4, k3 and k4 after the
        # last stage; no later combination and no weight reads a freed slope
        assert fluid._DOP853_FREED == [[], [], [1], [], [2]] + [[]] * 6 + [[3, 4]]
        for i, freed in enumerate(fluid._DOP853_FREED):
            for j in freed:
                assert fluid.DOP853_A[i, j] != 0.0
                assert not fluid.DOP853_A[i + 1:, j].any() and fluid.DOP853_B[j] == 0.0

    def test_eighth_order(self, grid16, rng):
        # halving dt divides the error by 2^8; asking 2^7 leaves room for the
        # reference's own error and the next order's term
        a, t_final = f3.random_form1(grid16, 4, rng, rms=0.5), 0.4

        def final(m):
            return euler_evolve(FluidState(a), dt=t_final / m, t_final=t_final)[0].alpha.data

        ref = final(64)
        coarse, fine = (np.abs(final(m) - ref).max() for m in (8, 16))
        assert coarse / fine >= 2.0 ** 7


def _traced_peak(fn):
    """Peak of tracemalloc's traced memory during fn(), above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _cs_d(s, box, axis):
    """d/dx_axis of cos/sin coefficients as one expression: row k's cosine
    and row -k's sine swap, times 2 pi k_r (the sine rows run k = K..1)."""
    k = box.k_r[axis]
    if axis == 2:
        return 2j * np.pi * k * s
    p = 2 * box.keep + 1
    return 2 * np.pi * k * np.take(s, (p - np.arange(p)) % p, axis=s.ndim - 3 + axis)


def _cs_leray(s, box):
    kx, ky, kz = box.k_r
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = np.inf
    div = _cs_d(s[0], box, 0) + _cs_d(s[1], box, 1) + _cs_d(s[2], box, 2)
    phi = div * (1.0 / (4.0 * np.pi ** 2 * k2))
    return s + np.stack([_cs_d(phi, box, axis) for axis in range(3)])


def _cs_curl(s, box):
    return np.stack([_cs_d(s[2], box, 1) - _cs_d(s[1], box, 2),
                     _cs_d(s[0], box, 2) - _cs_d(s[2], box, 0),
                     _cs_d(s[1], box, 0) - _cs_d(s[0], box, 1)])


def _fft_curl(s, box):
    ikx, iky, ikz = (2j * np.pi * k for k in box.k_r)
    return np.stack([iky * s[2] - ikz * s[1], ikz * s[0] - ikx * s[2], ikx * s[1] - iky * s[0]])


def _fft_mean_dot(a, b, box):
    """The grid mean of a . b from rfftn-layout box coefficients: kz = 1..K
    stand for themselves and their conjugates."""
    w = np.r_[1.0, np.full(box.keep, 2.0)] / float(box.n) ** 6
    return float(np.sum(np.sum((a * b.conj()).real, axis=0) @ w))


def _fft_forward(data, box):
    return _restrict(_rfftn(data), box)


def _fft_inverse(coefs, box):
    return _irfftn(_zero_fill(coefs, box), box.n)


def _fft_leray(s, box):
    return _restrict(_full_leray(_zero_fill(s, box), box.n), box)


def _cross(a, b):
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


# forward, inverse, Leray, curl and Parseval mean of each layout; "fft" is
# rfftn's, restricted to the box, with numpy's transforms
LAYOUTS = {"cs": (f3.rfft3_cs, f3.irfft3_cs, _cs_leray, _cs_curl, f3.mean_dot_cs),
           "fft": (_fft_forward, _fft_inverse, _fft_leray, _fft_curl, _fft_mean_dot)}


def _unbuffered_euler(alpha, dt, t_final, layout="cs"):
    """euler_evolve as a loop of fresh arrays: each multiplier and product
    written as one expression and the DOP853 sums in their summation order;
    ``layout="fft"`` runs it on numpy's rfftn/irfftn restricted to the box
    and the full-layout Leray projection."""
    box = alpha.grid.box
    fwd, inv, leray, curl, mean_dot = LAYOUTS[layout]

    def rhs(s):
        return fwd(_cross(inv(leray(s, box), box), inv(curl(s, box), box)), box)

    def sample(t, a):
        times.append(t)
        energies.append(0.5 * mean_dot(a, leray(a, box), box))
        helicities.append(mean_dot(a, curl(a, box), box))

    times, energies, helicities = [], [], []
    a, t = fwd(alpha.data, box), 0.0
    sample(t, a)
    for _ in range(int(np.ceil(t_final / dt - 1e-12))):
        h = min(dt, t_final - t)
        a, t = _dop853_step(rhs, a, h), t + h
        sample(t, a)
    return inv(a, box), (times, energies, helicities)


@pytest.mark.parametrize("n", (16, 32))
class TestEulerWorkspace:
    """euler_evolve bit for bit against the loop of fresh arrays above, with
    scipy's tableau and each multiplier written as one expression, and
    against the same loop on numpy's transforms to roundoff."""

    def test_matches_unbuffered_loop(self, n, rng):
        g = f3.Grid(n)
        alpha = f3.random_form1(g, 4, rng, rms=0.5)
        fin, diag = euler_evolve(FluidState(alpha), dt=DT, t_final=STEPS * DT)
        values, (times, energies, helicities) = _unbuffered_euler(alpha, DT, STEPS * DT)
        assert np.array_equal(fin.alpha.data, values)
        assert np.array_equal(diag.times, times)
        assert np.array_equal(diag.energies, energies)
        assert np.array_equal(diag.helicities, helicities)
        values, (times, energies, helicities) = _unbuffered_euler(alpha, DT, STEPS * DT, "fft")
        assert _rel(fin.alpha.data, values) <= 1e-13
        assert np.array_equal(diag.times, times)
        assert _rel(diag.energies, np.asarray(energies)) <= 1e-13
        assert _rel(diag.helicities, np.asarray(helicities)) <= 1e-13


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
        high = ~_mask(g.n)
        spec = _rfftn(alpha.data)
        assert _rel(_rfftn(out.data)[:, high], spec[:, high]) <= 1e-12

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
def test_shared_step_rule(evolve, grid16, rng, monkeypatch):
    a = f3.random_form1(grid16, 3, rng, rms=5.0)

    def no_transform(*args):
        raise AssertionError("transformed before refusing")

    # both refuse before their first transform
    monkeypatch.setattr(fluid, "rfft3_cs", no_transform)
    monkeypatch.setattr(sys.modules["casimir_lab.forms3.transport"], "rfft3_cs", no_transform)
    for dt, t_final in ((0.0, 1.0), (-1e-3, 1.0), (1e-3, -1.0), (1e-3, np.inf), (1e-3, np.nan),
                        # t_final / dt overflows a float, or t_final is an int beyond one
                        (1e-300, 1e300), (1e-3, 10**400)):
        with pytest.raises(InvalidParameterError):
            evolve(a, dt, t_final)


@pytest.mark.parametrize("evolve", [_euler, _transport], ids=["euler", "transport"])
def test_step_beyond_t_final_is_one_step(evolve, grid16, rng):
    # t_final / dt below the step rule's 1e-12 slack still takes a step, the
    # one dt = t_final takes, and the state moves
    a = f3.random_form1(grid16, 3, rng, rms=0.3)
    got, one = (evolve(a, dt, 1e-3) for dt in (1e13, 1e-3))
    if evolve is _euler:
        assert got[1].times.tolist() == [0.0, 1e-3]
        got, one = got[0].alpha, one[0].alpha
    assert np.array_equal(got.data, one.data)
    assert not np.array_equal(got.data, a.data)


def _cs_values(rng, g, lead=(3,)):
    """2/3-box cos/sin coefficients of full-band noise and the grid values they stand for."""
    coefs = f3.rfft3_cs(rng.standard_normal(lead + g.shape), g.box)
    return coefs, f3.irfft3_cs(coefs, g.box)


def _grid_mean_dot(x, y):
    return float(np.mean(np.sum(x * y, axis=0)))


class TestSpectralMultipliers:
    def test_curl_and_grad_match_d(self, grid32, rng):
        # against spectral_derivative of the box's grid values
        g = grid32
        spec, values = _cs_values(rng, g)
        curl = f3.irfft3_cs(f3.curl_cs(spec, g.box), g.box)
        assert _rel(curl, f3.d(f3.Form1(g, values)).data) <= 1e-13
        spec, values = _cs_values(rng, g, ())
        grad = f3.irfft3_cs(f3.grad_cs(spec, g.box), g.box)
        assert _rel(grad, f3.d(f3.Form0(g, values)).data) <= 1e-13

    def test_leray_is_divergence_free_projection(self, grid32, rng):
        # band-limited, then full-band noise with its Nyquist planes populated
        mean = f3.constant_field(grid32, 0.7, -0.2, 0.1)
        for v in (f3.random_vector_field(grid32, 5, rng) + mean,
                  f3.VectorField(grid32, rng.standard_normal((3,) + grid32.shape)) + mean):
            p = f3.leray_project(v)
            assert f3.divergence(p).linf() <= 1e-11 * v.linf()
            assert (f3.leray_project(p) - p).linf() <= 1e-13 * v.linf()
            np.testing.assert_allclose(p.data.mean(axis=(1, 2, 3)),
                                       v.data.mean(axis=(1, 2, 3)), atol=1e-14)

    def test_mean_dot_is_grid_mean(self, grid32, rng):
        (a, x), (b, y) = _cs_values(rng, grid32), _cs_values(rng, grid32)
        got = f3.mean_dot_cs(a, b, grid32.box)
        assert got == pytest.approx(_grid_mean_dot(x, y), rel=1e-12)


BOX_N = (4, 6, 8, 10, 32, 34)


def _restrict(full, box):
    """The box's entries of a full rfftn-layout stack."""
    i = _index(box)
    return full[..., i[:, None], i, :box.keep + 1]


def _zero_fill(coefs, box):
    n = box.n
    full = np.zeros(coefs.shape[:-3] + (n, n, n // 2 + 1), complex)
    i = _index(box)
    full[..., i[:, None], i, :box.keep + 1] = coefs
    return full


def _keeps(n):
    """Cutoffs to test a box at: the 2/3 rule's, the Nyquist-free one and 1."""
    return sorted({(n - 1) // 3, n // 2 - 1, 1})


@pytest.mark.parametrize("n", BOX_N)
class TestBox:
    """The dense box transforms agree with rfftn/irfftn to a few ulps of the
    largest coefficient, and ``leray_cs`` is the one-expression cos/sin
    projection, bit for bit, and the full-layout projection to roundoff;
    curl, grad and the Parseval mean have grid-space oracles."""

    def test_layout(self, n):
        g = f3.Grid(n)
        m = (n - 1) // 3
        assert g.box is g.box_of(n, m)
        assert g.box.shape == (2 * m + 1, 2 * m + 1, m + 1)
        kx, ky, kz = g.box.k_r
        assert np.array_equal(kx.ravel(), np.r_[0:m + 1, -m:0])
        assert np.array_equal(ky.ravel(), kx.ravel())
        assert np.array_equal(kz.ravel(), np.arange(m + 1))
        mask = _mask(n)
        assert np.array_equal(_zero_fill(np.ones((3, *g.box.shape)), g.box) != 0,
                              np.broadcast_to(mask, (3, *mask.shape)))
        for keep in (-1, n // 2, n):  # 0 <= keep < n/2
            with pytest.raises(InvalidParameterError):
                f3.Box(n, keep)

    def test_transforms_match_full_layout(self, n, rng):
        for keep in _keeps(n):
            box = f3.Box(n, keep)
            for lead in ((3,), ()):
                data = rng.standard_normal(lead + (n, n, n))
                cs = f3.rfft3_cs(data, box)
                coefs = _from_cs(cs, box)
                assert _ulp_close(_zero_fill(coefs, box), _rfftn(data) * _mask(n, keep))
                assert _ulp_close(f3.irfft3_cs(cs, box), _irfftn(_zero_fill(coefs, box), n))

    def test_multipliers_match_full_layout(self, n, rng):
        g = f3.Grid(n)
        a_values = _cs_values(rng, g)[1]
        for box in (g.box, g.box_of(n, n // 2 - 1)):
            s = f3.rfft3_cs(a_values, box)
            leray = f3.leray_cs(s, box)
            assert np.array_equal(leray, _cs_leray(s, box))
            assert _rel(f3.irfft3_cs(leray, box),
                        _irfftn(_full_leray(_rfftn(a_values), n), n)) <= 1e-13
        # the cos/sin curl, grad and Leray against spectral_derivative and
        # leray_project of the grid values
        (a, a_values), (b, b_values) = _cs_values(rng, g), _cs_values(rng, g)
        curl = f3.curl_cs(a, g.box)
        assert _rel(f3.irfft3_cs(curl, g.box), f3.d(f3.Form1(g, a_values)).data) <= 1e-13
        f, f_values = _cs_values(rng, g, ())
        assert _rel(f3.irfft3_cs(f3.grad_cs(f, g.box), g.box),
                    f3.d(f3.Form0(g, f_values)).data) <= 1e-13
        leray = f3.leray_cs(a, g.box)
        assert _rel(f3.irfft3_cs(leray, g.box),
                    f3.leray_project(f3.VectorField(g, a_values)).data) <= 1e-13
        # the Parseval mean against the grid mean, relative to |x| |y|, the
        # scale of a dot product's roundoff (x . y may cancel)
        for x, y in ((a, b), (a, leray), (a, curl)):
            xv, yv = f3.irfft3_cs(x, g.box), f3.irfft3_cs(y, g.box)
            scale = np.sqrt(_grid_mean_dot(xv, xv) * _grid_mean_dot(yv, yv))
            got = f3.mean_dot_cs(x, y, g.box)
            assert abs(got - _grid_mean_dot(xv, yv)) <= 1e-15 * scale


def _change_basis(basis, coefs):
    """``basis`` (p, p) applied along the x and the y axis of box coefficients."""
    p = basis.shape[0]
    x = np.matmul(basis, coefs.reshape(coefs.shape[:-3] + (p, -1))).reshape(coefs.shape)
    return np.matmul(basis, x)


def _to_cs(coefs, box):
    """rfftn-layout box coefficients changed to the cos/sin basis along x and y:
    row k >= 0 holds A_k = a_k + a_-k and row -k holds B_k = i (a_k - a_-k)."""
    p = 2 * box.keep + 1
    basis = np.eye(p, dtype=complex)
    for k in range(1, box.keep + 1):
        basis[k, p - k] = 1.0
        basis[p - k, k], basis[p - k, p - k] = 1j, -1j
    return _change_basis(basis, coefs)


def _from_cs(coefs, box):
    """The inverse of ``_to_cs``: a_k = (A_k - i B_k)/2 and a_-k = (A_k + i B_k)/2."""
    p = 2 * box.keep + 1
    basis = np.eye(p, dtype=complex)
    for k in range(1, box.keep + 1):
        basis[k, k], basis[k, p - k] = 0.5, -0.5j
        basis[p - k, k], basis[p - k, p - k] = 0.5, 0.5j
    return _change_basis(basis, coefs)


@pytest.mark.parametrize("n", [*range(4, 66, 2), 5, 7, 21, 23, 31, 33])
def test_cs_transforms_are_the_basis_change(n, rng):
    # every K from the mean alone to the Nyquist-free box, forward and
    # inverse against rfftn and irfftn.  The forward bound is
    # 8 ulps of the data's largest coefficient: K = 0 keeps only the mean,
    # a sum of n^3 values whose cancellation leaves its own size no measure
    # of the two summation orders' roundoff.  Odd n are transport's product
    # grids M = 2K + B + 1 for even B; there the largest K is (n - 1)/2
    for lead in ((), (3,)):
        data = rng.standard_normal(lead + (n, n, n))
        full = _rfftn(data)
        scale = np.abs(_restrict(full, f3.Box(n, (n - 1) // 2))).max()
        for keep in sorted({0, 1, (n - 1) // 3, (n - 1) // 2}):
            box = f3.Box(n, keep)
            got = f3.rfft3_cs(data, box)
            assert got.shape == lead + box.shape and got.flags.c_contiguous
            assert np.abs(got - _to_cs(_restrict(full, box), box)).max() \
                <= 8 * np.finfo(float).eps * scale
            assert _ulp_close(f3.irfft3_cs(got, box),
                              _irfftn(_zero_fill(_from_cs(got, box), box), n))


def test_transforms_without_work_release_each_pass(rng):
    # a pass's input is freed once read, so a transform holds two of its
    # n^3-sized arrays at a time, not its four pass arrays and its result
    n = 32
    box = f3.Box(n, n // 2 - 1)
    data = rng.standard_normal((n, n, n))
    coefs = f3.rfft3_cs(data, box)  # builds the box's DFT matrices
    f3.irfft3_cs(coefs, box)
    assert _traced_peak(lambda: f3.rfft3_cs(data, box)) < 2.5 * data.nbytes
    assert _traced_peak(lambda: f3.irfft3_cs(coefs, box)) < 2.5 * data.nbytes


def _ulp_close(got, ref):
    """max|got - ref| within 8 ulps of max|ref|: the rounding of a dense DFT
    product against an FFT's, which a mistaken twiddle or mode far exceeds."""
    return np.abs(got - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("n", range(4, 66, 2))
def test_dealias_is_the_masked_full_layout_filter(n, rng):
    # the box round trip against the 2/3 mask on the full layout
    g = f3.Grid(n)
    for lead in ((), (3,)):
        data = rng.standard_normal(lead + g.shape)
        assert _ulp_close(f3.dealias(data, g), _irfftn(_rfftn(data) * _mask(n), n))


def test_two_thirds_box_is_the_largest_with_3k_below_n():
    # Orszag's rule: a product of two modes within K aliases onto a mode
    # within K unless 3K < n
    for n in range(4, 257, 2):
        keep = f3.Grid(n).box.keep
        assert 3 * keep < n <= 3 * (keep + 1), n


@pytest.mark.parametrize("n", [24, 48])
def test_dealias_drops_the_product_of_edge_modes(n):
    # cos^2(2 pi K x) = 1/2 + cos(4 pi K x) / 2, and mode 2K is mode 2K - n
    # on the grid: beyond K only if 3K < n (at n = 48, K = 16 left 1/2 + 1/2)
    g = f3.Grid(n)
    square = np.cos(2 * np.pi * g.box.keep * g.meshes[0]) ** 2
    assert np.abs(f3.dealias(square, g) - 0.5).max() <= 1e-14


def test_grid_keeps_its_boxes():
    # repeated asks share one box, with the arrays it has built; each grid
    # keeps its own, and they are freed with it
    g = f3.Grid(32)
    box = g.box_of(32, 15)
    assert g.box_of(32, 15) is box and g.box is g.box_of(32, 10)
    assert f3.Grid(32).box_of(32, 15) is not box
    box.ikz
    left = weakref.ref(box)
    del g, box
    gc.collect()
    assert left() is None


def test_verify_builds_each_box_once(monkeypatch):
    # one run of each suite at n = 32: every spectral layer asks its form's
    # grid, so no (n, keep) box is built twice
    built = []
    init = f3.Box.__post_init__

    def counted(box):
        init(box)
        built.append((box.n, box.keep))

    monkeypatch.setattr(f3.Box, "__post_init__", counted)
    for suite in verify.SUITES:
        built.clear()
        verify.run_suite(suite, verify.SuiteConfig(grid_n=32))
        assert built or suite == "rattleback"
        assert len(built) == len(set(built)), (suite, built)


def test_mean_dot_does_not_depend_on_blas_threads():
    # a BLAS dot splits its sum over the threads; at n = 40 that moved the
    # Euler energy drift in its eighth digit
    src = str(Path(casimir_lab.__file__).resolve().parents[1])
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from casimir_lab import forms3 as f3
        g = f3.Grid(40)
        rng = np.random.default_rng(1729)
        a, b = (f3.rfft3_cs(rng.standard_normal((3,) + g.shape), g.box) for _ in range(2))
        print(f3.mean_dot_cs(a, b, g.box).hex())
    """
    outs = {subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                           check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                           ).stdout for threads in ("1", "2")}
    assert len(outs) == 1, outs


def test_box_transforms_do_not_depend_on_blas_threads_or_stacking():
    # every pass is a BLAS matrix product: the bits hold at 1 and 2 BLAS
    # threads, and each component of a 3-stack transform is its scalar
    # transform, on the 2/3 and Nyquist-free boxes and an odd product box
    src = str(Path(casimir_lab.__file__).resolve().parents[1])
    code = """if True:
        import hashlib, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from casimir_lab import forms3 as f3
        rng = np.random.default_rng(1729)
        digest = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        for box in (f3.Box(32, 10), f3.Box(32, 15), f3.Box(48, 15), f3.Box(48, 23),
                    f3.Box(23, 10)):
            data = rng.standard_normal((3,) + (box.n,) * 3)
            spec = f3.rfft3_cs(data, box)
            print(digest(spec), digest(*(f3.rfft3_cs(c, box) for c in data)),
                  digest(f3.irfft3_cs(spec, box)), digest(*(f3.irfft3_cs(c, box) for c in spec)))
    """
    outs = [subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                           check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                           ).stdout for threads in ("1", "2")]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert len(lines) == 5
    for line in lines:
        fwd, fwd_scalar, inv, inv_scalar = line.split()
        assert fwd == fwd_scalar and inv == inv_scalar


def _refuse_fft(monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft transform called")

    for name in names:
        monkeypatch.setattr(np.fft, name, refuse)


def test_evolution_paths_use_no_fft(monkeypatch, grid16, rng):
    # one spectral layout: Leray, the random fields, dealiasing, both
    # evolutions, point evaluation and the tail check run on box transforms,
    # never on numpy.fft's
    _refuse_fft(monkeypatch, ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"))
    g = grid16
    alpha = f3.random_form1(g, 3, rng, rms=0.3)
    u = f3.random_divfree_field(g, 2, rng, rms=0.3)
    f3.leray_project(f3.sharp(alpha))
    f3.dealias(alpha.data, g)
    euler_evolve(FluidState(alpha), dt=DT, t_final=DT)
    f3.transport(alpha, u, DT, DT)
    pts = rng.random((5, 3))
    assert f3.eval_at(f3.Form0(g, alpha.data[0]), pts).shape == (5,)
    assert f3.eval_at(alpha, pts).shape == (5, 3)
    assert f3.spectral_tail_fraction(alpha.data, g) >= 0.0


def test_loop_integral_uses_no_fftn(monkeypatch, grid16, rng):
    # the curve velocity keeps its 1-D FFT (a curve has any length m); the
    # integrand's point evaluation takes no n-dimensional transform
    _refuse_fft(monkeypatch, ("fftn", "ifftn", "rfftn", "irfftn"))
    dz = f3.coordinate_oneform(grid16, 2)
    assert fluid.loop_integral(dz, f3.circle_loop(2, (0.3, 0.6, 0.0))) \
        == pytest.approx(1.0, abs=1e-13)
    alpha = f3.random_form1(grid16, 3, rng)
    assert math.isfinite(fluid.loop_integral(alpha, f3.circle_loop(0, (0.0, 0.2, 0.5))))
