import hashlib
import math
import time
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lab import kernels
from casimir_lab import rattleback as rb
from casimir_lab import verify
from casimir_lab.errors import BlowUpError, DomainError, InvalidParameterError
from casimir_lab.verify import CHIRALITY_IC, _chirality_turning_point, run_suite


def test_bianchi_vi_structure_constants():
    c = rb.bianchi_vi(-2.0)
    assert c.shape == (3, 3, 3)
    # coefficient of P in [S, P] and its antisymmetric partner
    assert c[0, 2, 0] == -2.0
    assert c[0, 0, 2] == 2.0
    # [S, R] = R
    assert c[1, 2, 1] == 1.0
    # [P, R] = 0
    assert np.all(c[:, 0, 1] == 0.0)


def test_bianchi_vi_h_zero_center():
    c = rb.bianchi_vi(0.0)
    assert np.all(c[0, 2, :] == 0.0)  # [S, P] = 0
    assert rb.antisymmetry_residual(c) == 0.0


@pytest.mark.parametrize("h", [-2.0, -1.5, 0.0, 3.7])
def test_jacobi_identity_any_h(h):
    assert rb.jacobi_residual(rb.bianchi_vi(h)) <= 1e-14


def test_bianchi_vi_rejects_nonfinite():
    for h in (float("nan"), 10**400):
        with pytest.raises(InvalidParameterError, match="h must be a finite real number"):
            rb.bianchi_vi(h)


def test_poisson_matrix_hand_value():
    c = rb.bianchi_vi(-2.0)
    j = rb.poisson_matrix(c, rb.RattlebackState(1.0, 1.0, 1.0))
    expected = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(j, expected)


def test_poisson_matrix_zero_point_and_singular_line():
    c = rb.bianchi_vi(-2.0)
    assert np.all(rb.poisson_matrix(c, rb.RattlebackState(0, 0, 0)) == 0.0)
    for s in (1.0, -7.3, 1e6):
        assert np.all(rb.poisson_matrix(c, rb.RattlebackState(0, 0, s)) == 0.0)
    # rank 2 off the singular set
    j = rb.poisson_matrix(c, rb.RattlebackState(0.5, 0.2, 0.0))
    assert np.linalg.matrix_rank(j) == 2


@pytest.mark.parametrize("state,h,expected", [
    ((1, 1, 1), -2.0, (2.0, -1.0, -1.0)),
    ((0, 1, 1), -2.0, (0.0, -1.0, 1.0)),
    ((0, 0, 5), -2.0, (0.0, 0.0, 0.0)),
])
def test_rhs_hand_values(state, h, expected):
    out = rb.rattleback_rhs(rb.RattlebackState(*state), h)
    assert (out.p, out.r, out.s) == expected


def test_rhs_equals_bracket_flow(rng):
    c = rb.bianchi_vi(-2.0)
    for _ in range(50):
        xi = rb.RattlebackState(*rng.uniform(-3, 3, 3))
        rhs = rb.rattleback_rhs(xi, -2.0).as_array()
        jgh = rb.poisson_matrix(c, xi) @ xi.as_array()
        np.testing.assert_allclose(rhs, jgh, rtol=0, atol=1e-13 * max(1, np.abs(jgh).max()))


def test_hamiltonian_values():
    assert rb.hamiltonian(rb.RattlebackState(1, 1, 1)) == 1.5
    assert rb.hamiltonian(rb.RattlebackState(0, 0, 0)) == 0.0
    assert rb.hamiltonian(rb.RattlebackState(3, 0, 4)) == 12.5


def test_casimir_values():
    assert rb.casimir(rb.RattlebackState(2, 4, 9.9), -2.0) == 32.0
    assert rb.casimir(rb.RattlebackState(0, 3.3, 1.0), -2.0) == 0.0
    for h in (-2.0, -1.5, 4.0):
        assert rb.casimir(rb.RattlebackState(1, 1, 0.3), h) == 1.0


def test_casimir_domain_error():
    with pytest.raises(DomainError):
        rb.casimir(rb.RattlebackState(1.0, 0.0, 1.0), -2.0)
    with pytest.raises(DomainError):
        rb.casimir(rb.RattlebackState(1.0, -2.0, 1.0), -1.5)
    with pytest.raises(DomainError, match="r > 0"):
        rb.casimir_gradient(rb.RattlebackState(1.0, 0.0, 1.0), -2.0)


@pytest.mark.parametrize("state,h", [
    ((2, 4, 1), -2.0),
    ((1, 1, 1), -3.0),
    ((0.1, 2, -5), -2.0),
])
def test_casimir_gradient_kernel(state, h):
    xi = rb.RattlebackState(*state)
    scale = max(1.0, np.abs(rb.casimir_gradient(xi, h)).max())
    assert rb.casimir_gradient_check(xi, h) <= 1e-14 * scale


class TestIntegrate:
    def test_singular_line_constant(self):
        tr = rb.integrate(rb.RattlebackState(0, 0, 5.0), -2.0, dt=1e-3, t_final=1.0)
        assert np.all(tr.states[:, 2] == 5.0)
        assert np.all(tr.states[:, :2] == 0.0)

    def test_singular_line_casimir_is_nan_without_warning(self):
        # C = p r^(-h) has no value at r = 0; for h > 0 the discarded
        # rows compute 0 ** (-h), which must not warn
        tr = rb.integrate(rb.RattlebackState(0, 0, 5.0), 1.0, dt=1e-3, t_final=0.01)
        assert np.all(np.isnan(tr.casimirs))

    def test_rk4_conservation(self):
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=20.0)
        h0, c0 = tr.hamiltonians[0], tr.casimirs[0]
        assert np.abs(tr.hamiltonians - h0).max() / h0 <= 1e-8
        assert np.abs(tr.casimirs - c0).max() / abs(c0) <= 1e-8

    def test_rk45_conservation(self):
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                          t_final=20.0, method="rk45")
        h0 = tr.hamiltonians[0]
        assert np.abs(tr.hamiltonians - h0).max() / h0 <= 1e-8
        assert np.all(np.diff(tr.times) > 0)

    def test_rk45_memory_follows_output(self):
        # records grow with the accepted steps; nothing is reserved per call
        tracemalloc.start()
        try:
            tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                              t_final=1.0, method="rk45")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.times[-1] == 1.0
        assert peak < 4 * 2**20

    def test_rk4_memory_follows_output(self):
        # records grow with the rows a stride keeps, not with the steps taken
        tracemalloc.start()
        try:
            tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                              t_final=20.0, stride=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr.times) == 101 and tr.times[-1] == 20.0
        assert peak < 64 * 2**10

    def test_joined_run_memory_is_bounded(self):
        # a run of several legs holds its pieces and their join at once:
        # about 2.2 outputs, where a reader of integrate_legs holds one leg
        tracemalloc.start()
        try:
            tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = tr.times.nbytes + tr.states.nbytes + tr.hamiltonians.nbytes + tr.casimirs.nbytes
        assert len(tr.times) == 20001
        assert peak <= 2.5 * out

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_records_are_writable_views(self, method):
        # both methods hand back the loop's array('d') records without a copy
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                          t_final=1.0, method=method)
        assert not tr.states.base.flags.owndata
        assert tr.states.flags.writeable and tr.times.flags.writeable
        if method == "rk45":
            assert not tr.times.flags.owndata

    def test_rk4_matches_rk45_endpoint(self):
        t1 = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-4, t_final=2.0)
        # the adaptive loop at tolerances tighter than integrate's
        _, states = kernels.rk45_loop(0.1, 0.2, 1.0, -2.0, 2.0, 1e-12, 1e-14,
                                      rb.RK45_MAX_STEPS)
        np.testing.assert_allclose(t1.states[-1], states[-3:], atol=1e-9)

    @pytest.mark.parametrize("method, digest", [
        ("rk4", "b2a082d3cea3f531e72ae279b8080c410790d438f6fa1293aee334b4f6f75211"),
        ("rk45", "9b5d1dc791fb8093b4c670d1f511ab17169a0a3907787db1cad401e73b01fc32"),
    ])
    def test_trajectory_bits_pinned(self, method, digest):
        # the loops' float operations are fixed: any change to their
        # arithmetic (order, or a numpy scalar in place of a float) shows here
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=5.0,
                          method=method)
        assert hashlib.sha256(tr.states.tobytes()).hexdigest() == digest

    def test_parity_symmetry_bit_exact(self):
        t1 = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=3.0)
        t2 = rb.integrate(rb.RattlebackState(-0.1, 0.2, 1.0), -2.0, dt=1e-3, t_final=3.0)
        assert np.array_equal(t2.states, t1.states * np.array([-1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("h", [-2.0, -1.5])
    def test_rk4_prefix_is_the_shorter_run(self, h):
        # the suite reads its parity start's run to t = 5 off the reference
        # run to t = 100: fixed steps make the first 5,001 rows the same bits
        xi = rb.RattlebackState(0.1, 0.2, 1.0)
        short = rb.integrate(xi, h, dt=1e-3, t_final=5.0)
        long = rb.integrate(xi, h, dt=1e-3, t_final=100.0)
        assert np.array_equal(short.states, long.states[:5001])

    def test_invalid_parameters(self):
        xi = rb.RattlebackState(0.1, 0.2, 1.0)
        with pytest.raises(InvalidParameterError):
            rb.integrate(xi, -2.0, dt=-1e-3, t_final=1.0)
        with pytest.raises(InvalidParameterError):
            rb.integrate(xi, -2.0, dt=1e-3, t_final=0.0)
        with pytest.raises(InvalidParameterError):
            rb.integrate(xi, -2.0, dt=1e-3, t_final=1.0, method="euler")

    @pytest.mark.parametrize("kwargs, match", [
        ({"stride": 0}, "stride must be an integer >= 1"),
        ({"stride": -2}, "stride must be an integer >= 1"),
        ({"stride": 2.0}, "stride must be an integer >= 1"),
        ({"stride": True}, "stride must be an integer >= 1"),
        ({"t_final": float("inf")}, "t_final must be positive and finite"),
        ({"t_final": float("nan")}, "t_final must be positive and finite"),
        ({"method": "rk45", "stride": 5}, "stride must be 1 with method 'rk45'"),
        # the last record would be the state at t = 0.007, not at t_final
        ({"t_final": 0.01, "stride": 7}, "stride must divide the 10 rk4 steps, got 7"),
    ])
    def test_argument_contract(self, kwargs, match):
        # each of these used to raise ZeroDivisionError, ValueError or
        # OverflowError, or (rk45) silently drop the stride
        args = {"dt": 1e-3, "t_final": 1.0, **kwargs}
        with pytest.raises(InvalidParameterError, match=match):
            rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, **args)

    @pytest.mark.parametrize("stride", [1, 1000, 5000])
    def test_blowup_reports_time(self, stride):
        # h > 0 with a huge state overflows in the first step; the time is
        # that step's, not the end of its stride block
        with pytest.raises(BlowUpError) as err:
            rb.integrate(rb.RattlebackState(1e150, 1e150, 1e150), 2.0,
                         dt=1e-3, t_final=10.0, stride=stride)
        assert err.value.time == 1e-3

    def test_rk45_nan_error_estimate_stops(self):
        # the first trial step overflows, so the error estimate is NaN
        t0 = time.perf_counter()
        with pytest.raises(BlowUpError, match="state became non-finite"):
            rb.integrate(rb.RattlebackState(1e150, 1e150, 1e150), 2.0,
                         dt=1e-3, t_final=10.0, method="rk45")
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("kwargs, match", [
        ({"h": float("nan")}, "h must be finite"),
        ({"h": float("inf")}, "h must be finite"),
        ({"t_final": 1.0005}, "t_final must be an integer number of steps"),
        # each of these used to raise OverflowError
        ({"h": 10**400}, "h must be finite"),
        ({"h": -10**400}, "h must be finite"),
        ({"t_final": 10**400}, "t_final must be positive and finite"),
        ({"t_final": 1e300, "dt": 1e-300}, "t_final / dt is beyond the float range"),
        ({"dt": 10**400}, "t_final / dt is beyond the float range"),
    ])
    def test_refusals(self, kwargs, match):
        args = {"h": -2.0, "dt": 1e-3, "t_final": 1.0, **kwargs}
        with pytest.raises(InvalidParameterError, match=match):
            rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), **args)

    def test_stride_sampling(self):
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                          t_final=1.0, stride=10)
        assert len(tr.times) == 101
        assert tr.times[1] == pytest.approx(1e-2)


def _concatenated(pieces):
    """The pieces' times, states, H and C, each joined end to end."""
    return [np.concatenate([getattr(tr, name) for tr in pieces])
            for name in ("times", "states", "hamiltonians", "casimirs")]


class TestIntegrateLegs:
    @pytest.mark.parametrize("h, t_final, stride, lengths", [
        # 12,345 steps: two whole legs and a part
        (-2.0, 12.345, 1, [5001, 5000, 2345]),
        # legs of 4,998 steps, rounded down to the stride
        (-2.0, 12.345, 3, [1667, 1666, 783]),
        # a stride longer than LEG_STEPS is one leg
        (-1.5, 14.0, 7000, [2, 1]),
        # the parity start's run: the first leg ends at t = 5
        (-2.0, 5.0, 1, [5001]),
        # the Casimir column's NaN rows (r = 0) and overflowed ones (h = 400)
        (2.0, 5.5, 1, [5001, 500]),
        (400.0, 6.0, 10, [501, 100]),
        # within 1e-9 of zero steps: the start alone, as one piece
        (-2.0, 1e-10, 1, [1]),
    ])
    def test_pieces_are_integrates_run(self, h, t_final, stride, lengths):
        for xi in (rb.RattlebackState(0.1, 0.2, 1.0), rb.RattlebackState(0, 0, 5.0)):
            pieces = list(rb.integrate_legs(xi, h, 1e-3, t_final, stride=stride))
            assert [len(tr.times) for tr in pieces] == lengths
            whole = rb.integrate(xi, h, 1e-3, t_final, stride=stride)
            for got, want in zip(_concatenated(pieces),
                                 (whole.times, whole.states, whole.hamiltonians,
                                  whole.casimirs)):
                assert got.tobytes() == want.tobytes()
            # and the pieces are one loop over the whole run, bit for bit
            n_steps = round(t_final / 1e-3)
            once = kernels.rk4_loop(xi.p, xi.r, xi.s, h, 1e-3, n_steps, stride, 0)
            assert whole.states.tobytes() == once.tobytes()
            assert whole.times.tobytes() == (np.arange(len(once) // 3) * (stride * 1e-3)).tobytes()

    def test_run_rules_and_loops_run_once_per_leg(self, monkeypatch):
        # integrate joins integrate_legs's pieces; neither re-enters the
        # other per leg, so a three-leg run applies the run rules once
        calls = {"step_count": 0, "rk4_loop": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(rb, "step_count")
        counted(kernels, "rk4_loop")
        xi = rb.RattlebackState(0.1, 0.2, 1.0)
        assert len(rb.integrate(xi, -2.0, 1e-3, 12.345).times) == 12346
        assert calls == {"step_count": 1, "rk4_loop": 3}
        assert len(list(rb.integrate_legs(xi, -2.0, 1e-3, 12.345))) == 3
        assert calls == {"step_count": 2, "rk4_loop": 6}

    def test_rk45_is_one_piece(self):
        xi = rb.RattlebackState(0.1, 0.2, 1.0)
        pieces = list(rb.integrate_legs(xi, -2.0, 1e-3, 20.0, method="rk45"))
        whole = rb.integrate(xi, -2.0, 1e-3, 20.0, method="rk45")
        assert len(pieces) == 1
        for got, want in zip(_concatenated(pieces),
                             (whole.times, whole.states, whole.hamiltonians, whole.casimirs)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("leg_steps", [rb.LEG_STEPS, 1])
    @pytest.mark.parametrize("xi, h", [
        (rb.RattlebackState(1e150, 1e150, 1e150), 2.0),  # at the first step
        (rb.RattlebackState(0.1, 0.2, 1.0), 1e6),        # at the second
    ])
    def test_blowup_is_integrates(self, monkeypatch, leg_steps, xi, h):
        # with legs of one step, the second step's blow-up is in a later leg
        with pytest.raises(BlowUpError) as want:
            rb.integrate(xi, h, dt=1e-3, t_final=10.0)
        monkeypatch.setattr(rb, "LEG_STEPS", leg_steps)
        with pytest.raises(BlowUpError) as got:
            for _ in rb.integrate_legs(xi, h, dt=1e-3, t_final=10.0):
                pass
        assert (str(got.value), got.value.time) == (str(want.value), want.value.time)

    @pytest.mark.parametrize("kwargs, match", [
        ({"t_final": 1.0005}, "t_final must be an integer number of steps"),
        ({"stride": 7, "t_final": 0.01}, "stride must divide the 10 rk4 steps, got 7"),
        ({"method": "rk45", "stride": 5}, "stride must be 1 with method 'rk45'"),
    ])
    def test_refusals_are_integrates(self, kwargs, match):
        args = {"h": -2.0, "dt": 1e-3, "t_final": 1.0, **kwargs}
        with pytest.raises(InvalidParameterError, match=match):
            next(rb.integrate_legs(rb.RattlebackState(0.1, 0.2, 1.0), **args))


class TestExtremeH:
    """At |h| = 400 and 1e6 the Casimir chart's powers overflow; warnings are
    errors in this suite, so these read inf or NaN without one."""

    def _where_casimirs(self, tr, h):
        # the column as it was formed before, kept verbatim as the reference
        states = tr.states
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(states[:, 1] > 0, states[:, 0] * states[:, 1] ** (-h), np.nan)

    @pytest.mark.parametrize("h", [400.0, -400.0, 1e6, 2.0, -2.0])
    def test_casimir_column_is_the_where_form(self, h):
        for xi in (rb.RattlebackState(0.1, 0.2, 1.0), rb.RattlebackState(0.0, 0.2, 1.0),
                   rb.RattlebackState(0, 0, 5.0), rb.RattlebackState(0.1, -0.2, 1.0)):
            tr = rb.integrate(xi, h, dt=1e-3, t_final=1e-3)
            assert tr.casimirs.tobytes() == self._where_casimirs(tr, h).tobytes()

    def test_overflowed_casimir_column(self):
        # r decays from 0.2, and r ** -400 passes the float range near r = 0.17
        tr = rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), 400.0, dt=1e-3, t_final=1.0)
        assert np.isfinite(tr.casimirs[0]) and np.isposinf(tr.casimirs[-1])

    @pytest.mark.parametrize("h, r", [(400.0, 0.15), (1e6, 0.2)])
    def test_gradient_check_reads_nan(self, h, r):
        # r ** (-h - 1) overflows, and J grad C forms 0 * inf: a NaN, which
        # fails the check's record
        assert math.isnan(rb.casimir_gradient_check(rb.RattlebackState(0.1, r, 1.0), h))


def _rk4_loop_reference(p, r, s, h, dt, n_steps, stride, first):
    """kernels.rk4_loop in its textbook form, kept verbatim as the reference;
    returns the records and the run's step it stopped at."""
    states = array("d", [p, r, s])
    for step in range(1, n_steps + 1):
        k1p = -h * p * s
        k1r = -r * s
        k1s = r * r + h * p * p
        p2 = p + 0.5 * dt * k1p
        r2 = r + 0.5 * dt * k1r
        s2 = s + 0.5 * dt * k1s
        k2p = -h * p2 * s2
        k2r = -r2 * s2
        k2s = r2 * r2 + h * p2 * p2
        p3 = p + 0.5 * dt * k2p
        r3 = r + 0.5 * dt * k2r
        s3 = s + 0.5 * dt * k2s
        k3p = -h * p3 * s3
        k3r = -r3 * s3
        k3s = r3 * r3 + h * p3 * p3
        p4 = p + dt * k3p
        r4 = r + dt * k3r
        s4 = s + dt * k3s
        k4p = -h * p4 * s4
        k4r = -r4 * s4
        k4s = r4 * r4 + h * p4 * p4
        p = p + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        r = r + dt * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        s = s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        if not (math.isfinite(p) and math.isfinite(r) and math.isfinite(s)):
            return states, first + step
        if step % stride == 0:
            states.append(p)
            states.append(r)
            states.append(s)
    return states, first + n_steps


@pytest.mark.parametrize("start, h, dt, n_steps, stride, stop", [
    (CHIRALITY_IC, -2.0, 1e-3, 40_000, 1, 40_000),
    ((0.1, 0.2, 1.0), -1.5, 1e-3, 20_000, 1, 20_000),
    ((0.1, 0.2, 1.0), -5.0, 1e-3, 20_000, 1, 20_000),
    ((0.1, -0.2, 1.0), -2.0, 1e-3, 10_000, 7, 10_000),
    # too long a step: RK4 is unstable and the state overflows at step 6
    ((0.1, 0.2, 1.0), -2.0, 1.0, 1_000, 1, 6),
    # h > 0 with a huge state overflows in the first step
    ((1e150, 1e150, 1e150), 2.0, 1e-3, 1_000, 1, 1),
    # at stride 4 step 6 falls between the records at steps 4 and 8, and in
    # a 7-step loop in the unrecorded tail; step 1 comes before any record
    # but the start
    ((0.1, 0.2, 1.0), -2.0, 1.0, 1_000, 4, 6),
    ((0.1, 0.2, 1.0), -2.0, 1.0, 7, 4, 6),
    ((1e150, 1e150, 1e150), 2.0, 1e-3, 1_000, 4, 1),
])
def test_rk4_loop_matches_its_textbook_form(start, h, dt, n_steps, stride, stop):
    # negated p- and r-slopes, a hoisted half step, index stores into a
    # buffer of the output's size and one finiteness test per loop leave
    # every bit and the step the loop stops at as they were
    ref_states, ref_stop = _rk4_loop_reference(*start, h, dt, n_steps, stride, 0)
    assert ref_stop == stop
    if stop < n_steps:
        # a loop that starts after the run's step 5000 stops at its step 5000 + stop
        for first in (0, 5_000):
            assert _rk4_loop_reference(*start, h, dt, n_steps, stride, first)[1] == first + stop
            with pytest.raises(BlowUpError, match="state became non-finite") as err:
                kernels.rk4_loop(*start, h, dt, n_steps, stride, first)
            assert err.value.time == (first + stop) * dt
    else:
        states = kernels.rk4_loop(*start, h, dt, n_steps, stride, 0)
        assert len(states) == 3 * (n_steps // stride + 1)
        assert states.tobytes() == ref_states.tobytes()


class TestRk45StepControl:
    def test_zero_error_grows_step_fivefold(self):
        # (0, 0, s) is a rest point: every error estimate is 0
        times, states = kernels.rk45_loop(0.0, 0.0, 5.0, -2.0, 1.0, 1e-10, 1e-12, 100)
        np.testing.assert_allclose(np.diff(times)[:4], [1e-3, 5e-3, 2.5e-2, 1.25e-1],
                                   rtol=1e-12)
        assert times[-1] == 1.0
        assert set(states[0::3]) == set(states[1::3]) == {0.0}
        assert set(states[2::3]) == {5.0}

    def test_large_error_shrinks_step_at_most_fivefold(self):
        # err is about 2.7e3 at the first trial step of 1e-3: the raw factor
        # 0.9 * err**-0.2 is about 0.19, clamped to 0.2, and the retry at 2e-4
        # (err about 0.9) is accepted
        times, states = kernels.rk45_loop(1.0, 2.0, 10.0, -2.0, 1e-3, 0.0, 5e-16, 100)
        assert len(times) == 7 and len(states) == 3 * 7 and times[-1] == 1e-3
        assert times[1] == 1e-3 * 0.2

    def test_nan_parameter_stops_on_the_error_estimate(self):
        # every stage is NaN, so the first trial step is neither accepted nor shrunk
        with pytest.raises(BlowUpError, match="state became non-finite") as err:
            kernels.rk45_loop(0.1, 0.2, 1.0, float("nan"), 1.0, 1e-10, 1e-12, 100)
        assert err.value.time == 0.0

    def test_overflowing_error_norm_rejects_the_step(self):
        # (ep / sp) ** 2 overflows at the first trial step; Python's float **
        # raises there, where the step must be rejected and shrunk instead,
        # so the budget runs out at the 42nd record
        with pytest.raises(BlowUpError, match="step budget exhausted") as err:
            kernels.rk45_loop(3677251.21097939, 1.00151274357786, 139.38441910650408,
                              -2.0, 1.0, 1e-10, 1e-12, 50)
        assert err.value.time == 1.761275465109986e-07

    def test_step_budget_status(self):
        # the first five attempts are accepted, so the error carries the
        # time of the full run's sixth record
        times, _ = kernels.rk45_loop(0.1, 0.2, 1.0, -2.0, 10.0, 1e-10, 1e-12, 1_000)
        with pytest.raises(BlowUpError, match="step budget exhausted") as err:
            kernels.rk45_loop(0.1, 0.2, 1.0, -2.0, 10.0, 1e-10, 1e-12, 5)
        assert err.value.time == times[5]

    def test_integrate_reports_exhausted_budget(self, monkeypatch):
        times, _ = kernels.rk45_loop(0.1, 0.2, 1.0, -2.0, 10.0, rb.RK45_RTOL, rb.RK45_ATOL,
                                     1_000)
        monkeypatch.setattr(rb, "RK45_MAX_STEPS", 5)
        with pytest.raises(BlowUpError, match="step budget exhausted") as err:
            rb.integrate(rb.RattlebackState(0.1, 0.2, 1.0), -2.0, dt=1e-3,
                         t_final=10.0, method="rk45")
        assert err.value.time == times[5]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=st.tuples(_finite, _finite, _finite), h=_finite,
       t_final=st.floats(min_value=1e-300, max_value=1e300),
       rtol=st.floats(min_value=0.0, max_value=1.0),
       atol=st.floats(min_value=1e-300, max_value=1.0),
       max_steps=st.integers(min_value=1, max_value=50))
def test_rk45_loop_never_raises_nor_records_nonfinite(state, h, t_final, rtol, atol,
                                                      max_steps):
    # the loop raises nothing but BlowUpError, and a run it returns ends at
    # t_final with finite records
    try:
        times, states = kernels.rk45_loop(*state, h, t_final, rtol, atol, max_steps)
    except BlowUpError as exc:
        assert math.isfinite(exc.time)
        return
    assert times[-1] == t_final and len(states) == 3 * len(times)
    assert all(map(math.isfinite, times)) and all(map(math.isfinite, states))


def test_restricted_casimir_report():
    for s0, h in ((1.0, -2.0), (0.0, -2.0), (-7.3, -1.5)):
        assert rb.restricted_casimir_report(s0, h) == {
            "rhs_zero_on_line": 0.0, "poisson_matrix_zero_on_line": 0.0,
            "bracket_trivial_on_line": 0.0}


def test_restricted_casimir_report_fails_on_nan(monkeypatch):
    grads = np.array([np.ones(3), np.full(3, np.nan), np.ones(3)])
    monkeypatch.setattr(rb, "_monomial_gradients", lambda xi: grads)
    assert np.isnan(rb.restricted_casimir_report(3.7, -2.0)["bracket_trivial_on_line"])
    report = run_suite("rattleback")
    assert "rattleback-bracket-trivial-on-line" in report["failed_checks"]
    rec = next(c for c in report["checks"] if c["check"] == "rattleback-bracket-trivial-on-line")
    assert rec["value"] is None and rec["pass"] is False and rec["note"] == "value is nan"


def _monomial_gradients_reference(xi):
    """The monomial gradients as they were formed one monomial at a time,
    kept verbatim as the reference."""
    vals = xi.as_array()
    grads = []
    for a in range(4):
        for b in range(4 - a):
            for c in range(4 - a - b):
                if not 1 <= a + b + c <= 3:
                    continue
                exps = np.array([a, b, c], dtype=float)
                grad = np.zeros(3)
                for i in range(3):
                    if exps[i] == 0:
                        continue
                    e = exps.copy()
                    e[i] -= 1
                    grad[i] = exps[i] * np.prod(vals ** e)
                grads.append(grad)
    return grads


def test_monomial_gradients_are_the_per_monomial_rule(rng):
    # random states, and the singular line, where 0 ** 0 = 1 keeps the
    # pure powers of s and every other gradient is 0
    states = [rb.RattlebackState(*rng.uniform(-3, 3, 3)) for _ in range(50)]
    states += [rb.RattlebackState(0.0, 0.0, s) for s in (3.7, -1.5, 0.0)]
    for xi in states:
        got = rb._monomial_gradients(xi)
        assert got.shape == (19, 3)
        assert got.tobytes() == np.array(_monomial_gradients_reference(xi)).tobytes()


@pytest.mark.parametrize("seed", [1729, 4242])
@pytest.mark.parametrize("h", [-2.0, -5.0])
def test_bracket_antisymmetry_samples_are_the_pairwise_loop(monkeypatch, seed, h):
    # the samples _rb_bracket reads off one bracket matrix per state are the
    # pairwise loop's, bit for bit, drawn from the same states
    seen = {}
    check = verify._check

    def keep(name, value, tol, **extra):
        seen[name] = value
        return check(name, value, tol, **extra)
    monkeypatch.setattr(verify, "_check", keep)
    verify._rb_bracket(verify.SuiteConfig(seed=seed, rattleback_h=h), {})
    rng, c, want = np.random.default_rng(seed), rb.bianchi_vi(h), []
    for _ in range(5):
        xi = rb.RattlebackState(*rng.uniform(-2, 2, 3))
        j = rb.poisson_matrix(c, xi)
        grads = _monomial_gradients_reference(xi)
        for gf in grads:
            for gg in grads:
                a, b = float(gf @ j @ gg), float(gg @ j @ gf)
                want.append(abs(a + b) / max(1.0, abs(a), abs(b)))
    got = np.concatenate([np.ravel(a) for a in seen["rattleback-bracket-antisymmetry"]])
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("h", [-1.05, -1.5, -2.0, -5.0])
def test_chirality_turning_points(h):
    # the spin flips to -s* and swings back to +s*, both read off H and C
    xi = rb.RattlebackState(*CHIRALITY_IC)
    s_star = _chirality_turning_point(xi, h)
    s = rb.integrate(xi, h, dt=1e-3, t_final=40.0).states[:, 2]
    assert s.min() == pytest.approx(-s_star, abs=1e-9)
    assert s[np.argmin(s):].max() == pytest.approx(s_star, abs=1e-9)
    # s* is a turning point on xi's level set: ds/dt = r^2 + h p^2 = 0 there
    p = math.sqrt((2 * rb.hamiltonian(xi) - s_star ** 2) / (1 - h))
    turn = rb.RattlebackState(p, math.sqrt(-h) * p, s_star)
    assert rb.casimir(turn, h) == pytest.approx(rb.casimir(xi, h), rel=1e-12)
    assert abs(rb.rattleback_rhs(turn, h).s) <= 1e-14


def test_trajectory_invariants():
    with pytest.raises(InvalidParameterError):
        rb.Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)),
                      hamiltonians=np.zeros(2), casimirs=np.zeros(2))
    with pytest.raises(InvalidParameterError):
        rb.Trajectory(times=np.array([0.0]), states=np.zeros((2, 3)),
                      hamiltonians=np.zeros(2), casimirs=np.zeros(2))


def test_state_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        rb.RattlebackState(float("inf"), 0.0, 0.0)
    # an int beyond the float range, which float() overflows on
    with pytest.raises(InvalidParameterError, match="component p must be finite"):
        rb.RattlebackState(10**400, 0, 0)
    with pytest.raises(InvalidParameterError, match="component s must be finite"):
        rb.RattlebackState(0, 0, -10**400)
