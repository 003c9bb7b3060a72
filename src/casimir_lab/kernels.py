"""Hot numeric loops: the rattleback RK4/RK45 integrators and point
evaluation of the trigonometric interpolant.

The integrators are interpreted scalar loops; their floating-point
operations are fixed, so trajectories are IEEE-deterministic.  Point
evaluation is a vectorized numpy contraction.
"""

import math
from array import array

import numpy as np

from .errors import BlowUpError

# Read by the benchmark's machine facts; no numba build exists.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Rattleback integration loops.  State is the dual-space triple (p, r, s),
# rhs = (-h*p*s, -r*s, r*r + h*p*p).
# ---------------------------------------------------------------------------

def rk4_loop(p, r, s, h, dt, n_steps, stride, first):
    """Fixed-step RK4 over steps ``first + 1`` to ``first + n_steps`` of a
    run.  Records the initial state and every ``stride``-th step in a flat
    (p, r, s) array('d'), which it returns; a step that goes non-finite
    raises BlowUpError at the run's time, ``(first + step) * dt``.

    The p- and r-slopes are kept negated, m = -k (``h * p * s`` for
    ``-h * p * s``), and subtracted where k is added: negation is exact, so
    the steps are bit for bit those of the textbook form.  ``half * k`` is
    how Python already groups ``0.5 * dt * k``.
    """
    states = array("d", [p, r, s])
    record = states.append
    half = 0.5 * dt
    for step in range(1, n_steps + 1):
        hp = h * p
        m1p = hp * s
        m1r = r * s
        k1s = r * r + hp * p
        p2 = p - half * m1p
        r2 = r - half * m1r
        s2 = s + half * k1s
        hp = h * p2
        m2p = hp * s2
        m2r = r2 * s2
        k2s = r2 * r2 + hp * p2
        p3 = p - half * m2p
        r3 = r - half * m2r
        s3 = s + half * k2s
        hp = h * p3
        m3p = hp * s3
        m3r = r3 * s3
        k3s = r3 * r3 + hp * p3
        p4 = p - dt * m3p
        r4 = r - dt * m3r
        s4 = s + dt * k3s
        hp = h * p4
        m4p = hp * s4
        m4r = r4 * s4
        k4s = r4 * r4 + hp * p4
        p = p - dt * (m1p + 2.0 * m2p + 2.0 * m3p + m4p) / 6.0
        r = r - dt * (m1r + 2.0 * m2r + 2.0 * m3r + m4r) / 6.0
        s = s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        # x - x is 0.0 for finite x and NaN for inf or NaN, so the sum is
        # NaN exactly when some component is not finite
        if p - p + (r - r) + (s - s) != 0.0:
            raise BlowUpError("state became non-finite", time=(first + step) * dt)
        if step % stride == 0:
            record(p)
            record(r)
            record(s)
    return states


def rk45_loop(p, r, s, h, t_final, rtol, atol, max_steps):
    """Adaptive Dormand-Prince 5(4).  Records the initial state and every
    accepted step, so memory grows with the output, not the step budget.
    The slope at an accepted point is the next step's first stage (FSAL):
    an attempted step takes six right-hand sides.

    Returns array('d') times and flat (p, r, s) states.  A non-finite step
    has an inf or NaN error estimate, so it is never accepted; a NaN one, or
    ``max_steps`` attempts short of ``t_final``, raise BlowUpError at the
    last recorded time.
    """
    t = 0.0
    dt = min(1e-3, t_final)
    times = array("d", [t])
    states = array("d", [p, r, s])
    k1p = -h * p * s
    k1r = -r * s
    k1s = r * r + h * p * p
    for _ in range(max_steps):
        if t >= t_final:
            return times, states
        if dt > t_final - t:
            dt = t_final - t

        ap = p + dt * 0.2 * k1p
        ar = r + dt * 0.2 * k1r
        as_ = s + dt * 0.2 * k1s
        k2p = -h * ap * as_
        k2r = -ar * as_
        k2s = ar * ar + h * ap * ap

        ap = p + dt * (3.0 / 40.0 * k1p + 9.0 / 40.0 * k2p)
        ar = r + dt * (3.0 / 40.0 * k1r + 9.0 / 40.0 * k2r)
        as_ = s + dt * (3.0 / 40.0 * k1s + 9.0 / 40.0 * k2s)
        k3p = -h * ap * as_
        k3r = -ar * as_
        k3s = ar * ar + h * ap * ap

        ap = p + dt * (44.0 / 45.0 * k1p - 56.0 / 15.0 * k2p + 32.0 / 9.0 * k3p)
        ar = r + dt * (44.0 / 45.0 * k1r - 56.0 / 15.0 * k2r + 32.0 / 9.0 * k3r)
        as_ = s + dt * (44.0 / 45.0 * k1s - 56.0 / 15.0 * k2s + 32.0 / 9.0 * k3s)
        k4p = -h * ap * as_
        k4r = -ar * as_
        k4s = ar * ar + h * ap * ap

        ap = p + dt * (19372.0 / 6561.0 * k1p - 25360.0 / 2187.0 * k2p
                       + 64448.0 / 6561.0 * k3p - 212.0 / 729.0 * k4p)
        ar = r + dt * (19372.0 / 6561.0 * k1r - 25360.0 / 2187.0 * k2r
                       + 64448.0 / 6561.0 * k3r - 212.0 / 729.0 * k4r)
        as_ = s + dt * (19372.0 / 6561.0 * k1s - 25360.0 / 2187.0 * k2s
                        + 64448.0 / 6561.0 * k3s - 212.0 / 729.0 * k4s)
        k5p = -h * ap * as_
        k5r = -ar * as_
        k5s = ar * ar + h * ap * ap

        ap = p + dt * (9017.0 / 3168.0 * k1p - 355.0 / 33.0 * k2p
                       + 46732.0 / 5247.0 * k3p + 49.0 / 176.0 * k4p
                       - 5103.0 / 18656.0 * k5p)
        ar = r + dt * (9017.0 / 3168.0 * k1r - 355.0 / 33.0 * k2r
                       + 46732.0 / 5247.0 * k3r + 49.0 / 176.0 * k4r
                       - 5103.0 / 18656.0 * k5r)
        as_ = s + dt * (9017.0 / 3168.0 * k1s - 355.0 / 33.0 * k2s
                        + 46732.0 / 5247.0 * k3s + 49.0 / 176.0 * k4s
                        - 5103.0 / 18656.0 * k5s)
        k6p = -h * ap * as_
        k6r = -ar * as_
        k6s = ar * ar + h * ap * ap

        # 5th-order solution (b row); k7 = rhs at the new point, the next k1.
        np_ = p + dt * (35.0 / 384.0 * k1p + 500.0 / 1113.0 * k3p + 125.0 / 192.0 * k4p
                        - 2187.0 / 6784.0 * k5p + 11.0 / 84.0 * k6p)
        nr = r + dt * (35.0 / 384.0 * k1r + 500.0 / 1113.0 * k3r + 125.0 / 192.0 * k4r
                       - 2187.0 / 6784.0 * k5r + 11.0 / 84.0 * k6r)
        ns = s + dt * (35.0 / 384.0 * k1s + 500.0 / 1113.0 * k3s + 125.0 / 192.0 * k4s
                       - 2187.0 / 6784.0 * k5s + 11.0 / 84.0 * k6s)
        k7p = -h * np_ * ns
        k7r = -nr * ns
        k7s = nr * nr + h * np_ * np_

        ep = dt * (71.0 / 57600.0 * k1p - 71.0 / 16695.0 * k3p + 71.0 / 1920.0 * k4p
                   - 17253.0 / 339200.0 * k5p + 22.0 / 525.0 * k6p - 1.0 / 40.0 * k7p)
        er = dt * (71.0 / 57600.0 * k1r - 71.0 / 16695.0 * k3r + 71.0 / 1920.0 * k4r
                   - 17253.0 / 339200.0 * k5r + 22.0 / 525.0 * k6r - 1.0 / 40.0 * k7r)
        es = dt * (71.0 / 57600.0 * k1s - 71.0 / 16695.0 * k3s + 71.0 / 1920.0 * k4s
                   - 17253.0 / 339200.0 * k5s + 22.0 / 525.0 * k6s - 1.0 / 40.0 * k7s)

        sp = atol + rtol * max(abs(p), abs(np_))
        sr = atol + rtol * max(abs(r), abs(nr))
        ss = atol + rtol * max(abs(s), abs(ns))
        try:
            err = math.sqrt(((ep / sp) ** 2 + (er / sr) ** 2 + (es / ss) ** 2) / 3.0)
        except OverflowError:  # float ** raises where * gives inf: reject the step
            err = math.inf

        if err <= 1.0:
            t = t + dt
            p, r, s = np_, nr, ns
            k1p, k1r, k1s = k7p, k7r, k7s
            times.append(t)
            states.append(p)
            states.append(r)
            states.append(s)
        elif err != err:
            # a NaN error estimate would turn dt into NaN and spin the budget
            raise BlowUpError("state became non-finite", time=times[-1])
        if err == 0.0:
            factor = 5.0
        else:
            factor = 0.9 * err ** -0.2
            if factor < 0.2:
                factor = 0.2
            elif factor > 5.0:
                factor = 5.0
        dt = dt * factor
    raise BlowUpError("step budget exhausted", time=times[-1])


# ---------------------------------------------------------------------------
# Trigonometric-interpolant evaluation at scattered points.
# coef is a real field's (2K+1, 2K+1, K+1) cos/sin-layout box coefficients,
# weighted so that the real part of their sum against per-point bases is the
# interpolant: [1, cos 2 pi k x (k = 1..K), sin 2 pi k x (k = K..1)] along x
# and y, exp(2 pi i kz z) for kz = 0..K along z.  Evaluation is a separable
# contraction.
# ---------------------------------------------------------------------------

def _cs_basis(x, keep):
    """[1, cos 2 pi k x for k = 1..K, sin 2 pi k x for k = K..1] per point,
    shape (m, 2K+1): the box's rows along x (or columns along y)."""
    t = 2.0 * np.pi * np.outer(x, np.arange(1, keep + 1))
    return np.hstack([np.ones((x.size, 1)), np.cos(t), np.sin(t[:, ::-1])])


def trig_eval(coef, pts):
    """Contract the coefficients against per-point bases, in chunks: z as
    one real product of Re(c e^(2 pi i kz z)) = Re c cos - Im c sin over
    coef's float view, then y and x."""
    p, _, q = coef.shape
    flat = coef.view(float).reshape(p * p, 2 * q).T
    out = np.empty(pts.shape[0])
    chunk = 512
    for lo in range(0, pts.shape[0], chunk):
        hi = min(lo + chunk, pts.shape[0])
        tz = 2.0 * np.pi * np.outer(pts[lo:hi, 2], np.arange(q))
        ez = np.stack([np.cos(tz), -np.sin(tz)], axis=-1).reshape(hi - lo, 2 * q)
        t1 = (ez @ flat).reshape(hi - lo, p, p)      # (m, i, j)
        t2 = np.einsum("mij,mj->mi", t1, _cs_basis(pts[lo:hi, 1], q - 1))
        out[lo:hi] = np.einsum("mi,mi->m", t2, _cs_basis(pts[lo:hi, 0], q - 1))
    return out
