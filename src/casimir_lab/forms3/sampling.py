"""Off-grid evaluation of the trigonometric interpolant, and closed curves.

Loop curves are uniform parameter samples of a smooth closed curve on the
torus; coordinates may wind, so velocities are recovered by unwrapping to
the universal cover, differentiating the periodic part spectrally, and
adding back the integer winding rates.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import PreconditionError
from .forms import Form0, Form3
from .grid import Box, rfft3_cs

# How far (mod 1) a curve's closing row may sit from its first row.
CLOSURE_TOL = 1e-12


def _eval_scalar(data: np.ndarray, box: Box, pts: np.ndarray) -> np.ndarray:
    coef = rfft3_cs(data - data.flat[0], box)  # a constant has zero coefficients
    coef[..., 1:] *= 2.0                        # kz > 0 stands for its conjugate too
    coef /= box.n ** 3
    return kernels.trig_eval(coef, pts) + data.flat[0]


def eval_at(obj, points):
    """Evaluate a form or field at arbitrary points of the torus.

    points: one (x, y, z) triple or an (m, 3) array, all finite.  The
    interpolant is ``leray_project``'s, on the Nyquist-free box K = n/2 - 1:
    exact for band-limited data without Nyquist modes, it reproduces their
    grid values at the nodes, and constants exactly.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3 or not np.all(np.isfinite(pts)):
        raise PreconditionError("points must be finite (x, y, z) triples")
    pts = np.ascontiguousarray(np.mod(pts, 1.0))
    box = obj.grid.box_of(obj.grid.n, obj.grid.n // 2 - 1)
    if isinstance(obj, (Form0, Form3)):
        vals = _eval_scalar(obj.data, box, pts)
    else:
        vals = np.stack([_eval_scalar(c, box, pts) for c in obj.data], axis=-1)
    if np.asarray(points).ndim == 1:
        return vals[0]
    return vals


def closed_curve(points: np.ndarray) -> np.ndarray:
    """Validate a uniformly sampled closed curve and drop its closing row.

    ``points`` has shape (m+1, 3): m uniform parameter samples plus a final
    row repeating the start (mod 1 in each coordinate, to CLOSURE_TOL).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 9 or not np.all(np.isfinite(pts)):
        raise PreconditionError("curve must be an (m+1, 3) array of finite points with m >= 8")
    gap = pts[-1] - pts[0]
    gap -= np.round(gap)
    if np.abs(gap).max() > CLOSURE_TOL:
        raise PreconditionError(
            f"open curve: endpoints differ by {np.abs(gap).max():.3e} (mod 1)"
        )
    return pts[:-1]


def curve_velocity(samples: np.ndarray) -> np.ndarray:
    """d(gamma)/dt at uniform samples of one full period (closing row removed)."""
    m = samples.shape[0]
    steps = np.diff(samples, axis=0, append=samples[:1])
    steps -= np.round(steps)                 # lift to the universal cover
    winding = np.round(steps.sum(axis=0))    # integer winding numbers
    lift = np.concatenate([np.zeros((1, 3)), np.cumsum(steps[:-1], axis=0)]) + samples[0]
    t = np.arange(m)[:, None] / m
    periodic = lift - winding[None, :] * t
    k = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        k[m // 2] = 0.0
    dperiodic = np.fft.ifft(2j * np.pi * k[:, None] * np.fft.fft(periodic, axis=0), axis=0).real
    return dperiodic + winding[None, :]


def circle_loop(axis: int, through: tuple, m: int = 128) -> np.ndarray:
    """A coordinate circle winding once along ``axis``; includes the closing row."""
    t = np.arange(m + 1) / m
    pts = np.tile(np.asarray(through, dtype=float), (m + 1, 1))
    pts[:, axis] = (through[axis] + t) % 1.0
    pts[-1, axis] = pts[0, axis]
    return pts
