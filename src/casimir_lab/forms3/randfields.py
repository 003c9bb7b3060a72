"""Seeded band-limited random fields for property suites and tests."""

from __future__ import annotations

import numpy as np

from .forms import Form0, Form1, VectorField, form_of_rank
from .calculus import _leray_on
from .grid import Box, Grid, _unit_roots


def random_scalar_array(grid: Grid, bandwidth: int, rng: np.random.Generator,
                        rms: float = 1.0) -> np.ndarray:
    """Real zero-mean scalar grid supported on modes with max |k| <= bandwidth.

    Each kept mode gets a complex standard normal coefficient, drawn in C
    order over the fft-ordered cube, and the field is the real part of their
    sum times n^-1.5.  The sum is three dense matrix products against the
    kept columns of exp(2 pi i x k / n), one per axis; for z only the real
    part is formed.
    """
    n = grid.n
    idx = np.flatnonzero(np.abs(grid.k_full) <= bandwidth)
    b = idx.size
    m = b ** 3
    c = (rng.standard_normal(m) + 1j * rng.standard_normal(m)).reshape(b, b, b)
    c[0, 0, 0] = 0.0
    e = _unit_roots(n)[np.outer(np.arange(n), idx) % n]
    c = (e @ c.reshape(b, b * b)).reshape(n, b, b)
    c = e @ c
    f = c.real @ e.real.T - c.imag @ e.imag.T
    f *= n ** -1.5
    norm = float(np.sqrt(np.mean(f ** 2)))
    if norm > 0:
        f *= rms / norm
    return f


def random_form0(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> Form0:
    return Form0(grid, random_scalar_array(grid, bandwidth, rng, rms))


def random_form1(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> Form1:
    return Form1(grid, _random_stack(grid, bandwidth, rng, rms))


def random_form(grid: Grid, rank: int, bandwidth: int, rng, rms: float = 1.0):
    if rank in (0, 3):
        return form_of_rank(rank, grid, random_scalar_array(grid, bandwidth, rng, rms))
    return form_of_rank(rank, grid, _random_stack(grid, bandwidth, rng, rms))


def random_vector_field(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> VectorField:
    return VectorField(grid, _random_stack(grid, bandwidth, rng, rms))


def _random_stack(grid: Grid, bandwidth: int, rng, rms: float) -> np.ndarray:
    """Three ``random_scalar_array`` draws, stacked as components."""
    return np.stack([random_scalar_array(grid, bandwidth, rng, rms) for _ in range(3)])


def random_divfree_field(grid: Grid, bandwidth: int, rng, rms: float = 1.0) -> VectorField:
    """A random vector field's Leray projection on its bandwidth's box, at ``rms``."""
    box = Box.of(grid.n, min(bandwidth, grid.n // 2 - 1))
    v = _leray_on(random_vector_field(grid, bandwidth, rng, rms), box)
    norm = float(np.sqrt(np.mean(np.sum(v.data ** 2, axis=0))))
    if norm > 0:
        v = VectorField(grid, v.data * (rms / norm))
    return v
