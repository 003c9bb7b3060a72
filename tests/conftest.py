import numpy as np
import pytest

from casimir_lab import forms3 as f3


@pytest.fixture(scope="session")
def grid32():
    return f3.Grid(32)


@pytest.fixture(scope="session")
def grid16():
    return f3.Grid(16)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def beltrami(grid32):
    """sin(2*pi*z) dx + cos(2*pi*z) dy: curl eigenfield with helicity 2*pi."""
    return f3.one_form(
        grid32,
        lambda x, y, z: np.sin(2 * np.pi * z),
        lambda x, y, z: np.cos(2 * np.pi * z),
        lambda x, y, z: 0 * z,
    )


@pytest.fixture(scope="session")
def graph_profile(grid32):
    _, _, Z = grid32.meshes
    return f3.Form0(grid32, 0.15 * np.sin(2 * np.pi * Z) + 0.03 * np.cos(4 * np.pi * Z))


@pytest.fixture(scope="session")
def foliated_state(grid32, graph_profile):
    from casimir_lab import foliation as fol

    srng = np.random.default_rng(777)
    scale = f3.Form0(grid32, np.exp(f3.random_scalar_array(grid32, 1, srng, rms=0.05)))
    alpha = fol.graph_foliation_form(grid32, graph_profile, scale)
    return fol.FoliatedState.from_alpha(alpha)


@pytest.fixture(scope="session")
def unit_peaks():
    """``_unit_peaks``: a suite's records and each check unit's memory peak."""
    return _unit_peaks


def _unit_peaks(suite, cfg, *, restart=False):
    """Run ``suite``'s check units as ``run_suite`` does, under tracemalloc.
    Returns the records and, per unit name, the peak of traced memory while
    that unit ran, above the level before the suite's first unit.

    With ``restart``, tracing starts afresh before each unit and its peak is
    added to the level the units before it left.  That is an upper bound (a
    block traced before a restart and freed after it is not subtracted),
    tight for units that share no fixtures: on the rattleback suite it read
    the one-session peaks to within 0.1 KiB.  It is there for interpreted
    loops: tracemalloc gives an object taken from a free list a new
    traceback when its block is traced (bpo-35053), so once a unit has
    cycled floats through the free list, every float a later rk4 step
    makes costs a traceback, and a 5,000-step leg takes 0.3 s, not 0.04 s."""
    import tracemalloc

    from casimir_lab import verify

    checks, peaks, carried = [], {}, 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for unit, records in zip(verify.SUITES[suite], verify._unit_records(suite, cfg)):
            current, peak = tracemalloc.get_traced_memory()
            peaks[unit.__name__] = carried + peak - before
            checks += records
            if restart:
                carried += current - before
                tracemalloc.stop()
                tracemalloc.start()
                before = tracemalloc.get_traced_memory()[0]
            else:
                tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    return checks, peaks
