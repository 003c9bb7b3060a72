"""d, wedge and interior against closed forms derived with sympy's diffgeom.

The oracle never sees the component conventions of ``forms3``: sympy builds
the forms from dx, dy, dz and wedge products, differentiates and wedges them
as forms, and reads each component by evaluating the result on coordinate
vector fields (a 2-form's on (e_y, e_z), (e_z, e_x), (e_x, e_y), as the basis
{dy^dz, dz^dx, dx^dy} states).  The fields are trigonometric of band at most
3 at n = 16, so d is exact to roundoff and the products are pointwise.
"""

import numpy as np
import pytest

from casimir_lab import forms3 as f3

sp = pytest.importorskip("sympy")
dg = pytest.importorskip("sympy.diffgeom")
from sympy.diffgeom.rn import R3_r  # noqa: E402

N = 16
E = (R3_r.e_x, R3_r.e_y, R3_r.e_z)
PAIRS = ((1, 2), (2, 0), (0, 1))  # the 2-form basis dy^dz, dz^dx, dx^dy
X = sp.symbols("x y z", real=True)


def _s(k, v):
    return sp.sin(2 * sp.pi * k * v)


def _c(k, v):
    return sp.cos(2 * sp.pi * k * v)


def _fields():
    """Components of a 0-form, two 1-forms, a 2-form and a vector field, in
    sympy's coordinate functions x, y, z of R^3."""
    x, y, z = R3_r.x, R3_r.y, R3_r.z
    R = sp.Rational
    f = _s(1, x) * _c(2, y) + R(1, 3) * _c(3, z) + R(1, 2) * _s(1, x + y - z)
    a = [_s(1, y) + R(1, 4), _c(1, x) * _s(2, z), _s(1, x + y) - R(1, 5) * _c(3, y)]
    b = [_c(1, y) * _s(1, z), _s(2, z) + R(2, 3) * _c(1, x), _c(1, x) * _c(1, y)]
    w = [_c(1, x + z), _s(1, y) * _s(2, x), _c(1, z) * _c(1, y) + R(1, 2)]
    v = [_s(1, z), _c(1, x + y), _s(1, y) * _c(3, x)]
    return f, a, b, w, v


def _one(comps):
    return sum((c * dx for c, dx in zip(comps, (R3_r.dx, R3_r.dy, R3_r.dz))), 0)


def _two(comps):
    d = (R3_r.dx, R3_r.dy, R3_r.dz)
    return sum((c * dg.WedgeProduct(d[i], d[j]) for c, (i, j) in zip(comps, PAIRS)), 0)


# the coordinate vectors a form of each rank is evaluated on, one tuple per
# component of the forms3 basis
SLOTS = {0: [()], 1: [(e,) for e in E], 2: [(E[i], E[j]) for i, j in PAIRS], 3: [E]}


def _components(form, rank, vector=None):
    """A form's components in the forms3 basis, after i_vector when one is given."""
    lead = () if vector is None else (vector,)
    return [form.rcall(*lead, *slots) for slots in SLOTS[rank - len(lead)]]


@pytest.fixture(scope="module")
def closed_forms():
    """Each check's inputs and result as sympy expressions in x, y, z."""
    f, a, b, w, v = _fields()
    alpha, beta, omega = _one(a), _one(b), _two(w)
    vector = sum((c * e for c, e in zip(v, E)), 0)
    cases = {
        "d0": ([[f]], dg.Differential(f), 1, None),
        "d1": ([a], dg.Differential(alpha), 2, None),
        "d2": ([w], dg.Differential(omega), 3, None),
        "wedge11": ([a, b], dg.WedgeProduct(alpha, beta), 2, None),
        "wedge12": ([a, w], dg.WedgeProduct(alpha, omega), 3, None),
        "interior1": ([v, a], alpha, 1, vector),
        "interior2": ([v, w], omega, 2, vector),
    }
    sub = dict(zip((R3_r.x, R3_r.y, R3_r.z), X))
    return {name: ([[c.subs(sub) for c in comps] for comps in inputs],
                   [sp.expand(c.subs(sub)) for c in _components(form, rank, vec)])
            for name, (inputs, form, rank, vec) in cases.items()}


def _on_grid(exprs, g):
    vals = sp.lambdify(X, exprs, "numpy")(*g.meshes)
    return np.stack([np.broadcast_to(c, g.shape) for c in vals]).astype(float)


def _check(closed_forms, name, compute, inputs_as):
    g = f3.Grid(N)
    inputs, result = closed_forms[name]
    args = []
    for kind, comps in zip(inputs_as, inputs):
        vals = _on_grid(comps, g)
        args.append(kind(g, vals if len(vals) == 3 else vals[0]))
    got = compute(*args).data.reshape((-1,) + g.shape)
    expect = _on_grid(result, g)
    assert got.shape == expect.shape
    return np.abs(got - expect).max() / np.abs(expect).max()


@pytest.mark.parametrize("rank, kind", [(0, f3.Form0), (1, f3.Form1), (2, f3.Form2)])
def test_d_matches_closed_form(closed_forms, rank, kind):
    # a spectral derivative of band <= 3 data: roundoff of a few ulps of 2 pi k
    assert _check(closed_forms, f"d{rank}", f3.d, [kind]) <= 1e-13


@pytest.mark.parametrize("name, kinds", [("wedge11", [f3.Form1, f3.Form1]),
                                         ("wedge12", [f3.Form1, f3.Form2])])
def test_wedge_matches_closed_form(closed_forms, name, kinds):
    assert _check(closed_forms, name, f3.wedge, kinds) <= 1e-14


@pytest.mark.parametrize("name, kind", [("interior1", f3.Form1), ("interior2", f3.Form2)])
def test_interior_matches_closed_form(closed_forms, name, kind):
    assert _check(closed_forms, name, f3.interior, [f3.VectorField, kind]) <= 1e-14
