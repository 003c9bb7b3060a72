"""d, wedge and interior against closed forms derived with sympy's diffgeom.

The oracle never sees the component conventions of ``forms3``: sympy builds
the forms from dx, dy, dz and wedge products, differentiates and wedges them
as forms, and reads each component by evaluating the result on coordinate
vector fields (a 2-form's on (e_y, e_z), (e_z, e_x), (e_x, e_y), as the basis
{dy^dz, dz^dx, dx^dy} states).  The fields are trigonometric of band at most
3 at n = 16, so d is exact to roundoff and the products are pointwise.

The same forms give the foliation chain of a scaled graph foliation in the
solver's own gauge, against ``FoliatedState.from_alpha`` at n = 32.
"""

import numpy as np
import pytest

from casimir_lab import foliation as fol
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


def _profile():
    """a(z) and f(z) of the graph foliation f (dz + a dx), in x, y, z."""
    z, R = X[2], sp.Rational
    return (R(3, 20) * sp.sin(2 * sp.pi * z) + R(3, 100) * sp.cos(4 * sp.pi * z),
            sp.exp(R(1, 10) * sp.cos(2 * sp.pi * z)))


@pytest.fixture(scope="module")
def graph_chain():
    """The chain of alpha = f(z) (dz + a(z) dx) in the solver's gauge,
    X = alpha_sharp / |alpha|^2, eta = i_X d(alpha), gamma = i_X d(eta) and
    chi = 2 (eta ^ gamma - d(gamma)), and the GV density eta ^ d(eta),
    derived for undefined a and f (eta and gamma factored, which keeps the
    derivation to seconds), then evaluated on ``_profile``'s a and f."""
    a, f = sp.Function("a"), sp.Function("f")
    comps = [f(R3_r.z) * a(R3_r.z), 0, f(R3_r.z)]
    abs_sq = sum(c ** 2 for c in comps)
    x_ref = sum((c / abs_sq * e for c, e in zip(comps, E)), 0)

    def interior_of_d(form):
        return _one([sp.factor(c) for c in _components(dg.Differential(form), 2, x_ref)])

    eta = interior_of_d(_one(comps))
    gamma = interior_of_d(eta)
    forms = {"eta": (eta, 1), "gamma": (gamma, 1),
             "chi": (2 * (dg.WedgeProduct(eta, gamma) - dg.Differential(gamma)), 2),
             "density": (dg.WedgeProduct(eta, dg.Differential(eta)), 3)}
    profile = {fn: sp.Lambda(X[2], expr) for fn, expr in zip((a, f), _profile())}
    return {name: [c.subs(R3_r.z, X[2]).subs(profile).doit()
                   for c in _components(form, rank)]
            for name, (form, rank) in forms.items()}


@pytest.fixture(scope="module")
def graph_state():
    g = f3.Grid(32)
    a, f = (f3.Form0(g, _on_grid([expr], g)[0]) for expr in _profile())
    return fol.FoliatedState.from_alpha(fol.graph_foliation_form(g, a, f))


@pytest.mark.parametrize("name, tol", [("eta", 1e-13), ("gamma", 1e-10), ("chi", 1e-9)])
def test_graph_chain_matches_closed_form(graph_chain, graph_state, name, tol):
    # eta is a first derivative of the resolved f a, exact to roundoff; gamma
    # and chi take second and third derivatives of rational functions of
    # a and f that are not band-limited: 6e-12 and 1.2e-10 at n = 32
    expect = _on_grid(graph_chain[name], graph_state.grid)
    got = getattr(graph_state, name).data
    assert np.abs(got - expect).max() <= tol * np.abs(expect).max()


def test_graph_gv_density_matches_closed_form(graph_chain, graph_state):
    # a graph foliation's density vanishes pointwise, and so does the grid's
    eta = graph_state.eta
    deta = f3.d(eta)
    got = f3.wedge(eta, deta).data.reshape((-1,) + eta.grid.shape)
    expect = _on_grid(graph_chain["density"], eta.grid)
    assert np.abs(got - expect).max() <= 1e-14 * eta.linf() * deta.linf()
    assert abs(graph_state.gv) <= 1e-14
