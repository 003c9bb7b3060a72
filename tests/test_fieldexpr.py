import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lab import fieldexpr as fe
from casimir_lab.errors import EvalError, ParseError
from casimir_lab.forms3 import Grid


class TestParse:
    def test_sin_of_product(self):
        e = fe.parse("sin(2*pi*z)")
        assert isinstance(e, fe.Call) and e.func == "sin"
        assert isinstance(e.arg, fe.BinOp) and e.arg.op == "*"

    def test_sum_of_literal_and_scaled_cosine(self):
        e = fe.parse("1+0.2*cos(2*pi*x)")
        assert isinstance(e, fe.BinOp) and e.op == "+"
        assert isinstance(e.left, fe.Lit) and e.left.value == 1.0

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as err:
            fe.parse("sin(w)")
        assert err.value.offset == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            fe.parse("sin(")
        with pytest.raises(ParseError):
            fe.parse("(x+y")
        with pytest.raises(ParseError):
            fe.parse("x+y)")

    def test_arity_error(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            fe.parse("sin(x, y)")
        with pytest.raises(ParseError, match="argument list"):
            fe.parse("sin + 1")

    def test_precedence(self):
        assert fe.eval_expr(fe.parse("2+3*4"), 0, 0, 0) == 14.0
        assert fe.eval_expr(fe.parse("2*3^2"), 0, 0, 0) == 18.0
        assert fe.eval_expr(fe.parse("-2^2"), 0, 0, 0) == -4.0
        assert fe.eval_expr(fe.parse("2^3^2"), 0, 0, 0) == 64.0  # left associative
        assert fe.eval_expr(fe.parse("2^-1"), 0, 0, 0) == 0.5
        assert fe.eval_expr(fe.parse("6-2-1"), 0, 0, 0) == 3.0

    def test_scientific_literals(self):
        assert fe.eval_expr(fe.parse("1e-3 + 2.5E2"), 0, 0, 0) == 0.001 + 250.0


class TestEvalOnGrid:
    def test_zero_grid(self, grid16):
        f = fe.eval_on_grid(fe.parse("0"), grid16)
        assert np.all(f.data == 0.0)

    def test_analytic_node_value(self):
        g = Grid(32)
        f = fe.eval_on_grid(fe.parse("sin(2*pi*x)"), g)
        assert f.data[8, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_division_by_zero(self, grid16):
        with pytest.raises(EvalError) as err:
            fe.eval_on_grid(fe.parse("1/(x - x)"), grid16)
        assert err.value.node == (0, 0, 0)

    def test_nonfinite_node_index(self, grid16):
        # 1/x blows up only at the x = 0 plane
        with pytest.raises(EvalError) as err:
            fe.eval_on_grid(fe.parse("1/x"), grid16)
        assert err.value.node[0] == 0

    def test_constant_broadcast(self, grid16):
        f = fe.eval_on_grid(fe.parse("pi"), grid16)
        assert np.all(f.data == np.pi)


class TestPrint:
    def test_associativity_rendering(self):
        assert fe.print_expr(fe.parse("2*pi*z")) == "((2*pi)*z)"

    def test_unary_minus_binds_looser_than_power(self):
        assert fe.print_expr(fe.parse("-x^2")) == "(-(x^2))"

    def test_negative_literal_power_base(self):
        e = fe.BinOp("^", fe.Lit(-2.0), fe.Lit(2.0))
        assert fe.eval_expr(fe.parse(fe.print_expr(e)), 0, 0, 0) == 4.0

    def test_negative_zero_literal_keeps_sign(self):
        e = fe.BinOp("/", fe.Lit(1.0), fe.Lit(-0.0))
        assert fe.eval_expr(fe.parse(fe.print_expr(e)), 0, 0, 0) == -np.inf


# random expression trees for the roundtrip property
_leaf = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(fe.Lit),
    st.sampled_from(["x", "y", "z", "pi"]).map(fe.Name),
)


def _branch(children):
    return st.one_of(
        children.map(fe.Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: fe.Call(t[0], t[1])),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
            lambda t: fe.BinOp(t[0], t[1], t[2])),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=64)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_roundtrip_bit_exact(tree):
    text = fe.print_expr(tree)
    reparsed = fe.parse(text)
    pts = [(0.0, 0.0, 0.0), (0.3, 0.7, 0.11), (0.99, 0.5, 0.25)]
    for x, y, z in pts:
        a = fe.eval_expr(tree, x, y, z)
        b = fe.eval_expr(reparsed, x, y, z)
        assert (a == b) or (np.isnan(a) and np.isnan(b))


@given(_trees)
@settings(max_examples=50, deadline=None)
def test_roundtrip_on_grid(tree):
    g = Grid(4)
    text = fe.print_expr(tree)
    try:
        a = fe.eval_on_grid(tree, g)
    except EvalError:
        with pytest.raises(EvalError):
            fe.eval_on_grid(fe.parse(text), g)
        return
    b = fe.eval_on_grid(fe.parse(text), g)
    assert np.array_equal(a.data, b.data)
