import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lab import cli
from casimir_lab import fieldexpr as fe
from casimir_lab.errors import EvalError, ParseError
from casimir_lab.forms3 import Grid

ORIGIN = {"x": 0.0, "y": 0.0, "z": 0.0}


class TestParse:
    def test_sin_of_product(self):
        assert fe.evaluate("sin(2*pi*z)", {**ORIGIN, "z": 0.25}) == 1.0

    def test_sum_of_literal_and_scaled_cosine(self):
        assert fe.evaluate("1+0.2*cos(2*pi*x)", ORIGIN) == 1.2

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as err:
            fe.evaluate("sin(w)", ORIGIN)
        assert err.value.offset == 4

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="malformed number '1.2.3'") as err:
            fe.tokenize("1.2.3")
        assert err.value.offset == 0

    def test_unbalanced_parens(self):
        for text in ("sin(", "(x+y", "x+y)"):
            with pytest.raises(ParseError):
                fe.evaluate(text, ORIGIN)

    def test_arity_error(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            fe.evaluate("sin(x, y)", ORIGIN)
        with pytest.raises(ParseError, match="argument list"):
            fe.evaluate("sin + 1", ORIGIN)

    def test_precedence(self):
        assert fe.evaluate("2+3*4", ORIGIN) == 14.0
        assert fe.evaluate("2*3^2", ORIGIN) == 18.0
        assert fe.evaluate("-2^2", ORIGIN) == -4.0
        assert fe.evaluate("2^3^2", ORIGIN) == 64.0  # left associative
        assert fe.evaluate("2^-1", ORIGIN) == 0.5
        assert fe.evaluate("6-2-1", ORIGIN) == 3.0
        assert fe.evaluate("--3", ORIGIN) == 3.0

    def test_scientific_literals(self):
        assert fe.evaluate("1e-3 + 2.5E2", ORIGIN) == 0.001 + 250.0

    def test_left_associative_chains(self):
        z = 0.37
        assert fe.evaluate("3*pi*z", {**ORIGIN, "z": z}) == (3 * np.pi) * z != 3 * (np.pi * z)
        assert fe.evaluate("0.1+0.2+0.3", ORIGIN) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_unary_minus_binds_looser_than_power(self):
        assert fe.evaluate("-x^2", {**ORIGIN, "x": 3.0}) == -9.0

    def test_negative_literal_power_base(self):
        assert fe.evaluate("(-2)^2", ORIGIN) == 4.0

    def test_negative_zero_literal_keeps_sign(self):
        assert fe.evaluate("1/(-0)", ORIGIN) == -np.inf


class TestEvalOnGrid:
    def test_zero_grid(self, grid16):
        f = fe.eval_on_grid("0", grid16)
        assert np.all(f.data == 0.0)

    def test_analytic_node_value(self):
        f = fe.eval_on_grid("sin(2*pi*x)", Grid(32))
        assert f.data[8, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_division_by_zero(self, grid16):
        with pytest.raises(EvalError) as err:
            fe.eval_on_grid("1/(x - x)", grid16)
        assert err.value.node == (0, 0, 0)

    def test_nonfinite_node_index(self, grid16):
        # 1/x blows up only at the x = 0 plane
        with pytest.raises(EvalError) as err:
            fe.eval_on_grid("1/x", grid16)
        assert err.value.node[0] == 0

    def test_constant_broadcast(self, grid16):
        f = fe.eval_on_grid("pi", grid16)
        assert np.all(f.data == np.pi)


# Random expression trees as nested tuples, with a fully parenthesized
# rendering and a numpy reference that applies the same operations to the
# same operand types (Python-float literals, pi as a float).
_leaf = st.one_of(
    st.floats(min_value=0, max_value=100).map(lambda v: ("lit", abs(v))),
    st.sampled_from(["x", "y", "z", "pi"]).map(lambda n: ("name", n)),
)


def _branch(children):
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp"]), children),
        st.tuples(st.just("bin"), st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=48)


def _render(t) -> str:
    if t[0] == "lit":
        return repr(t[1])
    if t[0] == "name":
        return t[1]
    if t[0] == "neg":
        return f"(-{_render(t[1])})"
    if t[0] == "call":
        return f"{t[1]}({_render(t[2])})"
    return f"({_render(t[2])}{t[1]}{_render(t[3])})"


_BIN = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
        "/": np.divide, "^": np.power}


def _reference(t, env):
    if t[0] == "lit":
        return t[1]
    if t[0] == "name":
        return np.pi if t[1] == "pi" else env[t[1]]
    if t[0] == "neg":
        return -_reference(t[1], env)
    if t[0] == "call":
        return getattr(np, t[1])(_reference(t[2], env))
    return _BIN[t[1]](_reference(t[2], env), _reference(t[3], env))


def _depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_reference_bit_for_bit(tree):
    text = _render(tree)
    for x, y, z in [(0.0, 0.0, 0.0), (0.3, 0.7, 0.11), (0.99, 0.5, 0.25)]:
        env = {"x": x, "y": y, "z": z}
        if _depth(text) > fe.MAX_DEPTH:
            with pytest.raises(ParseError, match="nests deeper"):
                fe.evaluate(text, env)
            continue
        with np.errstate(all="ignore"):
            want = _reference(tree, env)
        assert _bits(fe.evaluate(text, env)) == _bits(want)


@given(_trees)
@settings(max_examples=50, deadline=None)
def test_eval_on_grid_matches_reference_bit_for_bit(tree):
    g = Grid(4)
    text = _render(tree)
    if _depth(text) > fe.MAX_DEPTH:
        with pytest.raises(ParseError, match="nests deeper"):
            fe.eval_on_grid(text, g)
        return
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(_reference(tree, dict(zip("xyz", g.meshes))),
                                          dtype=float), g.shape)
    bad = np.argwhere(~np.isfinite(want))
    if len(bad):
        with pytest.raises(EvalError) as err:
            fe.eval_on_grid(text, g)
        assert err.value.node == tuple(int(i) for i in bad[0])
    else:
        assert _bits(fe.eval_on_grid(text, g).data) == _bits(want)


def _helicity(text: str, capsys) -> tuple[int, str]:
    code = cli.main(["fluid", "helicity", "--grid", "8", f"--field={text},0,0"])
    return code, capsys.readouterr().err


def _with_frames(extra: int, fn, *args):
    """fn(*args) called under ``extra`` more caller frames."""
    return fn(*args) if extra == 0 else _with_frames(extra - 1, fn, *args)


class TestNestingAndChains:
    @pytest.mark.parametrize("extra", [0, 150])
    @pytest.mark.parametrize("opener", ["(", "sin("])
    def test_depth_limit(self, capsys, opener, extra):
        at_limit, deeper = (opener * k + "z" + ")" * k
                            for k in (fe.MAX_DEPTH, fe.MAX_DEPTH + 1))
        code, err = _with_frames(extra, _helicity, at_limit, capsys)
        assert code == 0 and "Traceback" not in err
        code, err = _with_frames(extra, _helicity, deeper, capsys)
        assert code == 2 and "nests deeper" in err and "Traceback" not in err
        with pytest.raises(ParseError, match="nests deeper") as exc:
            _with_frames(extra, fe.evaluate, deeper, ORIGIN)
        assert exc.value.offset == fe.MAX_DEPTH * len(opener)

    @pytest.mark.parametrize("text", ["+".join(["z"] * 3000), "-" * 3000 + "z",
                                      "2^" + "-" * 3000 + "z"],
                             ids=["sum", "unary-minus", "signed-exponent"])
    def test_long_chains(self, capsys, text):
        code, err = _helicity(text, capsys)
        assert code == 0 and "Traceback" not in err
