"""A small expression language for scalar fields on the torus.

Grammar (precedence from loosest to tightest, left-associative):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed)*          # signed allows '-' after '^'
    signed  := '-' signed | atom
    atom    := NUMBER | 'pi' | 'x' | 'y' | 'z'
             | ('sin' | 'cos' | 'exp') '(' sum ')' | '(' sum ')'

So '^' binds tighter than unary minus: "-x^2" is -(x^2).  Every parse error
carries the byte offset of the offending token.  Evaluation is pointwise on
grid nodes; a non-finite result anywhere raises with the node index.
Differentiation is not provided here: derivatives are taken spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError
from .forms3 import Form0, Grid

FUNCTIONS = ("sin", "cos", "exp")
NAMES = ("x", "y", "z", "pi")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# --- tokenizer --------------------------------------------------------------

_OPS = set("+-*/^(),")


def tokenize(src: str) -> list[tuple[str, object, int]]:
    """Tokens are (kind, value, offset); kinds: num, ident, op, end."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# --- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.next()

    def parse(self):
        expr = self.sum()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return expr

    def sum(self):
        node = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.product())
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.next()
                node = BinOp("^", node, self.signed_atom())
            else:
                return node

    def signed_atom(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.signed_atom())
        return self.atom()

    def atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Lit(value)
        if kind == "ident":
            if value in FUNCTIONS:
                k2, v2, o2 = self.peek()
                if k2 != "op" or v2 != "(":
                    raise ParseError(f"function {value!r} needs an argument list", o2)
                self.next()
                arg = self.sum()
                k3, v3, o3 = self.peek()
                if k3 == "op" and v3 == ",":
                    raise ParseError(f"function {value!r} takes exactly one argument", o3)
                self.expect_op(")")
                return Call(value, arg)
            if value in NAMES:
                return Name(value)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(src: str):
    """Parse expression text into an AST; errors carry byte offsets."""
    return _Parser(src).parse()


# --- evaluation -------------------------------------------------------------

_FN = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _eval(node, env: dict):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Name):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        return _FN[node.func](_eval(node.arg, env))
    a = _eval(node.left, env)
    b = _eval(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return np.divide(a, b)   # IEEE inf/nan instead of ZeroDivisionError
    return np.power(a, b)


def eval_on_grid(expr, grid: Grid) -> Form0:
    """Evaluate at the nodes (i/n, j/n, k/n); non-finite values are errors."""
    x, y, z = grid.meshes
    env = {"x": x, "y": y, "z": z, "pi": np.pi}
    with np.errstate(all="ignore"):
        vals = _eval(expr, env)
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        node = tuple(int(v) for v in np.argwhere(bad)[0])
        raise EvalError("expression evaluated to a non-finite value", node)
    return Form0(grid, vals.copy())


def eval_expr(expr, x: float, y: float, z: float) -> float:
    """Scalar evaluation (used by tests and the printer roundtrip check)."""
    with np.errstate(all="ignore"):
        return float(_eval(expr, {"x": x, "y": y, "z": z, "pi": np.pi}))


# --- printer ----------------------------------------------------------------

def _fmt_literal(v: float) -> str:
    # negative literals are wrapped so they survive as '^' bases
    if float(v).is_integer() and abs(v) < 1e16:
        # int() drops the sign of -0.0, which 1/(-0) would expose
        text = "-0" if v == 0 and np.signbit(v) else str(int(v))
    else:
        text = repr(float(v))
    return f"({text})" if text.startswith("-") else text


def print_expr(node) -> str:
    """Canonical fully-parenthesized rendering; parse(print_expr(e)) evaluates
    identically to e (literals round-trip bit-exactly)."""
    if isinstance(node, Lit):
        return _fmt_literal(node.value)
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Neg):
        return f"(-{print_expr(node.operand)})"
    if isinstance(node, Call):
        return f"{node.func}({print_expr(node.arg)})"
    return f"({print_expr(node.left)}{node.op}{print_expr(node.right)})"
