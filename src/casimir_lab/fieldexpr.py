"""A small expression language for scalar fields on the torus.

Grammar (precedence from loosest to tightest, left-associative):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-'* power
    power   := atom ('^' signed)*          # signed allows '-' after '^'
    signed  := '-'* atom
    atom    := NUMBER | 'pi' | 'x' | 'y' | 'z'
             | ('sin' | 'cos' | 'exp') '(' sum ')' | '(' sum ')'

So '^' binds tighter than unary minus: "-x^2" is -(x^2).  The parser computes
each rule's value as it reads it (there is no syntax tree), with x, y and z
bound to scalars or arrays.  Operator chains and runs of unary minus are
loops: only parentheses and calls recurse, at most MAX_DEPTH levels deep.
Every parse error carries the byte offset of the offending token.  On a grid
a non-finite value anywhere raises with the node index.  Derivatives are
taken spectrally, not here.
"""

from __future__ import annotations

import numpy as np

from .errors import EvalError, ParseError
from .forms3 import Form0, Grid

FUNCTIONS = ("sin", "cos", "exp")
NAMES = ("x", "y", "z", "pi")
MAX_DEPTH = 100  # nesting levels of parentheses and function calls

_FN = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


# --- tokenizer --------------------------------------------------------------

_OPS = set("+-*/^(),")


def tokenize(src: str) -> list[tuple[str, object, int]]:
    """Tokens are (kind, value, offset); kinds: num, ident, op, end."""
    tokens = []
    i, n = 0, len(src)
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


# --- evaluating parser ------------------------------------------------------

class _Parser:
    def __init__(self, src: str, env: dict):
        self.tokens = tokenize(src)
        self.pos = 0
        self.env = {**env, "pi": np.pi}
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, ops: str):
        """Consume and return the next token if it is one of ops, else None."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def expect_op(self, op: str):
        if not self.take(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def parse(self):
        value = self.sum()
        kind, tok, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", offset)
        return value

    def sum(self):
        value = self.product()
        while op := self.take("+-"):
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self):
        value = self.negated(self.power)
        while op := self.take("*/"):
            rhs = self.negated(self.power)
            # np.divide gives IEEE inf/nan instead of ZeroDivisionError
            value = value * rhs if op == "*" else np.divide(value, rhs)
        return value

    def negated(self, operand):
        """A run of unary minuses before operand(), applied innermost first."""
        count = 0
        while self.take("-"):
            count += 1
        value = operand()
        for _ in range(count):
            value = -value
        return value

    def power(self):
        value = self.atom()
        while self.take("^"):
            value = np.power(value, self.negated(self.atom))
        return value

    def nested(self, offset: int):
        """The sum inside one more level of nesting, opened at offset."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        self.depth += 1
        value = self.sum()
        self.depth -= 1
        return value

    def atom(self):
        kind, value, offset = self.peek()
        self.pos += 1
        if kind == "num":
            return value
        if kind == "ident":
            if value in FUNCTIONS:
                if not self.take("("):
                    raise ParseError(f"function {value!r} needs an argument list",
                                     self.peek()[2])
                arg = self.nested(offset)
                if self.peek()[:2] == ("op", ","):
                    raise ParseError(f"function {value!r} takes exactly one argument",
                                     self.peek()[2])
                self.expect_op(")")
                return _FN[value](arg)
            if value in NAMES:
                return self.env[value]
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            inner = self.nested(offset)
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def evaluate(text: str, env: dict):
    """The value of expression text, with x, y and z bound by env (scalars or
    arrays); pi is built in.  Parse errors carry byte offsets."""
    with np.errstate(all="ignore"):
        return _Parser(text, env).parse()


def eval_on_grid(text: str, grid: Grid) -> Form0:
    """Evaluate at the nodes (i/n, j/n, k/n); non-finite values are errors."""
    vals = evaluate(text, dict(zip("xyz", grid.meshes)))
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        node = tuple(int(v) for v in np.argwhere(bad)[0])
        raise EvalError("expression evaluated to a non-finite value", node)
    return Form0(grid, vals.copy())
