"""Tiny arithmetic expression language for instance files.

Grammar (whitespace-insensitive, no function calls, no names beyond x):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/' | '%') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?        # right associative
    atom   := NUMBER | 'x' | '(' expr ')'

Compilation produces a vectorized closure over numpy arrays; expressions
without x still broadcast to the input's shape, so coefficient constants
like "0.25" sample cleanly onto a grid.  Parsing is a hand-rolled
recursive-descent pass with position-carrying errors; nothing is ever
eval()ed.
"""

import re

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Raised for syntax errors, with the offending position in the text."""


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/%^])"
    r")"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at position {pos} in {src!r}"
            )
        if m.group("number") is not None:
            tokens.append(("number", float(m.group("number")), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(
                f"expected {op!r} at position {pos} in {self.src!r}, "
                f"found {val!r}" if val else
                f"expected {op!r} at end of {self.src!r}"
            )

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected {val!r} at position {pos} in {self.src!r}"
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = (("add" if val == "+" else "sub"), node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/", "%"):
                self.take()
                rhs = self.unary()
                node = ({"*": "mul", "/": "div", "%": "mod"}[val], node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.take()
            return ("pow", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "number":
            return ("const", val)
        if kind == "name":
            if val == "x":
                return ("var",)
            raise ExpressionError(
                f"unknown name {val!r} at position {pos} in {self.src!r} "
                "(only x is available)"
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a number, x, or '(' at position {pos} in {self.src!r}"
        )


def _evaluate(node, x):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return x
    if op == "neg":
        return -_evaluate(node[1], x)
    a = _evaluate(node[1], x)
    b = _evaluate(node[2], x)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "mod":
        return np.mod(a, b)
    if op == "pow":
        return a ** b
    raise AssertionError(f"unhandled node {op!r}")


def compile_expression(src):
    """Parse ``src`` and return a vectorized function of x.

    The result always matches the input's shape: constant expressions are
    broadcast.  Raises :class:`ExpressionError` on malformed input, and on
    input that no x can evaluate (``1/0``, ``10^400``, ``(0-1)^0.5``).
    """
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    tree = _Parser(src).parse()

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = _evaluate(tree, x)
        if np.ndim(out) == 0:
            if np.iscomplexobj(out):    # float() of a numpy complex only warns
                raise TypeError("complex constant")
            return np.full(x.shape, float(out))
        return out

    fn.source = src.strip()
    # Parts without x are Python floats and raise alike for every x, as
    # does numpy on a complex operand of %, so one probe finds them all.
    try:
        with np.errstate(all="ignore"):
            fn(np.zeros(1))
    except (ZeroDivisionError, OverflowError, TypeError) as exc:
        why = {ZeroDivisionError: "division by zero",
               OverflowError: "a power too large for a float"}.get(
                   type(exc), "a complex value where a real one is needed")
        raise ExpressionError(f"cannot evaluate {fn.source!r}: {why}") from None
    return fn
