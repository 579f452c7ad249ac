"""Tiny arithmetic expression language for instance files.

Grammar (whitespace-insensitive, no function calls, no names beyond x):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/' | '%') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?        # right associative
    atom   := NUMBER | 'x' | '(' expr ')'
    NUMBER := (?:[0-9]+\\.?[0-9]*|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?    # ASCII

Compilation produces a vectorized closure over numpy arrays; expressions
without x still broadcast to the input's shape, so coefficient constants
like "0.25" sample cleanly onto a grid.  The language is a subset of
Python's expressions with the same precedence, so Python's parser reads
it and its tree is translated, refusing all that is outside the grammar.
Errors carry a position in the original text; nothing is ever eval()ed.
Python's parser reads each expression shape once per process: texts
that differ only in their number literals, as the branches of a map
mostly do, share one parse, each with its own numbers in the tree.
The derivative of a tree is a tree too, by the rules of calculus, which
is how a map's branch gets its slope, and a tree has an enclosure on an
interval by outward-rounded interval arithmetic, which is how a branch
proves its slope's sign.
"""

import ast
import contextlib
import math
import operator
import re
import warnings

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Raised for syntax errors, with the offending position in the text."""


# Characters that can appear in a valid or a merely misspelt expression.
# Any other one is refused before Python's parser sees it: '#' would open
# a comment, and a non-ASCII one would put the parser's byte columns off.
_CHARS = re.compile(r"[0-9A-Za-z_.+\-*/%^()\s]*")
# Python refuses line breaks and blanks other than space and tab between
# tokens, and leading zeros in an integer ("007").  Each pattern starts
# with what it must find, which keeps the scan fast.
_BREAK = re.compile(r"[^\S \t]")
_LEADING_ZEROS = re.compile(r"0(?<![\w.]0)(?<![eE][+-]0)0*(?=[0-9])")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# A free literal: a number with no letter, digit, '_' or '.' on either
# side, which Python reads as one number token.  Splitting on it leaves
# the shape of a text ("2*x + 1" and "3*x + 0.5" share one) between its
# literals.
_FREE_NUMBER = re.compile(rf"(?<![\w.])({_NUMBER.pattern})(?![\w.])")
# The tree of each shape _parse has read, by the text between its free
# literals; past _SHAPES_MAX the oldest goes.
_SHAPES = {}
_SHAPES_MAX = 1024
_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
           ast.Mod: "mod", ast.Pow: "pow"}


def _parse(src):
    """The tree of ("const", v), ("var",), ("neg", a) and (op, a, b).

    A shape is parsed once per process: a text that differs from one read
    before only in its free number literals gets a copy of that one's
    tree with its own numbers.  Errors always come from the parser.
    """
    parts = _FREE_NUMBER.split(src)
    shape = tuple(parts[::2])
    template = _SHAPES.get(shape)
    if template is not None:
        return _fill(template, map(float, parts[1::2]))
    tree = _parse_text(src)
    # Python reads each free literal as one number token, so every text of
    # this shape has the tokens of this one.  The tree is a template for
    # them only if its constants are those literals, in their order.
    if _constants(tree) == [float(v) for v in parts[1::2]]:
        if len(_SHAPES) >= _SHAPES_MAX:
            _SHAPES.pop(next(iter(_SHAPES)), None)
        _SHAPES[shape] = tree
    return tree


def _constants(tree):
    """The values of the constants of ``tree``, in the order of the text."""
    values, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node[0] == "const":
            values.append(node[1])
        else:
            stack += reversed(node[1:])
    return values


def _fill(tree, values):
    """``tree`` with its constants, in the order of the text, taken from
    the iterator ``values``."""
    op = tree[0]
    if op == "const":
        return ("const", next(values))
    if op == "var":
        return tree
    if op == "neg":
        return ("neg", _fill(tree[1], values))
    return (op, _fill(tree[1], values), _fill(tree[2], values))


def _parse_text(src):
    """The tree of ``src`` from Python's parser, or an ExpressionError."""
    bad = _CHARS.match(src).end()
    if bad < len(src):
        raise ExpressionError(
            f"unexpected character {src[bad]!r} at position {bad} in {src!r}"
        )
    # Each rewrite keeps every column but a '^', which becomes '**'; the
    # eval-mode parser refuses leading blanks as an indent.
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]),
                              _BREAK.sub(" ", src)).replace("^", "**")
    body = text.lstrip()

    def at(col):
        """The position in src of column col of body."""
        cols = [i for i, c in enumerate(src) for _ in range(1 + (c == "^"))]
        return (cols + [len(src)])[min(len(text) - len(body) + col,
                                       len(cols))]

    def translate(node):
        kind = type(node)
        if kind is ast.BinOp:
            op = _BINOPS.get(type(node.op))
            if op:
                return (op, translate(node.left), translate(node.right))
        elif kind is ast.Constant:
            number = body[node.col_offset:node.end_col_offset]
            if _NUMBER.fullmatch(number):
                return ("const", float(number))
        elif kind is ast.Name and node.id == "x":
            return ("var",)
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            return ("neg", translate(node.operand))
        start = at(node.col_offset)
        if kind is ast.Name:
            raise ExpressionError(f"unknown name {node.id!r} at position "
                                  f"{start} in {src!r} (only x is available)")
        raise ExpressionError(
            f"unexpected {src[start:at(node.end_col_offset)]!r} at position "
            f"{start} in {src!r}")

    # A number glued to a keyword ("1or x") is only a warning to Python.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tree = ast.parse(body, mode="eval").body
        except SyntaxError as exc:
            # Python gives no column for an error at the end of the input.
            where = (f"position {at(exc.offset - 1)} in" if exc.offset
                     else "the end of")
            raise ExpressionError(
                f"invalid syntax at {where} {src!r}") from None
    return translate(tree)


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


_ZERO, _ONE = ("const", 0.0), ("const", 1.0)


def _negated(a):
    """("neg", a), or ("const", -k) for a constant a = ("const", k)."""
    return ("const", -a[1]) if a[0] == "const" else ("neg", a)


def _node(op, a, b):
    """(op, a, b) for op in add, sub, mul and div, with a zero term, a zero
    or unit factor and a unit divisor cut short, and the result of two
    constants folded, as is 0 - k into -k."""
    if op == "mul" and _ZERO in (a, b) or op == "div" and a == _ZERO:
        return _ZERO
    if b == (_ONE if op in ("mul", "div") else _ZERO):
        return a
    if op != "div" and a == (_ONE if op == "mul" else _ZERO):
        return _negated(b) if op == "sub" else b
    if a[0] == b[0] == "const" and (op != "div" or b[1]):
        return ("const", _evaluate((op, a, b), None))
    return (op, a, b)


def _has_x(tree):
    return tree[0] == "var" or (tree[0] != "const"
                                and any(map(_has_x, tree[1:])))


def _derivative(tree, src):
    """The tree of the derivative in x of ``tree``, which :func:`_parse`
    read from ``src``.

    A part without x differentiates to ("const", 0.0) and adds nothing to
    the rest.  ``%`` takes the slope of its dividend (off its wraps) and
    ``^`` the power rule, so x in the divisor of a ``%`` or in an exponent
    raises :class:`ExpressionError`.
    """
    op = tree[0]
    if op in ("const", "var"):
        return _ONE if op == "var" else _ZERO
    if op in ("mod", "pow") and _has_x(tree[2]):
        where = "divisor" if op == "mod" else "exponent"
        raise ExpressionError(
            f"cannot differentiate {src!r}: x in the {where} of {op!r}")
    slopes = [_derivative(kid, src) for kid in tree[1:]]
    if all(d == _ZERO for d in slopes):
        return _ZERO
    if op == "neg":
        return _negated(slopes[0])
    (a, b), (da, db) = tree[1:], slopes
    if op in ("add", "sub"):
        return _node(op, da, db)
    if op == "mod":
        return da
    if op == "pow":
        k = _evaluate(b, None)
        return _node("mul", _node("mul", ("const", k),
                                  ("pow", a, ("const", k - 1))), da)
    if op == "mul":
        return _node("add", _node("mul", da, b), _node("mul", a, db))
    if db == _ZERO:
        return _node("div", da, b)
    return _node("div", _node("sub", _node("mul", da, b), _node("mul", a, db)),
                 ("mul", b, b))


class _NoEnclosure(ArithmeticError):
    """Raised where :func:`_enclose` fails closed, saying why."""


class _Wraps(_NoEnclosure):
    """Raised by :func:`_enclose` for a ``%`` whose quotient floor is not
    the same over the interval."""


# Veltkamp's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0


def _exact_sum(a, b, s):
    """Whether the float s = a + b is exact: Knuth's TwoSum error is 0."""
    t = s - a
    return (a - (s - t)) + (b - t) == 0.0


def _exact_product(a, b, p):
    """Whether the float p = a * b is exact: Dekker's product error is 0.

    A product near the underflow range counts as exact only when a factor
    is 0; one near overflow gives a NaN error term, so it never does.
    """
    if abs(p) < 2.0 ** -960:
        return a == 0.0 or b == 0.0
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl == 0.0


def _add(a, b):
    """Enclosure of x + y over the intervals a and b; one that reaches inf
    and one that reaches -inf may give inf - inf at some x."""
    lo, hi = a[0] + b[0], a[1] + b[1]
    if (lo != lo or hi != hi or a[0] == -math.inf and b[1] == math.inf
            or a[1] == math.inf and b[0] == -math.inf):
        raise _NoEnclosure("an undefined operation (inf - inf)")
    if not _exact_sum(a[0], b[0], lo):
        lo = math.nextafter(lo, -math.inf)
    if not _exact_sum(a[1], b[1], hi):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _corners(op, exact, a, b):
    """The least and greatest float ``op(x, y)`` over the ends x of the
    interval ``a`` and y of ``b``, each moved out by one ulp unless
    ``exact(x, y, v)`` holds for every pair of ends that gives it.

    Right for an op monotone in each operand on the two intervals, since a
    correctly rounded result below another one is below its exact value.
    """
    corners = [(op(x, y), x, y) for x in a for y in b]
    lo = hi = corners[0][0]
    for v, _, _ in corners:
        if v != v:
            raise _NoEnclosure("an undefined operation (0 * inf)")
        lo, hi = min(lo, v), max(hi, v)
    lo_exact = hi_exact = True
    for v, x, y in corners:
        if v == lo and lo_exact:
            lo_exact = exact(x, y, v)
        if v == hi and hi_exact:
            hi_exact = exact(x, y, v)
    return (lo if lo_exact else math.nextafter(lo, -math.inf),
            hi if hi_exact else math.nextafter(hi, math.inf))


def _exact_quotient(x, y, q):
    """Whether the float q = x / y is exact: q * y is x without error."""
    return q * y == x and _exact_product(q, y, x)


def _power(v, k):
    """v ** k as numpy takes it, with 0 ** -k and an overflow infinite."""
    if v == 0.0 and k < 0.0:
        return math.inf
    try:
        return v ** k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2.0 else math.inf


def _pow_hull(a, k):
    """Enclosure of x ** k over the interval a, for a float exponent k."""
    lo, hi = a
    if k != math.floor(k):
        if lo < 0.0:
            raise _NoEnclosure(
                "a non-integer power of an interval with negative points")
    elif k < 0.0 and lo <= 0.0 <= hi:
        raise _NoEnclosure("division by an interval that holds 0")
    # x ** k is monotone on either side of 0.  Powers go through libm,
    # correct to within an ulp: two steps out cover that, unless the power
    # is exact (x^0, x^1, 0^k, 1^k).
    lows, highs = [], []
    for v in {lo, hi}:
        p = _power(v, k)
        exact = k in (0.0, 1.0) or v in (0.0, 1.0)
        lows.append(p if exact else _steps_toward(p, -math.inf))
        highs.append(p if exact else _steps_toward(p, math.inf))
    if k > 0.0 and k % 2.0 == 0.0 and lo < 0.0 < hi:
        lows.append(0.0)     # an even power is least at 0
    return min(lows), max(highs)


def _steps_toward(v, to):
    """The float two steps from v toward ``to``."""
    return math.nextafter(math.nextafter(v, to), to)


def _enclose(tree, lo, hi):
    """(ylo, yhi) with ylo <= tree(x) <= yhi for every real x in the closed
    [lo, hi], by interval arithmetic on Python floats (Moore, Kearfott and
    Cloud, *Introduction to Interval Analysis*, SIAM 2009).

    Constants are the floats the parser read; an exponent, which has no x,
    is the float it evaluates to, as numpy takes it.  Each bound is
    rounded outward unless the float result is exact, so a bound of 0 or
    of a whole quotient stays where it is.  Fails closed, raising
    :class:`_NoEnclosure`, on a ``%`` whose quotient floor is not the same
    over the interval, a non-integer power of an interval with negative
    points, division by an interval that holds 0, and an undefined
    operation such as inf - inf.
    """
    op = tree[0]
    if op == "const":
        return tree[1], tree[1]
    if op == "var":
        return lo, hi
    a = _enclose(tree[1], lo, hi)
    if op == "neg":
        return -a[1], -a[0]
    if op == "pow":
        try:
            k = float(_evaluate(tree[2], None))
        except (ArithmeticError, TypeError):
            raise _NoEnclosure("an exponent that does not evaluate") from None
        if not math.isfinite(k):
            raise _NoEnclosure("an exponent that is not finite")
        return _pow_hull(a, k)
    b = _enclose(tree[2], lo, hi)
    if op in ("div", "mod") and b[0] <= 0.0 <= b[1]:
        raise _NoEnclosure("division by an interval that holds 0")
    if op == "add":
        return _add(a, b)
    if op == "sub":
        return _add(a, (-b[1], -b[0]))
    if op == "mul":
        # Corners miss a 0 inside one interval meeting inf in the other.
        if (math.inf in map(abs, a) and b[0] <= 0.0 <= b[1]
                or math.inf in map(abs, b) and a[0] <= 0.0 <= a[1]):
            raise _NoEnclosure("an undefined operation (0 * inf)")
        return _corners(operator.mul, _exact_product, a, b)
    q = _corners(operator.truediv, _exact_quotient, a, b)
    if op == "div":
        return q
    # a % b is a - k*b while the floor k of a/b stays the same.
    if not (math.isfinite(q[0]) and math.isfinite(q[1])):
        raise _NoEnclosure("a '%' whose quotient is not finite")
    k = math.floor(q[0])
    if math.floor(q[1]) != k:
        raise _Wraps("a '%' whose quotient floor changes")
    kb = _corners(operator.mul, _exact_product, (float(k),), b)
    return _add(a, (-kb[1], -kb[0]))


@contextlib.contextmanager
def _evaluation_errors(source):
    """Turn what parsing or evaluating ``source`` raises into an
    :class:`ExpressionError`."""
    try:
        yield
    except (ZeroDivisionError, OverflowError, TypeError, RecursionError,
            MemoryError) as exc:
        why = {ZeroDivisionError: "division by zero",
               OverflowError: "a power too large for a float",
               TypeError: "a complex value where a real one is needed"}.get(
                   type(exc), "it is too long or nested too deeply")
        raise ExpressionError(f"cannot evaluate {source!r}: {why}") from None


def _vectorize(tree, source):
    """A vectorized function of x that evaluates ``tree``; a constant tree
    is broadcast to the input's shape."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        out = _evaluate(tree, x)
        if np.ndim(out) == 0:
            if np.iscomplexobj(out):    # float() of a numpy complex only warns
                raise TypeError("complex constant")
            return np.full(x.shape, float(out))
        return out

    fn.source = source
    return fn


def _read_tree(src):
    """(tree, source) of the text ``src``: its tree and its stripped text,
    with the errors of :func:`compile_expression`."""
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    source = src.strip()
    with _evaluation_errors(source):
        return _parse(src), source


def _probed(tree, source):
    """The vectorized function of ``tree``, which :func:`_read_tree` read from
    ``source``, once a probe shows that x-free parts evaluate."""
    with _evaluation_errors(source):
        fn = _vectorize(tree, source)
        # Parts without x are Python floats and raise alike for every x, as
        # does numpy on a complex operand of %, so one probe finds them all.
        with np.errstate(all="ignore"):
            fn(np.zeros(1))
    return fn


def compile_expression(src):
    """Parse ``src`` and return a vectorized function of x.

    The result always matches the input's shape: constant expressions are
    broadcast.  Raises :class:`ExpressionError` on malformed input, on
    input nested too deeply to parse or evaluate, and on input that no x
    can evaluate (``1/0``, ``10^400``, ``(0-1)^0.5``).
    """
    return _probed(*_read_tree(src))
