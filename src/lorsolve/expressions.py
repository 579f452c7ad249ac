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


def _enclose(tree, lo, hi, memo=None):
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

    ``memo``, a dict, keeps the enclosure of each subtree by ``id``, for
    a caller that asks for many subtrees of one tree on one interval.
    """
    if memo is None:
        return _enclose_node(tree, lo, hi, None)
    found = memo.get(id(tree))
    if found is None:
        found = memo[id(tree)] = _enclose_node(tree, lo, hi, memo)
    return found


def _enclose_node(tree, lo, hi, memo):
    """:func:`_enclose` of the root of ``tree``, its subtrees through
    ``memo``."""
    op = tree[0]
    if op == "const":
        return tree[1], tree[1]
    if op == "var":
        return lo, hi
    a = _enclose(tree[1], lo, hi, memo)
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
    b = _enclose(tree[2], lo, hi, memo)
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


# A float's spacing is at most |v|·2^-52 above the subnormals and 2^-1074
# among them.  A correctly rounded operation errs by half that at most, so
# these also bound its error with room for the rounding of error bounds
# that are computed in floats (:class:`_PolyBounds`).
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1074
# How many floats numpy's pow, which may be SIMD code rather than libm,
# may miss by; a correctly rounded operation misses by less than one.
_POW_ULPS = 4


def _widen(v, up, ulps=1):
    """The float array ``v``, a computed bound, moved ``ulps`` floats or
    more toward +inf (``up``) or -inf, in place, by SIMD arithmetic:
    ``v ± (|v|·ulps·2^-52 + ulps·2^-1074)``, four passes where
    ``np.nextafter`` would take one slow one.

    The step is at least ``ulps`` spacings of v, and rounding to nearest
    cannot undo it, since the float the exact sum reaches lies at or past
    the one ``ulps`` steps away.  An infinity moved toward 0 becomes NaN,
    never a finite bound.
    """
    step = np.abs(v)
    step *= ulps * _EPS
    step += ulps * _TINY
    if up:
        v += step
    else:
        v -= step
    return v


def _out(lo, hi, ulps=1):
    """(lo, hi), freshly computed arrays, rounded outward in place."""
    return _widen(lo, False, ulps), _widen(hi, True, ulps)


def _cell_corners(op, a, b):
    """The least and greatest of ``op`` over the ends of a and b, each
    rounded outward: right for an op monotone in each operand."""
    c = [op(x, y) for x in a for y in b]
    return _out(np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3])),
                np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3])))


def _holds_zero(b):
    """Whether some interval of the enclosure b holds 0."""
    return not np.all((np.asarray(b[0]) > 0.0) | (np.asarray(b[1]) < 0.0))


def _unsigned_power(v, n, up):
    """A bound on v ** n for an array v >= 0 and an integer n >= 2, from
    above (``up``) or below, by squaring and multiplying, each product
    rounded the same way."""
    result = None
    while n:
        if n & 1:
            result = v if result is None else _widen(result * v, up)
        n >>= 1
        if n:
            v = _widen(v * v, up)
    return result


def _exponent(node):
    """The float exponent of a ``pow`` node, as numpy takes it."""
    try:
        k = float(_evaluate(node[2], None))
    except (ArithmeticError, TypeError):
        raise _NoEnclosure("an exponent that does not evaluate") from None
    if not math.isfinite(k):
        raise _NoEnclosure("an exponent that is not finite")
    return k


def _cell_power(a, k):
    """Enclosure of x ** k over the enclosure a = (lo, hi), for a float
    exponent k."""
    lo, hi = a
    if k == 0.0:
        return 1.0, 1.0
    if k == 1.0:
        return a
    if k != math.floor(k):
        if np.any(lo < 0.0):
            raise _NoEnclosure(
                "a non-integer power of an interval with negative points")
        ends = np.power(lo, k), np.power(hi, k)
        return _out(*(ends if k > 0.0 else ends[::-1]), ulps=_POW_ULPS)
    n = int(abs(k))
    if n == 1:
        p = a
    elif n % 2:
        # x^n = x * x^(n-1), which keeps the sign of x.
        p = _cell_corners(operator.mul, a, _cell_power(a, n - 1.0))
    else:
        # |x| runs over [mig, mag] on the interval; x^n = |x|^n rises in it.
        mig = np.maximum(np.maximum(lo, -hi), 0.0)
        mag = np.maximum(-lo, hi)
        p = _unsigned_power(mig, n, False), _unsigned_power(mag, n, True)
    if k > 0.0:
        return p
    if _holds_zero(p):
        raise _NoEnclosure("division by an interval that holds 0")
    # 1/y falls on each side of 0.
    return _out(1.0 / p[1], 1.0 / p[0])


def _cells(tree, lo, hi):
    """(lower, upper) bounds of ``tree`` on each closed cell [lo, hi] by
    the rules of :func:`_enclose`, every bound with x rounded outward by
    :func:`_widen`, exact or not; NaN and infinite bounds pass through."""
    if not _has_x(tree):
        return _enclose(tree, 0.0, 0.0)
    op = tree[0]
    if op == "var":
        return lo, hi
    a = _cells(tree[1], lo, hi)
    if op == "neg":
        return -a[1], -a[0]
    if op == "pow":
        return _cell_power(a, _exponent(tree))
    b = _cells(tree[2], lo, hi)
    if op == "add":
        return _out(a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return _out(a[0] - b[1], a[1] - b[0])
    if op == "mul":
        return _cell_corners(operator.mul, a, b)
    if _holds_zero(b):
        raise _NoEnclosure("division by an interval that holds 0")
    q = _cell_corners(operator.truediv, a, b)
    if op == "div":
        return q
    # a % b is a - k*b while the floor k of a/b stays the same.
    k = np.floor(q[0])
    if not np.all(k == np.floor(q[1])):
        raise _Wraps("a '%' whose quotient floor changes")
    kb = _cell_corners(operator.mul, (k, k), b)
    return _out(a[0] - kb[1], a[1] - kb[0])


def _enclose_cells(tree, lo, hi):
    """(ylo, yhi) with ylo <= tree(x) <= yhi for every real x in each
    closed cell [lo, hi] of the arrays ``lo`` and ``hi``: the vectorized
    form of :func:`_enclose` (floats for a tree without x).

    A polynomial tree takes :class:`_PolyBounds`, any other
    :func:`_cells`.  Fails closed, raising :class:`_NoEnclosure`, where
    :func:`_enclose` does on any cell (a ``%`` whose quotient floor
    changes inside a cell, a non-integer power of an interval with
    negative points, division by an interval that holds 0), and on a
    bound that is NaN or infinite.
    """
    if not _has_x(tree):
        return _enclose(tree, 0.0, 0.0)
    with np.errstate(all="ignore"):
        ylo, yhi = _PolyBounds.try_pair(tree, lo, hi) or _cells(tree, lo, hi)
    if not (np.isfinite(ylo).all() and np.isfinite(yhi).all()):
        raise _NoEnclosure("a bound that is not finite")
    return ylo, yhi


# The largest exponent whose power a polynomial tree takes in
# round-to-nearest.
_POLY_MAX_POWER = 64


def _polynomial(tree):
    """Whether ``tree`` takes only sums, differences, negations, products
    and powers with an exponent in 0..64 of parts with x."""
    op = tree[0]
    if op in ("const", "var"):
        return True
    if op in ("neg", "add", "sub", "mul"):
        return all(map(_polynomial, tree[1:]))
    if not _has_x(tree):
        return True     # a constant
    if op == "pow":
        try:
            k = _exponent(tree)
        except _NoEnclosure:
            return False
        return (k == math.floor(k) and 0.0 <= k <= _POLY_MAX_POWER
                and _polynomial(tree[1]))
    return False


class _PolyBounds:
    """Per-cell bounds of a polynomial tree (:func:`_polynomial`) on the
    closed cells [lo, hi], by the rules of :func:`_enclose` but in
    round-to-nearest, each side worked out only where it is needed, with
    a float E that bounds its distance from the bound exact arithmetic
    gives.  A product by a constant takes one side of the other operand,
    and so does a power of a base on one side of 0, as over all cells
    the hull shows.

    E follows from u = ``_EPS``, twice the unit roundoff, and the
    magnitude H of each node,
    which interval arithmetic over all cells at once bounds
    (:func:`_enclose` on the hull): a sum adds u*H to the error of its
    operands, a product by a constant c scales it by |c| and adds u*H
    plus the subnormal ``_TINY``, and so on.  So the passes round nothing;
    :meth:`sup_abs` and :meth:`pair` add E at the end, grown to cover the
    rounding of that one sum.  An array that only
    one parent reads is overwritten by it.  Fails closed, with
    :class:`_NoEnclosure`, where the hull has no finite enclosure.
    """

    def __init__(self, lo, hi, xlo, xhi):
        self.x = {False: lo, True: hi}
        self.hull = (float(xlo), float(xhi))
        self.hulls = {}
        self.with_x = {}

    def has_x(self, node):
        """:func:`_has_x`, kept per node."""
        key = id(node)
        if key not in self.with_x:
            self.with_x[key] = _has_x(node)
        return self.with_x[key]

    def point(self, node):
        """The value of a part without x whose enclosure is one float, or
        None."""
        if self.has_x(node):
            return None
        lo, hi = self.enclose(node)
        return lo if lo == hi else None

    def enclose(self, node):
        """:func:`_enclose` of ``node`` over all cells at once."""
        return _enclose(node, *self.hull, self.hulls)

    def mag(self, node):
        """A bound on |value| over all cells, and so on every exact
        per-cell bound of ``node``."""
        lo, hi = self.enclose(node)
        h = max(-lo, hi)
        if not math.isfinite(h):
            raise _NoEnclosure("a bound that is not finite")
        return h

    def sup_abs(self, tree):
        """Per cell, a bound on sup |tree| over the cell: the upper bound
        plus its E, or minus the lower one plus its E, each E grown by the
        rounding of that one sum.  NaN and infinite bounds pass through."""
        hlo, hhi = self.enclose(tree)
        h = self.mag(tree)
        if hlo >= 0.0:
            return _apply(np.add, self.bound(tree, True), self._last(h))
        if hhi <= 0.0:
            v, e, own = self.bound(tree, False)
            return _apply(np.subtract, (v, e, own), self._last(h), swap=True)
        lo, hi = self.bound(tree, False), self.bound(tree, True)
        return np.maximum(_apply(np.subtract, lo, self._last(h), swap=True),
                          _apply(np.add, hi, self._last(h)))

    def pair(self, tree):
        """Per cell, (lower, upper) bounds of tree, each moved out by its
        E and rounded."""
        h = self.mag(tree)
        return (_apply(np.subtract, self.bound(tree, False), self._last(h)),
                _apply(np.add, self.bound(tree, True), self._last(h)))

    @classmethod
    def try_pair(cls, tree, lo, hi):
        """:meth:`pair` over the cells [lo, hi], or None for a tree that
        is not a polynomial or whose hull has no finite enclosure."""
        if not _polynomial(tree):
            return None
        try:
            return cls(lo, hi, float(np.min(lo)), float(np.max(hi))).pair(tree)
        except (_NoEnclosure, OverflowError):
            return None

    @staticmethod
    def _last(h):
        """E -> E' with fl(v ± E') at least v ± E for any |v| <= h + E:
        the sum's rounding, at most u*(h + E + E'), is inside E' - E."""
        return lambda e: (e + _EPS * (h + 2.0 * e)) * (1.0 + _EPS)

    def bound(self, node, up):
        """(value, E, owned) of the lower (or upper, if ``up``) bound of
        node; ``owned`` says that no one else reads the value array."""
        if not self.has_x(node):
            return self.enclose(node)[up], 0.0, False
        op = node[0]
        if op == "var":
            return self.x[up], 0.0, False
        if op == "neg":
            v, e, own = self.bound(node[1], not up)
            return np.negative(v, out=_owned(v, own)), e, True
        h = self.mag(node)
        if op in ("add", "sub"):
            a = self.bound(node[1], up)
            b = self.bound(node[2], up == (op == "add"))
            s = a[1] + b[1]
            ufunc = np.add if op == "add" else np.subtract
            return _combine(ufunc, a, b), s + _EPS * (h + s), True
        if op == "pow":
            n = int(_exponent(node))
            if n == 0:
                return 1.0, 0.0, False
            base = node[1]
            if n % 2:
                # x^n rises in x for an odd n.
                return self._power(self.bound(base, up), n, self.mag(base))
            blo, bhi = self.enclose(base)
            if blo >= 0.0 or bhi <= 0.0:
                # |x|^n rises in |x|, which rises (or falls) in x.
                b = self.bound(base, up == (blo >= 0.0))
                return self._power(b, n, self.mag(base))
            # |x| runs over [mig, mag] on each cell.
            (v, e, _), (w, f, _) = (self.bound(base, False),
                                    self.bound(base, True))
            end = np.maximum(-v, w) if up else np.maximum(
                np.maximum(v, -w), 0.0)
            return self._power((end, max(e, f), True), n, self.mag(base))
        # A product.
        a, b = node[1], node[2]
        c = self.point(b)
        if c is None:
            a, b, c = b, a, self.point(a)
        if c is not None:
            v, e, own = self.bound(a, up == (c >= 0.0))
            return (np.multiply(v, c, out=_owned(v, own)),
                    abs(c) * e * (1.0 + _EPS) + _EPS * h + _TINY, True)
        (va, ea, _), (wa, fa, _) = self.bound(a, False), self.bound(a, True)
        (vb, eb, _), (wb, fb, _) = self.bound(b, False), self.bound(b, True)
        ha, hb = self.mag(a), self.mag(b)
        e, f = max(ea, fa), max(eb, fb)
        err = e * (hb + f) + ha * f + _EPS * (ha + e) * (hb + f) + _TINY
        corners = [p * q for p in (va, wa) for q in (vb, wb)]
        pick = np.maximum if up else np.minimum
        return pick(pick(corners[0], corners[1]),
                    pick(corners[2], corners[3])), err, True

    @staticmethod
    def _power(base, n, h):
        """(v ** n, E, owned) by squaring and multiplying, for a base
        (v, e, owned) within e of an exact bound of magnitude at most h."""
        v, e, own = base
        if n == 1:
            return base
        if n == 2:
            result = np.multiply(v, v, out=_owned(v, own))
        else:
            result, p, k = None, v, n
            while k:
                if k & 1:
                    result = p if result is None else result * p
                k >>= 1
                if k:
                    p = p * p
        r = h + e
        gamma = (n - 1) * _EPS / (1.0 - (n - 1) * _EPS)
        # A subnormal error grows by 2|p| in each squaring: n^2 covers
        # the factors 2 and the count of products.
        err = (n * r ** (n - 1) * e + gamma * r ** n
               + n * n * _TINY * max(1.0, r) ** (n - 1))
        return result, err, True


def _combine(ufunc, a, b):
    """ufunc of the values of the bounds a and b, into an array that one
    of them owns where it can."""
    (v, _, own_v), (w, _, own_w) = a, b
    out = _owned(v, own_v)
    return ufunc(v, w, out=_owned(w, own_w) if out is None else out)


def _apply(ufunc, bound, last, swap=False):
    """ufunc(value, E'), or ufunc(E', value) if ``swap``, of a bound
    (value, E, owned), with E' = last(E); in place where it is owned."""
    v, e, own = bound
    out = _owned(v, own)
    return ufunc(last(e), v, out=out) if swap else ufunc(v, last(e), out=out)


def _owned(v, own):
    """``v`` where it is an array that may be overwritten, else None."""
    return v if own and isinstance(v, np.ndarray) else None


def _sup_abs_cells(tree, lo, hi, xlo, xhi):
    """Per closed cell [lo, hi], all inside [xlo, xhi], an upper bound on
    sup |tree(x)|: an array, or a float for a tree without x.  A
    polynomial tree is bounded by :class:`_PolyBounds`, any other by
    :func:`_cells`; raises :class:`_NoEnclosure` where the
    enclosure fails closed.  A bound that comes out NaN or infinite is
    returned as it is, for the caller to refuse."""
    if not _has_x(tree):
        return max(map(abs, _enclose(tree, 0.0, 0.0)))
    with np.errstate(all="ignore"):
        if _polynomial(tree):
            try:
                return _PolyBounds(lo, hi, xlo, xhi).sup_abs(tree)
            except (_NoEnclosure, OverflowError):
                pass    # the hull's magnitudes overflow; round each step
        glo, ghi = _cells(tree, lo, hi)
        return np.maximum(-glo, ghi)


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
