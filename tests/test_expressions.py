import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lorsolve import ExpressionError, compile_expression
import math

from lorsolve.expressions import (_FREE_NUMBER, _SHAPES, _SHAPES_MAX,
                                  _derivative, _enclose, _enclose_cells,
                                  _evaluate, _NoEnclosure, _node, _parse,
                                  _parse_text, _polynomial, _sup_abs_cells,
                                  _widen, _Wraps)


class TestGrammar:
    @pytest.mark.parametrize("src,x,want", [
        ("2*x+1", 0.5, 2.0),
        ("2 + 3 * 4", 0.0, 14.0),
        ("(x+1)*(x-1)", 3.0, 8.0),
        ("x^2", 3.0, 9.0),
        ("x**2", 3.0, 9.0),
        ("-x^2", 2.0, -4.0),       # unary minus binds looser than power
        ("2^-3", 0.0, 0.125),
        ("2^3^2", 0.0, 512.0),     # right associative
        ("x % 0.25", 0.3, pytest.approx(0.05, rel=1e-12)),
        ("--x", 5.0, 5.0),
        ("7/2", 0.0, 3.5),
        ("1e-3 + 1E2", 0.0, 100.001),
        (".5 * x", 4.0, 2.0),
        ("2.", 1.0, 2.0),
        ("007", 0.0, 7.0),         # leading zeros read as in a float
        ("00", 0.0, 0.0),
        ("007.5", 0.0, 7.5),
        ("1e007", 0.0, 1e7),
        ("2 ^ 3", 0.0, 8.0),
    ])
    def test_evaluation(self, src, x, want):
        fn = compile_expression(src)
        assert fn(x) == want

    def test_vectorized(self):
        fn = compile_expression("2*x mod".replace(" mod", ""))
        out = fn(np.array([0.0, 1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0, 4.0]

    def test_constant_broadcasts(self):
        fn = compile_expression("3")
        out = fn(np.zeros(5))
        assert out.shape == (5,)
        assert np.all(out == 3.0)

    def test_source_attribute(self):
        fn = compile_expression(" x + 1 ")
        assert fn.source == "x + 1"

    def test_mod_matches_numpy_convention(self):
        fn = compile_expression("x % 1")
        assert fn(-0.25) == pytest.approx(0.75, rel=1e-12)


class TestRejections:
    @pytest.mark.parametrize("src", [
        "y",            # unknown name
        "2**",          # dangling operator
        "(x",           # unbalanced paren
        "x 2",          # adjacent atoms
        "",             # empty
        "2..3",         # bad number
        "x + * 2",      # operator run
        "sin(x)",       # no functions in the language
        "x!",           # unknown character
        "\u0663",       # a non-ASCII digit (ARABIC-INDIC THREE)
        "0x1",          # Python number syntax outside the grammar
        "1_0",
        "1j",
        "+x",           # no unary plus
        "x//2",         # no floor division
        "2(x)",         # no calls, not even of a number
        "x#1",          # no comments
        "'1'",          # no strings
        "()",           # no tuples
        "x.e",          # no attributes
    ])
    def test_malformed(self, src):
        with pytest.raises(ExpressionError):
            compile_expression(src)

    @pytest.mark.parametrize("src, why", [
        ("1/0", "division by zero"),
        ("x + 0^-1", "division by zero"),
        ("10^400", "too large"),
        ("(0-1)^0.5", "complex"),
        ("(0-1)^0.5 % 2", "complex"),
        ("x % (0-1)^0.5", "complex"),
        # A numpy complex scalar, which float() would cut to 20.56.
        ("(-0.3^0.3 % 1) / (0-7.6)^-2.25", "complex"),
    ])
    def test_no_x_can_evaluate(self, src, why):
        with pytest.raises(ExpressionError, match=why) as exc:
            compile_expression(src)
        assert repr(src) in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ExpressionError, match="position"):
            compile_expression("x + $")


# How tightly each node binds (atom 5, power 4, unary 3, term 2, expr 1 in
# the grammar of lorsolve.expressions), and how tightly its operands must.
_LEVEL = {"const": 5, "var": 5, "pow": 4, "neg": 3,
          "mul": 2, "div": 2, "mod": 2, "add": 1, "sub": 1}
_OPERANDS = {"pow": (5, 3), "neg": (3,), "mul": (2, 3), "div": (2, 3),
             "mod": (2, 3), "add": (1, 2), "sub": (1, 2)}
_SYMBOLS = {"add": ("+",), "sub": ("-",), "mul": ("*",), "div": ("/",),
            "mod": ("%",), "pow": ("^", "**")}

def _trees(consts, binary, max_leaves=16):
    """Trees over x, the constants drawn from consts, "neg" and the binary
    nodes that binary(kids) draws."""
    return st.recursive(
        st.one_of(st.just(("var",)), consts.map(lambda v: ("const", v))),
        lambda kids: st.one_of(st.tuples(st.just("neg"), kids), binary(kids)),
        max_leaves=max_leaves)


_any_trees = _trees(
    st.floats(min_value=0.0, allow_infinity=False).map(abs),
    lambda kids: st.tuples(st.sampled_from(sorted(_SYMBOLS)), kids, kids))


def _print(node, level, draw):
    """Write node as text that binds at least as tightly as level, with
    random whitespace and spelling of power, and some extra parentheses."""
    def space():
        return draw(st.text(" \t\n", max_size=2))

    op = node[0]
    if op == "const":
        text = repr(node[1])
    elif op == "var":
        text = "x"
    elif op == "neg":
        text = "-" + space() + _print(node[1], _OPERANDS[op][0], draw)
    else:
        lhs, rhs = _OPERANDS[op]
        text = (_print(node[1], lhs, draw) + space()
                + draw(st.sampled_from(_SYMBOLS[op])) + space()
                + _print(node[2], rhs, draw))
    if _LEVEL[op] < level or draw(st.sampled_from((False, False, True))):
        text = "(" + space() + text + space() + ")"
    return text


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_any_trees, st.data())
    def test_printed_tree_parses_back(self, tree, data):
        space = st.text(" \t\n", max_size=2)
        text = data.draw(space) + _print(tree, 1, data.draw) + data.draw(space)
        assert _parse(text) == tree


def _slope(src, x):
    """The derived derivative of src at the points x."""
    return np.broadcast_to(_evaluate(_derivative(_parse(src), src), x),
                           np.shape(x))


def _integral(tree):
    """tree with each constant an int, so that numpy's polynomials of
    Python ints evaluate it exactly."""
    if tree[0] == "const":
        return ("const", int(tree[1]))
    return (tree[0], *map(_integral, tree[1:])) if tree[0] != "var" else tree


# Polynomials in x: + - * and ^ with an exponent of 0, 1 or 2, on integer
# constants, so that every coefficient is an exact integer.
_polynomials = _trees(
    st.integers(0, 3).map(float),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.just("pow"), kids,
                  st.integers(0, 2).map(lambda k: ("const", float(k))))),
    max_leaves=8)


class TestDerivative:
    @pytest.mark.parametrize("src, want", [
        ("0.75", lambda x: 0 * x),                              # const
        ("x", lambda x: 1 + 0 * x),                             # var
        ("-x^2", lambda x: -2 * x),                             # neg
        ("x^2 + 3*x", lambda x: 2 * x + 3),                     # add
        ("x^3 - x", lambda x: 3 * x**2 - 1),                    # sub
        ("(x + 1)*(x - 2)", lambda x: 2 * x - 1),               # mul
        ("x/4", lambda x: 0.25 + 0 * x),                        # div
        ("1/x", lambda x: -1 / x**2),
        ("x/(x + 1)", lambda x: 1 / (x + 1)**2),
        ("(3*x) % 1", lambda x: 3 + 0 * x),                     # mod
        ("x^0.5", lambda x: 0.5 * x**-0.5),                     # pow
        ("(2*x + 1)^-2", lambda x: -4 * (2 * x + 1)**-3),
        ("x^(1/2)", lambda x: 0.5 * x**-0.5),
    ])
    def test_closed_form(self, src, want):
        x = np.array([0.3, 0.7, 1.9])
        np.testing.assert_allclose(_slope(src, x), want(x), rtol=1e-14)

    @pytest.mark.parametrize("src, where", [
        ("x % x", "divisor"),
        ("2^x", "exponent"),
        ("x^x", "exponent"),
        ("x + x^(x - x)", "exponent"),
    ])
    def test_x_in_a_divisor_or_exponent_is_refused(self, src, where):
        with pytest.raises(ExpressionError, match=where) as exc:
            _derivative(_parse(src), src)
        assert repr(src) in str(exc.value)

    def test_negated_constant_folds(self):
        assert _node("sub", ("const", 0.0), ("const", 2.5)) == \
            ("const", -2.5)
        assert _node("sub", ("const", 0.0), ("var",)) == ("neg", ("var",))
        # A decreasing affine branch, and a negation, have constant slopes.
        for src in ("0.75 - 0.25*(x - 2.0)", "-(0.25*x) + 1"):
            assert _derivative(_parse(src), src) == ("const", -0.25)

    def test_parse_trees_keep_their_negations(self):
        # The fold is the derivative's: a parse keeps what the text says,
        # and a shape read before still fills from the cache.
        _SHAPES.clear()
        for text in ("0 - 3", "0 - 4"):
            assert _parse(text) == ("sub", ("const", 0.0),
                                    ("const", float(text[-1])))
        assert len(_SHAPES) == 1
        assert _parse("-2") == ("neg", ("const", 2.0))

    def test_parts_without_x_add_nothing(self):
        tree = _parse("0.5 + (x - 0.25)*3 % 1 + 2^-3")
        assert _derivative(tree, "") == ("const", 3.0)

    @seed(27)
    @settings(max_examples=200, deadline=None)
    @given(_polynomials)
    def test_polynomials(self, tree):
        x = Polynomial(np.array([0, 1], dtype=object))
        want = (_evaluate(_integral(tree), x) + 0 * x).deriv()
        got = _evaluate(_integral(_derivative(tree, "")), x)
        assert not (got - want).trim().coef.any()


# Trees over x whose exponents and divisors have no x, as a branch's do:
# a power takes one of a few exponents, a % a divisor away from 0.
_signed = st.floats(-3.0, 3.0, allow_nan=False)
_branch_trees = _trees(
    _signed,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
        st.tuples(st.just("pow"), kids, st.sampled_from(
            [0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5]).map(
                lambda k: ("const", k))),
        st.tuples(st.just("mod"), kids, st.one_of(
            st.floats(0.25, 3.0), st.floats(-3.0, -0.25)).map(
                lambda c: ("const", c)))),
    max_leaves=8)


# Polynomials over x with signed constants and exponents 0..5, which the
# cell enclosure evaluates in round-to-nearest.
_signed_polynomials = _trees(
    _signed,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.just("pow"), kids,
                  st.integers(0, 5).map(lambda k: ("const", float(k))))),
    max_leaves=8)


class TestEnclose:
    @settings(max_examples=400, deadline=None)
    @given(_branch_trees, _signed, st.floats(0.0, 2.0), st.data())
    def test_every_sampled_value_lies_inside(self, tree, lo, width, data):
        hi = lo + width
        try:
            ylo, yhi = _enclose(tree, lo, hi)
        except _NoEnclosure:
            return
        assert ylo <= yhi
        seed_ = data.draw(st.integers(0, 2**32 - 1))
        xs = np.concatenate([[lo, hi], np.random.default_rng(seed_).uniform(
            lo, hi, 32)])
        try:
            with np.errstate(all="ignore"):
                ys = np.broadcast_to(_evaluate(tree, xs), xs.shape)
        except (OverflowError, ZeroDivisionError):
            return  # a part without x that Python floats refuse
        bad = [(x, y) for x, y in zip(xs, ys) if not ylo <= y <= yhi]
        assert not bad, (ylo, yhi, bad[:3])

    @pytest.mark.parametrize("tree, why", [
        # x^-2 overflows to inf near 0, where x - x is 0: a NaN in floats,
        # with 0 inside an interval and not at a corner.
        (("mul", ("pow", ("var",), ("const", -2.0)),
          ("sub", ("var",), ("var",))), "0 * inf"),
        (("sub", ("pow", ("var",), ("const", -2.0)),
          ("pow", ("var",), ("const", -2.0))), "inf - inf"),
    ])
    def test_nan_in_floats_fails_closed(self, tree, why):
        lo = 2.4106951187319588e-169
        with np.errstate(all="ignore"):
            assert np.isnan(_evaluate(tree, np.array([lo])))
        with pytest.raises(_NoEnclosure, match=why.replace("*", r"\*")):
            _enclose(tree, lo, lo + 1.0)

    @pytest.mark.parametrize("src, lo, hi, want", [
        ("x", 0.25, 0.5, (0.25, 0.5)),
        ("2*x - 1", 0.5, 0.75, (0.0, 0.5)),             # exact: no widening
        ("1 - (1 - x)^4", 0.0, 1.0, (0.0, 1.0)),
        ("(x + 0.25) % 1", 0.0, 0.5, (0.25, 0.75)),
        ("x^-0.5", 0.0, 1.0, (1.0, float("inf"))),
        ("-x", 1.0, 2.0, (-2.0, -1.0)),
    ])
    def test_exact_bounds_stay(self, src, lo, hi, want):
        assert _enclose(_parse(src), lo, hi) == want

    def test_an_inexact_bound_moves_out(self):
        ylo, yhi = _enclose(_parse("x/3"), 1.0, 2.0)
        assert ylo < 1.0 / 3.0 and yhi > 2.0 / 3.0
        assert np.nextafter(ylo, 1.0) == 1.0 / 3.0
        assert np.nextafter(yhi, 0.0) == 2.0 / 3.0

    def test_a_power_from_libm_moves_out_two_steps(self):
        # An even power is least at 0; its top comes from libm's pow.
        ylo, yhi = _enclose(_parse("(x - 0.5)^2"), 0.0, 1.0)
        assert ylo == 0.0
        assert yhi == np.nextafter(np.nextafter(0.25, 1.0), 1.0)

    @pytest.mark.parametrize("src, lo, hi, why", [
        ("x % 0.5", 0.0, 0.5, "floor"),                   # 0.5 % 0.5 = 0
        ("(x - 0.25)^0.5", 0.0, 1.0, "negative points"),
        ("1/(x - 0.5)", 0.0, 1.0, "holds 0"),
        ("(x - 0.5)^-1", 0.0, 1.0, "holds 0"),
        ("x % (x - x)", 0.0, 1.0, "holds 0"),
        ("x^-0.5 * 0", 0.0, 1.0, "undefined"),            # 0 * inf
    ])
    def test_fails_closed(self, src, lo, hi, why):
        with pytest.raises(_NoEnclosure, match=why) as exc:
            _enclose(_parse(src), lo, hi)
        assert isinstance(exc.value, _Wraps) == (why == "floor")


def _steps(v, ulps, up):
    """v moved ``ulps`` floats toward +inf (``up``) or -inf."""
    for _ in range(ulps):
        v = math.nextafter(v, math.inf if up else -math.inf)
    return v


def _widen_inputs():
    """Random normal floats of every scale, subnormals, zeros, the ends of
    the normal range, and both signs of each."""
    rng = np.random.default_rng(11)
    normal = rng.standard_normal(200) * 10.0 ** rng.uniform(-300, 300, 200)
    subnormal = rng.integers(1, 2**52, 50) * 2.0 ** -1074
    ends = [0.0, 2.0 ** -1074, 2.0 ** -1022, 2.0 ** -1022 - 2.0 ** -1074,
            1.0, 2.0, 1.7976931348623157e308]
    v = np.concatenate([normal, subnormal, ends])
    return np.concatenate([v, -v])


class TestWiden:
    @pytest.mark.parametrize("ulps", [1, 4])
    @pytest.mark.parametrize("up", [True, False])
    def test_moves_at_least_ulps_floats(self, ulps, up):
        v = _widen_inputs()
        with np.errstate(over="ignore"):
            got = _widen(v.copy(), up, ulps)
        for x, y in zip(v.tolist(), got.tolist()):
            want = _steps(x, ulps, up)
            # At least ulps floats out, and at most 2*ulps + 1.
            assert (y >= want) if up else (y <= want), (x, y)
            far = _steps(x, 2 * ulps + 1, up)
            assert (y <= far) if up else (y >= far), (x, y)

    def test_infinities_never_move_inward_to_a_float(self):
        v = np.array([math.inf, -math.inf])
        with np.errstate(invalid="ignore"):
            up, down = _widen(v.copy(), True), _widen(v.copy(), False)
        assert up[0] == math.inf and math.isnan(up[1])
        assert down[1] == -math.inf and math.isnan(down[0])


class TestEncloseCells:
    @settings(max_examples=300, deadline=None)
    @given(_branch_trees, _signed, st.lists(st.floats(0.0, 0.5), min_size=1,
                                            max_size=6), st.data())
    def test_every_sampled_value_lies_inside_its_cell(self, tree, lo,
                                                      widths, data):
        tree = _parse(_print(tree, 1, data.draw))
        edges = lo + np.concatenate([[0.0], np.cumsum(widths)])
        left, right = edges[:-1], edges[1:]
        try:
            ylo, yhi = _enclose_cells(tree, left, right)
        except _NoEnclosure:
            return
        ylo, yhi = (np.broadcast_to(b, left.shape) for b in (ylo, yhi))
        assert (ylo <= yhi).all()
        seed_ = data.draw(st.integers(0, 2**32 - 1))
        inside = np.random.default_rng(seed_).uniform(left, right,
                                                      (16, left.size))
        xs = np.vstack([left, right, inside])
        try:
            with np.errstate(all="ignore"):
                ys = np.broadcast_to(_evaluate(tree, xs), xs.shape)
        except (OverflowError, ZeroDivisionError):
            return  # a part without x that Python floats refuse
        bad = ~((ylo <= ys) & (ys <= yhi))
        assert not bad.any(), (xs[bad][:3], ys[bad][:3])

    @settings(max_examples=300, deadline=None)
    @given(_signed_polynomials, _signed, st.lists(st.floats(0.0, 0.5),
                                                  min_size=1, max_size=6),
           st.data())
    def test_polynomial_bounds_hold_every_sampled_value(self, tree, lo,
                                                        widths, data):
        # Polynomials take round-to-nearest and one error bound per side.
        tree = _parse(_print(tree, 1, data.draw))
        assert _polynomial(tree)
        edges = lo + np.concatenate([[0.0], np.cumsum(widths)])
        left, right = edges[:-1], edges[1:]
        ylo, yhi = (np.broadcast_to(b, left.shape)
                    for b in _enclose_cells(tree, left, right))
        sup = np.broadcast_to(_sup_abs_cells(tree, left, right, edges[0],
                                             edges[-1]), left.shape)
        seed_ = data.draw(st.integers(0, 2**32 - 1))
        inside = np.random.default_rng(seed_).uniform(left, right,
                                                      (16, left.size))
        xs = np.vstack([left, right, inside])
        ys = np.broadcast_to(_evaluate(tree, xs), xs.shape)
        assert ((ylo <= ys) & (ys <= yhi)).all()
        assert (np.abs(ys) <= sup).all()

    @pytest.mark.parametrize("src, why", [
        ("(7*x) % 1", "floor"),            # wraps at 1/7, inside cell 0
        ("1/(x - 0.3)", "holds 0"),
        ("(x - 0.3)^0.5", "negative points"),
        ("x^-0.5 * 0", "not finite"),      # 0 * inf on the cell at 0
    ])
    def test_fails_closed_on_any_cell(self, src, why):
        left = np.array([0.0, 0.25, 0.5])
        with pytest.raises(_NoEnclosure, match=why) as exc:
            _enclose_cells(_parse(src), left, left + 0.25)
        assert isinstance(exc.value, _Wraps) == (why == "floor")

    def test_a_tree_without_x_gives_floats(self):
        left = np.array([0.0, 0.5])
        assert _enclose_cells(_parse("0.25"), left, left + 0.5) == (0.25, 0.25)

    def test_bounds_are_per_cell(self):
        left = np.array([0.0, 0.5, 1.0])
        ylo, yhi = _enclose_cells(_parse("(x - 0.5)^2"), left, left + 0.5)
        assert (ylo <= [0.0, 0.0, 0.25]).all()
        assert (ylo > [-1e-15, -1e-15, 0.2499999]).all()
        assert (yhi >= [0.25, 0.25, 1.0]).all()
        assert (yhi < [0.2500001, 0.2500001, 1.0000001]).all()


def _outcome(parse, src):
    """What ``parse(src)`` gives: the repr of its tree (which tells -0.0
    from 0.0), or the type and message of what it raises."""
    try:
        return repr(parse(src))
    except Exception as exc:
        return type(exc), str(exc)


# Number texts that _NUMBER reads, leading zeros and bare dots included.
_literals = st.from_regex(r"\A(?:0?[0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})"
                          r"(?:[eE][+-]?[0-9]{1,3})?\Z")
# What a mutation may glue to a literal or put in place of one.
_glue = st.sampled_from(["x", "e", "j", "_", ".", "or", "if", "0x", "1_0",
                         " ", "(", ")", "-", "+", "*", "^", "#", "", "\n"])


@st.composite
def _texts(draw):
    """A printed tree, with each free literal kept, swapped for another
    literal, or glued to a name, a dot or an underscore, and a few
    characters inserted anywhere."""
    text = _print(draw(_any_trees), 1, draw)
    parts = _FREE_NUMBER.split(text)
    for i in range(1, len(parts), 2):
        how = draw(st.sampled_from(["keep", "swap", "swap", "glue"]))
        if how == "swap":
            parts[i] = draw(_literals)
        elif how == "glue":
            parts[i] = draw(_glue) + draw(_literals) + draw(_glue)
    text = "".join(parts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_glue) + text[at:]
    return text


class TestShapeCache:
    @staticmethod
    def _check(texts):
        """Each text parses alike with the cache empty, cold and warm,
        in the order given, so that a text meets the shapes the texts
        before it cached."""
        want = {}
        for src in texts:
            _SHAPES.clear()
            want[src] = _outcome(_parse, src)
            assert want[src] == _outcome(_parse_text, src), src
        _SHAPES.clear()
        for _ in range(2):          # cold, then warm
            for src in texts:
                assert _outcome(_parse, src) == want[src], src

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_texts(), min_size=1, max_size=4), st.data())
    def test_random_texts_and_siblings(self, texts, data):
        siblings = []
        for src in texts:
            parts = _FREE_NUMBER.split(src)
            for i in range(1, len(parts), 2):
                parts[i] = data.draw(_literals)
            siblings.append("".join(parts))
        self._check(texts + siblings)

    @pytest.mark.parametrize("src, want", [
        ("2x", ExpressionError),
        ("1or x", ExpressionError),
        ("1_0", ExpressionError),
        ("08", ("const", 8.0)),
        ("007 + 1", ("add", ("const", 7.0), ("const", 1.0))),
        ("1.e5", ("const", 1e5)),
        (".5", ("const", 0.5)),
        ("1e5e3", ExpressionError),
        ("2 .5", ExpressionError),
        ("x^-1", ("pow", ("var",), ("neg", ("const", 1.0)))),
        ("-0.0*x", ("mul", ("neg", ("const", 0.0)), ("var",))),
        ("1e400*x", ("mul", ("const", float("inf")), ("var",))),
    ])
    def test_explicit_cases(self, src, want):
        # Each after a text of its shape whose literals are all 1.
        ones = _FREE_NUMBER.sub("1", src)
        self._check([ones, src])
        _SHAPES.clear()
        _outcome(_parse, ones)
        if isinstance(want, tuple):
            assert repr(_parse(src)) == repr(want)
        else:
            with pytest.raises(want):
                _parse(src)

    @pytest.mark.parametrize("src, glued", [
        ("2x + 1", "2x"), ("1or x", "1or"), ("1_0 + 1", "1_0"),
        ("x*1j", "1j"), ("0x10 - x", "0x10"), ("1.5.3*x", "1.5.3"),
        ("1e5e3 + x", "1e5e3"),
    ])
    def test_glued_literals_keep_their_text_in_the_shape(self, src, glued):
        assert glued in "".join(_FREE_NUMBER.split(src)[::2])

    def test_past_its_bound_the_oldest_shape_goes(self):
        _SHAPES.clear()
        texts = [f"x{' ' * k}+ {k}" for k in range(_SHAPES_MAX + 10)]
        for k, src in enumerate(texts):
            assert _parse(src) == ("add", ("var",), ("const", float(k)))
        assert len(_SHAPES) == _SHAPES_MAX
        assert ("x+ ", "") not in _SHAPES
        for k, src in enumerate(texts):
            assert _parse(src.replace(f"{k}", f"{k + 0.5}")) == \
                ("add", ("var",), ("const", k + 0.5))
        assert len(_SHAPES) == _SHAPES_MAX
