import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorsolve import ExpressionError, compile_expression
from lorsolve.expressions import _parse


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

_trees = st.recursive(
    st.one_of(st.just(("var",)),
              st.floats(min_value=0.0, allow_infinity=False)
              .map(lambda v: ("const", abs(v)))),
    lambda kids: st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from(sorted(_SYMBOLS)), kids, kids)),
    max_leaves=16)


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
    @given(_trees, st.data())
    def test_printed_tree_parses_back(self, tree, data):
        space = st.text(" \t\n", max_size=2)
        text = data.draw(space) + _print(tree, 1, data.draw) + data.draw(space)
        assert _parse(text) == tree
