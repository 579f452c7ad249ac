import numpy as np
import pytest

from lorsolve import ExpressionError, compile_expression


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
