import numpy as np
import pytest

from lorsolve import (
    Branch,
    Domain,
    ExpressionError,
    MapError,
    PiecewiseMap,
    SampledFn,
    affine_map,
    change_of_variables_check,
    doubling_map,
    halving_map,
    identity_map,
    indicatrix_profile,
    tent3_map,
)
from lorsolve.transfer import _max_depth


class TestBranch:
    def test_increasing_detection(self):
        b = Branch(0.0, 1.0, "2*x")
        assert PiecewiseMap([b]).piece_images([(0.0, 1.0)]) == [(0.0, 2.0)]
        assert b.deriv_tree == ("const", 2.0)

    def test_decreasing_branch(self):
        b = Branch(0.0, 1.0, "1 - x")
        assert PiecewiseMap([b]).piece_images([(0.0, 1.0)]) == [(0.0, 1.0)]
        assert b.deriv_tree == ("neg", ("const", 1.0))

    def test_constant_rejected(self):
        with pytest.raises(MapError):
            Branch(0.0, 1.0, "0*x + 1")

    def test_derivative_that_no_x_can_evaluate(self):
        # x/(1-1) is infinite, so the value is x, but its slope divides by
        # a zero without x.
        with pytest.raises(ExpressionError, match="division by zero"):
            Branch(0.5, 1.0, "x + 1/(x/(1-1))")

    @pytest.mark.parametrize("lo, hi, expr, why", [
        # The quotient goes 0, 1, 2 at x = 0.49 and 0.99, between probes,
        # where the values still rise.
        (0.0, 1.0, "0.5*x + 0.01*((x + 0.01) % 0.5)", "wraps"),
        # Wraps of an inner % inside an outer one.
        (0.0, 1.0, "x + 0.001*((x % 0.3) % 1)", "wraps"),
        # The only wrap is at the closed end x = 1, a probe, where the
        # values fall first.
        (0.5, 1.0, "(2*x) % 1", "not strictly monotone"),
    ])
    def test_percent_that_wraps_inside_rejected(self, lo, hi, expr, why):
        with pytest.raises(MapError, match=why):
            Branch(lo, hi, expr)

    def test_percent_that_does_not_wrap_loads(self):
        b = Branch(0.0, 0.5, "(x + 0.25) % 1")
        assert b.fn(np.array([0.0, 0.25])).tolist() == [0.25, 0.5]
        assert PiecewiseMap([b]).piece_images([(0.0, 0.5)]) == [(0.25, 0.75)]


class TestPiecewiseMap:
    def test_overlapping_branches_rejected(self):
        b1 = Branch(0.0, 0.6, "x")
        b2 = Branch(0.5, 1.0, "x")
        with pytest.raises(MapError):
            PiecewiseMap([b1, b2])

    def test_call_and_nan_outside(self):
        F = doubling_map()
        y = F(np.array([0.25, 0.75, 1.5]))
        assert y[0] == 0.5 and y[1] == 0.5
        assert np.isnan(y[2])

    def test_deriv(self):
        F = doubling_map()
        _, d = F.evaluate(np.array([0.25, 0.75]))
        assert d.tolist() == [2.0, 2.0]

    def test_covers(self):
        F = doubling_map()
        y, d = F.evaluate(np.array([0.1, 0.9, 1.2]))
        assert not np.isnan(y[:2]).any() and not np.isnan(d[:2]).any()
        assert np.isnan(y[2]) and np.isnan(d[2])

    def test_piece_images_split_at_box_ends(self):
        # both doubling branches map onto [0, 1]; a box end at 0.25 cuts the
        # first one in two
        ivs = doubling_map().piece_images([(0.0, 0.25), (0.25, 1.0)])
        assert ivs == [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]


def _gapped_affine_map(seed, n=5):
    """n seeded affine branches of either slope sign, on [e_2k, e_2k+1)
    for 2n sorted draws e: a gap lies between each branch and the next."""
    rng = np.random.default_rng(seed)
    ends = np.sort(rng.uniform(-2.0, 3.0, size=2 * n)).reshape(n, 2)
    slopes = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 4.0, size=n)
    return affine_map(zip(ends[:, 0], ends[:, 1], slopes,
                          rng.uniform(-1.0, 1.0, size=n)))


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_each_branch_bit_for_bit(self, seed):
        F = _gapped_affine_map(seed)
        rng = np.random.default_rng(seed + 100)
        for b in F.branches:
            x = np.concatenate([[b.lo], rng.uniform(b.lo, b.hi, size=50)])
            y, d = F.evaluate(x)
            assert np.array_equal(y, b.fn(x))
            assert np.array_equal(d, b.deriv(x))

    @pytest.mark.parametrize("seed", range(5))
    def test_nan_in_gaps_outside_and_at_the_last_end(self, seed):
        F = _gapped_affine_map(seed)
        bs = F.branches
        x = [bs[0].lo - 1.0, np.nextafter(bs[0].lo, -np.inf),
             bs[-1].hi, bs[-1].hi + 1.0]
        for b1, b2 in zip(bs, bs[1:]):
            x += [b1.hi, 0.5 * (b1.hi + b2.lo), np.nextafter(b2.lo, -np.inf)]
        y, d = F.evaluate(np.array(x))
        assert np.isnan(y).all() and np.isnan(d).all()

    def test_interior_end_takes_right_hand_branch(self):
        F = affine_map([(0.0, 0.5, 2.0, 0.0), (0.5, 1.0, -3.0, 4.0)])
        y, d = F.evaluate(np.array([0.5]))
        assert y.tolist() == [2.5] and d.tolist() == [-3.0]

    def test_zero_dim_input_gives_float(self):
        F = doubling_map()
        assert isinstance(F(0.25), float) and F(0.25) == 0.5
        assert isinstance(F(1.5), float) and np.isnan(F(1.5))


class TestIndicatrix:
    def test_doubling_counts_two(self, unit):
        counts = indicatrix_profile(doubling_map(), unit, np.array([0.3]))
        assert counts.tolist() == [2]

    def test_identity_counts_one(self, unit):
        counts = indicatrix_profile(identity_map(), unit, np.array([0.3]))
        assert counts.tolist() == [1]

    def test_halving_counts_zero_above_half(self, unit):
        counts = indicatrix_profile(halving_map(), unit, np.array([0.9]))
        assert counts.tolist() == [0]

    def test_tent_counts_three(self, unit):
        counts = indicatrix_profile(tent3_map(), unit, np.array([0.5]))
        assert counts.tolist() == [3]

    def test_restriction_set(self):
        E = Domain.from_intervals([(0.0, 0.5)])
        # preimages of 0.3 under doubling are 0.15 and 0.65; only one in E
        assert indicatrix_profile(doubling_map(), E, [0.3]).tolist() == [1]

    def test_level_where_E_cuts_a_branch_counts_right_limit(self):
        # E = [0, 0.5) cuts tent3's falling branch at 0.5, whose image 0.5
        # has the one preimage 1/6 in E; just above 0.5 there are two.
        E = Domain.from_intervals([(0.0, 0.5)])
        assert indicatrix_profile(tent3_map(), E, [0.5]).tolist() == [2]

    def test_matches_affine_preimages(self):
        """Counts equal the preimages (y - c)/s that lie in E and in the
        branch, on random affine maps, sub-domains and levels away from
        every piece image endpoint."""
        rng = np.random.default_rng(16)
        for _ in range(200):
            pieces = _random_affine_pieces(rng)
            F = affine_map(pieces)
            E = _random_domain(rng)
            ends = [s * x + c for lo, hi, s, c in pieces
                    for x in [lo, hi, *np.ravel(E.boxes)] if lo <= x <= hi]
            ys = rng.uniform(-0.5, 1.5, size=50)
            ys = ys[np.min(np.abs(ys[:, None] - np.array(ends)), axis=1) > 1e-9]
            want = [sum(lo <= (y - c) / s < hi and bool(E.contains((y - c) / s))
                        for lo, hi, s, c in pieces) for y in ys]
            assert indicatrix_profile(F, E, ys).tolist() == want


def _random_affine_pieces(rng):
    """1-6 affine branches tiling [0, 1), of either slope sign, each
    starting at a value in [-0.2, 1)."""
    inner = np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 6)))
    cuts = np.concatenate([[0.0], inner, [1.0]])
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)
        pieces.append((lo, hi, s, rng.uniform(-0.2, 1.0) - s * lo))
    return pieces


def _random_domain(rng):
    """1-3 disjoint intervals inside [0, 1)."""
    ends = np.sort(rng.uniform(0.0, 1.0, 2 * rng.integers(1, 4)))
    return Domain.from_intervals(zip(ends[::2], ends[1::2]))


class TestMultiplicityFromIndicatrix:
    """The audit's K, the depth of the piece images on D, is the largest
    indicatrix count over the levels where a piece image can start: the
    piece image endpoints."""

    @staticmethod
    def _max_count(F, D):
        ys = np.array([y for piece in F.piece_images(D.boxes) for y in piece])
        return int(indicatrix_profile(F, D, ys).max())

    @staticmethod
    def _depth(F, D):
        return _max_depth(F.piece_images(D.boxes))[0]

    @pytest.mark.parametrize("factory", [identity_map, doubling_map,
                                         halving_map, tent3_map])
    def test_gallery(self, unit, factory):
        rng = np.random.default_rng(17)
        F = factory()
        for D in [unit] + [_random_domain(rng) for _ in range(30)]:
            assert self._depth(F, D) == self._max_count(F, D)

    def test_random_maps(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            F = affine_map(_random_affine_pieces(rng))
            D = _random_domain(rng)
            assert self._depth(F, D) == self._max_count(F, D)


class TestChangeOfVariables:
    @pytest.mark.parametrize("factory", [identity_map, doubling_map,
                                         halving_map, tent3_map])
    def test_affine_corpus_exact_for_constant_weight(self, unit, factory):
        F = factory()
        H = SampledFn.constant(unit, 256, 1.0)
        rep = change_of_variables_check(F, H, unit, m=256)
        assert rep.passed
        assert rep.rel_gap == 0.0

    def test_linear_weight(self, unit):
        H = SampledFn.from_callable(unit, 1024, lambda y: y)
        rep = change_of_variables_check(doubling_map(), H, unit, m=1024)
        assert rep.passed
        # both sides are 1.0 up to the O(1/M) midpoint projection shift
        assert rep.lhs == pytest.approx(1.0, rel=2e-3)
        assert rep.rhs == pytest.approx(1.0, rel=2e-3)

    def test_nonlinear_map(self, unit):
        # F(x) = x^2 with |J| = 2x; integral H(F(x))|J| dx = integral H
        square = PiecewiseMap(
            [Branch(0.0, 1.0, "x^2")],
            label="square",
        )
        H = SampledFn.from_callable(unit, 4096, lambda y: y)
        rep = change_of_variables_check(square, H, unit, m=4096)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.5, rel=1e-3)


class TestFactories:
    def test_affine_map_validates_slope(self):
        with pytest.raises(MapError):
            affine_map([(0.0, 1.0, 0.0, 0.3)])  # zero slope, not monotone

    def test_labels(self):
        assert doubling_map().label == "doubling"
        assert tent3_map().label == "tent3"
