import numpy as np
import pytest

from lorsolve import (
    Branch,
    Domain,
    ExpressionError,
    MapError,
    PiecewiseMap,
    ProblemInstance,
    SampledFn,
    affine_map,
    bundled_instance_path,
    change_of_variables_check,
    doubling_map,
    halving_map,
    identity_map,
    indicatrix_profile,
    load_instance,
    power_young,
    tent3_map,
)
from lorsolve.config import BUNDLED_INSTANCES
from lorsolve.expressions import _SHAPES
from lorsolve.transfer import _max_depth
from conftest import bench_workloads


class TestBranch:
    def test_increasing_detection(self):
        b = Branch(0.0, 1.0, "2*x")
        assert PiecewiseMap([b]).piece_images([(0.0, 1.0)]) == [(0.0, 2.0)]
        assert b.deriv_tree == ("const", 2.0)

    def test_decreasing_branch(self):
        b = Branch(0.0, 1.0, "1 - x")
        assert PiecewiseMap([b]).piece_images([(0.0, 1.0)]) == [(0.0, 1.0)]
        assert b.deriv_tree == ("const", -1.0)

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

    def test_percent_that_wraps_between_any_two_probes_rejected(self):
        # The dividend dips below 0 on (0.3/32, 0.7/32) only, where the
        # value jumps to about 2.0156 and back: no sample of 33 points sees
        # it, and the enclosure of the dividend on [0, 1) does.
        with pytest.raises(MapError, match="wraps"):
            Branch(0.0, 1.0,
                   "x + 0.001*((1000*(x - 0.3/32)*(x - 0.7/32)) % 2000)")

    @pytest.mark.parametrize("lo, hi, expr", [
        (0.0, 1.0, "x^0.5"),              # infinite slope at x = 0
        (0.0, 1.0, "1 - (1 - x)^4"),      # slope 0 at x = 1
        (0.0, 0.5, "(x + 0.25) % 1"),
        (0.5, 1.0, "(x - 0.5) % 1"),      # the dividend is exactly 0 at lo
        (0.0, 1.0, "(x - 0.5)^3"),        # slope 0 at x = 0.5
    ])
    def test_monotone_branch_with_a_slope_that_reaches_0_or_inf_loads(
            self, lo, hi, expr):
        b = Branch(lo, hi, expr)
        assert list(b.ends) == b.fn(np.array([lo, hi])).tolist()

    @pytest.mark.parametrize("lo, hi, expr, why", [
        # Falls on [0, 0.3), though its ends rise.
        (0.0, 1.0, "(x - 0.3)^2", "not strictly monotone"),
        # Undefined on (0.25, 0.75), between finite ends.
        (0.0, 1.0, "x + 0*((x - 0.25)*(x - 0.75))^0.5",
         "branch values must be finite"),
        # Infinite at 0 only, between finite ends.
        (-1.0, 1.0, "1/x", "branch values must be finite"),
        # Strictly monotone, but its slope 3*(x - 0.5)^2 expanded touches
        # 0 at x = 0.5, where no enclosure of it keeps one sign.
        (0.0, 1.0, "x^3 - 1.5*x^2 + 0.75*x",
         r"not proved strictly monotone: its slope has the enclosure "
         r"\[-[0-9.e-]+, [0-9.e-]+\] on \[0.4"),
    ])
    def test_branch_that_the_enclosures_refuse(self, lo, hi, expr, why):
        with pytest.raises(MapError, match=why):
            Branch(lo, hi, expr)


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


def _mask_evaluate(F, x):
    """(F(x), F'(x)) by the formula evaluate replaced: one mask over all of
    x per branch, NaN where no branch holds x."""
    val = np.full(x.shape, np.nan)
    der = np.full(x.shape, np.nan)
    for b in F.branches:
        mask = (x >= b.lo) & (x < b.hi)
        if mask.any():
            val[mask] = b.fn(x[mask])
            der[mask] = b.deriv(x[mask])
    return val, der


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _instance(boxes, maps, m=64):
    domain = Domain.from_intervals(boxes)
    h0 = SampledFn.constant(domain, m, 1.0)
    g = SampledFn.constant(domain, m, 0.1)
    return ProblemInstance(domain, maps, (g,) * len(maps), h0, K_decl=2,
                           L_decl=len(maps), alpha=0.25,
                           psi=power_young(2.0))


def _map(*branches):
    return PiecewiseMap([Branch(lo, hi, expr) for lo, hi, expr in branches])


# Each domain sends every box into the domain, with branches of curved
# values and slopes.
_SLICE_CASES = {
    # Boxes listed in descending order: the midpoints do not ascend.
    "descending-boxes": (
        [(2.0, 2.5), (0.0, 1.0)],
        [_map((0.0, 1.0, "2 + 0.5*x^2"), (2.0, 2.5, "1 - 1.4*(2.5 - x)^0.5")),
         _map((0.0, 0.5, "1 - 2*x"), (0.5, 1.0, "2 + (x - 0.5)^3"),
              (2.0, 2.5, "0.25 + (x - 2)^2"))]),
    # Touching boxes, and a branch across their common end.
    "touching-boxes": (
        [(0.0, 1.0), (1.0, 2.0)],
        [_map((0.0, 1.5, "x^2/1.125"), (1.5, 2.0, "4 - 2*x")),
         _map((0.0, 2.0, "2 - (x + 1)^0.5*0.8"))]),
    # A branch across the gap between two boxes, which cut it.
    "branch-cut-by-a-box-end": (
        [(0.0, 0.5), (0.75, 1.0)],
        [_map((0.0, 1.0, "0.5*x")),
         _map((0.0, 1.0, "0.75 + 0.25*x^2"))]),
}


class TestSlicedEvaluation:
    @pytest.mark.parametrize("case", sorted(_SLICE_CASES))
    def test_keeps_the_bits_of_the_mask_formula(self, case):
        boxes, maps = _SLICE_CASES[case]
        inst = _instance(boxes, maps)
        x = inst.h0.midpoints
        rng = np.random.default_rng(7)
        # The grid's midpoints, the same shuffled, and among them branch
        # and box ends, points outside every branch, and NaN.
        extra = np.array([np.nan, -1.0, 0.0, 0.5, 0.6, 1.5, 1.75, 2.0, 2.5,
                          3.0, np.nan])
        for pts in (x, rng.permutation(x),
                    rng.permutation(np.concatenate([x, extra]))):
            for F in maps:
                got, want = F.evaluate(pts), _mask_evaluate(F, pts)
                assert _same_bits(got[0], want[0])
                assert _same_bits(got[1], want[1])
        for F, idx in zip(maps, inst._target_idx):
            y = _mask_evaluate(F, x)[0]
            assert not np.isnan(y).any()
            want = inst.h0.cell_index_of(y)
            assert (want >= 0).all()
            assert np.array_equal(idx, want)

    @pytest.mark.parametrize("case", sorted(_SLICE_CASES))
    def test_values_alone_keep_the_bits(self, case):
        # F(x) takes evaluate's pass for its values alone.
        boxes, maps = _SLICE_CASES[case]
        x = _instance(boxes, maps).h0.midpoints
        rng = np.random.default_rng(7)
        extra = np.array([np.nan, -1.0, 0.0, 0.5, 0.6, 1.5, 1.75, 2.0, 2.5,
                          3.0, np.nan])
        for pts in (x, rng.permutation(x),
                    rng.permutation(np.concatenate([x, extra]))):
            for F in maps:
                want = _mask_evaluate(F, pts)
                assert _same_bits(F(pts), want[0])

    def test_scalar_point_gives_a_float(self):
        F = _SLICE_CASES["touching-boxes"][1][0]
        b = F.branches[0]
        assert isinstance(F(0.75), float)
        assert F(0.75) == b.fn(np.array([0.75]))[0]
        assert np.isnan(F(-1.0))

    def test_shapes_and_ranks_come_back(self):
        F = _SLICE_CASES["touching-boxes"][1][1]
        x = np.linspace(-0.5, 2.5, 24)[::-1].reshape(2, 3, 4)
        y, d = F.evaluate(x)
        assert y.shape == d.shape == F(x).shape == x.shape
        want = _mask_evaluate(F, x.ravel())
        assert _same_bits(y.ravel(), want[0])
        assert _same_bits(d.ravel(), want[1])
        assert _same_bits(F(x).ravel(), want[0])


def _every_instance(tmp_path):
    for name in BUNDLED_INSTANCES:
        yield name, bundled_instance_path(name)
    workloads = bench_workloads()
    for name in ("rough-csv", "multibox-vec"):
        for seed in (23, 31, 37):
            where = tmp_path / f"{name}-{seed}"
            workloads.generate(name, where, seed)
            yield f"{name}-{seed}", where / "instance.cfg"


def test_every_shipped_branch_loads_with_its_midpoint_bits(tmp_path):
    # Each branch of the bundled instances and of the benchmark's seeded
    # workloads passes the enclosure checks, and evaluate gives the bits
    # of the mask formula at the grid midpoints.
    for label, path in _every_instance(tmp_path):
        inst, _ = load_instance(path)
        x = inst.h0.midpoints
        for F in inst.maps:
            for b in F.branches:
                assert list(b.ends) == \
                    b.fn(np.array([b.lo, b.hi])).tolist(), label
            got, want = F.evaluate(x), _mask_evaluate(F, x)
            assert _same_bits(got[0], want[0]), label
            assert _same_bits(got[1], want[1]), label


def test_every_shipped_branch_is_the_same_with_the_shape_cache(tmp_path):
    # A branch built while the shape cache is warm, as load_instance
    # builds all but the first of each shape, has the tree, slope, ends
    # and midpoint bits of one built from Python's parse of its text.
    for label, path in _every_instance(tmp_path):
        _SHAPES.clear()
        inst, _ = load_instance(path)
        x = inst.h0.midpoints
        for F in inst.maps:
            for b in F.branches:
                _SHAPES.clear()
                cold = Branch(b.lo, b.hi, b.expr)
                warm = Branch(b.lo, b.hi, b.expr)
                for other in (cold, warm):
                    assert repr(other.tree) == repr(b.tree), label
                    assert repr(other.deriv_tree) == repr(b.deriv_tree), label
                    assert other.ends == b.ends, label
                    with np.errstate(all="ignore"):
                        assert _same_bits(other.fn(x), b.fn(x)), label


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
