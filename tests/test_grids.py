import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorsolve import (
    Domain,
    GridError,
    SampledFn,
    distribution,
    pointwise_norm,
    rearrangement,
)
from lorsolve import grids


class TestDomain:
    def test_unit_interval(self, unit):
        assert unit.total_measure == 1.0
        assert list(unit.intervals()) == [(0.0, 1.0)]

    def test_union_measure(self):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        assert d.total_measure == 0.75

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(GridError):
            Domain.from_intervals([(0.0, 0.6), (0.5, 1.0)])

    def test_contains_half_open(self, unit):
        hits = unit.contains(np.array([0.0, 0.5, 1.0, -0.1]))
        assert hits.tolist() == [True, True, False, False]

    def test_empty_interval_rejected(self):
        with pytest.raises(GridError):
            Domain.interval(1.0, 1.0)


class TestSampledFn:
    def test_cells_per_box(self):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        f = SampledFn.zeros(d, 16)
        assert f.ncells == 32
        assert f.cell_measures.sum() == pytest.approx(0.75, rel=1e-15)

    def test_from_callable_midpoint_projection(self, unit):
        f = SampledFn.from_callable(unit, 4, lambda x: x)
        assert np.array_equal(f.values, np.array([1, 3, 5, 7]) / 8.0)

    def test_indicator_measure(self, unit):
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        assert chi.integral() == pytest.approx(0.25, rel=1e-15)

    def test_integral_linear_exact(self):
        # midpoint projection integrates affine functions exactly
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        g = SampledFn.from_callable(d, 16, lambda x: x)
        assert g.integral() == pytest.approx(0.40625, rel=1e-14)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_vector_integral_is_componentwise(self, order):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        rng = np.random.default_rng(12)
        vals = np.asarray(rng.normal(size=(4096, 3)), order=order)
        got = SampledFn(d, 2048, vals).integral()
        want = [SampledFn(d, 2048, vals[:, j]).integral() for j in range(3)]
        assert got.tolist() == want

    def test_eval_at_zero_outside(self, unit):
        f = SampledFn.constant(unit, 8, 3.0)
        vals = f.eval_at(np.array([0.5, 1.5, -1.0]))
        assert vals.tolist() == [3.0, 0.0, 0.0]

    def test_cell_index_half_open(self, unit):
        f = SampledFn.zeros(unit, 4)
        idx = f.cell_index_of(np.array([0.0, 0.25, 0.999, 1.0]))
        assert idx.tolist() == [0, 1, 3, -1]

    def test_arithmetic_and_clip(self, unit):
        f = SampledFn.from_callable(unit, 8, lambda x: x)
        g = (2.0 * f - f).clip_at(0.5)
        assert np.max(g.values) == 0.5
        assert np.allclose((f + f).values, 2 * f.values)

    def test_mixed_grid_arithmetic_rejected(self, unit):
        f = SampledFn.zeros(unit, 8)
        g = SampledFn.zeros(unit, 16)
        with pytest.raises(GridError):
            _ = f + g

    def test_integral_abs_over_subset(self, unit):
        f = SampledFn.from_callable(unit, 64, lambda x: -np.ones_like(x))
        sub = Domain.from_intervals([(0.25, 0.75)])
        assert f.integral_abs_over(sub) == pytest.approx(0.5, rel=1e-12)


class TestCsvRoundTrip:
    def test_float_exact(self, unit):
        f = SampledFn.from_callable(unit, 32, lambda x: np.sin(7 * x))
        g = SampledFn.from_csv(f.csv_text(), unit, 32)
        assert np.array_equal(f.values, g.values)

    def test_vector_exact(self, unit):
        vals = np.arange(24, dtype=float).reshape(8, 3) / 7.0
        f = SampledFn(unit, 8, vals)
        g = SampledFn.from_csv(f.csv_text(), unit, 8)
        assert np.array_equal(f.values, g.values)
        assert g.is_vector

    def test_complex_exact(self, unit):
        f = SampledFn(unit, 8, np.arange(8) * (0.5 + 0.25j))
        g = SampledFn.from_csv(f.csv_text(), unit, 8)
        assert np.array_equal(f.values, g.values)

    def test_no_numpy_reprs_in_output(self, unit):
        f = SampledFn.zeros(unit, 8)
        assert "np." not in f.csv_text()

    def test_wrong_grid_rejected(self, unit):
        f = SampledFn.zeros(unit, 8)
        with pytest.raises(GridError):
            SampledFn.from_csv(f.csv_text(), unit, 16)

    @staticmethod
    def _rows(unit):
        return SampledFn.zeros(unit, 4).csv_text().splitlines()

    def test_non_numeric_value_rejected(self, unit):
        rows = self._rows(unit)
        rows[2] = rows[2].rsplit(",", 1)[0] + ",abc"
        with pytest.raises(GridError, match="row 2 has a non-numeric field"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)

    def test_wrong_field_count_rejected(self, unit):
        rows = self._rows(unit)
        rows[3] += ",0.0"
        with pytest.raises(GridError, match="row 3 has 4 fields"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)

    def test_nan_edge_rejected(self, unit):
        rows = self._rows(unit)
        rows[1] = "nan," + rows[1].split(",", 1)[1]
        with pytest.raises(GridError, match="row 1 cell edges"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)


def _reference_csv(f):
    """Row-by-row writer that SampledFn.write_csv must match byte for byte."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    left, right = f.cell_bounds()
    if f.is_vector:
        w.writerow(["cell_left", "cell_right"]
                   + [f"value_{j}" for j in range(f.target_dim)])
    else:
        w.writerow(["cell_left", "cell_right", "value"])
    vals = f.values if f.is_vector else f.values[:, None]
    fmt = complex if np.iscomplexobj(vals) else float
    for i in range(f.ncells):
        w.writerow([repr(float(left[i])), repr(float(right[i]))]
                   + [repr(fmt(v)) for v in vals[i]])
    return buf.getvalue()


def _awkward_levels(rng, n):
    """A long run of one level, then random draws from +-0.0, subnormals
    and normal numbers of mixed scale."""
    k = n - n // 2
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320,
                     1e16, 1e-5, 4.0 / 3.0])
    normal = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k)
    mixed = np.where(rng.random(k) < 0.5, rng.choice(pool, k), normal)
    return np.concatenate([np.full(n // 2, 4.0 / 3.0), mixed])


class TestCsvWriter:
    """write_csv against the row-by-row reference, across chunk boundaries
    and on two intervals of unequal width."""

    @pytest.mark.parametrize("kind", ["real", "vector", "complex"])
    def test_matches_reference(self, kind):
        m = 2 * grids._CSV_CHUNK_ROWS + 5
        domain = Domain.from_intervals([(-0.3, 0.7), (2.0, 2.125)])
        rng = np.random.default_rng(7)
        n = 2 * m
        if kind == "real":
            vals = _awkward_levels(rng, n)
        elif kind == "vector":
            vals = np.stack([_awkward_levels(rng, n) for _ in range(3)], axis=1)
        else:
            imag = rng.permutation(_awkward_levels(rng, n))
            vals = _awkward_levels(rng, n) + 1j * imag
        f = SampledFn(domain, m, vals)
        assert f.csv_text() == _reference_csv(f)

    def test_vector_layout_does_not_change_bytes(self):
        # ProblemInstance.apply returns Fortran-ordered vector values.
        m = grids._CSV_CHUNK_ROWS + 3
        domain = Domain.from_intervals([(-0.3, 0.7), (2.0, 2.125)])
        rng = np.random.default_rng(8)
        vals = np.stack([_awkward_levels(rng, 2 * m) for _ in range(4)], axis=1)
        c_order = SampledFn(domain, m, vals)
        f_order = SampledFn(domain, m, np.asfortranarray(vals))
        assert f_order.values.flags.f_contiguous
        assert not f_order.values.flags.c_contiguous
        assert f_order.csv_text() == c_order.csv_text()


class TestDistribution:
    def test_scaled_indicator(self, unit, tau2):
        f = 2.0 * SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        mu = distribution(f)
        assert mu.thresholds.tolist() == [0.0, 2.0]
        assert mu.measures.tolist() == [0.25]
        # integral of tau_inv(mu(s)) ds = tau_inv(1/4) * 2
        want = tau2.inverse(0.25) * 2.0
        assert mu.lorentz_integral(tau2.inverse) == pytest.approx(want, rel=1e-15)

    def test_right_continuity_convention(self, unit):
        f = SampledFn.indicator(unit, 4, [(0.0, 0.5)])
        mu = distribution(f)
        # mu(s) = measure{|f| > s}: 1/2 on [0,1), then 0
        assert mu(0.0) == 0.5
        assert mu(0.99) == 0.5
        assert mu(1.0) == 0.0

    def test_uses_magnitudes(self, unit):
        f = SampledFn.from_callable(unit, 16, lambda x: np.where(x < 0.5, -1.0, 1.0))
        mu = distribution(f)
        assert mu.thresholds.tolist() == [0.0, 1.0]
        assert mu.measures.tolist() == [1.0]


def _tied_values(rng, n, nlevels):
    """n values drawn from nlevels distinct ones (0.0 and -0.0 among them)."""
    pool = np.concatenate([[0.0, -0.0], rng.normal(size=max(nlevels - 2, 0))])
    return rng.choice(pool[:nlevels], size=n)


class TestLevels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=9),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=12))
    @example(seed=0, log_m=4, log_len=0, nlevels=1)  # the zero function
    @example(seed=0, log_m=4, log_len=0, nlevels=2)  # 0.0 and -0.0 only
    def test_shared_measure_matches_per_cell_on_dyadic_widths(
            self, seed, log_m, log_len, nlevels):
        rng = np.random.default_rng(seed)
        m, length = 2 ** log_m, 2.0 ** log_len
        domain = Domain.interval(1.0, 1.0 + length)
        vals = _tied_values(rng, m, nlevels)
        if nlevels > 2 and seed % 3 == 0:
            vals = np.full(m, vals[0])  # a constant function
        f = SampledFn(domain, m, vals)
        w = grids._grid_measures(f)
        assert isinstance(w, float) and w == length / m
        levels, measures = grids._levels(vals, w)
        ref_levels, ref_measures = grids._levels(vals, f.cell_measures)
        assert np.array_equal(levels, ref_levels)  # +-0.0 share a level
        assert measures.tobytes() == ref_measures.tobytes()
        # The callers pass magnitudes, where the bits agree too.
        levels, measures = grids._levels(np.abs(vals), w)
        ref_levels, ref_measures = grids._levels(np.abs(vals), f.cell_measures)
        assert levels.tobytes() == ref_levels.tobytes()
        assert measures.tobytes() == ref_measures.tobytes()
        ref = grids._distribution_from(np.abs(vals), f.cell_measures)
        assert distribution(f).equals(ref)

    def test_equal_width_intervals_share_one_measure(self):
        domain = Domain.from_intervals([(0.0, 0.5), (2.0, 2.5)])
        rng = np.random.default_rng(1)
        f = SampledFn(domain, 16, rng.choice([0.0, 1.0, 3.0], size=32))
        assert grids._grid_measures(f) == 0.5 / 16
        distribution(f)
        rearrangement(f)
        assert f._measures is None  # no per-cell measure array was built

    def test_unequal_width_intervals_keep_per_cell_measures(self):
        domain = Domain.from_intervals([(0.0, 1.0), (2.0, 2.5)])
        f = SampledFn.constant(domain, 16, 1.0)
        assert grids._grid_measures(f) is f.cell_measures
        assert distribution(f).measures.tolist() == [1.5]

    def test_level_measure_is_count_times_width(self):
        # 0.3 / 4096 is not dyadic: a running sum of the width drifts, while
        # count * width rounds once.
        m = 4096
        domain = Domain.interval(0.0, 0.3)
        rng = np.random.default_rng(2)
        vals = np.ones(m)
        vals[3300:] = rng.choice([0.0, 2.5, 7.0], size=m - 3300)
        f = SampledFn(domain, m, vals)
        fs = rearrangement(f)
        w = 0.3 / m
        for level, measure in zip(fs.values, fs.plateau_measures):
            assert measure == np.count_nonzero(vals == level) * w
        ones = fs.values.tolist().index(1.0)
        assert fs.plateau_measures[ones] == 0.24169921875  # 3300 * w
        running = np.bincount(np.zeros(3300, dtype=int),
                              weights=f.cell_measures[:3300])[0]
        assert running == 0.24169921874998565


class TestRearrangement:
    def test_equimeasurable_bitwise(self, unit):
        rng = np.random.default_rng(5)
        f = SampledFn(unit, 128, rng.normal(size=128))
        fs = rearrangement(f)
        assert distribution(f).equals(fs.distribution())

    def test_nonincreasing_with_zero_plateau(self, unit):
        f = SampledFn.indicator(unit, 8, [(0.25, 0.5)])
        fs = rearrangement(f)
        assert np.all(np.diff(fs.values) <= 0)
        assert fs.edges[-1] == pytest.approx(1.0, rel=1e-15)
        assert fs.values[-1] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_preserves_l1_mass(self, seed):
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 64, rng.normal(size=64) * 3.0)
        fs = rearrangement(f)
        mass = float(np.sum(fs.values * np.diff(fs.edges)))
        assert mass == pytest.approx(f.abs().integral(), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=-8.0, max_value=8.0))
    @example(seed=0, c=5e-324)
    def test_scaling_property(self, seed, c):
        # (c f)* = |c| f*, compared as functions on the common refinement of
        # both plateau partitions: a subnormal c collapses the levels of c f
        # into a few plateaus, so the two step lists differ in length.
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 32, rng.normal(size=32))
        left = rearrangement(c * f)
        right = rearrangement(f)
        grid = np.union1d(left.edges, right.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        assert np.allclose(left(mids), abs(c) * right(mids),
                           rtol=1e-12, atol=1e-300)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_hardy_littlewood_inequality(self, seed):
        # integral |f g| <= integral f* g* over (0, mu(domain))
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 64, rng.normal(size=64))
        g = SampledFn(unit, 64, rng.normal(size=64))
        lhs = float(np.sum(np.abs(f.values * g.values) * f.cell_measures))
        fs, gs = rearrangement(f), rearrangement(g)
        grid = np.union1d(fs.edges, gs.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        rhs = float(np.sum(fs(mids) * gs(mids) * np.diff(grid)))
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


class TestPointwiseNorm:
    def test_three_four_five(self, unit):
        vals = np.tile([3.0, 4.0], (8, 1))
        f = SampledFn(unit, 8, vals)
        assert np.allclose(pointwise_norm(f).values, 5.0, rtol=1e-15)

    def test_component_embedding_is_exact(self, unit):
        # (h, 0, 0) must reduce to exactly |h|, bit for bit
        rng = np.random.default_rng(11)
        h = rng.normal(size=16) * 1.7
        vals = np.zeros((16, 3))
        vals[:, 0] = h
        f = SampledFn(unit, 16, vals)
        assert np.array_equal(pointwise_norm(f).values, np.abs(h))

    def test_complex_magnitude(self, unit):
        f = SampledFn(unit, 8, np.full(8, 3.0 + 4.0j))
        assert np.allclose(pointwise_norm(f).values, 5.0, rtol=1e-15)

    def test_scalar_passthrough(self, unit):
        f = SampledFn.from_callable(unit, 8, lambda x: x - 0.5)
        assert np.array_equal(pointwise_norm(f).values, np.abs(f.values))

    @staticmethod
    def _axis1_reference(vals):
        """The row reduction along ``axis=1`` that pointwise_norm replaced."""
        a = np.abs(vals)
        mx = a.max(axis=1)
        safe = np.where(mx > 0, mx, 1.0)
        r = a / safe[:, None]
        return mx * np.sqrt((r * r).sum(axis=1))

    @staticmethod
    def _awkward_vectors(d, dtype):
        """Rows of normal draws, all-zero rows, rows with single nonzero
        components, and components near 1e+300 and 1e-300, mixed."""
        rng = np.random.default_rng(100 + d)
        n = 512
        vals = rng.normal(size=(n, d))
        if dtype == "complex":
            vals = vals + 1j * rng.normal(size=(n, d))
        vals[:32] = 0.0
        vals[32:64, 1:] = 0.0
        vals[64:128] *= 1e300
        vals[128:192] *= 1e-300
        vals[192:256, ::2] *= 1e300
        vals[256:320, 1::2] *= 1e-300
        vals[320:352, -1] = 1.7e308
        return vals

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_axis1_reference_bit_for_bit(self, unit, d, order, dtype):
        vals = self._awkward_vectors(d, dtype)
        f = SampledFn(unit, vals.shape[0], np.asarray(vals, order=order))
        got = pointwise_norm(f).values
        assert got.tobytes() == self._axis1_reference(vals).tobytes()

    @pytest.mark.parametrize("d", [8, 9])
    def test_pairwise_row_sum_differs_by_at_most_2_ulp(self, unit, d):
        # For d >= 8 numpy sums a C-ordered row pairwise, pointwise_norm
        # from left to right.
        vals = self._awkward_vectors(d, "real")
        got = pointwise_norm(SampledFn(unit, vals.shape[0], vals)).values
        want = self._axis1_reference(vals)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
