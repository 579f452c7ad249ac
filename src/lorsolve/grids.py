"""Finite interval-union domains and piecewise-constant sampled functions.

The whole norm/operator stack runs on one representation: a :class:`Domain`
is a finite union of disjoint half-open intervals of finite length, each
interval carries a uniform grid of ``m`` cells, and a :class:`SampledFn`
holds one value per cell (scalar, vector, real or complex).  Because the
functions are exact step functions, distribution functions, non-increasing
rearrangements and the norm integrals built on them are finite exact sums
-- no quadrature error anywhere in this module.

Layout: cells are ordered interval by interval, left to right within an
interval.  Projection of a callable onto the grid samples at cell midpoints.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "SampledFn",
    "StepDistribution",
    "StepFn",
    "GridError",
    "distribution",
    "rearrangement",
    "pointwise_norm",
]


# Rows per ``fobj.write`` in SampledFn.write_csv: bounds the transient
# strings while keeping per-chunk overhead negligible.
_CSV_CHUNK_ROWS = 4096


def _format_cells(col):
    """``repr`` text of each value of a 1-d column, as a list.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 keep
    their own text; complex values are keyed on both halves.
    """
    col = np.ascontiguousarray(col)
    _, first, inverse = np.unique(col.view(f"V{col.itemsize}"),
                                  return_index=True, return_inverse=True)
    kind = complex if col.dtype.kind == "c" else float
    texts = [repr(v) for v in col[first].astype(kind).tolist()]
    return [texts[i] for i in inverse.tolist()]


class GridError(ValueError):
    """Raised for malformed domains, grid mismatches, or bad cell data."""


@dataclass(frozen=True)
class Domain:
    """A finite union of pairwise disjoint half-open intervals [lo, hi).

    ``boxes`` holds the intervals as (lo, hi) float pairs in the order
    given (the name matches the ``boxes =`` key of instance files).
    """

    boxes: tuple

    def __post_init__(self):
        if not self.boxes:
            raise GridError("domain needs at least one interval")
        pairs = tuple((float(lo), float(hi)) for lo, hi in self.boxes)
        for lo, hi in pairs:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise GridError("domains must have finite measure; infinite interval")
            if not lo < hi:
                raise GridError(f"degenerate interval [{lo}, {hi})")
        for i, (lo1, hi1) in enumerate(pairs):
            for lo2, hi2 in pairs[i + 1:]:
                if lo2 < hi1 and lo1 < hi2:
                    raise GridError(
                        f"intervals [{lo1}, {hi1}) and [{lo2}, {hi2}) overlap"
                    )
        object.__setattr__(self, "boxes", pairs)

    @staticmethod
    def interval(a, b):
        return Domain(boxes=((a, b),))

    @staticmethod
    def unit_interval():
        return Domain.interval(0.0, 1.0)

    @staticmethod
    def from_intervals(pairs):
        return Domain(boxes=tuple(pairs))

    @property
    def total_measure(self):
        return float(sum(hi - lo for lo, hi in self.boxes))

    def contains(self, points):
        """Membership mask of an array of points."""
        pts = np.asarray(points, dtype=float)
        mask = np.zeros(pts.shape, dtype=bool)
        for lo, hi in self.boxes:
            mask |= (pts >= lo) & (pts < hi)
        return mask

    def intervals(self):
        """The intervals as a list of (lo, hi) float pairs."""
        return list(self.boxes)


class SampledFn:
    """A piecewise-constant function on a domain's uniform cell grid.

    ``values`` has shape (ncells,) for scalar functions or (ncells, d) for
    R^d / C^d valued ones, where ncells = nintervals * m.  Vector values
    may be C- or Fortran-ordered (``ProblemInstance.apply`` returns the
    latter); no result depends on which.  Values are stored
    read-only; all arithmetic returns new instances.  Two functions are grid
    compatible when they share the same domain and the same ``m``.
    """

    __slots__ = ("domain", "m", "values", "_measures", "_mids")

    def __init__(self, domain, m, values):
        if not isinstance(domain, Domain):
            raise GridError("domain must be a Domain")
        m = int(m)
        if m < 1:
            raise GridError(f"cells per interval must be >= 1, got {m}")
        ncells = len(domain.boxes) * m
        arr = np.array(values, copy=True)
        if arr.dtype.kind in "iub":
            arr = arr.astype(float)
        elif arr.dtype.kind not in "fc":
            raise GridError(f"unsupported value dtype {arr.dtype}")
        if arr.ndim == 0:
            arr = np.full(ncells, arr[()])
        if arr.shape[0] != ncells or arr.ndim > 2:
            raise GridError(
                f"values shape {arr.shape} does not match {ncells} cells"
            )
        if arr.ndim == 2 and arr.shape[1] == 1:
            arr = arr[:, 0]
        if not np.all(np.isfinite(arr)):
            raise GridError("cell values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_measures", None)
        object.__setattr__(self, "_mids", None)

    def __setattr__(self, name, value):
        raise AttributeError("SampledFn is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_callable(cls, domain, m, fn, target_dim=1):
        """Project a vectorized callable by sampling at cell midpoints."""
        obj = cls.zeros(domain, m, target_dim)
        vals = np.asarray(fn(obj.midpoints))
        if vals.ndim == 0:
            vals = np.full(obj.ncells if target_dim == 1 else (obj.ncells, target_dim),
                           vals[()])
        return cls(domain, m, vals)

    @classmethod
    def constant(cls, domain, m, value):
        value = np.asarray(value)
        ncells = len(domain.boxes) * m
        if value.ndim == 0:
            return cls(domain, m, np.full(ncells, value[()]))
        return cls(domain, m, np.tile(value, (ncells, 1)))

    @classmethod
    def zeros(cls, domain, m, target_dim=1):
        ncells = len(domain.boxes) * m
        shape = ncells if target_dim == 1 else (ncells, target_dim)
        return cls(domain, m, np.zeros(shape))

    @classmethod
    def indicator(cls, domain, m, subset):
        """Characteristic function of ``subset`` (a Domain, or (lo, hi)
        interval pairs), projected by midpoint membership."""
        if not isinstance(subset, Domain):
            subset = Domain.from_intervals(subset)
        probe = cls.zeros(domain, m)
        vals = subset.contains(probe.midpoints).astype(float)
        return cls(domain, m, vals)

    # -- geometry ----------------------------------------------------------

    @property
    def ncells(self):
        return self.values.shape[0]

    @property
    def target_dim(self):
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    @property
    def is_vector(self):
        return self.values.ndim == 2

    @property
    def cell_measures(self):
        if self._measures is None:
            m = self.m
            chunks = [np.full(m, (hi - lo) / m) for lo, hi in self.domain.boxes]
            object.__setattr__(self, "_measures", np.concatenate(chunks))
            self._measures.setflags(write=False)
        return self._measures

    @property
    def midpoints(self):
        """(ncells,) midpoint coordinates in cell order."""
        if self._mids is None:
            m = self.m
            chunks = [lo + (np.arange(m) + 0.5) * (hi - lo) / m
                      for lo, hi in self.domain.boxes]
            object.__setattr__(self, "_mids", np.concatenate(chunks))
            self._mids.setflags(write=False)
        return self._mids

    def _interval_edges(self):
        """Per interval, its m + 1 cell edges (one array each)."""
        m = self.m
        return [lo + np.arange(m + 1) * (hi - lo) / m for lo, hi in self.domain.boxes]

    def cell_bounds(self):
        """Left and right cell edges, two (ncells,) arrays."""
        edges = self._interval_edges()
        return (np.concatenate([e[:-1] for e in edges]),
                np.concatenate([e[1:] for e in edges]))

    def cell_index_of(self, points):
        """Flat cell index per point; -1 for points outside the domain.

        Points exactly on an interior cell edge belong to the right cell
        (half-open convention).
        """
        pts = np.asarray(points, dtype=float)
        m = self.m
        out = np.full(pts.shape, -1, dtype=np.int64)
        for b, (lo, hi) in enumerate(self.domain.boxes):
            inside = (pts >= lo) & (pts < hi)
            if not inside.any():
                continue
            idx = np.floor((pts[inside] - lo) / ((hi - lo) / m)).astype(np.int64)
            np.clip(idx, 0, m - 1, out=idx)
            out[inside] = b * m + idx
        return out

    def eval_at(self, points):
        """Piecewise-constant evaluation; zero outside the domain."""
        idx = self.cell_index_of(points)
        res = np.zeros(idx.shape + self.values.shape[1:], dtype=self.values.dtype)
        ok = idx >= 0
        res[ok] = self.values[idx[ok]]
        return res

    # -- algebra -----------------------------------------------------------

    def same_grid(self, other):
        return (
            isinstance(other, SampledFn)
            and self.domain == other.domain
            and self.m == other.m
            and self.values.shape == other.values.shape
        )

    def _require_same_grid(self, other):
        if not self.same_grid(other):
            raise GridError("grid mismatch: operands need equal domain, m, shape")

    def __add__(self, other):
        self._require_same_grid(other)
        return SampledFn(self.domain, self.m, self.values + other.values)

    def __sub__(self, other):
        self._require_same_grid(other)
        return SampledFn(self.domain, self.m, self.values - other.values)

    def __neg__(self):
        return SampledFn(self.domain, self.m, -self.values)

    def __mul__(self, scalar):
        if isinstance(scalar, SampledFn):
            self._require_same_grid(scalar)
            return SampledFn(self.domain, self.m, self.values * scalar.values)
        return SampledFn(self.domain, self.m, self.values * scalar)

    __rmul__ = __mul__

    def abs(self):
        """|f| as a real scalar function (works for complex scalars too)."""
        if self.is_vector:
            raise GridError("abs() is for scalar functions; use pointwise_norm")
        return SampledFn(self.domain, self.m, np.abs(self.values))

    def clip_at(self, level):
        """min(f, level) cellwise, for real scalar f (truncation ladders)."""
        if self.is_vector or self.values.dtype.kind == "c":
            raise GridError("clip_at() needs a real scalar function")
        return SampledFn(self.domain, self.m, np.minimum(self.values, level))

    def integral(self):
        """Exact integral of f over the domain (sum of value * cell measure).

        A vector f is summed one contiguous component row at a time, so
        each component's integral is that of the scalar component, bit for
        bit, whatever the memory order of ``values``.
        """
        if self.is_vector:
            rows = np.ascontiguousarray(self.values.T)
            return np.sum(rows * self.cell_measures, axis=1)
        total = np.sum(self.values * self.cell_measures)
        return complex(total) if self.values.dtype.kind == "c" else float(total)

    def integral_abs_over(self, subset):
        """Exact integral of |f| over ``subset`` (midpoint membership)."""
        if self.is_vector:
            raise GridError("integral_abs_over() is for scalar functions")
        mask = subset.contains(self.midpoints)
        return float(np.sum(np.abs(self.values[mask]) * self.cell_measures[mask]))

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    # -- serialization -----------------------------------------------------

    def write_csv(self, fobj):
        """Write cells as CSV: ``cell_left,cell_right``, then value columns
        (``value`` for scalars, ``value_0, value_1, ...`` for vectors).

        Every number is ``repr`` of the Python float (complex for complex
        values); every row ends in a newline.  Rows go out in chunks of
        ``_CSV_CHUNK_ROWS``; within a chunk each edge and each distinct
        value is formatted once.
        """
        header = ["cell_left", "cell_right"]
        if self.is_vector:
            header += [f"value_{j}" for j in range(self.target_dim)]
        else:
            header += ["value"]
        fobj.write(",".join(header) + "\n")
        vals = self.values if self.is_vector else self.values[:, None]
        m = self.m
        for b, edges in enumerate(self._interval_edges()):
            for start in range(0, m, _CSV_CHUNK_ROWS):
                stop = min(start + _CSV_CHUNK_ROWS, m)
                edge_text = [repr(e) for e in edges[start:stop + 1].tolist()]
                cells = vals[b * m + start:b * m + stop]
                cols = [edge_text[:-1], edge_text[1:]]
                cols += [_format_cells(cells[:, j]) for j in range(cells.shape[1])]
                fobj.write("\n".join(map(",".join, zip(*cols))) + "\n")

    def csv_text(self):
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path_or_text, domain, m):
        """Read values for a known grid, validating the cell edges.

        ``path_or_text`` is a path, or a CSV string if it is a ``str``
        holding a newline.  The rows must match the grid's cells in order
        (rel tolerance 1e-9 on edges), each with as many numeric fields as
        the header.
        """
        text = path_or_text
        if not (isinstance(text, str) and "\n" in text):
            # Read whole: streaming rows through csv.reader left the later
            # solve ~35% slower (glibc mmap threshold, ROADMAP item 1b(d)).
            with open(path_or_text, newline="") as fobj:
                text = fobj.read()
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise GridError("empty CSV")
        header, data = rows[0], rows[1:]
        value_cols = len(header) - 2
        if value_cols < 1:
            raise GridError(f"CSV header {header} has no value columns")
        probe = cls.zeros(domain, m)
        if len(data) != probe.ncells:
            raise GridError(
                f"CSV has {len(data)} cells, grid needs {probe.ncells}"
            )
        left, right = probe.cell_bounds()
        has_complex = any("j" in x for row in data for x in row[2:])
        vals = np.empty(
            (probe.ncells, value_cols),
            dtype=complex if has_complex else float,
        )
        parse = complex if has_complex else float
        tol = 1e-9 * max(1.0, float(np.max(np.abs(right))))
        for i, row in enumerate(data):
            if len(row) != len(header):
                raise GridError(
                    f"CSV row {i + 1} has {len(row)} fields, header has "
                    f"{len(header)}"
                )
            try:
                lo, hi = float(row[0]), float(row[1])
                vals[i] = [parse(x) for x in row[2:]]
            except ValueError:
                raise GridError(
                    f"CSV row {i + 1} has a non-numeric field: {row!r}"
                ) from None
            # ``not <=`` so that a NaN edge fails the check.
            if not (abs(lo - left[i]) <= tol and abs(hi - right[i]) <= tol):
                raise GridError(f"CSV row {i + 1} cell edges do not match grid")
        return cls(domain, m, vals[:, 0] if value_cols == 1 else vals)


# ---------------------------------------------------------------------------
# Step-function algebra: distribution and rearrangement, both exact.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDistribution:
    """mu_f(s) = measure{|f| > s} as an exact right-continuous step function.

    ``thresholds`` is increasing with thresholds[0] = 0 and last entry
    max|f|; ``measures[i]`` is the (constant) value of mu_f on
    [thresholds[i], thresholds[i+1]), and mu_f = 0 beyond the last
    threshold.  ``measures`` is nonincreasing.
    """

    thresholds: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        mu = np.asarray(self.measures, dtype=float)
        if t.size != mu.size + 1:
            raise GridError("need len(thresholds) == len(measures) + 1")
        if t.size and t[0] != 0.0:
            raise GridError("thresholds must start at 0")
        if np.any(np.diff(t) <= 0):
            raise GridError("thresholds must strictly increase")
        if np.any(np.diff(mu) > 0):
            raise GridError("measures must be nonincreasing")
        t.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "measures", mu)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.thresholds, s, side="right") - 1
        out = np.zeros(s.shape)
        inside = (idx >= 0) & (idx < self.measures.size)
        out[inside] = self.measures[idx[inside]]
        return out if out.ndim else float(out)

    @property
    def max_abs(self):
        return float(self.thresholds[-1]) if self.measures.size else 0.0

    def lorentz_integral(self, tau_inverse):
        """Exact integral of tau_inverse(mu_f(s)) ds over [0, max|f|].

        Summed by numpy's pairwise sum, not a BLAS dot product, whose
        rounding depends on how many threads split the vector.
        """
        if not self.measures.size:
            return 0.0
        widths = np.diff(self.thresholds)
        return float(np.sum(np.asarray(tau_inverse(self.measures), dtype=float)
                            * widths))

    def equals(self, other):
        return np.array_equal(self.thresholds, other.thresholds) and np.array_equal(
            self.measures, other.measures
        )


@dataclass(frozen=True)
class StepFn:
    """A nonincreasing right-continuous step function on [0, length).

    ``values[i]`` holds on [edges[i], edges[i+1]); the function is 0 beyond
    edges[-1].  Rearrangements produced by :func:`rearrangement` include an
    explicit zero plateau when |f| has a zero set, so edges[-1] is the
    domain's total measure (as summed in rearranged order).

    ``plateau_measures``, when given, stores the exact plateau widths that
    produced the cumulative ``edges``; :meth:`distribution` prefers them so
    that rearranging and then taking the distribution reproduces the original
    distribution bit for bit (diff-of-cumsum would reintroduce rounding).
    """

    edges: np.ndarray
    values: np.ndarray
    plateau_measures: np.ndarray = None

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.size != v.size + 1:
            raise GridError("need len(edges) == len(values) + 1")
        if e.size and e[0] != 0.0:
            raise GridError("edges must start at 0")
        if np.any(np.diff(e) <= 0):
            raise GridError("edges must strictly increase")
        if np.any(np.diff(v) > 0):
            raise GridError("values must be nonincreasing")
        if v.size and v[-1] < 0:
            raise GridError("values must be nonnegative")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)
        if self.plateau_measures is not None:
            w = np.asarray(self.plateau_measures, dtype=float)
            if w.size != v.size:
                raise GridError("plateau_measures must match values")
            w.setflags(write=False)
            object.__setattr__(self, "plateau_measures", w)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.edges, t, side="right") - 1
        out = np.zeros(t.shape)
        inside = (idx >= 0) & (idx < self.values.size)
        out[inside] = self.values[idx[inside]]
        return out if out.ndim else float(out)

    @property
    def length(self):
        return float(self.edges[-1])

    def integral(self):
        return float(np.sum(self.values * np.diff(self.edges)))

    def distribution(self):
        if self.plateau_measures is not None:
            return _distribution_from(self.values, self.plateau_measures)
        return _distribution_from(self.values, np.diff(self.edges))


def _levels(values, measures):
    """The distinct values in increasing order and the total measure of each.

    ``measures`` is one shared measure per value (a float) or an array of
    one measure per value.  With a shared measure the levels come from one
    sort and its run boundaries, and a level of ``count`` values measures
    ``count * measures`` (one rounding; exact for dyadic measures).  Per-value
    measures are summed per level in value order.
    """
    if np.ndim(measures) == 0:
        v = np.sort(values)
        starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        counts = np.diff(np.append(starts, v.size))
        return v[starts], counts * float(measures)
    uniq, inverse = np.unique(values, return_inverse=True)
    return uniq, np.bincount(inverse, weights=measures, minlength=uniq.size)


def _grid_measures(f):
    """The cell measure of f's grid when every cell shares it (a float),
    else ``f.cell_measures``; the width is computed as ``cell_measures``
    computes it."""
    widths = {(hi - lo) / f.m for lo, hi in f.domain.boxes}
    return widths.pop() if len(widths) == 1 else f.cell_measures


def _distribution_from(values, measures):
    """Exact StepDistribution of nonnegative step data (value, measure)."""
    uniq, agg = _levels(np.asarray(values, dtype=float), measures)
    # tail[j] = measure{value > uniq[j]}
    tail = np.concatenate([np.cumsum(agg[::-1])[::-1][1:], [0.0]])
    if uniq[0] > 0.0:
        thresholds = np.concatenate([[0.0], uniq])
        mu = np.concatenate([[float(agg.sum())], tail])
    else:
        thresholds = uniq
        mu = tail
    # mu holds on [thresholds[i], thresholds[i+1]); the value beyond the last
    # threshold is 0 by construction, so drop the trailing entry.
    if thresholds.size == 1:  # f == 0
        return StepDistribution(thresholds=np.array([0.0]), measures=np.array([]))
    return StepDistribution(thresholds=thresholds, measures=mu[:-1])


def distribution(f):
    """Exact distribution function mu_f(s) = measure{|f| > s} of a scalar f.

    When all intervals of the domain have the same cell width ``w``, the
    levels of |f| come from one sort and a level of ``count`` cells
    measures ``count * w``; otherwise the per-cell measures are summed
    per level.
    """
    if f.is_vector:
        raise GridError("distribution() needs a scalar function; "
                        "reduce vectors with pointwise_norm() first")
    return _distribution_from(np.abs(f.values), _grid_measures(f))


def rearrangement(f):
    """Exact non-increasing rearrangement f* on [0, measure(domain)).

    The plateaus are the levels of |f|, built as in :func:`distribution`:
    one sort and ``count * w`` when every cell has the same width ``w``.
    """
    if f.is_vector:
        raise GridError("rearrangement() needs a scalar function; "
                        "reduce vectors with pointwise_norm() first")
    uniq, agg = _levels(np.abs(f.values), _grid_measures(f))
    vals = uniq[::-1].copy()
    widths = agg[::-1].copy()
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    return StepFn(edges=edges, values=vals, plateau_measures=widths)


def pointwise_norm(f):
    """Cellwise Euclidean norm |f(x)|_2 of a vector function, as a scalar fn.

    Uses the scaled (overflow-safe) reduction m * sqrt(sum((v/m)^2)) with
    m = max |component|; this is exact when only one component is nonzero,
    so lifting a scalar problem to (f, 0, ..., 0) reproduces the scalar
    pipeline bit for bit.

    The components are processed one row of ncells at a time: a running
    maximum over the rows, then the squares added up from left to right.
    For d <= 7 components this is bit for bit numpy's row reduction along
    ``axis=1``; for d >= 8 numpy sums each row pairwise, so the result may
    differ from that in the last bit.
    """
    if not f.is_vector:
        return f.abs()
    a = np.abs(f.values.T, order="C")
    mx = a[0].copy()
    for row in a[1:]:
        np.maximum(mx, row, out=mx)
    a /= np.where(mx > 0, mx, 1.0)
    a *= a
    total = a[0]
    for row in a[1:]:
        total += row
    return SampledFn(f.domain, f.m, mx * np.sqrt(total))
