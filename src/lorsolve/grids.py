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
import math
import os
import re
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
# matrices while keeping per-chunk overhead negligible.
_CSV_CHUNK_ROWS = 4096


def _csv_rows(edges, cells):
    """CSV text of the rows of ``cells`` (one column per component) between
    their ``len(cells) + 1`` edges.  Each field is a zero-padded row of a
    ``uint8`` matrix; the fields and separators of a row sit side by side,
    and the text is what is left of the bytes once the zeros are dropped."""
    edge_text = _text_matrix(edges)
    comma = np.full((len(cells), 1), ord(","), dtype=np.uint8)
    parts = [edge_text[:-1], comma, edge_text[1:]]
    for j in range(cells.shape[1]):
        parts += [comma, _format_cells(cells[:, j])]
    parts.append(np.full((len(cells), 1), ord("\n"), dtype=np.uint8))
    text = np.hstack(parts).ravel()
    return text[text != 0].tobytes().decode()


def _format_cells(col):
    """``repr`` text of each value of a 1-d column, one zero-padded row of
    a ``uint8`` matrix per value.

    Values are widened to float64 or complex128 first, as ``repr`` of a
    Python float or complex would.  Each distinct bit pattern is formatted
    once, so -0.0 and 0.0 keep their own text: real values by
    ``_text_matrix``, complex ones by ``repr``.  Real values are keyed on
    their bits as ``uint64`` (sorting a void dtype is ~3x slower); complex
    values on both halves.  A real column in which no value repeats, as
    in most solutions, is formatted as it stands.
    """
    complex_col = col.dtype.kind == "c"
    col = np.ascontiguousarray(col, dtype=complex if complex_col else float)
    if not complex_col:
        bits = np.sort(col.view(np.uint64))
        if (bits[1:] != bits[:-1]).all():
            return _text_matrix(col)
    keys = col.view(f"V{col.itemsize}" if complex_col else np.uint64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if complex_col:
        texts = _repr_matrix(col[first])
    else:
        texts = _text_matrix(col[first])
    return texts[inverse]


def _repr_matrix(values):
    """``repr`` of each value of a 1-d array, one row of ASCII bytes per
    value, padded on the right with zero bytes."""
    texts = np.array([repr(v) for v in values.tolist()], dtype="S")
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


# Fewer values than this go through ``repr`` in _text_matrix: about where
# the fixed cost of the bulk path (tens of numpy calls, 0.1-0.3 ms) matches
# ``repr``'s 0.6-1 us per value.
_BULK_MIN = 512
# Tables of _text_matrix, built from Python ints (numpy temporaries at
# import leave a larger heap behind).
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_FLOAT = np.array([float(10**k) for k in range(21)])  # exact
# The four ASCII digits of 0000..9999, one uint32 each.
_DIGITS2 = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                         dtype=np.uint8).reshape(100, 2)
_DIGITS4 = np.hstack([np.repeat(_DIGITS2, 100, axis=0),
                      np.tile(_DIGITS2, (100, 1))]).view(np.uint32).ravel()
# The floats 1e-4 .. 1e15.  Each is at or above the power of ten it stands
# for, so ``a >= 1e-p`` compares a float with 10**-p exactly.
_FIXED_POWERS = np.array([float(f"1e{p}") for p in range(-4, 16)])
# For k = 0..20 (see _shortest_digits): 4 * 5**k, the factor of 4N, and
# 2 * 5**k, half an ulp of a * 10**k times 2**r.
_FOUR_FIVES = np.array([4 * 5**k for k in range(21)], dtype=np.uint64)
_HALF_ULPS = np.array([2 * 5**k for k in range(21)], dtype=np.int64)


def _text_matrix(x):
    """``repr`` of each value of a 1-d float64 array ``x``, one row of a
    ``uint8`` matrix per value, padded with zero bytes.

    ``repr`` writes fixed notation exactly for zero and for ``1e-4 <= |x|
    < 1e16``.  Those values are written in bulk, by numpy integer
    arithmetic: ``_shortest_digits`` finds their digits and
    ``_decimal_text`` their characters.  The rest (scientific notation,
    NaN, infinities) go through ``repr``, and so does every value of an
    array of fewer than ``_BULK_MIN``.

    ``_shortest_digits`` finds ``repr``'s digits from their exact
    characterisation (Steele & White 1990; Adams 2018), on ``v = |x| *
    10**k``, the 17-digit scaling of ``x``:

    - Interval.  A decimal reads back as ``x`` when it lies within half an
      ulp of ``x``.  Scaled, that interval is over 1.1 wide, so it holds
      an integer.
    - Shortest.  ``repr`` prints a decimal of the interval with the fewest
      significant digits: a multiple of ``10**j`` for the largest ``j``.
    - Nearest, ties to even.  Of those multiples, the one nearest ``x``;
      of two equally near, the one whose last digit is even.
    - Endpoint rule.  An end of the interval also reads back as ``x`` when
      the significand ``M`` of ``x`` is even (round half to even).  Scaled,
      an end is an integer only when ``|x| >= 2**52``.  There ``v = 10|x|``
      is a multiple of 10, and neither end is a multiple of 100: the ends
      are ``v +- 5``, or ``10 * (|x| +- 1)`` with ``|x|`` even.  So no end
      is ever the chosen decimal, and the open interval serves.
    - Gap below a power of two.  There the next float down is only half an
      ulp away, so the interval reaches just a quarter ulp down.  Every
      power of two of fixed notation has an exact expansion of at most 16
      digits, ending in 2, 4, 5, 6 or 8.  So ``v`` itself is a candidate
      ending in zeros, and the nearest multiple of a higher power of ten
      is at least 20 away, beyond the half ulp (at most 11.1, scaled).  The
      full interval gives the same digits, and serves.
    """
    if len(x) < _BULK_MIN:
        return _repr_matrix(x)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    bulk = fixed | (a == 0)
    digits = np.zeros(len(x), dtype=np.int64)
    frac = np.zeros(len(x), dtype=np.int64)
    digits[fixed], frac[fixed] = _shortest_digits(a[fixed])
    text = _decimal_text(digits[bulk], frac[bulk], np.signbit(x[bulk]))
    if bulk.all():
        return text
    rest = _repr_matrix(x[~bulk])
    out = np.zeros((len(x), max(text.shape[1], rest.shape[1])), dtype=np.uint8)
    out[bulk, :text.shape[1]] = text
    out[~bulk, :rest.shape[1]] = rest
    return out


def _shortest_digits(a):
    """The digits of ``repr`` of each value of ``a``, floats with ``1e-4 <=
    a < 1e16``, as int64 arrays ``d`` and ``s``: the text is that of ``d /
    10**s``.  ``_text_matrix`` gives the characterisation computed here,
    in exact integer arithmetic.

    With ``a = M * 2**(E - 1075)`` (``E`` the biased exponent, ``M`` the
    53-bit significand) and ``k`` in 1..20 the power of ten that puts ``v =
    a * 10**k`` in ``[1e16, 1e17)``, ``v = 4N / 2**r`` for ``N = M * 5**k <
    2**100`` and ``r = 1077 - E - k`` in 0..48; ``whole`` and ``rem / 2**r``
    are its integer and fractional parts.  An ulp of ``a``, scaled the same
    way, is ``4 * 5**k / 2**r = v / M``: from 1.1 to 22.2.
    """
    bits = a.view(np.uint64)
    k = 21 - np.searchsorted(_FIXED_POWERS, a, side="right")
    r = 1077 - k - (bits >> 52).astype(np.int64)
    # The float product a * 10**k is within 8 of v (an ulp of v is at most
    # 16), so its floor, the first value of ``whole``, is within 9 of v's
    # integer part.  So 4N less that floor times 2**r is below 2**53 in
    # size: its value mod 2**64 (uint64 arithmetic wraps), read as int64,
    # is exact and corrects ``whole``.  uint64 never meets int64 in one
    # operation, which numpy would carry out in floats.
    whole = (a * _POW10_FLOAT[k]).astype(np.int64)
    rem = ((bits & (2**52 - 1)) | 2**52) * _FOUR_FIVES[k]
    rem -= whole.view(np.uint64) << r.astype(np.uint64)
    rem = rem.view(np.int64)
    whole += rem >> r
    rem &= (1 << r) - 1
    # The integers low..high strictly inside v -+ half an ulp (2 * 5**k /
    # 2**r); _text_matrix shows why the ends, and the narrower gap below a
    # power of two, change no digits.
    half = _HALF_ULPS[k]
    low = whole + ((rem - half) >> r) + 1
    high = whole + ((rem + half - 1) >> r)
    # The largest j with a multiple of 10**j in low..high.  There are at
    # most 23 integers in low..high, so for j >= 2 that multiple is the one
    # multiple of 100 there, and j counts its trailing zeros.
    j = (high // 10 * 10 >= low).astype(np.int64)
    hit = np.flatnonzero(high // 100 * 100 >= low)
    c = high[hit] // 100
    del half, low, high
    zeros = np.full(hit.size, 2)
    for t in (8, 4, 2, 1):
        ok = c % _POW10[t] == 0
        c[ok] //= _POW10[t]
        zeros[ok] += t
    j[hit] = zeros
    # Of the multiples q * 10**j and (q + 1) * 10**j around v, the nearer
    # one, or the even q on a tie.  The interval is symmetric about v, so
    # it holds the nearer whenever it holds either.  The sign of cmp is
    # that of 2 * (v - q * 10**j) - 10**j.
    p = _POW10[j]
    q = whole // p
    cmp = np.clip(2 * (whole - q * p) - p, -2, 1) << r
    cmp += 2 * rem
    q += (cmp > 0) | ((cmp == 0) & (q % 2 == 1))
    # j > k only for an integer |x| >= 1e15 that ends in j - k zeros.
    s = k - j
    q *= _POW10[np.maximum(-s, 0)]
    return q, np.maximum(s, 0)


def _decimal_text(d, s, neg):
    """The texts of ``(-1)**neg * d / 10**s`` (the bulk path of
    ``_text_matrix``), one row of a ``uint8`` matrix per value, padded on
    the left with zero bytes."""
    # An integer n is written as the digits of 10*n with one after the
    # point, "n.0".
    frac = np.maximum(s, 1)
    d = np.where(s == 0, 10 * d, d)
    # Position (0 = rightmost) of the leading digit of each text.
    top = np.maximum(np.searchsorted(_POW10, d, side="right"), frac + 1)
    # A zero digit at position ``frac`` makes room for the point.
    p10 = _POW10[np.minimum(frac, 18)]
    d += 9 * p10 * (d // p10)
    # The digits of d, one row per character position (left to right) and
    # one column per value; the rows count at least one more than the
    # longest text, room for its sign.
    nlimbs = (int(top.max(initial=0)) + 5) // 4
    rows = np.empty((4 * nlimbs, len(d)), dtype=np.uint8)
    for j in range(nlimbs, 0, -1):
        high = d // 10000
        digits = _DIGITS4[d - 10000 * high].view(np.uint8).reshape(-1, 4)
        rows[4 * j - 4:4 * j] = digits.T
        d = high
    # '0' -> '.' at the point and a zero byte left of the leading digit;
    # the zero just left of it -> '-' for a negative value.  One mask
    # buffer, scaled in place, keeps the temporaries at two of the size of
    # rows.
    pos = np.arange(4 * nlimbs - 1, -1, -1)[:, None]
    mask = np.equal(pos, frac)
    step = mask.view(np.uint8)
    rows -= np.multiply(step, ord("0") - ord("."), out=step)
    np.greater(pos, top, out=mask)
    rows -= np.multiply(step, ord("0"), out=step)
    np.equal(pos, top + 1, out=mask)
    mask &= neg
    rows += np.multiply(step, ord("-"), out=step)
    return rows.T


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


class SampledFn:
    """A piecewise-constant function on a domain's uniform cell grid.

    ``values`` has shape (ncells,) for scalar functions or (ncells, d) for
    R^d / C^d valued ones, where ncells = nintervals * m.  Vector values
    may be C- or Fortran-ordered (``ProblemInstance.apply`` returns the
    latter); no result depends on which.  Values are stored
    read-only; all arithmetic returns new instances.  Two functions are grid
    compatible when they share the same domain and the same ``m``.

    The constructor copies ``values``, so the caller's array never aliases
    the function.  Results the package computes itself (arithmetic,
    ``abs``, ``clip_at``, :func:`pointwise_norm`, ``ProblemInstance.apply``
    and the solver's partial sum) take over their freshly built arrays
    through ``_owning`` instead: the same checks, no copy.
    """

    __slots__ = ("domain", "m", "values")

    def __init__(self, domain, m, values):
        self._setup(domain, m, np.array(values, copy=True))

    @classmethod
    def _owning(cls, values, like):
        """A function on ``like``'s grid (its domain and ``m``) that takes
        ``values`` over without a copy: an array the caller built and keeps
        no reference to.  Makes every check of ``__init__``."""
        f = object.__new__(cls)
        f._setup(like.domain, like.m, values)
        return f

    def _setup(self, domain, m, arr):
        if not isinstance(domain, Domain):
            raise GridError("domain must be a Domain")
        m = int(m)
        if m < 1:
            raise GridError(f"cells per interval must be >= 1, got {m}")
        ncells = len(domain.boxes) * m
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

    def __setattr__(self, name, value):
        raise AttributeError("SampledFn is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_callable(cls, domain, m, fn):
        """Project a vectorized callable by sampling at cell midpoints (a
        0-d result is a constant)."""
        return cls(domain, m, fn(cls.zeros(domain, m).midpoints))

    @classmethod
    def constant(cls, domain, m, value):
        """The scalar ``value`` in every cell."""
        return cls(domain, m, value)

    @classmethod
    def zeros(cls, domain, m):
        return cls(domain, m, 0.0)

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
    def is_vector(self):
        return self.values.ndim == 2

    @property
    def cell_measures(self):
        """(ncells,) cell widths in cell order, built per read."""
        m = self.m
        return np.concatenate([np.full(m, (hi - lo) / m)
                               for lo, hi in self.domain.boxes])

    @property
    def midpoints(self):
        """(ncells,) midpoint coordinates ``lo + (k + 0.5)*(hi - lo)/m`` in
        cell order, built per read, each interval in place in its slice."""
        m = self.m
        boxes = self.domain.boxes
        out = np.empty(len(boxes) * m)
        k = np.arange(0.5, m)     # k + 0.5, exact
        for b, (lo, hi) in enumerate(boxes):
            x = out[b * m:(b + 1) * m]
            np.multiply(k, hi - lo, out=x)
            x /= m
            x += lo
        return out

    def _interval_edges(self):
        """Per interval, its m + 1 cell edges ``lo + k*(hi - lo)/m`` (one
        array each).  The ends are ``lo`` and ``hi`` themselves: the formula
        can miss ``hi`` by an ulp and turns a -0.0 end into 0.0, so they
        echo the domain and adjacent intervals share their common edge."""
        m = self.m
        edges = []
        for lo, hi in self.domain.boxes:
            # In place, with the bits of lo + k * (hi - lo) / m.
            e = np.arange(m + 1, dtype=float)
            e *= hi - lo
            e /= m
            e += lo
            e[0], e[-1] = lo, hi
            edges.append(e)
        return edges

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
        return SampledFn._owning(self.values + other.values, self)

    def __sub__(self, other):
        self._require_same_grid(other)
        return SampledFn._owning(self.values - other.values, self)

    def __neg__(self):
        return SampledFn._owning(-self.values, self)

    def __mul__(self, scalar):
        if isinstance(scalar, SampledFn):
            self._require_same_grid(scalar)
            return SampledFn._owning(self.values * scalar.values, self)
        return SampledFn._owning(self.values * scalar, self)

    __rmul__ = __mul__

    def abs(self):
        """|f| as a real scalar function (works for complex scalars too)."""
        if self.is_vector:
            raise GridError("abs() is for scalar functions; use pointwise_norm")
        return SampledFn._owning(np.abs(self.values), self)

    def clip_at(self, level):
        """min(f, level) cellwise, for real scalar f (truncation ladders)."""
        if self.is_vector or self.values.dtype.kind == "c":
            raise GridError("clip_at() needs a real scalar function")
        return SampledFn._owning(np.minimum(self.values, level), self)

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
        values); the edges of an interval ``[lo, hi)`` are the floats
        ``lo + k*(hi - lo)/m``, except the last, which is ``hi``.  Every
        row ends in a newline.  Rows go out in chunks of
        ``_CSV_CHUNK_ROWS``.  Within a chunk each edge is formatted once,
        by ``_text_matrix``, and each distinct value once, by
        ``_format_cells``; every fixed-notation float is written in bulk,
        and the chunk's text is decoded once from one byte matrix.
        """
        vals = self.values if self.is_vector else self.values[:, None]
        if self.is_vector:
            names = "".join(f",value_{j}" for j in range(vals.shape[1]))
        else:
            names = ",value"
        fobj.write(f"cell_left,cell_right{names}\n")
        m = self.m
        for b, edges in enumerate(self._interval_edges()):
            for start in range(0, m, _CSV_CHUNK_ROWS):
                stop = min(start + _CSV_CHUNK_ROWS, m)
                fobj.write(_csv_rows(edges[start:stop + 1],
                                     vals[b * m + start:b * m + stop]))

    @classmethod
    def from_csv(cls, path_or_text, domain, m):
        """Read values for a known grid, validating the cell edges.

        ``path_or_text`` is a path, or a CSV string if it is a ``str``
        holding a newline.  After the header, each line is one cell, in
        grid order, with as many comma-separated fields as the header:
        the two cell edges (rel tolerance 1e-9) and the values.  Lines end
        in ``\\n`` or ``\\r\\n``.  A field is a decimal number as ``float``
        reads it (``1.5``, ``-2E-300``), optionally padded with whitespace
        and optionally in double quotes.  If any field after the header
        holds a ``j``, values are complex (``1.5-2j``, ``(1+2j)``,
        ``3j``).  Refused: blank lines, a line break inside a quoted
        field, digit separators (``1_0``), non-ASCII digits, ``#``,
        imaginary parts without digits or with a capital ``J`` (``1+j``,
        ``2J``), and values that are not finite (``nan``, ``inf``,
        ``1e400``).

        A file is read once, as bytes, and every check before the parse
        runs on those bytes.  A valid file is parsed by one ``np.loadtxt``
        call (a second one reads the edges of a complex file), from the
        path or from the text's lines (see ``_loadtxt``); any other file
        is scanned row by row only to name its first bad row.
        """
        text = None
        if isinstance(path_or_text, str) and "\n" in path_or_text:
            text = path_or_text
            data = text.encode("utf-8", "surrogatepass")
        else:
            # Absolute, since numpy would fetch a path that parses as a URL.
            path = os.path.abspath(os.fsdecode(path_or_text))
            # Read whole: streaming rows through csv.reader left the later
            # solve ~35% slower (glibc mmap threshold, ROADMAP item 1b(d)).
            with open(path, "rb") as fobj:
                data = fobj.read()
        if not data:
            raise GridError("empty CSV")
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise GridError(f"CSV is not UTF-8 text: {exc}") from None
        # No byte of a multi-byte UTF-8 character is "\n", "\r" or "j", so
        # the checks below can count and find them in the bytes.
        end = data.find(b"\n")
        head = data if end < 0 else data[:end]
        try:
            header = next(csv.reader([head.decode("utf-8")]))
        except csv.Error as exc:
            raise GridError(f"CSV header: {exc}") from None
        if len(header) < 3:
            raise GridError(f"CSV header {header} has no value columns")
        start = len(head) + 1
        nlines = data.count(b"\n", start) + (
            len(data) > start and not data.endswith(b"\n"))
        # np.loadtxt skips empty lines, so the line count is checked
        # first; an all-blank body would also make it warn.
        blank = re.compile(rb"\s*").fullmatch(data, start) is not None
        is_complex = data.find(b"j", start) >= 0
        if text is None and b"\r" not in data and not path.endswith(
                (".gz", ".bz2", ".xz", ".lzma")):
            src = path
        else:
            src = (data.decode("utf-8") if text is None else text).split("\n")
        del data
        probe = cls.zeros(domain, m)
        left, right = probe.cell_bounds()
        tol = 1e-9 * max(1.0, float(np.max(np.abs(right))))
        try:
            if nlines != probe.ncells or blank:
                raise ValueError
            vals = _loadtxt(src, complex if is_complex else float)
            edges = _loadtxt(src, float, usecols=(0, 1)) if is_complex else vals
            if vals.shape != (probe.ncells, len(header)):
                raise ValueError
            # ``<=`` so that a NaN edge fails the check.
            if not ((np.abs(edges[:, 0] - left) <= tol).all()
                    and (np.abs(edges[:, 1] - right) <= tol).all()
                    and np.isfinite(vals).all()):
                raise ValueError
        except ValueError:
            if text is None:
                with open(path, encoding="utf-8", newline="") as fobj:
                    text = fobj.read()
            raise GridError(_csv_fault(text, len(header), left, right, tol,
                                       is_complex)) from None
        vals = vals[:, 2:]
        return cls(domain, m, vals[:, 0] if vals.shape[1] == 1 else vals)


def _loadtxt(src, dtype, usecols=None):
    """The comma-separated rows of ``src`` after its header line, as a 2-d
    array (numpy's C reader; ``comments=None`` so that a ``#`` is a
    non-numeric field).  Empty lines are skipped.

    ``src`` is a path, or a list of the lines of a text.  numpy reads a
    path itself, in chunks, and that is the fastest route: a file object
    or an ``io.StringIO`` is read line by line, and the latter also holds
    a copy of the text at 4 bytes per character.  But numpy opens a path
    with universal newlines, where a stray ``\\r`` would end a row that
    ``csv`` refuses, and by its extension decompresses a ``.gz``,
    ``.bz2``, ``.xz`` or ``.lzma`` file.  So such files, and strings, come
    as lines split at ``\\n``.
    """
    return np.loadtxt(src, dtype=dtype, delimiter=",", comments=None,
                      quotechar='"', ndmin=2, usecols=usecols, skiprows=1,
                      encoding="utf-8")


# The number syntax of np.loadtxt's C reader, for naming a bad row:
# Python's float syntax without digit separators or non-ASCII digits; a
# complex number is a real part, an imaginary part with digits or both,
# optionally in parentheses (after ``+`` the imaginary part may carry its
# own sign).
_UNSIGNED = (r"(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
             r"|(?i:inf(?:inity)?|nan))")
_REAL = rf"[+-]?{_UNSIGNED}"
_COMPLEX = rf"{_REAL}(?:j|(?:\+[+-]?|-){_UNSIGNED}j)?"
_FLOAT_FIELD = re.compile(_REAL)
_COMPLEX_FIELD = re.compile(rf"\(\s*{_COMPLEX}\s*\)|{_COMPLEX}")


def _csv_fault(text, ncols, left, right, tol, is_complex):
    """The message naming the first fault of a CSV file that np.loadtxt
    refused or read into the wrong shape, off the grid or not finite.

    One ``csv.reader`` scan, checking what ``SampledFn.from_csv`` checks
    in its order: the row count, then row by row that the row is one
    line, its field count, its numbers, its cell edges and that its
    values are finite (each unsigned number in them, read by ``float``).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(row, reader.line_num) for row in reader][1:]
    except csv.Error as exc:
        return f"CSV line {reader.line_num}: {exc}"
    if len(rows) != left.size:
        return f"CSV has {len(rows)} cells, grid needs {left.size}"
    value_field = _COMPLEX_FIELD if is_complex else _FLOAT_FIELD
    for i, (row, line) in enumerate(rows):
        if line != i + 2:
            return f"CSV row {i + 1} has a line break inside a quoted field"
        if len(row) != ncols:
            return f"CSV row {i + 1} has {len(row)} fields, header has {ncols}"
        if not (all(_FLOAT_FIELD.fullmatch(x.strip()) for x in row[:2])
                and all(value_field.fullmatch(x.strip()) for x in row[2:])):
            return f"CSV row {i + 1} has a non-numeric field: {row!r}"
        lo, hi = float(row[0].strip()), float(row[1].strip())
        if not (abs(lo - left[i]) <= tol and abs(hi - right[i]) <= tol):
            return f"CSV row {i + 1} cell edges do not match grid"
        if not all(math.isfinite(float(x))
                   for x in re.findall(_UNSIGNED, ",".join(row[2:]))):
            return f"CSV row {i + 1} has a non-finite value: {row!r}"
    return "CSV is not one line of numbers per cell"


# ---------------------------------------------------------------------------
# Step-function algebra: distribution and rearrangement, both exact.
# ---------------------------------------------------------------------------


def _require_sorted(name, a, strict):
    """Raise GridError unless the 1-d ``a`` is finite and strictly increasing
    (``strict``) or nonincreasing.

    The order is one comparison in positive form, which is False at a NaN;
    once it holds, only the two ends can be infinite.
    """
    if strict:
        ordered = np.all(a[1:] > a[:-1])
    else:
        ordered = np.all(a[1:] <= a[:-1])
    if ordered and (not a.size or np.isfinite(a[0]) and np.isfinite(a[-1])):
        return
    if not np.all(np.isfinite(a)):
        raise GridError(f"{name} must be finite")
    rule = "strictly increase" if strict else "be nonincreasing"
    raise GridError(f"{name} must {rule}")


def _freeze_step(step, breaks, heights):
    """Check and freeze the fields ``breaks`` (finite, strictly increasing
    from 0) and ``heights`` (one fewer; finite, nonincreasing, nonnegative)
    of a step-function dataclass; a fault raises GridError naming its field."""
    x = np.asarray(getattr(step, breaks), dtype=float)
    y = np.asarray(getattr(step, heights), dtype=float)
    if x.size != y.size + 1:
        raise GridError(f"need len({breaks}) == len({heights}) + 1")
    _require_sorted(breaks, x, strict=True)
    _require_sorted(heights, y, strict=False)
    if x.size and x[0] != 0.0:
        raise GridError(f"{breaks} must start at 0")
    if y.size and y[-1] < 0.0:
        raise GridError(f"{heights} must be nonnegative")
    for name, a in ((breaks, x), (heights, y)):
        a.setflags(write=False)
        object.__setattr__(step, name, a)


def _step_at(breaks, heights, s):
    """The step function that is ``heights[i]`` on [breaks[i],
    breaks[i+1]) and 0 elsewhere, at the points ``s``."""
    s = np.asarray(s, dtype=float)
    idx = np.searchsorted(breaks, s, side="right") - 1
    out = np.zeros(s.shape)
    inside = (idx >= 0) & (idx < heights.size)
    out[inside] = heights[idx[inside]]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class StepDistribution:
    """mu_f(s) = measure{|f| > s} as an exact right-continuous step function.

    ``thresholds`` is finite and increasing with thresholds[0] = 0 and last
    entry max|f|; ``measures[i]`` is the (constant) value of mu_f on
    [thresholds[i], thresholds[i+1]), and mu_f = 0 beyond the last
    threshold.  ``measures`` is finite, nonincreasing and nonnegative.  A
    NaN, infinite or negative entry raises :class:`GridError`.
    """

    thresholds: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        _freeze_step(self, "thresholds", "measures")

    def __call__(self, s):
        return _step_at(self.thresholds, self.measures, s)

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


@dataclass(frozen=True)
class StepFn:
    """A nonincreasing right-continuous step function on [0, length).

    ``values[i]`` holds on [edges[i], edges[i+1]); the function is 0 beyond
    edges[-1]; ``edges`` and ``values`` must be finite.  Rearrangements
    produced by :func:`rearrangement` include an explicit zero plateau when
    |f| has a zero set, so edges[-1] is the domain's total measure (as
    summed in rearranged order).
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_step(self, "edges", "values")

    def __call__(self, t):
        return _step_at(self.edges, self.values, t)

    def integral(self):
        return float(np.sum(self.values * np.diff(self.edges)))


def _levels(f):
    """One sort of |f|: its distinct values u_0 < ... < u_{k-1} and what
    the measure of {|f| >= u_j} is read from.

    Returns ``(u, starts, w, mu)``.  Level j starts at position starts[j]
    of the sorted |f|; ``starts`` is None when every value is distinct, so
    that level j starts at j and the sorted values are the levels.  On a
    grid of one cell width ``w`` the fresh ``np.abs`` array is sorted in
    place, the measure of {|f| >= u_j} is (n - starts[j]) * w, rounded
    once (exact on dyadic widths), and ``mu`` is None.  On unequal widths
    ``w`` is None: each interval's cells are sorted in place, one stable
    ``argsort`` merges those sorted runs, and ``mu[j]`` is the running sum
    of the cell measures in that order from the top down to the first cell
    of level j.  Equal values are summed from the last interval back to
    the first, which shows in the bits only on widths that are not dyadic.
    """
    a = np.abs(f.values)
    # The cell width of each interval, computed as ``cell_measures`` does.
    widths = [(hi - lo) / f.m for lo, hi in f.domain.boxes]
    w = widths[0] if len(set(widths)) == 1 else None
    if w is None:
        # A cell keeps its interval, and so its width, through the sort of
        # its interval's row; timsort merges the presorted rows.
        a.reshape(len(widths), f.m).sort()
        perm = np.argsort(a, kind="stable")
        a = a[perm]
        mu = np.cumsum(np.take(widths, perm // f.m)[::-1])[::-1]
    else:
        a.sort()
        mu = None
    edge = np.empty(a.size, dtype=bool)
    edge[0] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:])
    if edge.all():
        return a, None, w, mu
    starts = np.flatnonzero(edge)
    return a[starts], starts, w, None if mu is None else mu[starts]


def _level_measures(f):
    """The levels u_0 < ... < u_{k-1} of |f| and the measure of
    {|f| >= u_j} of each, from :func:`_levels`."""
    u, starts, w, mu = _levels(f)
    if mu is None:
        n = f.ncells
        mu = (np.arange(n, 0, -1) if starts is None else n - starts) * w
    return u, mu


def distribution(f):
    """Exact distribution function mu_f(s) = measure{|f| > s} of a scalar f.

    One sort of |f| gives its levels u_0 < ... < u_{k-1} and the measure
    M_j of {|f| >= u_j}: (number of cells at or above u_j) * w, rounded
    once, when every cell has the same width ``w``, and otherwise the
    running sum of the cell measures from the top level down.  mu_f is M_j
    on [u_{j-1}, u_j), with u_{-1} = 0 when u_0 > 0.
    """
    if f.is_vector:
        raise GridError("distribution() needs a scalar function; "
                        "reduce vectors with pointwise_norm() first")
    u, mu = _level_measures(f)
    if u[0] > 0.0:
        return StepDistribution(thresholds=np.concatenate([[0.0], u]),
                                measures=mu)
    return StepDistribution(thresholds=u, measures=mu[1:])


def rearrangement(f):
    """Exact non-increasing rearrangement f* on [0, measure(domain)).

    The plateaus are the levels of |f| from the top down, and the edges
    are the measures of {|f| >= level} that :func:`distribution` reads,
    in reverse, after a leading 0.
    """
    if f.is_vector:
        raise GridError("rearrangement() needs a scalar function; "
                        "reduce vectors with pointwise_norm() first")
    u, mu = _level_measures(f)
    return StepFn(edges=np.concatenate([[0.0], mu[::-1]]),
                  values=u[::-1].copy())


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
    # A length that overflows to inf is refused by _owning as a cell value.
    with np.errstate(over="ignore"):
        length = mx * np.sqrt(total)
    return SampledFn._owning(length, f)
