"""Piecewise monotone maps, multiplicity counting, change of variables.

A :class:`PiecewiseMap` is a finite list of branches, each a strictly
monotone C^1 map on a half-open interval, given by an expression in x
whose derivative is worked out from the expression's tree, and proved
monotone by interval enclosure of that derivative.  This branch
class is exactly the one for which counting preimages is trivial (each
branch is a bijection onto its image interval) and for which preimages of
null sets are null, so the change-of-variables identity

    integral_E H(F(x)) |F'(x)| dx  =  integral H(y) N_F(y, E) dy

holds with N_F the Banach indicatrix (number of preimages of y in E).
:func:`change_of_variables_check` verifies it numerically on a grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .expressions import (_derivative, _enclose, _evaluation_errors,
                          _NoEnclosure, _parse, _vectorize, _Wraps)
from .grids import SampledFn

__all__ = [
    "Branch",
    "PiecewiseMap",
    "MapError",
    "CovReport",
    "indicatrix_profile",
    "change_of_variables_check",
    "identity_map",
    "doubling_map",
    "halving_map",
    "tent3_map",
    "affine_map",
]


class MapError(ValueError):
    """Raised for branches that are not strictly monotone or do not cover."""


# Bisections of a branch interval, at most, before a check that interval
# arithmetic leaves open refuses the branch.
_BISECTION_DEPTH = 10


@dataclass(frozen=True)
class Branch:
    """One strictly monotone C^1 piece of a map, on [lo, hi).

    ``expr`` is the value in x, as text in the language of
    :mod:`lorsolve.expressions` or as a tree of its parser.  The branch
    keeps that ``tree`` and the ``deriv_tree`` of its derivative, which
    the rules of :func:`lorsolve.expressions._derivative` work out, and
    evaluates them with the vectorized ``fn`` and ``deriv``; ``ends`` is
    the pair of floats ``fn`` gives at lo and hi.

    Construction proves, on the whole closed [lo, hi], what the branch
    claims, by outward-rounded interval enclosures
    (:func:`lorsolve.expressions._enclose`) on the pieces of a bisection
    of at most ``_BISECTION_DEPTH`` levels:

    - the values are finite and real;
    - no ``%`` wraps: the quotient floor(a/b) of each ``a % b`` is the
      same everywhere, so the branch is real-analytic inside;
    - the derivative keeps one sign, the one in which ``ends`` differ.
      An analytic function that is not constant is then strictly
      monotone, so the sign need not be strict: ``1 - (1 - x)^4`` has
      slope 0 at x = 1 and loads.

    A check that the enclosures leave open refuses the branch, so a
    branch can be refused that is monotone and smooth but too close to
    the limit for interval arithmetic.  The proof is about the
    expression in real arithmetic; ``fn`` evaluates it in floats.  An
    expression that cannot be parsed, evaluated or differentiated raises
    :class:`~lorsolve.expressions.ExpressionError`.
    """

    lo: float
    hi: float
    expr: object

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise MapError(f"bad branch interval [{lo}, {hi})")
        text = isinstance(self.expr, str)
        source = self.expr.strip() if text else repr(self.expr)
        with _evaluation_errors(source), np.errstate(all="ignore"):
            tree = _parse(self.expr) if text else self.expr
            deriv_tree = _derivative(tree, source)
            fn = _vectorize(tree, source)
            deriv = _vectorize(deriv_tree, source)
            # Parts without x raise alike for every x, so the ends find
            # them all.
            ys = fn(np.array([lo, hi], dtype=float))
            if deriv_tree[0] != "const":
                deriv(np.array([lo, hi], dtype=float))
            if ys.dtype.kind == "c":
                raise MapError(f"branch on [{lo}, {hi}) has a complex value "
                               "where a real one is needed")
            y0, y1 = ends = tuple(ys.tolist())
            if not (math.isfinite(y0) and math.isfinite(y1)):
                raise MapError("branch values must be finite")
            if y0 == y1:
                raise MapError(
                    f"branch on [{lo}, {hi}) is not strictly monotone")
            gap = _unproved(tree, deriv_tree, float(lo), float(hi), y1 > y0)
        if gap:
            kind, where = gap
            raise MapError({
                "finite": "branch values must be finite",
                "wrong": f"branch on [{lo}, {hi}) is not strictly monotone",
                "wrap": f"branch on [{lo}, {hi}) is not smooth: a '%' in "
                        f"{source!r} wraps inside it",
                "open": f"branch on [{lo}, {hi}) is not proved strictly "
                        f"monotone: its slope {where}",
            }[kind])
        for name, value in [("tree", tree), ("deriv_tree", deriv_tree),
                            ("fn", fn), ("deriv", deriv), ("ends", ends)]:
            object.__setattr__(self, name, value)


def _unproved(tree, deriv_tree, lo, hi, rising):
    """What interval enclosures leave unproved of a branch with value
    ``tree`` and slope ``deriv_tree`` on [lo, hi], whose ends rise (or
    fall): None, or (kind, detail) for the first kind in this order that
    some piece of the bisection leaves open.

    - "finite": the values' enclosure fails or is not finite;
    - "wrong": the slope has the wrong sign on a whole piece;
    - "wrap": a ``%`` wraps, its quotient floor not the same;
    - "open": the slope's enclosure holds both signs, or fails; the
      detail says where.

    A piece that leaves something open is split in two, down to
    ``_BISECTION_DEPTH`` levels; a wrong sign is final at once.
    """
    found = {}
    pieces = [(lo, hi, 0)]
    while pieces:
        a, b, depth = pieces.pop()
        try:
            ylo, yhi = _enclose(tree, a, b)
            if not (math.isfinite(ylo) and math.isfinite(yhi)):
                raise _NoEnclosure
        except _Wraps:
            kind = "wrap"
        except _NoEnclosure:
            kind = "finite"
        else:
            kind = "open"
            try:
                dlo, dhi = _enclose(deriv_tree, a, b)
            except _NoEnclosure as exc:
                why = f"meets {exc}"
            else:
                if (dlo >= 0.0) if rising else (dhi <= 0.0):
                    continue
                if (dhi < 0.0) if rising else (dlo > 0.0):
                    found["wrong"] = None
                    continue
                why = f"has the enclosure [{dlo!r}, {dhi!r}]"
        if depth < _BISECTION_DEPTH:
            mid = a + 0.5 * (b - a)
            pieces += [(mid, b, depth + 1), (a, mid, depth + 1)]
        elif kind == "finite":
            return kind, None
        else:
            found.setdefault(
                kind, f"{why} on [{a!r}, {b!r}]" if kind == "open" else None)
    for kind in ("wrong", "wrap", "open"):
        if kind in found:
            return kind, found[kind]
    return None


def _merge_intervals(ivals):
    ivals = sorted((float(a), float(b)) for a, b in ivals)
    out = []
    for a, b in ivals:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


class PiecewiseMap:
    """A one-dimensional map assembled from disjoint monotone branches."""

    def __init__(self, branches, label=""):
        branches = tuple(branches)
        if not branches:
            raise MapError("a map needs at least one branch")
        branches = tuple(sorted(branches, key=lambda b: b.lo))
        for b1, b2 in zip(branches, branches[1:]):
            if b2.lo < b1.hi:
                raise MapError(
                    f"branch intervals [{b1.lo},{b1.hi}) and "
                    f"[{b2.lo},{b2.hi}) overlap"
                )
        self.branches = branches
        self.label = label or f"piecewise[{len(branches)} branches]"
        # Every branch's lo, then every branch's hi, for evaluate's search.
        self._ends = np.array([[b.lo for b in branches],
                               [b.hi for b in branches]], dtype=float)
        # Each branch's constant slope, or None: a constant fills its slice
        # with one scalar and needs no array of its own.
        self._slopes = [b.deriv_tree[1] if b.deriv_tree[0] == "const"
                        else None for b in branches]

    def evaluate(self, x):
        """(F(x), F'(x)) from one pass over the branches, both NaN where no
        branch interval [lo, hi) holds x.

        Each branch is evaluated on the contiguous slice of an ascending
        run of x that binary search finds for it.  Grid midpoints ascend
        box by box, so their runs are the boxes, or fewer.  An x of as
        many runs as there are branches, or more, is sorted once instead,
        and the results are put back in x's order once.  ``F(x)`` takes
        the same pass for the values alone.
        """
        return self._sweep(x, slope=True)

    def __call__(self, x):
        """F(x) alone, as :meth:`evaluate` gives it; a float for a scalar x."""
        out = self._sweep(x, slope=False)[0]
        return out if out.ndim else float(out)

    def _sweep(self, x, slope):
        """(F(x),), and F'(x) after it if ``slope``, by :meth:`evaluate`'s
        pass."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        val = np.empty(flat.shape)
        der = np.empty(flat.shape) if slope else None
        found = [a for a in (val, der) if a is not None]
        # Where x stops ascending, or meets a NaN: most often nowhere.
        up = flat[1:] >= flat[:-1]
        cuts = () if up.all() else np.flatnonzero(~up) + 1
        if len(cuts) < len(self.branches):
            edges = [0, *np.asarray(cuts, dtype=int).tolist(), flat.size]
            for i, j in zip(edges, edges[1:]):
                self._fill(flat[i:j], val[i:j],
                           None if der is None else der[i:j])
        else:
            order = np.argsort(flat, kind="stable")
            self._fill(flat[order], val, der)
            for a in found:
                a[order] = a.copy()
        return tuple(a.reshape(x.shape) for a in found)

    def _fill(self, xs, val, der):
        """Evaluate each branch, and its slope, on its slice of the
        ascending ``xs``, into the same slices of ``val`` and ``der``, and
        NaN between the slices; ``der`` may be None, and is then left
        out."""
        starts, stops = np.searchsorted(xs, self._ends).tolist()
        outs = [a for a in (val, der) if a is not None]
        # ``done``: the end of the last slice, after which the points up to
        # the next slice are held by no branch.
        done = 0
        for b, slope, i, j in zip(self.branches, self._slopes, starts, stops):
            if done < i:
                for out in outs:
                    out[done:i] = np.nan
            if i < j:
                val[i:j] = b.fn(xs[i:j])
                if der is not None:
                    der[i:j] = b.deriv(xs[i:j]) if slope is None else slope
            done = j
        for out in outs:
            out[done:] = np.nan

    def piece_images(self, boxes):
        """Image (ylo, yhi) of each branch cut to each interval of ``boxes``.

        A piece is the nonempty [max(b.lo, lo), min(b.hi, hi)); its image
        runs between the branch values at those two ends, in either order.
        Each strictly monotone piece is a bijection onto its image, so it
        holds one preimage of every level strictly inside.
        """
        images = []
        for b in self.branches:
            for lo, hi in boxes:
                a, c = max(b.lo, lo), min(b.hi, hi)
                if a < c:
                    ys = (b.ends if (a, c) == (b.lo, b.hi)
                          else b.fn(np.array([a, c], dtype=float)).tolist())
                    images.append(tuple(sorted(ys)))
        return images


def indicatrix_profile(F, E, ys):
    """Banach indicatrix N_F(y+, E) at each level of the array ``ys``.

    ``E`` (a Domain) restricts preimages to a sub-domain.  Each strictly
    monotone branch cut to an interval of E contributes at most one
    preimage, so the count at y is the number of pieces of
    ``F.piece_images(E.boxes)`` with ylo <= y < yhi: the right limit
    N(y+).  It equals N(y) except at the image of a branch end or of a
    point where E cuts a branch, a finite set of levels.
    """
    ys = np.asarray(ys, dtype=float)
    counts = np.zeros(ys.shape, dtype=np.int64)
    for ylo, yhi in F.piece_images(E.boxes):
        counts += (ys >= ylo) & (ys < yhi)
    return counts


@dataclass(frozen=True)
class CovReport:
    lhs: float
    rhs: float
    rel_gap: float
    passed: bool  # rel_gap <= tol


def change_of_variables_check(F, H, E, m=4096, tol=1e-3):
    """Check integral_E H(F(x))|F'(x)| dx = integral H(y) N_F(y, E) dy.

    ``H`` is a nonnegative scalar :class:`SampledFn` on a grid covering the
    relevant range of F (H is treated as 0 outside its domain).  The left
    side is a midpoint sum on an ``m``-cell grid over ``E``; the right side
    sums H's own cells against the indicatrix at cell midpoints.  A
    midpoint at a piece image endpoint counts N(y+), the pieces whose
    images continue to the right of it.
    """
    if H.is_vector or H.values.dtype.kind == "c":
        raise MapError("H must be a real scalar function")
    if np.any(H.values < 0):
        raise MapError("H must be nonnegative")
    grid = SampledFn.zeros(E, m)
    x = grid.midpoints
    fx, jac = F.evaluate(x)
    if np.isnan(fx).any():
        raise MapError("map branches do not cover the integration domain")
    lhs = float(np.sum(H.eval_at(fx) * np.abs(jac) * grid.cell_measures))

    counts = indicatrix_profile(F, E, H.midpoints)
    rhs = float(np.sum(H.values * counts * H.cell_measures))

    scale = max(abs(lhs), abs(rhs), 1e-30)
    rel_gap = abs(lhs - rhs) / scale
    return CovReport(lhs=lhs, rhs=rhs, rel_gap=rel_gap,
                     passed=bool(rel_gap <= tol))


# ---------------------------------------------------------------------------
# Gallery of standard test maps on (0, 1).
# ---------------------------------------------------------------------------


def affine_map(pieces, label=""):
    """Build a map from affine pieces (lo, hi, slope, intercept), each
    the tree of slope*x + intercept."""
    return PiecewiseMap(
        [Branch(float(lo), float(hi),
                ("add", ("mul", ("const", float(a)), ("var",)),
                 ("const", float(c))))
         for lo, hi, a, c in pieces],
        label=label)


def identity_map():
    """x -> x on [0, 1)."""
    return affine_map([(0.0, 1.0, 1.0, 0.0)], label="identity")


def doubling_map():
    """x -> 2x mod 1 on [0, 1): two affine branches with slope 2."""
    return affine_map(
        [(0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0)], label="doubling"
    )


def halving_map():
    """x -> x/2 on [0, 1); image [0, 1/2)."""
    return affine_map([(0.0, 1.0, 0.5, 0.0)], label="halving")


def tent3_map():
    """Three full zigzag branches on [0, 1), |slope| = 3 (N_F = 3 a.e.)."""
    return affine_map(
        [
            (0.0, 1.0 / 3.0, 3.0, 0.0),
            (1.0 / 3.0, 2.0 / 3.0, -3.0, 2.0),
            (2.0 / 3.0, 1.0, 3.0, -2.0),
        ],
        label="tent3",
    )
