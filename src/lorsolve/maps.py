"""Piecewise monotone maps, multiplicity counting, change of variables.

A :class:`PiecewiseMap` is a finite list of branches, each a strictly
monotone C^1 map on a half-open interval, given by an expression in x
whose derivative is worked out from the expression's tree.  This branch
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

from .expressions import (_derivative, _evaluate, _evaluation_errors,
                          _parse, _vectorize)
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


_MONO_PROBES = 33


@dataclass(frozen=True)
class Branch:
    """One strictly monotone C^1 piece of a map, on [lo, hi).

    ``expr`` is the value in x, as text in the language of
    :mod:`lorsolve.expressions` or as a tree of its parser.  The branch
    keeps that ``tree`` and the ``deriv_tree`` of its derivative, which
    the rules of :func:`lorsolve.expressions._derivative` work out, and
    evaluates them with the vectorized ``fn`` and ``deriv``.  Strict
    monotonicity is probed at construction on a uniform sample, and so is
    smoothness: a ``%`` must not wrap inside the branch, that is, the
    quotient floor(a/b) of each ``a % b`` must be the same at every probe.
    Both checks are sampled, so a wrap between two probes passes;
    interval evaluation of the tree would close that gap.  An expression
    that cannot be parsed, evaluated or differentiated raises
    :class:`~lorsolve.expressions.ExpressionError`.
    """

    lo: float
    hi: float
    expr: object

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi):
            raise MapError(f"bad branch interval [{self.lo}, {self.hi})")
        text = isinstance(self.expr, str)
        source = self.expr.strip() if text else repr(self.expr)
        xs = np.linspace(self.lo, self.hi, _MONO_PROBES)
        with _evaluation_errors(source), np.errstate(all="ignore"):
            tree = _parse(self.expr) if text else self.expr
            deriv_tree = _derivative(tree, source)
            fn = _vectorize(tree, source)
            deriv = _vectorize(deriv_tree, source)
            # Parts without x raise alike for every x, so the probes find
            # them all.
            ys = fn(xs)
            deriv(xs)
            wraps = any(np.unique(np.floor_divide(_evaluate(a, xs),
                                                  _evaluate(b, xs))).size > 1
                        for _, a, b in _mod_nodes(tree))
        if ys.dtype.kind == "c":
            raise MapError(f"branch on [{self.lo}, {self.hi}) has a complex "
                           "value where a real one is needed")
        if not np.isfinite(ys).all():
            raise MapError("branch values must be finite")
        d = ys[1:] - ys[:-1]
        if not ((d > 0).all() or (d < 0).all()):
            raise MapError(
                f"branch on [{self.lo}, {self.hi}) is not strictly monotone"
            )
        if wraps:
            raise MapError(f"branch on [{self.lo}, {self.hi}) is not smooth: "
                           f"a '%' in {source!r} wraps inside it")
        for name, value in [("tree", tree), ("deriv_tree", deriv_tree),
                            ("fn", fn), ("deriv", deriv)]:
            object.__setattr__(self, name, value)


def _mod_nodes(tree):
    """Every ("mod", a, b) node of ``tree``."""
    if tree[0] in ("const", "var"):
        return []
    return ([tree] if tree[0] == "mod" else []) + [
        node for kid in tree[1:] for node in _mod_nodes(kid)]


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

    def evaluate(self, x):
        """(F(x), F'(x)) from one pass over the branches, both NaN where no
        branch interval [lo, hi) holds x."""
        x = np.asarray(x, dtype=float)
        val = np.full(x.shape, np.nan)
        der = np.full(x.shape, np.nan)
        for b in self.branches:
            mask = (x >= b.lo) & (x < b.hi)
            if mask.any():
                xm = x[mask]
                val[mask] = b.fn(xm)
                der[mask] = b.deriv(xm)
        return val, der

    def __call__(self, x):
        out = self.evaluate(x)[0]
        return out if out.ndim else float(out)

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
                    images.append(tuple(sorted(
                        np.asarray(b.fn(np.array([a, c])), dtype=float).tolist()
                    )))
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
