"""The weighted composition operator and its contraction audit.

The operator acts on sampled functions by

    (P phi)(x) = sum_n g_n(x) * phi(f_n(x)),

with composition realized as midpoint-to-cell lookup (half-open cells, no
interpolation), so P maps the piecewise-constant class to itself and is
exactly linear in cell arithmetic.

The audit proves, on every closed grid cell [e_k, e_{k+1}] and for every
n, the contraction inequality

    |g_n(x)| <= alpha * min{ |J_n(x)| / (K*L), 1/N },

where K bounds the preimage multiplicity of each map, L the overlap order
of their images, and N is the number of maps.  It bounds sup |g_n| on
each cell by an interval enclosure of the coefficient's expression tree
(:func:`~lorsolve.expressions._sup_abs_cells`; a coefficient given as a
SampledFn is exact per cell) and inf |J_n| = inf |f_n'| per branch slice
(the slope itself where it is constant), so the largest ratio it finds,
the audited alpha, bounds the ratio on all of the domain: a PASS in
``audit_mode = cell-enclosure`` is a proof, and the solver may then use
the rate 2*min(alpha, audited alpha), the paper's theorem with alpha
computed rather than declared.  A coefficient without a tree, or whose
enclosure fails closed, is sampled at the cell midpoints instead, as
before, and the report says ``audit_mode = midpoint-sampled``: a PASS is
then evidence at grid resolution and a FAIL is authoritative.

K and L are declared by the caller and cross-checked against their exact
values, swept from the images of the branch pieces on the domain that
the instance computed (never silently inferred; a branch part outside
the domain counts for neither).  Those images are exact because each
branch is proved finite, smooth and strictly monotone on its closed
interval by interval enclosure (:class:`~lorsolve.maps.Branch`), so each
piece is a bijection onto the interval between its end values.

An instance keeps only what P reads, the sampled weights and the target
cell of each midpoint image, besides the branch-piece images, h0 and the
coefficients' expression trees.  The audit works out its per-cell bounds
one map at a time, and none of them outlives it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expressions import (_enclose_cells, _exact_product, _exact_quotient,
                          _has_x, _NoEnclosure, _sup_abs_cells, _widen)
from .grids import GridError, SampledFn
from .maps import PiecewiseMap, _merge_intervals
from .norms import lorentz_norm
from .young import derive_tau

__all__ = [
    "InstanceError",
    "AuditFailure",
    "ProblemInstance",
    "OverlapEstimate",
    "estimate_overlap_L",
    "AuditReport",
    "audit_contraction",
]

class InstanceError(ValueError):
    """Raised for ill-formed problem instances."""


class AuditFailure(RuntimeError):
    """Raised when a solve is attempted on an instance whose audit FAILed."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "contraction audit FAILed "
            f"(worst ratio {report.feasible_alpha!r} vs alpha {report.alpha!r}); "
            "pass force=True to iterate anyway"
        )


class ProblemInstance:
    """Fixed data of one functional equation phi = P phi + h0.

    ``maps`` are the inner maps f_n (PiecewiseMap), ``coeffs`` the weights
    g_n (scalar SampledFn on h0's grid, or vectorized callables sampled at
    construction), ``h0`` the inhomogeneity (scalar or vector, real or
    complex).  ``coeff_trees``, when given, holds per coefficient the
    expression tree its callable evaluates, or None; the audit encloses
    each tree on every cell, and samples a callable without one at the
    midpoints.  A SampledFn coefficient needs no tree: it is the weight
    itself, constant on each cell.  K_decl and L_decl are the declared multiplicity and overlap
    bounds entering the audited inequality; alpha in [0, 1/2) is the
    declared contraction parameter; psi selects the Young function
    generating the norm.

    Construction checks, from the branch ends, that every map covers each
    box of the domain and sends it into the domain's closure (the image of
    each branch piece lies inside one interval of the merged closure of
    the boxes, kept as ``piece_images``: one list of (ylo, yhi) per map);
    either failure raises InstanceError.  It then precomputes, per map,
    the target cell index of every midpoint image.  Such an image
    leaves the domain only by rounding onto a box's closed right end: it
    goes to that box's last cell and is counted in ``clamped_images``.
    Only the maps' values are evaluated.  Of the per-cell arrays, the
    instance keeps those that :meth:`apply` reads, the coefficients and
    target indices, besides h0: no slopes and no midpoints.
    """

    def __init__(self, domain, maps, coeffs, h0, K_decl, L_decl, alpha, psi,
                 label="", coeff_trees=None):
        if not isinstance(h0, SampledFn):
            raise InstanceError("h0 must be a SampledFn")
        if h0.domain != domain:
            raise InstanceError("h0 is not sampled on the instance domain")
        maps = tuple(maps)
        coeffs = tuple(coeffs)
        if not maps:
            raise InstanceError("an instance needs at least one map")
        if len(maps) != len(coeffs):
            raise InstanceError(
                f"{len(maps)} maps but {len(coeffs)} coefficients"
            )
        coeff_trees = (tuple(coeff_trees) if coeff_trees is not None
                       else (None,) * len(coeffs))
        if len(coeff_trees) != len(coeffs):
            raise InstanceError(
                f"{len(coeffs)} coefficients but {len(coeff_trees)} trees")
        for F in maps:
            if not isinstance(F, PiecewiseMap):
                raise InstanceError(
                    f"map {getattr(F, 'label', F)!r} is not a PiecewiseMap"
                )
        if not (isinstance(K_decl, (int, np.integer)) and K_decl >= 1):
            raise InstanceError("K_decl must be an integer >= 1")
        if not (isinstance(L_decl, (int, np.integer))
                and 1 <= L_decl <= len(maps)):
            raise InstanceError("L_decl must be an integer in 1..N")
        alpha = float(alpha)
        if not (0.0 <= alpha < 0.5):
            raise InstanceError("alpha must lie in [0, 1/2)")

        self.domain = domain
        self.maps = maps
        self.h0 = h0
        self.K_decl = int(K_decl)
        self.L_decl = int(L_decl)
        self.alpha = alpha
        self.psi = psi
        self.tau = derive_tau(psi)
        self.label = label or "instance"

        # Read-only: the coefficient callables and the maps both read this
        # one array, which the instance does not keep.
        x = h0.midpoints
        x.setflags(write=False)
        sampled = []
        # A SampledFn is the weight itself, constant on each cell.
        self._piecewise = tuple(isinstance(g, SampledFn) for g in coeffs)
        self.coeff_trees = tuple(None if exact else tree for exact, tree
                                 in zip(self._piecewise, coeff_trees))
        for i, g in enumerate(coeffs):
            if not isinstance(g, SampledFn):
                # A value that is not finite is refused, not warned of.
                with np.errstate(all="ignore"):
                    values = g(x)
                try:
                    g = SampledFn(domain, h0.m, values)
                except GridError as exc:
                    raise InstanceError(f"the coefficient of map "
                                        f"{maps[i].label!r}: {exc}") from exc
            if g.domain != h0.domain or g.m != h0.m:
                raise InstanceError(f"coeff {i} is not on h0's grid")
            if g.is_vector:
                raise InstanceError(f"coeff {i} must be scalar-valued")
            sampled.append(g)
        self.coeffs = tuple(sampled)

        closure = _merge_intervals(domain.boxes)
        self.piece_images = tuple(F.piece_images(domain.boxes) for F in maps)
        for F, images in zip(maps, self.piece_images):
            covered = _merge_intervals((br.lo, br.hi) for br in F.branches)
            for lo, hi in domain.boxes:
                # The first point of the box that no branch holds, and the
                # start of the next branch after it.
                gap = next((e for s, e in covered if s <= lo < e), lo)
                if gap < hi:
                    end = min([s for s, _ in covered if gap < s] + [hi])
                    raise InstanceError(
                        f"map {F.label!r} does not cover the domain: no "
                        f"branch holds [{gap!r}, {end!r})"
                    )
            for ylo, yhi in images:
                if not any(lo <= ylo and yhi <= hi for lo, hi in closure):
                    raise InstanceError(
                        f"map {F.label!r} is not a self-map of the domain: "
                        f"its image [{ylo!r}, {yhi!r}] reaches outside the "
                        "domain"
                    )

        # A box's closed right end, onto which a midpoint image can round,
        # and that box's last cell.
        tops = {hi: b * h0.m + h0.m - 1
                for b, (_, hi) in enumerate(domain.boxes)}
        idx_arrays = []
        clamped = 0
        for F in maps:
            y = F(x)
            nan = int(np.isnan(y).sum())
            if nan:
                raise InstanceError(
                    f"map {F.label!r} is NaN at {nan} grid midpoints"
                )
            idx = h0.cell_index_of(y)
            for i in np.flatnonzero(idx < 0):
                if y[i] not in tops:
                    raise InstanceError(
                        f"map {F.label!r} sends midpoint {float(x[i])!r} "
                        f"to {float(y[i])!r}, outside the domain"
                    )
                idx[i] = tops[y[i]]
                clamped += 1
            idx_arrays.append(idx)
            # Freed before the next map is evaluated, whose image then
            # takes this heap memory rather than grows the heap.
            del y
        self._target_idx = tuple(idx_arrays)
        self.clamped_images = clamped

    # -- derived quantities --------------------------------------------------

    @property
    def n_maps(self):
        return len(self.maps)

    @property
    def m(self):
        return self.h0.m

    @property
    def psi_label(self):
        return self.psi.label

    def norm(self, f):
        """The instance norm: exact distribution-route Lorentz norm."""
        return lorentz_norm(f, self.tau).value

    def apply(self, phi):
        """Evaluate P phi on the instance grid (exact cell arithmetic).

        phi may have any target dimension; only the grid must match.  A
        vector phi is processed one component row at a time: the work runs
        on ``values.T``, one contiguous row of ncells per component, and the
        result comes back as the transpose of that (d, ncells) array, so it
        is Fortran-ordered and the next call reads its rows without a copy.
        A scalar phi takes the same code (``.T`` of a 1-d array is itself).
        """
        if phi.domain != self.h0.domain or phi.m != self.h0.m:
            raise InstanceError("phi is not on the instance grid")
        dtype = np.result_type(phi.values, *[g.values for g in self.coeffs])
        # np.take needs ``out`` of the source dtype (real phi, complex g),
        # and copies a source that is not C-contiguous on every call.
        rows = np.asarray(phi.values.T, dtype=dtype, order="C")
        acc = np.zeros(rows.shape, dtype=dtype)
        # One gather buffer for all maps: per-map temporaries of this size
        # are mmapped and page-faulted afresh.  ``mode="clip"`` writes into
        # ``buf`` directly ("raise" copies); every index is a cell of the grid.
        buf = np.empty(rows.shape, dtype=dtype)
        for g, idx in zip(self.coeffs, self._target_idx):
            np.take(rows, idx, axis=-1, out=buf, mode="clip")
            buf *= g.values
            acc += buf
        return SampledFn._owning(acc.T, phi)


def _max_depth(intervals):
    """Largest number of intervals that share a segment of positive length.

    Returns (depth, segment): ``segment`` is the first (a, b) with a < b on
    which that depth is reached, or None when no interval has positive
    length.  Intervals that only touch at an endpoint do not overlap.
    """
    events = []
    for a, b in intervals:
        if a < b:
            events += [(a, 1), (b, -1)]
    events.sort()  # at equal points, ends (-1) come before starts (+1)
    depth, best, segment = 0, 0, None
    for (x, step), (nxt, _) in zip(events, events[1:]):
        depth += step
        if depth > best and x < nxt:
            best, segment = depth, (x, nxt)
    return best, segment


class OverlapEstimate(NamedTuple):
    L: int
    witness: tuple  # (map indices 1-based, (a, b)): the maps covering [a, b)


def estimate_overlap_L(piece_images):
    """Largest number of maps whose images share a segment of positive
    length, computed exactly from the branch piece images, one list of
    (ylo, yhi) per map (:attr:`ProblemInstance.piece_images`).

    Returns the order L and a witness: the maps whose images cover the
    first segment where L is reached.
    """
    images = [_merge_intervals(pieces) for pieces in piece_images]
    L, (a, b) = _max_depth(iv for image in images for iv in image)
    covering = tuple(i for i, image in enumerate(images, start=1)
                     if any(lo <= a and b <= hi for lo, hi in image))
    return OverlapEstimate(L=L, witness=(covering, (a, b)))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the contraction audit.

    ``feasible_alpha`` is the largest ratio |g_n(x)| * max{K*L/|J_n(x)|, N}
    over all maps and points that the audit looked at: the smallest alpha
    the instance's data admit.  With ``audit_mode`` "cell-enclosure" it is
    an upper bound on that ratio over every closed grid cell, so the
    inequality is proved on all of the domain; with "midpoint-sampled" it
    is the ratio at the cell midpoints of some map, evidence at grid
    resolution.  PASS requires it to be at most the declared alpha, with
    no slack, and the declared K, L to dominate ``k_est`` and ``l_est``,
    which are exact: computed from the images of the branch pieces on the
    domain, not sampled, so a branch part outside the domain counts for
    neither.  ``overlap_witness`` names the maps whose images cover the
    first segment where the overlap order ``l_est`` is reached.
    ``clamped_images`` counts the midpoint images that rounded onto a
    box's closed right end and went to its last cell.
    """

    instance_label: str
    psi_label: str
    n_maps: int
    grid_m: int
    alpha: float
    k_decl: int
    k_est: int
    l_decl: int
    l_est: int
    multiplicities: tuple
    overlap_witness: tuple
    per_map_worst: tuple
    feasible_alpha: float
    worst_witness: str
    clamped_images: int
    passed: bool
    audit_mode: str = "midpoint-sampled"

    @property
    def audited_alpha(self):
        """``feasible_alpha`` where it is proved on every cell, else None."""
        return (self.feasible_alpha if self.audit_mode == "cell-enclosure"
                else None)

    def as_text(self):
        lines = [
            "check = contraction_audit",
            f"instance = {self.instance_label}",
            f"psi = {self.psi_label}",
            f"n_maps = {self.n_maps}",
            f"grid_m = {self.grid_m}",
            f"alpha = {self.alpha!r}",
            f"K_declared = {self.k_decl}",
            f"K_estimated = {self.k_est}",
            f"L_declared = {self.l_decl}",
            f"L_estimated = {self.l_est}",
            f"multiplicity_estimates = {list(self.multiplicities)!r}",
        ]
        covering, (a, b) = self.overlap_witness
        lines.append(
            f"overlap_witness = maps {list(covering)!r} on [{a!r}, {b!r})"
        )
        for i, worst in enumerate(self.per_map_worst, start=1):
            lines.append(f"worst_ratio_map_{i} = {worst!r}")
        lines += [
            f"feasible_alpha = {self.feasible_alpha!r}",
            f"worst_witness = {self.worst_witness}",
            f"clamped_images = {self.clamped_images}",
            f"audit_mode = {self.audit_mode}",
        ]
        if self.audit_mode == "cell-enclosure":
            lines.append("note = PASS is proved on every closed cell; a FAIL "
                         "can come from the width of an enclosure")
        else:
            lines.append("note = PASS is evidence at grid resolution; FAIL is "
                         "authoritative")
        lines.append(f"verdict = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _edge(lo, hi, m, k):
    """Edge k of the m cells on [lo, hi], with the bits
    :meth:`SampledFn._interval_edges` gives it."""
    if k <= 0:
        return lo
    if k >= m:
        return hi
    return lo + k * (hi - lo) / m


def _edges_below(lo, hi, m, p, inclusive):
    """How many of the m + 1 cell edges on [lo, hi] lie below p (or at p,
    if ``inclusive``): a guess from the cell width, then a step or two
    along the edges, which rise."""
    def below(k):
        e = _edge(lo, hi, m, k)
        return e <= p if inclusive else e < p

    k = int(min(max((p - lo) / (hi - lo) * m, 0.0), float(m)))
    while k > 0 and not below(k - 1):
        k -= 1
    while k <= m and below(k):
        k += 1
    return k


class _Cells:
    """The grid of one instance as the cell audit reads it: the cells
    that each branch meets, the edges of a cell, and the arrays of cell
    edges, built only when a tree with x needs them."""

    def __init__(self, inst):
        self.boxes = inst.domain.boxes
        self.m = inst.m
        self.grid = inst.h0
        self._pieces = {}
        self._edges = None

    def pieces(self, lo, hi):
        """The flat cells [first, stop) of each box whose half-open cell
        meets [lo, hi), as (first, stop) pairs in box order; kept per
        branch interval, which maps often share."""
        key = (lo, hi)
        if key not in self._pieces:
            m, found = self.m, []
            for b, (blo, bhi) in enumerate(self.boxes):
                a, c = max(lo, blo), min(hi, bhi)
                if a < c:
                    first = max(_edges_below(blo, bhi, m, a, True) - 1, 0)
                    stop = min(_edges_below(blo, bhi, m, c, False), m)
                    found.append((b * m + first, b * m + stop))
            self._pieces[key] = found
        return self._pieces[key]

    def slices(self, F):
        """(branch, first, stop) per piece of F on a box, in cell order:
        the flat cells [first, stop) whose half-open cell meets the piece.
        A cell that a branch end cuts lies in the slices of both
        branches."""
        out = [(br, first, stop) for br in F.branches
               for first, stop in self.pieces(br.lo, br.hi)]
        out.sort(key=lambda s: s[1])
        return out

    def edges_of(self, c):
        """The closed cell c as (left, right) floats."""
        b, k = divmod(c, self.m)
        lo, hi = self.boxes[b]
        return _edge(lo, hi, self.m, k), _edge(lo, hi, self.m, k + 1)

    def edges(self):
        """The left and right edges of every cell, two arrays built once
        (views of one array on a domain of one box)."""
        if self._edges is None:
            boxes = self.grid._interval_edges()
            self._edges = ((boxes[0][:-1], boxes[0][1:]) if len(boxes) == 1
                           else (np.concatenate([e[:-1] for e in boxes]),
                                 np.concatenate([e[1:] for e in boxes])))
        return self._edges

    def sup_abs(self, tree):
        """Per cell a bound on sup |tree|; a float for a tree without x.
        The bounds of the subtrees go when it returns."""
        if not _has_x(tree):
            return _sup_abs_cells(tree, None, None, None, None)
        return _sup_abs_cells(tree, *self.edges(),
                              min(lo for lo, _ in self.boxes),
                              max(hi for _, hi in self.boxes))


def _up_unless_exact(v, exact):
    return v if exact else math.nextafter(v, math.inf)


def _ratio_bound(g, s, kl, n):
    """An upper bound on g*max{K*L/s, N} for g >= 0 and s > 0, exact where
    the float quotient and product are."""
    q = kl / s
    f = max(_up_unless_exact(q, _exact_quotient(kl, s, q)), float(n))
    r = g * f
    return _up_unless_exact(r, _exact_product(g, f, r))


# How far below a map's largest float ratio a slice's exact ratio may
# still exceed it: each of the two roundings of g*max{K*L/s, N} is within
# 2^-53, relative, or 2^-1075 among the subnormals.
_NEAR = 1.0 - 2.0 ** -50
_NEAR_SUBNORMAL = 2.0 ** -1072


def _cell_worst(cells, F, G, kl, n, i):
    """(worst ratio bound, witness) of map ``i`` (0-based) over every
    closed cell, given the per-cell bound ``G`` on |g| (array or float),
    or None where an enclosure of a slope fails.

    A branch of constant slope s takes one factor max{K*L/|s|, N} for
    its slice, and the slice's largest G, the ``np.maximum.reduceat`` of
    the segments between slice ends.  Those products are rounded to
    nearest; only the slices within a few ulps of the largest are
    bounded from above exactly (:func:`_ratio_bound`), since the exact
    ratio of any other is below that largest.  Another branch encloses
    its slope on each cell cut to the branch, and rounds each ratio up.
    """
    slices = cells.slices(F)
    array = isinstance(G, np.ndarray)
    if not (array or math.isfinite(G)):
        raise _NoEnclosure("a coefficient bound that is not finite")
    if array:
        cuts = sorted({f for _, f, _ in slices} | {s for _, _, s in slices
                                                   if s < G.size})
        seg = np.maximum.reduceat(G, cuts).tolist()
        where = {c: j for j, c in enumerate(cuts)}
        where[G.size] = len(cuts)
        if not all(map(math.isfinite, seg)):
            raise _NoEnclosure("a coefficient bound that is not finite")
    found = []   # [ratio, proved, first, stop, slope bound, G bound]
    for br, first, stop in slices:
        gmax = max(seg[where[first]:where[stop]]) if array else G
        if br.deriv_tree[0] == "const":
            s = abs(br.deriv_tree[1])
            found.append([gmax * max(kl / s, n), False, first, stop, s, gmax])
            continue
        left, right = cells.edges()
        lo = np.maximum(left[first:stop], br.lo)
        hi = np.minimum(right[first:stop], br.hi)
        try:
            dlo, dhi = _enclose_cells(br.deriv_tree, lo, hi)
        except _NoEnclosure:
            return None
        s = np.maximum(np.maximum(dlo, -dhi), 0.0)
        g = G[first:stop] if array else G
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _widen(np.maximum(_widen(kl / s, True), float(n)) * g,
                           True)
            np.copyto(ratio, 0.0, where=np.broadcast_to(g == 0.0, s.shape))
        c = int(np.argmax(ratio))
        found.append([float(ratio[c]), True, first + c, first + c + 1,
                      float(s[c]), float(g[c]) if array else G])
    near = max(r for r, *_ in found) * _NEAR - _NEAR_SUBNORMAL
    for x in found:
        if not x[1] and x[0] >= near:
            x[0], x[1] = _ratio_bound(x[5], x[4], kl, n), True
    bound = max(r for r, proved, *_ in found if proved)
    _, _, first, stop, s, gmax = next(x for x in found
                                      if x[1] and x[0] == bound)
    c = first + int(np.argmax(G[first:stop])) if array else first
    left, right = cells.edges_of(c)
    witness = (f"map {i + 1}, cell {c} on [{left!r}, {right!r}]: "
               f"|g| <= {float(G[c]) if array else gmax!r}, "
               f"|J| >= {s!r}, ratio <= {bound!r}")
    return bound, witness


def _midpoint_worst(F, g, kl, n, i, mids):
    """(worst ratio, witness) of map ``i`` (0-based) at the cell
    midpoints: |g| as sampled, |J| = |f'| at the midpoint."""
    absg = np.abs(g.values)
    absj = np.abs(F.evaluate(mids)[1])
    # |g| * max{K*L/|J|, N}, with 0 where g is 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(kl, absj)
        np.maximum(ratio, float(n), out=ratio)
        np.multiply(absg, ratio, out=ratio)
    w = float(ratio.max())
    if w != w:
        # A NaN: 0 * inf where |J| is 0, or a slope that is NaN.
        np.copyto(ratio, 0.0, where=absg == 0.0)
        w = float(ratio.max())
    c = int(np.argmax(ratio))
    # The slice keeps the report's one-element list form, x = [...].
    witness = (
        f"map {i + 1}, cell {c} at x = {mids[c:c + 1].tolist()!r}: "
        f"|g| = {float(absg[c])!r}, |J| = {float(absj[c])!r}, "
        f"ratio = {float(ratio[c])!r}"
    )
    return w, witness


def audit_contraction(inst):
    """Audit the contraction inequality on the instance grid.

    Bounds, per map, the ratio form of the inequality (see
    :class:`AuditReport`) over every closed grid cell [e_k, e_{k+1}]:
    sup |g_n| per cell by interval enclosure of the coefficient's tree
    (:func:`~lorsolve.expressions._sup_abs_cells`), or exactly for a
    coefficient given as a SampledFn, and inf |f_n'| per branch slice (a
    scalar for a constant slope).  A map whose coefficient has no tree
    (a callable), or whose enclosure fails closed (a ``%`` that wraps
    inside a cell, a divisor interval that holds 0, a non-integer power
    of negative values), or whose slope enclosure does, is checked at the
    cell midpoints instead, and the report's ``audit_mode`` is then
    "midpoint-sampled".

    The declared K and L are cross-checked against their exact values,
    read from ``inst.piece_images`` with no branch evaluated: K is the
    depth of one map's piece images (each lies inside one interval of the
    domain's closure, so no clip is needed), L that of the maps' merged
    images (:func:`estimate_overlap_L`).
    """
    n = inst.n_maps
    kl = float(inst.K_decl * inst.L_decl)
    cells = _Cells(inst)
    mids = None
    mode = "cell-enclosure"
    per_map_worst = []
    worst = 0.0
    witness = "none"
    for i, (F, g) in enumerate(zip(inst.maps, inst.coeffs)):
        tree = inst.coeff_trees[i]
        found = None
        if inst._piecewise[i] or tree is not None:
            try:
                G = (np.abs(g.values) if inst._piecewise[i]
                     else cells.sup_abs(tree))
                found = _cell_worst(cells, F, G, kl, n, i)
            except _NoEnclosure:
                pass
        if found is None:
            mode = "midpoint-sampled"
            if mids is None:
                mids = inst.h0.midpoints
            found = _midpoint_worst(F, g, kl, n, i, mids)
        w, text = found
        per_map_worst.append(w)
        if w > worst or witness == "none":
            worst, witness = w, text

    mults = tuple(_max_depth(images)[0] for images in inst.piece_images)
    k_est = max(mults)
    overlap = estimate_overlap_L(inst.piece_images)

    passed = (
        worst <= inst.alpha
        and inst.K_decl >= k_est
        and inst.L_decl >= overlap.L
    )
    return AuditReport(
        instance_label=inst.label,
        psi_label=inst.psi_label,
        n_maps=n,
        grid_m=inst.m,
        alpha=inst.alpha,
        k_decl=inst.K_decl,
        k_est=k_est,
        l_decl=inst.L_decl,
        l_est=overlap.L,
        multiplicities=mults,
        overlap_witness=overlap.witness,
        per_map_worst=tuple(per_map_worst),
        feasible_alpha=worst,
        worst_witness=witness,
        clamped_images=inst.clamped_images,
        passed=bool(passed),
        audit_mode=mode,
    )
