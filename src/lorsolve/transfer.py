"""The weighted composition operator and its contraction audit.

The operator acts on sampled functions by

    (P phi)(x) = sum_n g_n(x) * phi(f_n(x)),

with composition realized as midpoint-to-cell lookup (half-open cells, no
interpolation), so P maps the piecewise-constant class to itself and is
exactly linear in cell arithmetic.

The audit checks, at every cell midpoint and for every n, the contraction
inequality

    |g_n(x)| <= alpha * min{ |J_n(x)| / (K*L), 1/N },

where K bounds the preimage multiplicity of each map, L the overlap order
of their images, and N is the number of maps.  K and L are declared by the
caller and cross-checked against their exact values, swept from the
images of the branch pieces on the domain that the instance computed
(never silently inferred; a branch part outside the domain counts for
neither).  Those images are exact because each branch is proved finite,
smooth and strictly monotone on its closed interval by interval
enclosure (:class:`~lorsolve.maps.Branch`), so each piece is a bijection
onto the interval between its end values.  The ratio |g_n|/|J_n| is
still sampled at midpoints, so a PASS is evidence at grid resolution; a
FAIL is authoritative.

An instance keeps only what P reads, the sampled weights and the target
cell of each midpoint image, besides the branch-piece images and h0.
The audit works out |J_n| = |f_n'| at the midpoints itself, one map at a
time, so no per-cell slope array outlives it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    complex).  K_decl and L_decl are the declared multiplicity and overlap
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
                 label=""):
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
    """Outcome of the contraction audit at grid resolution.

    ``feasible_alpha`` is the largest cellwise ratio
    |g_n(x)| * max{K*L/|J_n(x)|, N} over all maps and cells: the smallest
    alpha the grid data would admit.  PASS requires it to be at most the
    declared alpha, with no slack, and the declared K, L to dominate
    ``k_est`` and ``l_est``, which are exact: computed from the images of
    the branch pieces on the domain, not sampled, so a branch part outside
    the domain counts for neither.  ``overlap_witness`` names the maps whose
    images cover the first segment where the overlap order ``l_est`` is
    reached.  ``clamped_images`` counts the midpoint images that rounded
    onto a box's closed right end and went to its last cell.
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
            "note = PASS is evidence at grid resolution; FAIL is authoritative",
            f"verdict = {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def audit_contraction(inst):
    """Audit the contraction inequality on the instance grid.

    Checks, per map and cell midpoint, the ratio form of the inequality
    (see :class:`AuditReport`), and cross-checks the declared K and L
    against their exact values, read from ``inst.piece_images`` with no
    branch evaluated: K is the depth of one map's piece images (each lies
    inside one interval of the domain's closure, so no clip is needed), L
    that of the maps' merged images (:func:`estimate_overlap_L`).

    The instance keeps no slopes: |f_n'| is worked out here, at
    ``inst.h0.midpoints``, one map at a time (:meth:`PiecewiseMap.slope`),
    and it, |g_n| and the ratio each take one buffer that every map
    reuses.
    """
    n = inst.n_maps
    kl = float(inst.K_decl * inst.L_decl)
    per_map_worst = []
    worst = 0.0
    witness = "none"
    mids = inst.h0.midpoints
    absg, absj, ratio = (np.empty(mids.shape) for _ in range(3))
    for i, (F, g) in enumerate(zip(inst.maps, inst.coeffs)):
        np.abs(g.values, out=absg)
        np.abs(F.slope(mids, out=absj), out=absj)
        # |g| * max{K*L/|J|, N}, with 0 where g is 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(kl, absj, out=ratio)
            np.maximum(ratio, float(n), out=ratio)
            np.multiply(absg, ratio, out=ratio)
        w = float(ratio.max())
        if w != w:
            # A NaN: 0 * inf where |J| is 0, or a slope that is NaN.
            np.copyto(ratio, 0.0, where=absg == 0.0)
            w = float(ratio.max())
        per_map_worst.append(w)
        if w > worst or witness == "none":
            worst = w
            c = int(np.argmax(ratio))
            # The slice keeps the report's one-element list form, x = [...].
            witness = (
                f"map {i + 1}, cell {c} at x = {mids[c:c + 1].tolist()!r}: "
                f"|g| = {float(absg[c])!r}, |J| = {float(absj[c])!r}, "
                f"ratio = {float(ratio[c])!r}"
            )

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
    )
