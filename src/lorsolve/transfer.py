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
caller and cross-checked against their exact values, computed by one sweep
over the branch image intervals (never silently inferred).  The ratio
|g_n|/|J_n| is sampled at midpoints, so a PASS is evidence at grid
resolution; a FAIL is authoritative.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import SampledFn
from .maps import MapError, PiecewiseMap
from .norms import lorentz_norm_vector
from .young import derive_tau

__all__ = [
    "InstanceError",
    "AuditFailure",
    "ProblemInstance",
    "estimate_multiplicity",
    "OverlapEstimate",
    "estimate_overlap_L",
    "AuditReport",
    "audit_contraction",
]

_CLAMP_TOL = 1e-12
_OUTSIDE_FRACTION_LIMIT = 1e-3


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


def _clamp_to_domain(points, domain):
    """Project points onto the closure of the nearest domain interval.

    Returns (clamped points, distances); interior points come back with
    distance 0.  The clamp lands on the boundary; a half-open nudge to the
    interior is the caller's job via cell lookup on the clamped point.
    """
    pts = np.asarray(points, dtype=float)
    best = None
    best_d = np.full(pts.shape, np.inf)
    for lo, hi in domain.boxes:
        cl = np.clip(pts, lo, hi)
        d = np.abs(pts - cl)
        if best is None:
            best, best_d = cl, d
        else:
            take = d < best_d
            best = np.where(take, cl, best)
            best_d = np.where(take, d, best_d)
    return best, best_d


class ProblemInstance:
    """Fixed data of one functional equation phi = P phi + h0.

    ``maps`` are the inner maps f_n (PiecewiseMap), ``coeffs`` the weights
    g_n (scalar SampledFn on h0's grid, or vectorized callables sampled at
    construction), ``h0`` the inhomogeneity (scalar or vector, real or
    complex).  K_decl and L_decl are the declared multiplicity and overlap
    bounds entering the audited inequality; alpha in [0, 1/2) is the
    declared contraction parameter; psi selects the Young function
    generating the norm.

    Construction precomputes, per map, the target cell index of every
    midpoint image; midpoints mapping outside the domain are clamped to the
    nearest cell (counted, and allowed only within a small tolerance for
    more than 0.1% of cells).
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

        sampled = []
        for i, g in enumerate(coeffs):
            if not isinstance(g, SampledFn):
                g = SampledFn.from_callable(domain, h0.m, g)
            if g.domain != h0.domain or g.m != h0.m:
                raise InstanceError(f"coeff {i} is not on h0's grid")
            if g.is_vector:
                raise InstanceError(f"coeff {i} must be scalar-valued")
            sampled.append(g)
        self.coeffs = tuple(sampled)

        x = h0.midpoints
        idx_arrays = []
        jac_arrays = []
        clamped_within = 0
        clamped_beyond = 0
        for F in maps:
            covered = F.covers(x)
            if not np.all(covered):
                raise InstanceError(
                    f"map {F.label!r} does not cover all grid midpoints "
                    f"({int((~covered).sum())} uncovered)"
                )
            y = np.asarray(F(x), dtype=float)
            idx = h0.cell_index_of(y)
            outside = idx < 0
            if outside.any():
                cl, dist = _clamp_to_domain(y[outside], domain)
                beyond = dist > _CLAMP_TOL
                clamped_within += int((~beyond).sum())
                clamped_beyond += int(beyond.sum())
                # Nudge onto the boundary and look the cell up again; exact
                # upper-boundary points belong to the last cell.
                fixed = h0.cell_index_of(cl)
                still = fixed < 0
                if still.any():
                    eps = 1e-9 / h0.m
                    fixed2 = h0.cell_index_of(cl[still] - eps)
                    fixed[still] = fixed2
                if np.any(fixed < 0):
                    raise InstanceError(
                        f"map {F.label!r}: could not clamp all outside "
                        "image points onto the domain"
                    )
                idx = idx.copy()
                idx[outside] = fixed
            idx_arrays.append(idx)
            jac_arrays.append(np.abs(np.asarray(F.deriv(x), dtype=float)))
        n_checks = len(maps) * x.size
        if clamped_beyond > _OUTSIDE_FRACTION_LIMIT * n_checks:
            raise InstanceError(
                f"{clamped_beyond} of {n_checks} midpoint images fall "
                "outside the domain beyond tolerance; the maps are not "
                "self-maps of the domain"
            )
        if any(idx.min() < 0 or idx.max() >= h0.ncells for idx in idx_arrays):
            raise InstanceError("target cell index outside the grid")
        self._target_idx = tuple(idx_arrays)
        self._abs_jac = tuple(jac_arrays)
        self.clamped_within_tol = clamped_within
        self.clamped_beyond_tol = clamped_beyond

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
        return lorentz_norm_vector(f, self.tau).value

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
        # ``buf`` directly ("raise" copies); __init__ checked every index.
        buf = np.empty(rows.shape, dtype=dtype)
        for g, idx in zip(self.coeffs, self._target_idx):
            np.take(rows, idx, axis=-1, out=buf, mode="clip")
            buf *= g.values
            acc += buf
        return SampledFn(self.domain, self.m, acc.T)


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


def estimate_multiplicity(F, domain=None):
    """Essential preimage multiplicity of a map, exact for branch maps.

    The largest number of branches whose images share a segment of
    positive length.  With ``domain`` given, each branch is cut to each
    domain interval and each piece's image is clipped to the domain, so
    only preimages and levels inside the domain count.
    """
    if domain is None:
        return _max_depth(b.image for b in F.branches)[0]
    boxes = domain.intervals()
    images = []
    for b in F.branches:
        for lo, hi in boxes:
            a, c = max(b.lo, lo), min(b.hi, hi)
            if a < c:
                ya, yc = sorted(np.asarray(b.fn(np.array([a, c])),
                                           dtype=float).tolist())
                images += [(max(ya, y0), min(yc, y1)) for y0, y1 in boxes]
    return _max_depth(images)[0]


class OverlapEstimate(NamedTuple):
    L: int
    witness: tuple  # (map indices 1-based, (a, b)): the maps covering [a, b)


def estimate_overlap_L(maps):
    """Largest number of maps whose images share a segment of positive
    length, computed exactly from branch image intervals.

    Returns the order L and a witness: the maps whose images cover the
    first segment where L is reached.
    """
    images = [F.image_intervals() for F in maps]
    if not images:
        raise MapError("estimate_overlap_L needs at least one map")
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
    declared alpha (+1e-12) and the declared K, L to dominate ``k_est``
    and ``l_est``, which are exact: computed from the branch image
    intervals, not sampled.  ``overlap_witness`` names the maps whose
    images cover the first segment where the overlap order ``l_est`` is
    reached.
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
    clamped_within_tol: int
    clamped_beyond_tol: int
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
            f"clamped_within_tol = {self.clamped_within_tol}",
            f"clamped_beyond_tol = {self.clamped_beyond_tol}",
            "note = PASS is evidence at grid resolution; FAIL is authoritative",
            f"verdict = {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def audit_contraction(inst):
    """Audit the contraction inequality on the instance grid.

    Checks, per map and cell midpoint, the ratio form of the inequality
    (see :class:`AuditReport`), and cross-checks the declared K and L
    against :func:`estimate_multiplicity` and :func:`estimate_overlap_L`,
    which compute them exactly from the branch image intervals.
    """
    n = inst.n_maps
    kl = float(inst.K_decl * inst.L_decl)
    per_map_worst = []
    worst = 0.0
    witness = "none"
    mids = inst.h0.midpoints
    for i, g in enumerate(inst.coeffs):
        absg = np.abs(g.values)
        absj = inst._abs_jac[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.maximum(kl / absj, float(n))
            ratio = np.where(absg == 0.0, 0.0, absg * factor)
        w = float(np.max(ratio)) if ratio.size else 0.0
        per_map_worst.append(w)
        if w > worst or witness == "none":
            worst = max(worst, w)
            c = int(np.argmax(ratio))
            # The slice keeps the report's one-element list form, x = [...].
            witness = (
                f"map {i + 1}, cell {c} at x = {mids[c:c + 1].tolist()!r}: "
                f"|g| = {float(absg[c])!r}, |J| = {float(absj[c])!r}, "
                f"ratio = {float(ratio[c])!r}"
            )

    mults = tuple(estimate_multiplicity(F, domain=inst.domain)
                  for F in inst.maps)
    k_est = max(mults)
    overlap = estimate_overlap_L(inst.maps)

    passed = (
        worst <= inst.alpha + 1e-12
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
        clamped_within_tol=inst.clamped_within_tol,
        clamped_beyond_tol=inst.clamped_beyond_tol,
        passed=bool(passed),
    )
