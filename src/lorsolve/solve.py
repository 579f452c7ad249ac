"""Neumann-series solver with a certified a-priori stopping rule.

The series sum_{k>=0} P^k h0 solves phi = P phi + h0 whenever the audited
contraction inequality holds, and its tails obey the geometric bound

    || sum_{k>=m} P^k h0 ||  <=  r^m / (1 - r) * ||h0||,   r = 2*alpha.

The paper's theorem gives ||P|| <= 2*alpha for any alpha with which the
inequality holds on all of the domain.  So when the audit PASSed in
``audit_mode = cell-enclosure``, proved on every closed grid cell, the
rate is r = 2*min(alpha, audited alpha), the theorem with alpha computed
rather than declared; after a midpoint-sampled audit, or a forced run on
a FAILed one, it is the declared 2*alpha.  The trace keeps the declared
alpha, and the certificate's line ``audited_alpha`` the audited one
(``none`` after a midpoint-sampled audit).  Like every bound here, the
rate is about the grid operator, whose composition is a midpoint lookup:
the certificate bounds the distance to that operator's fixed point, not
to the solution of the equation.

The solver iterates the partial sums S_m = sum_{k<m} P^k h0, records one
trace row per step, and stops as soon as the tail bound drops below the
tolerance: the returned S_m then satisfies ||phi* - S_m|| <= tol up to the
grid representation.  Each step costs one norm and one apply.  The residual
||S_m - P S_m - h0|| is analytically ||P^m h0||, the term norm, so it and
||S_m|| are computed once, on the returned partial sum, as a cross-check.

The partial sum is accumulated in place in one array, laid out as ``apply``
lays out its results (Fortran-ordered for vector h0), and becomes a
SampledFn once, after the loop; its bits are those of adding the terms to
0.0 * h0 one at a time.
"""

import csv
import sys
from dataclasses import dataclass, replace

import numpy as np

from .grids import SampledFn
from .norms import NormValue
from .transfer import AuditFailure, audit_contraction

__all__ = [
    "TraceRow",
    "IterationTrace",
    "DivergenceError",
    "ToleranceError",
    "solve_elementary",
    "residual",
    "UniquenessReport",
    "uniqueness_probe",
]

_DEFAULT_MAX_STEPS = 200
_DEFAULT_REL_TOL = 1e-8
_GROWTH_SLACK = 0.05
_GROWTH_STREAK = 3

TRACE_HEADER = ("m", "term_norm", "partial_norm", "tail_bound", "residual")


@dataclass(frozen=True)
class TraceRow:
    """One solve step.  ``partial_norm`` and ``residual_norm`` are None on
    every row but the one the solve returns."""

    m: int
    term_norm: float
    partial_norm: float | None
    tail_bound: float
    residual_norm: float | None


@dataclass(frozen=True)
class IterationTrace:
    """Per-step record of a solve, plus the stopping certificate.

    ``tail_bound`` of the last row is the certified error bound for the
    returned partial sum; ``stop_reason`` is "tolerance" when that bound
    reached the requested tolerance and "max_steps" otherwise.
    """

    instance_label: str
    psi_label: str
    alpha: float
    tol: float
    h0_norm: float
    rows: tuple
    stop_reason: str
    audit_passed: bool = True
    audited_alpha: float | None = None

    @property
    def m_stop(self):
        return self.rows[-1].m

    @property
    def certified_error(self):
        return self.rows[-1].tail_bound

    @property
    def certified(self):
        """True only when the contraction premise was verified and the
        tail bound reached the tolerance; a forced run on a failed audit
        is never certified."""
        return self.audit_passed and self.stop_reason == "tolerance"

    def write_csv(self, fobj):
        w = csv.writer(fobj, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for r in self.rows:
            w.writerow([r.m, repr(r.term_norm), _field(r.partial_norm),
                        repr(r.tail_bound), _field(r.residual_norm)])

    def certificate_text(self):
        lines = [
            "certificate = neumann_tail_bound",
            f"instance = {self.instance_label}",
            f"psi = {self.psi_label}",
            f"alpha = {self.alpha!r}",
            f"audited_alpha = {_field(self.audited_alpha) or 'none'}",
            f"h0_norm = {self.h0_norm!r}",
            f"tol = {self.tol!r}",
            f"steps = {self.m_stop}",
            f"stop_reason = {self.stop_reason}",
            f"audit = {'PASS' if self.audit_passed else 'FAIL (forced run)'}",
            f"certified_error_bound = {self.certified_error!r}",
            f"final_residual = {self.rows[-1].residual_norm!r}",
            f"verdict = {'PASS' if self.certified else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def _field(value):
    return "" if value is None else repr(value)


class DivergenceError(RuntimeError):
    """Term norms grew past the certified rate; grid artifact or bad data."""

    def __init__(self, trace_rows, message):
        self.rows = tuple(trace_rows)
        super().__init__(message)


class ToleranceError(ValueError):
    """A requested tolerance that the solver cannot certify."""


def solve_elementary(inst, tol=None, max_steps=_DEFAULT_MAX_STEPS, force=False):
    """Sum the series sum P^k h0 until the tail bound certifies ``tol``.

    The instance is audited first; a FAILed audit refuses to iterate unless
    ``force`` is set, and a forced run is recorded in the trace so its
    certificate reports verdict FAIL even when the tolerance is reached.
    ``tol`` is absolute in norm units and defaults to 1e-8 * ||h0||; a
    given ``tol`` must be finite, > 0 and at least one ulp of the bound
    ||h0|| / (1 - r) on ||phi|| (:class:`ToleranceError` otherwise:
    an infinite ``tol`` would certify nothing at step 0, and the others
    are never reached, or reached only when the tail bound underflows,
    while the stored values are already further off than ``tol``).  The
    default is 0 only for h0 = 0, where the 0-step answer is exact.
    Returns (solution, trace).

    ``max_steps`` must be >= 0 (``ValueError`` otherwise); at 0 the trace
    holds the single row m = 0.

    The partial sum S_m is accumulated in place, starting from 0.0 * h0
    (so -0.0 cells of h0 survive), with each component one contiguous row
    like the terms ``apply`` returns; it takes a term's dtype when that is
    wider (S_2 onward is complex for complex g and real h0).  Its values are
    checked once, when the solution is wrapped: a sum that overflowed
    raises :class:`~lorsolve.grids.GridError`.

    The tail bound, the resolution check of ``tol`` and the growth check
    all use the rate r of the module docstring: 2*min(alpha, audited
    alpha) after a cell-enclosure PASS, else 2*alpha.

    Raises :class:`DivergenceError` when term norms grow faster than the
    certified factor r for 3 consecutive steps.
    """
    if tol is not None and not 0.0 < tol < np.inf:
        raise ToleranceError(f"tol must be > 0 and finite, got {tol!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    report = audit_contraction(inst)
    if not report.passed and not force:
        raise AuditFailure(report)

    h0_norm = inst.norm(inst.h0)
    rate = 2.0 * _rate_alpha(inst, report)
    prefactor = h0_norm / (1.0 - rate)
    resolution = sys.float_info.epsilon * prefactor
    if tol is None:
        tol = _DEFAULT_REL_TOL * h0_norm
    elif tol < resolution:
        raise ToleranceError(
            f"tol {tol!r} is below float resolution {resolution!r}, one ulp "
            f"of the bound ||h0||/(1-r) = {prefactor!r} on ||phi||, "
            f"r = {rate!r}"
        )
    tol = float(tol)

    # One row per component: Fortran-ordered for vector h0, as ``apply``'s
    # terms are.  0.0 * h0, not zeros: -0.0 + -0.0 is -0.0, 0.0 + -0.0 is not.
    acc = np.multiply(inst.h0.values.T, 0.0, order="C").T
    term = inst.h0
    term_norm = h0_norm
    rows = []
    growth_streak = 0
    stop_reason = "max_steps"
    for m in range(max_steps + 1):
        tail_bound = prefactor * rate**m
        rows.append(TraceRow(m=m, term_norm=term_norm, partial_norm=None,
                             tail_bound=tail_bound, residual_norm=None))
        if tail_bound <= tol:
            stop_reason = "tolerance"
            break
        if m:
            if term_norm > (rate + _GROWTH_SLACK) * rows[-2].term_norm:
                growth_streak += 1
            else:
                growth_streak = 0
            if growth_streak >= _GROWTH_STREAK:
                raise DivergenceError(
                    rows,
                    f"term norm grew past factor {rate + _GROWTH_SLACK} for "
                    f"{_GROWTH_STREAK} consecutive steps (step {m}); the "
                    "iteration is not contracting on this grid",
                )
        if m == max_steps:
            break
        dtype = np.result_type(acc, term.values)
        if dtype != acc.dtype:
            acc = acc.astype(dtype)
        acc += term.values
        term = inst.apply(term)
        term_norm = inst.norm(term)
    partial = SampledFn._owning(acc, inst.h0)
    rows[-1] = replace(rows[-1], partial_norm=inst.norm(partial),
                       residual_norm=residual(partial, inst).value)

    trace = IterationTrace(
        instance_label=inst.label,
        psi_label=inst.psi_label,
        alpha=inst.alpha,
        tol=tol,
        h0_norm=h0_norm,
        rows=tuple(rows),
        stop_reason=stop_reason,
        audit_passed=report.passed,
        audited_alpha=report.audited_alpha,
    )
    return partial, trace


def _rate_alpha(inst, report):
    """The alpha of the rate 2*alpha: min(alpha, audited alpha) when the
    audit PASSed on every cell, else the declared alpha."""
    if report.passed and report.audited_alpha is not None:
        return min(inst.alpha, report.audited_alpha)
    return inst.alpha


def residual(phi, inst):
    """|| phi - P phi - h0 || in the instance norm (vectors via the lift)."""
    value = inst.norm(phi - inst.apply(phi) - inst.h0)
    return NormValue(value, "distribution", inst.psi_label)


@dataclass(frozen=True)
class UniquenessReport:
    steps: int
    n_starts: int
    max_start_norm: float
    bound: float
    distances: tuple  # ((i, j, distance), ...)
    passed: bool


def uniqueness_probe(inst, starts, steps=20):
    """Collapse test: Picard iterates from different starts must coincide.

    Runs x <- P x + h0 for ``steps`` iterations from each start and checks
    every pairwise distance against the contraction bound
    2 * (2*alpha)^steps / (1 - 2*alpha) * max ||start|| plus float slack.
    """
    starts = list(starts)
    iterates = []
    for x in starts:
        cur = x
        for _ in range(steps):
            cur = inst.apply(cur) + inst.h0
        iterates.append(cur)
    max_start = max((inst.norm(x) for x in starts), default=0.0)
    rate = 2.0 * inst.alpha
    bound = 2.0 * rate**steps / (1.0 - rate) * max_start + 1e-12
    distances = []
    passed = True
    for i in range(len(iterates)):
        for j in range(i + 1, len(iterates)):
            d = inst.norm(iterates[i] - iterates[j])
            distances.append((i, j, d))
            if d > bound:
                passed = False
    return UniquenessReport(
        steps=steps,
        n_starts=len(starts),
        max_start_norm=max_start,
        bound=bound,
        distances=tuple(distances),
        passed=bool(passed),
    )
