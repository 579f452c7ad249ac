"""Neumann-series solver with a certified a-priori stopping rule.

The series sum_{k>=0} P^k h0 solves phi = P phi + h0 whenever the audited
contraction inequality holds, and its tails obey the geometric bound

    || sum_{k>=m} P^k h0 ||  <=  (2*alpha)^m / (1 - 2*alpha) * ||h0||.

The solver iterates the partial sums S_m = sum_{k<m} P^k h0, records one
trace row per step, and stops as soon as the tail bound drops below the
tolerance: the returned S_m then satisfies ||phi* - S_m|| <= tol up to the
grid representation.  The residual ||S_m - P S_m - h0|| (analytically equal
to ||P^m h0||) is recomputed independently each step as a cross-check.
"""

import csv
import sys
from dataclasses import dataclass

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
    m: int
    term_norm: float
    partial_norm: float
    tail_bound: float
    residual_norm: float


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
            w.writerow([r.m, repr(r.term_norm), repr(r.partial_norm),
                        repr(r.tail_bound), repr(r.residual_norm)])

    def certificate_text(self):
        lines = [
            "certificate = neumann_tail_bound",
            f"instance = {self.instance_label}",
            f"psi = {self.psi_label}",
            f"alpha = {self.alpha!r}",
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
    given ``tol`` must be > 0 and at least one ulp of the bound
    ||h0|| / (1 - 2*alpha) on ||phi|| (:class:`ToleranceError` otherwise:
    such tolerances are never reached, or reached only when the tail bound
    underflows, while the stored values are already further off than
    ``tol``).  The default is 0 only for h0 = 0, where the 0-step answer
    is exact.  Returns (solution, trace).

    ``max_steps`` must be >= 0 (``ValueError`` otherwise); at 0 the trace
    holds the single row m = 0.

    Raises :class:`DivergenceError` when term norms grow faster than the
    certified factor 2*alpha for 3 consecutive steps.
    """
    if tol is not None and not tol > 0:
        raise ToleranceError(f"tol must be > 0, got {tol!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    report = audit_contraction(inst)
    if not report.passed and not force:
        raise AuditFailure(report)

    h0_norm = inst.norm(inst.h0)
    rate = 2.0 * inst.alpha
    prefactor = h0_norm / (1.0 - rate)
    resolution = sys.float_info.epsilon * prefactor
    if tol is None:
        tol = _DEFAULT_REL_TOL * h0_norm
    elif tol < resolution:
        raise ToleranceError(
            f"tol {tol!r} is below float resolution {resolution!r}, one ulp "
            f"of the bound ||h0||/(1-2*alpha) = {prefactor!r} on ||phi||"
        )
    tol = float(tol)

    partial = 0.0 * inst.h0
    term = inst.h0
    rows = []
    growth_streak = 0
    prev_term_norm = None
    stop_reason = "max_steps"
    for m in range(max_steps + 1):
        term_norm = inst.norm(term)
        tail_bound = prefactor * rate**m
        res = inst.norm(partial - inst.apply(partial) - inst.h0)
        rows.append(TraceRow(m=m, term_norm=term_norm,
                             partial_norm=inst.norm(partial),
                             tail_bound=tail_bound,
                             residual_norm=res))
        if tail_bound <= tol:
            stop_reason = "tolerance"
            break
        if prev_term_norm is not None:
            if term_norm > (rate + _GROWTH_SLACK) * prev_term_norm:
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
        prev_term_norm = term_norm
        if m == max_steps:
            break
        partial = partial + term
        term = inst.apply(term)

    trace = IterationTrace(
        instance_label=inst.label,
        psi_label=inst.psi_label,
        alpha=inst.alpha,
        tol=tol,
        h0_norm=h0_norm,
        rows=tuple(rows),
        stop_reason=stop_reason,
        audit_passed=report.passed,
    )
    return partial, trace


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

    def as_text(self):
        lines = [
            "check = uniqueness_probe",
            f"steps = {self.steps}",
            f"n_starts = {self.n_starts}",
            f"max_start_norm = {self.max_start_norm!r}",
            f"bound = {self.bound!r}",
        ]
        for i, j, d in self.distances:
            lines.append(f"distance_{i}_{j} = {d!r}")
        lines.append(f"verdict = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


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
