"""Young functions and the derived time-change transform.

A Young function is a nondecreasing, left-continuous, convex map
``psi: [0, inf) -> [0, inf]`` with ``psi(0) = 0`` and ``psi(t) -> inf``.
The norm engine additionally needs

* the doubling condition ``psi(2t) <= d * psi(t)`` for all t (a finite
  doubling constant d), and
* the N-function limits ``psi(t)/t -> 0`` at 0+ and ``t/psi(t) -> 0`` at
  infinity,

and it consumes psi only through the transform

    tau(t) = 1 / psi(1/t),   tau(0) = 0,

whose inverse maps measures to lengths in the Lorentz-type norm (see
:mod:`lorsolve.norms`).  For the built-in power family ``psi(t) = m * t**m``
everything has closed form: ``tau(t) = t**m / m`` and
``tau^{-1}(s) = (m*s)**(1/m)``.

Closed forms for psi', psi^{-1} are supplied by the caller; nothing here
differentiates symbolically.  The audit helpers
(:func:`check_delta2`, :func:`check_n_function`, :func:`validate_young`,
:func:`validate_tau`) sample fixed schedules and report finite numerical
evidence -- PASS/FAIL/INCONCLUSIVE -- not proof.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "YoungFn",
    "TauFn",
    "YoungFnError",
    "TauUndefinedError",
    "power_young",
    "monomial_young",
    "derive_tau",
    "check_delta2",
    "check_n_function",
    "validate_young",
    "validate_tau",
    "young_family",
    "Delta2Report",
    "NFnReport",
    "ProbeReport",
]


class YoungFnError(ValueError):
    """Raised when a candidate fails the basic Young-function sanity probes."""


class TauUndefinedError(ValueError):
    """Raised when 1/psi(1/t) is 0 or infinite at a sampled interior point."""


@dataclass(frozen=True)
class YoungFn:
    """A Young function with its closed-form derivative and inverse.

    ``fn``, ``deriv`` and ``inv`` must be vectorized over numpy arrays.
    ``deriv`` is the right derivative; ``inv`` the inverse where psi is
    strictly increasing; ``delta2_const`` a doubling constant if one is
    known.  Instances are immutable and safe to share across threads.
    """

    label: str
    fn: Callable
    deriv: Callable
    inv: Callable
    delta2_const: Optional[float] = None

    def __post_init__(self):
        z = float(self.fn(0.0))
        if z != 0.0:
            raise YoungFnError(f"{self.label}: psi(0) = {z!r}, expected 0")
        probe = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
        vals = np.asarray(self.fn(probe), dtype=float)
        if np.any(np.diff(vals) < 0):
            raise YoungFnError(f"{self.label}: not nondecreasing on probe grid")

    def __call__(self, t):
        return self.fn(t)

    def right_deriv(self, t):
        return self.deriv(t)

    def inverse(self, v):
        return self.inv(v)


@dataclass(frozen=True)
class TauFn:
    """The transform tau(t) = 1/psi(1/t) of a Young function, tau(0) = 0.

    Carries the same evaluator surface as :class:`YoungFn`; the norm
    routes need only ``inv`` = tau^-1.
    """

    label: str
    fn: Callable
    inv: Callable
    deriv: Callable
    delta2_const: Optional[float] = None
    source_label: str = ""

    def __call__(self, t):
        return self.fn(t)

    def inverse(self, s):
        return self.inv(s)

    def right_deriv(self, t):
        return self.deriv(t)

    def as_young(self):
        return YoungFn(
            label=f"tau[{self.source_label or self.label}]",
            fn=self.fn,
            deriv=self.deriv,
            inv=self.inv,
            delta2_const=self.delta2_const,
        )


def power_young(m):
    """The admissible power family psi(t) = m * t**m, real m > 1.

    Closed forms: psi'(t) = m**2 * t**(m-1), psi^{-1}(v) = (v/m)**(1/m),
    doubling constant 2**m.  m <= 1 is rejected: m = 1 fails the N-function
    limits and m < 1 breaks convexity.
    """
    m = float(m)
    if not m > 1.0:
        raise YoungFnError(f"power family needs m > 1, got {m}")
    return YoungFn(
        label=f"power[m={m:g}]",
        fn=lambda t: m * np.asarray(t, dtype=float) ** m,
        deriv=lambda t: m * m * np.asarray(t, dtype=float) ** (m - 1.0),
        inv=lambda v: (np.asarray(v, dtype=float) / m) ** (1.0 / m),
        delta2_const=2.0**m,
    )


def monomial_young(p):
    """Plain monomial Psi(t) = t**p, p >= 1.

    A valid Young function for the Orlicz/Luxemburg side (p = 1 gives L^1).
    Not necessarily admissible as the Lorentz-side psi: p = 1 fails the
    N-function limits, and the solver's config loader only accepts the
    ``power`` family there.
    """
    p = float(p)
    if not p >= 1.0:
        raise YoungFnError(f"monomial family needs p >= 1, got {p}")
    return YoungFn(
        label=f"monomial[p={p:g}]",
        fn=lambda t: np.asarray(t, dtype=float) ** p,
        deriv=lambda t: p * np.asarray(t, dtype=float) ** (p - 1.0),
        inv=lambda v: np.asarray(v, dtype=float) ** (1.0 / p),
        delta2_const=2.0**p,
    )


_FAMILIES = {
    "power": (power_young, True),
    "monomial": (monomial_young, False),
}


def young_family(name, param, require_admissible=False):
    """Instantiate a family by name ("power" or "monomial")."""
    try:
        builder, admissible = _FAMILIES[name]
    except KeyError:
        raise YoungFnError(
            f"unknown Young-function family {name!r}; known: {sorted(_FAMILIES)}"
        ) from None
    if require_admissible and not admissible:
        raise YoungFnError(
            f"family {name!r} is not admissible for the Lorentz-side psi"
        )
    return builder(param)


_TAU_PROBE = np.logspace(-8.0, 8.0, 33)


def derive_tau(psi, probe_grid=None):
    """Build tau(t) = 1/psi(1/t) with inverse and derivative evaluators.

    Uses psi's closed forms:

        tau^{-1}(s) = 1 / psi^{-1}(1/s)
        tau'(t)     = psi'(1/t) / (t * psi(1/t))**2

    ``tau`` and ``tau^{-1}`` give 0 where their argument is 0 and a float
    for a 0-d argument.  ``tau^{-1}`` of a non-empty array whose entries
    are all positive (the measures of a step distribution) skips the mask
    and evaluates the closed form on the whole array at once; elementwise,
    the bits are those of the masked path.

    Raises
    :class:`TauUndefinedError` if psi(1/t) is 0 or non-finite at a sampled
    interior t (tau would be ill-defined there).
    """
    grid = _TAU_PROBE if probe_grid is None else np.asarray(probe_grid, dtype=float)
    probe = np.asarray(psi(1.0 / grid), dtype=float)
    bad = ~np.isfinite(probe) | (probe == 0.0)
    if bad.any():
        t = grid[bad][0]
        raise TauUndefinedError(
            f"psi(1/t) = {probe[bad][0]!r} at t = {t!r}; tau undefined"
        )

    def tau(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = 1.0 / np.asarray(psi(1.0 / t[pos]), dtype=float)
        return out if out.ndim else float(out)

    def tau_inv(s):
        """1 / psi^-1(1/s), and 0 where s = 0.  A non-empty array whose
        entries are all positive (a NaN fails the test) takes no mask."""
        s = np.asarray(s, dtype=float)
        if s.ndim and s.size and s.min() > 0.0:
            return 1.0 / np.asarray(psi.inv(1.0 / s), dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = 1.0 / np.asarray(psi.inv(1.0 / s[pos]), dtype=float)
        return out if out.ndim else float(out)

    def tau_deriv(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = 1.0 / t
            return np.asarray(psi.deriv(u), dtype=float) / (
                t * np.asarray(psi(u), dtype=float)
            ) ** 2

    return TauFn(
        label=f"tau[{psi.label}]",
        fn=tau,
        inv=tau_inv,
        deriv=tau_deriv,
        delta2_const=psi.delta2_const,
        source_label=psi.label,
    )


# ---------------------------------------------------------------------------
# Audits.  Fixed schedules, reported as evidence, never proof.
# ---------------------------------------------------------------------------

_DELTA2_GRID = np.logspace(-8.0, 8.0, 97)


@dataclass(frozen=True)
class Delta2Report:
    label: str
    d: float
    max_ratio: float
    argmax_t: float
    passed: bool
    n_samples: int

    def as_text(self):
        lines = [
            f"check = delta2",
            f"label = {self.label}",
            f"d = {self.d!r}",
            f"max_ratio = {self.max_ratio!r}",
            f"argmax_t = {self.argmax_t!r}",
            f"n_samples = {self.n_samples}",
            f"verdict = {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def check_delta2(psi, d=None, grid=None):
    """Sample psi(2t)/psi(t) on a log grid; PASS iff max <= d*(1+1e-12).

    ``d`` defaults to ``psi.delta2_const``.  A sample with psi(t) = 0 but
    psi(2t) > 0 yields an infinite ratio (degenerate scale, reported as the
    witness).
    """
    if d is None:
        d = psi.delta2_const
    if d is None:
        raise YoungFnError(f"{psi.label}: no doubling constant declared or given")
    grid = _DELTA2_GRID if grid is None else np.asarray(grid, dtype=float)
    lo = np.asarray(psi(grid), dtype=float)
    hi = np.asarray(psi(2.0 * grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo > 0, hi / lo, np.where(hi > 0, np.inf, 1.0))
    i = int(np.argmax(ratio))
    max_ratio = float(ratio[i])
    return Delta2Report(
        label=psi.label,
        d=float(d),
        max_ratio=max_ratio,
        argmax_t=float(grid[i]),
        passed=bool(max_ratio <= d * (1.0 + 1e-12)),
        n_samples=grid.size,
    )


@dataclass(frozen=True)
class NFnReport:
    label: str
    threshold: float
    zero_limit_values: tuple
    infinity_limit_values: tuple
    zero_limit_verdict: str
    infinity_limit_verdict: str
    verdict: str  # PASS / FAIL / INCONCLUSIVE

    def as_text(self):
        lines = [
            f"check = n_function",
            f"label = {self.label}",
            f"threshold = {self.threshold!r}",
            f"zero_limit_verdict = {self.zero_limit_verdict}",
            f"infinity_limit_verdict = {self.infinity_limit_verdict}",
            f"verdict = {self.verdict}",
        ]
        return "\n".join(lines) + "\n"


def _limit_verdict(vals, threshold):
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        return "FAIL"
    decreasing = np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-12))
    if not decreasing:
        return "INCONCLUSIVE"
    if vals[-1] <= threshold:
        return "PASS"
    return "INCONCLUSIVE" if vals[-1] <= 0.5 * vals[0] else "FAIL"


def check_n_function(psi, threshold=1e-5, max_exponent=12):
    """Probe the N-function limits psi(t)/t -> 0 (t->0) and t/psi(t) -> 0.

    Samples t = 10**-j and t = 10**j for j = 1..max_exponent.  PASS needs
    both sequences monotonically decreasing and below ``threshold`` at the
    last sample; a sequence showing no meaningful decay (last value >= half
    the first) is a FAIL; anything in between, or a non-monotone tail, is
    INCONCLUSIVE.
    """
    j = np.arange(1, max_exponent + 1, dtype=float)
    small = 10.0 ** (-j)
    big = 10.0**j
    zero_seq = np.asarray(psi(small), dtype=float) / small
    inf_seq = big / np.asarray(psi(big), dtype=float)
    zv = _limit_verdict(zero_seq, threshold)
    iv = _limit_verdict(inf_seq, threshold)
    if zv == "PASS" and iv == "PASS":
        verdict = "PASS"
    elif zv == "FAIL" or iv == "FAIL":
        verdict = "FAIL"
    else:
        verdict = "INCONCLUSIVE"
    return NFnReport(
        label=psi.label,
        threshold=float(threshold),
        zero_limit_values=tuple(float(v) for v in zero_seq),
        infinity_limit_values=tuple(float(v) for v in inf_seq),
        zero_limit_verdict=zv,
        infinity_limit_verdict=iv,
        verdict=verdict,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the structural probes behind a type's invariants."""

    label: str
    checks: dict = field(default_factory=dict)  # name -> (passed, detail)

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks.values())

    def as_text(self):
        lines = [f"label = {self.label}"]
        for name, (ok, detail) in self.checks.items():
            lines.append(f"{name} = {'PASS' if ok else 'FAIL'} ({detail})")
        lines.append(f"verdict = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


_VALIDATE_GRID = np.logspace(-6.0, 6.0, 49)


def validate_young(psi, grid=None, tol_convex=1e-9, roundtrip_rtol=1e-10):
    """Structural probes for a Young function on a log grid.

    Checks: psi(0) = 0 exactly; nondecreasing; midpoint convexity within
    ``tol_convex`` (absolute); right derivative nondecreasing; inverse
    round-trip psi^{-1}(psi(t)) = t within ``roundtrip_rtol`` (relative).
    """
    grid = _VALIDATE_GRID if grid is None else np.asarray(grid, dtype=float)
    checks = {}
    vals = np.asarray(psi(grid), dtype=float)

    z = float(psi(0.0))
    checks["zero_at_zero"] = (z == 0.0, f"psi(0)={z!r}")

    mono_gap = float(np.min(np.diff(vals)))
    checks["nondecreasing"] = (mono_gap >= 0.0, f"min increment {mono_gap!r}")

    a, b = grid[:-1], grid[1:]
    mid_violation = np.asarray(psi(0.5 * (a + b)), dtype=float) - 0.5 * (
        vals[:-1] + vals[1:]
    )
    worst = float(np.max(mid_violation))
    checks["midpoint_convex"] = (worst <= tol_convex, f"max violation {worst!r}")

    dv = np.asarray(psi.right_deriv(grid), dtype=float)
    dgap = float(np.min(np.diff(dv)))
    checks["deriv_nondecreasing"] = (dgap >= -1e-9 * max(1.0, float(dv[-1])),
                                     f"min increment {dgap!r}")

    rt = np.asarray(psi.inverse(vals), dtype=float)
    rel = float(np.max(np.abs(rt - grid) / grid))
    checks["inverse_roundtrip"] = (rel <= roundtrip_rtol, f"max rel err {rel!r}")

    return ProbeReport(label=psi.label, checks=checks)


def validate_tau(tau, psi=None, grid=None, def_rtol=1e-12, roundtrip_rtol=1e-10):
    """Structural probes for a derived tau on a log grid.

    Checks the defining identity tau(t) * psi(1/t) = 1 (relative
    ``def_rtol``, when the source ``psi`` is supplied), strict monotonicity,
    inverse round-trips, concavity of tau^{-1}, and that tau^{-1}(t)/t is
    nonincreasing.
    """
    grid = _VALIDATE_GRID if grid is None else np.asarray(grid, dtype=float)
    checks = {}

    if psi is not None:
        ident = np.asarray(tau(grid), dtype=float) * np.asarray(
            psi(1.0 / grid), dtype=float
        )
        err = float(np.max(np.abs(ident - 1.0)))
        checks["defining_identity"] = (err <= def_rtol, f"max rel err {err!r}")

    vals = np.asarray(tau(grid), dtype=float)
    gap = float(np.min(np.diff(vals)))
    checks["strictly_increasing"] = (gap > 0.0, f"min increment {gap!r}")

    rt = np.asarray(tau.inverse(vals), dtype=float)
    rel = float(np.max(np.abs(rt - grid) / grid))
    checks["inverse_roundtrip"] = (rel <= roundtrip_rtol, f"max rel err {rel!r}")

    rt2 = np.asarray(tau(np.asarray(tau.inverse(grid), dtype=float)), dtype=float)
    rel2 = float(np.max(np.abs(rt2 - grid) / grid))
    checks["roundtrip_other_side"] = (rel2 <= roundtrip_rtol, f"max rel err {rel2!r}")

    z = float(tau(0.0))
    checks["zero_at_zero"] = (z == 0.0, f"tau(0)={z!r}")

    inv = np.asarray(tau.inverse(grid), dtype=float)
    a, b = grid[:-1], grid[1:]
    mid = np.asarray(tau.inverse(0.5 * (a + b)), dtype=float)
    concave_gap = float(np.min(mid - 0.5 * (inv[:-1] + inv[1:])))
    checks["inverse_concave"] = (concave_gap >= -1e-9 * max(1.0, float(inv[-1])),
                                 f"min midpoint slack {concave_gap!r}")

    slope = inv / grid
    sgap = float(np.max(np.diff(slope) / slope[:-1]))
    checks["inverse_slope_nonincreasing"] = (sgap <= 1e-12,
                                             f"max rel increment {sgap!r}")

    return ProbeReport(label=tau.label, checks=checks)
