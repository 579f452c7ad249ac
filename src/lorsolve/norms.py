"""Lorentz and Orlicz norms on sampled functions, with property suites.

The Lorentz norm here is the rearrangement-invariant functional

    rho(f) = integral_0^inf tau_inv(mu_f(s)) ds,

computed by two routes that must agree:

``distribution``
    exact finite sum over the step distribution function (the reference
    route; every other part of the package uses it),
``rearrangement_tau``
    exact finite sum over the rearrangement f* after the monotone
    substitution u = tau(s), with breakpoints at tau_inv of f*'s plateau
    edges.

Both routes read their levels and measures from the one sort of
:func:`~lorsolve.grids._levels`, so their agreement checks the two
summations, not the levels or the measures.  A vector-valued f is
measured by its pointwise length |f(x)|_2.

The Orlicz (Luxemburg) norm, the Orlicz-Lorentz comparison check and the
function-norm axiom suite (P1)-(P5) complete the module.
"""

from dataclasses import dataclass

import numpy as np

from .grids import (
    Domain,
    GridError,
    SampledFn,
    _levels,
    pointwise_norm,
    rearrangement,
)
from .young import derive_tau

__all__ = [
    "ROUTES",
    "NormValue",
    "NormError",
    "LuxemburgBracketError",
    "lorentz_norm",
    "luxemburg_norm",
    "orlicz_modular",
    "BridgeReport",
    "check_orlicz_lorentz_bridge",
    "AxiomReport",
    "axiom_suite",
]

ROUTES = ("distribution", "rearrangement_tau")


class NormError(ValueError):
    """Raised for invalid norm inputs (wrong shape, bad route, ...)."""


class LuxemburgBracketError(NormError):
    """The Luxemburg bisection could not bracket the unit-modular level."""


@dataclass(frozen=True)
class NormValue:
    """A computed norm: the number plus how it was obtained."""

    value: float
    route: str
    psi_label: str

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise NormError(f"norm value must be finite and >= 0, got {self.value}")

    def __float__(self):
        return self.value


# (tau, w, n, T): T[i] is tau^-1((n - i) * w), the measure of the i-th
# sorted cell and all above it on n cells of width w, for the last
# (tau, w, n) seen.  The TauFn object is held and compared with ``is``,
# so a new TauFn never meets a stale T.
_ladder = (None, None, None, None)


def _ladder_tau_inv(tau, w, n):
    """tau^-1 of the ladder (n - i) * w, i = 0, ..., n - 1.

    On n cells of width w, the measure of {|f| >= u_j} is entry starts[j]
    of the ladder, with the bits :func:`~lorsolve.grids.distribution`
    gives it."""
    global _ladder
    cached = _ladder  # one read: another thread may replace it
    if cached[0] is tau and cached[1] == w and cached[2] == n:
        return cached[3]
    T = np.asarray(tau.inverse(np.arange(n, 0, -1) * w), dtype=float)
    T.setflags(write=False)
    _ladder = (tau, w, n, T)
    return T


def _distribution_integral(f, tau):
    """``distribution(f).lorentz_integral(tau.inverse)``, bit for bit, from
    one sort of |f|.

    On a grid of one cell width w, tau^-1 of the measures is read from
    :func:`_ladder_tau_inv` at the level starts (the whole ladder when
    every value is distinct); on unequal widths it is computed from the
    measures.  The products with the gaps between levels and their
    pairwise sum are those of ``lorentz_integral``.  A magnitude that
    overflowed to inf raises the GridError of ``distribution(f)``.
    """
    levels, starts, w, mu = _levels(f)
    if not np.isfinite(levels[-1]):
        raise GridError("thresholds must be finite")
    if w is None:
        t = np.asarray(tau.inverse(mu), dtype=float)
    else:
        t = _ladder_tau_inv(tau, w, f.ncells)
        if starts is not None:
            t = t[starts]
    if levels[0] > 0.0:
        return float(np.sum(t * np.diff(levels, prepend=0.0)))
    return float(np.sum(t[1:] * np.diff(levels)))


def lorentz_norm(f, tau, route="distribution"):
    """Lorentz norm of a sampled function by the chosen route.

    A vector-valued f is measured by its pointwise length: it is first
    reduced by :func:`~lorsolve.grids.pointwise_norm`.  Both routes are
    exact finite sums over the step structure of the scalar.  The
    distribution route sorts |f| once; on a grid of one cell width it
    reads tau^-1 of the measures from the cached ladder of that width and
    cell count (see :func:`_distribution_integral`), and its value has the
    bits of ``distribution(f).lorentz_integral(tau.inverse)`` on every
    grid.
    """
    if route not in ROUTES:
        raise NormError(f"unknown route {route!r}; expected one of {ROUTES}")
    if f.is_vector:
        f = pointwise_norm(f)
    # A sum past the largest float is inf, which NormValue refuses.
    with np.errstate(over="ignore"):
        if route == "distribution":
            value = _distribution_integral(f, tau)
        else:
            fs = rearrangement(f)
            value = float(np.sum(fs.values * np.diff(tau.inverse(fs.edges))))
    return NormValue(value, route, tau.source_label)


def orlicz_modular(u, psi_orlicz, scale=1.0):
    """Exact cell sum of psi_orlicz(|u| / scale) over the domain."""
    g = pointwise_norm(u)
    if scale <= 0.0:
        raise NormError("modular scale must be positive")
    # A level past the largest float is inf, and so is the modular.
    with np.errstate(over="ignore"):
        levels = psi_orlicz.fn(g.values / scale)
    return float(np.sum(levels * g.cell_measures))


_LUX_REL_WIDTH = 1e-10
_BRACKET_STEPS = 60


def luxemburg_norm(u, psi_orlicz):
    """Luxemburg norm: the least scale t with modular(u / t) <= 1.

    Bisection on the nonincreasing map t -> modular(|u|/t), run to relative
    bracket width 1e-10; the returned value is the feasible (upper) end of
    the final bracket, so its modular really is <= 1.
    """
    g = pointwise_norm(u)
    if g.max_abs() == 0.0:
        return NormValue(0.0, "luxemburg", psi_orlicz.label)

    def modular(t):
        return orlicz_modular(g, psi_orlicz, scale=t)

    t_hi = max(g.max_abs(), np.finfo(float).tiny)
    for _ in range(_BRACKET_STEPS):
        if modular(t_hi) <= 1.0:
            break
        t_hi *= 2.0
    else:
        raise LuxemburgBracketError(
            f"modular stayed above 1 after {_BRACKET_STEPS} doublings "
            f"(t = {t_hi!r})"
        )
    t_lo = t_hi
    for _ in range(_BRACKET_STEPS):
        probe = t_lo / 2.0
        if modular(probe) > 1.0:
            t_lo = probe
            break
        t_lo = probe
        t_hi = probe
    else:
        raise LuxemburgBracketError(
            f"modular stayed <= 1 down to t = {t_lo!r}; cannot bracket"
        )
    # Invariant: modular(t_hi) <= 1 < modular(t_lo).
    for _ in range(200):
        if t_hi - t_lo <= _LUX_REL_WIDTH * t_hi:
            break
        # The sum t_lo + t_hi overflows when both ends pass half the
        # largest float; the width never does.
        mid = t_lo + 0.5 * (t_hi - t_lo)
        if modular(mid) <= 1.0:
            t_hi = mid
        else:
            t_lo = mid
    return NormValue(float(t_hi), "luxemburg", psi_orlicz.label)


# ---------------------------------------------------------------------------
# Orlicz-Lorentz comparison check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BridgeReport:
    psi_label: str
    orlicz_label: str
    modular: float
    gate_passed: bool
    lorentz: float
    orlicz: float
    bound: float
    slack: float
    inequality_passed: bool
    verdict: str  # PASS / FAIL / NO_CLAIM

    def as_text(self):
        lines = [
            "check = orlicz_lorentz_bridge",
            f"psi = {self.psi_label}",
            f"orlicz = {self.orlicz_label}",
            f"modular = {self.modular!r}",
            f"modular_gate = {'PASS' if self.gate_passed else 'FAIL'}",
            f"lorentz_norm = {self.lorentz!r}",
            f"orlicz_norm = {self.orlicz!r}",
            f"bound = {self.bound!r}",
            f"slack = {self.slack!r}",
            f"verdict = {self.verdict}",
        ]
        return "\n".join(lines) + "\n"


def check_orlicz_lorentz_bridge(h, psi_orlicz, psi):
    """Compare the Lorentz norm of h against twice its Orlicz norm.

    The comparison is asserted only when the gate holds: the modular
    integral of psi_orlicz(|h|) must be <= 1.  With the gate open the check
    is  lorentz_norm(h) <= 2 * luxemburg_norm(h)  with float slack 1e-9;
    with it closed the verdict is NO_CLAIM.
    """
    tau = derive_tau(psi)
    g = pointwise_norm(h)
    modular = orlicz_modular(g, psi_orlicz)
    gate = modular <= 1.0
    lorentz = lorentz_norm(g, tau, "distribution").value
    orlicz = luxemburg_norm(g, psi_orlicz).value
    bound = 2.0 * orlicz
    slack = bound - lorentz
    ineq = slack >= -1e-9
    if not gate:
        verdict = "NO_CLAIM"
    else:
        verdict = "PASS" if ineq else "FAIL"
    return BridgeReport(
        psi_label=psi.label,
        orlicz_label=psi_orlicz.label,
        modular=modular,
        gate_passed=gate,
        lorentz=lorentz,
        orlicz=orlicz,
        bound=bound,
        slack=slack,
        inequality_passed=ineq,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Function-norm axiom suite (P1)-(P5).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the axiom suite: per-axiom verdicts plus (P5) constants.

    ``axioms`` maps axiom name to (passed, detail); failures carry a witness
    description.  ``constants`` holds one (set_label, measure, c_empirical,
    c_analytic) row per test set.
    """

    psi_label: str
    n_corpus: int
    axioms: tuple
    constants: tuple

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.axioms)

    def as_text(self):
        lines = [
            "check = norm_axioms",
            f"psi = {self.psi_label}",
            f"corpus_size = {self.n_corpus}",
        ]
        for name, ok, detail in self.axioms:
            lines.append(f"{name} = {'PASS' if ok else 'FAIL'}")
            if detail:
                lines.append(f"{name}_detail = {detail}")
        for label, mu, c_emp, c_an in self.constants:
            lines.append(f"set {label}: measure = {mu!r}, "
                         f"C_empirical = {c_emp!r}, C_analytic = {c_an!r}")
        lines.append(f"verdict = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _set_label(domain):
    return "+".join(f"({lo!r},{hi!r})" for lo, hi in domain.boxes)


def default_test_sets(domain):
    """Standard measurable subsets of ``domain`` for the axiom suite:
    the full domain, the lower half of its first interval, and a middle
    band of that interval."""
    lo, hi = domain.boxes[0]
    width = hi - lo
    return (
        domain,
        Domain.from_intervals([(lo, lo + 0.5 * width)]),
        Domain.from_intervals([(lo + 0.25 * width, lo + 0.75 * width)]),
    )


def seeded_corpus(domain, m, count, seed):
    """Deterministic corpus of nonnegative scalar step functions.

    Four shapes cycle with ``i % 4``: rough uniform noise, a scaled
    indicator with random level and coverage, a monotone profile, and
    folded Gaussian noise.  The same ``(domain, m, count, seed)`` always
    produces the same corpus, so suite runs are reproducible.
    """
    if count < 1:
        raise NormError(f"corpus size must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    ncells = SampledFn.zeros(domain, m).ncells
    corpus = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            vals = rng.uniform(0.0, 3.0, ncells)
        elif kind == 1:
            level = rng.uniform(0.5, 2.0)
            cover = rng.uniform(0.2, 0.8)
            vals = np.where(rng.uniform(size=ncells) < cover, level, 0.0)
        elif kind == 2:
            vals = np.sort(rng.uniform(0.0, 2.0, ncells))
        else:
            vals = np.abs(rng.normal(0.0, 1.0, ncells))
        corpus.append(SampledFn(domain, m, vals))
    return tuple(corpus)


_HOMOGENEITY_SCALES = (0.5, 2.0, 3.7)
# Cap on the geometric panel edges of integrate_weight.
_MAX_PANELS = 1100


def _gauss_panels(fn, lo, hi):
    """Per-panel 24-point Gauss-Legendre estimates of ``integral(fn)`` over
    [lo_i, hi_i]; ``fn`` must be vectorized.

    The rule is built per call, so importing the package does not load
    ``numpy.polynomial``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes
    return half * (fn(pts) @ weights)


def integrate_weight(fn, a, b):
    """Integrate a positive weight ``fn`` over [a, b], 0 <= a < b.

    The weight may have an integrable algebraic singularity at 0 (e.g.
    s**(1/m - 1) with m > 1).  Panels halve geometrically from ``b`` down
    toward ``a``; with a == 0 the decomposition stops at 1e-280 and the last
    panel runs to 0, so the singular weight never overflows.  For exponents
    1/m - 1 with m >= 1.06 the part of the integral affected by that final
    panel is below float resolution; milder (m closer to 1) singularities
    lose deep-tail accuracy.  Each geometric panel spans one octave, so the
    24-point rule on it is exact to machine precision for analytic weights.
    """
    if not (0.0 <= a < b):
        if a == b:
            return 0.0
        raise ValueError(f"bad weight-integral bounds [{a}, {b}]")
    edges = [b]
    x = b
    while len(edges) < _MAX_PANELS:
        nxt = x * 0.5
        if nxt <= a or nxt < 1e-280:
            break
        edges.append(nxt)
        x = nxt
    edges.append(float(a))
    edges = np.array(edges)
    hi = edges[:-1]
    lo = edges[1:]
    keep = hi > lo
    parts = _gauss_panels(fn, lo[keep], hi[keep])
    # Sum smallest panels first for accuracy.
    return float(parts[::-1].sum())


def axiom_suite(tau, corpus, sets):
    """Check the function-norm axioms (P1)-(P5) on a corpus.

    ``corpus`` is a list of nonnegative scalar functions on one common grid;
    ``sets`` is a list of sub-domains for the indicator and averaging
    axioms.  The suite checks, with exact step arithmetic:

    P1  rho(f) = 0 exactly iff f = 0; homogeneity to rel 1e-10; triangle
        inequality with absolute slack 1e-10 over a deterministic pair set;
    P2  monotonicity (f <= g cellwise implies rho(f) <= rho(g)) on
        constructed comparable pairs;
    P3  monotone convergence along truncation ladders f_k = min(f, t_k),
        with exact equality at the top rung;
    P4  finite norm for every indicator of a test set;
    P5  the averaging bound: reports the empirical constant
        max (integral_E f) / rho(f) and checks it against the analytic
        bound integral_0^mu(E) ds / tau_inv(s).

    Failures never raise; they are returned as FAIL rows with witnesses.
    """
    if not corpus:
        raise NormError("axiom_suite needs a nonempty corpus")
    base = corpus[0]
    for i, f in enumerate(corpus):
        if f.is_vector:
            raise NormError(f"corpus[{i}] is vector-valued; reduce it first")
        if not base.same_grid(f):
            raise NormError(f"corpus[{i}] is on a different grid")
        if np.any(f.values < 0):
            raise NormError(f"corpus[{i}] has negative values")

    rho = [lorentz_norm(f, tau, "distribution").value for f in corpus]
    n = len(corpus)
    axioms = []

    # P1a: definiteness, exact in the representation.
    ok, detail = True, ""
    zero = SampledFn.zeros(base.domain, base.m)
    if lorentz_norm(zero, tau, "distribution").value != 0.0:
        ok, detail = False, "rho(0) != 0"
    for i, f in enumerate(corpus):
        is_zero = not np.any(f.values)
        if (rho[i] == 0.0) != is_zero:
            ok, detail = False, f"corpus[{i}]: rho = {rho[i]!r}, zero = {is_zero}"
            break
    axioms.append(("P1_definiteness", ok, detail))

    # P1b: positive homogeneity.
    ok, detail = True, ""
    for i, f in enumerate(corpus):
        for lam in _HOMOGENEITY_SCALES:
            lhs = lorentz_norm(lam * f, tau, "distribution").value
            rhs = lam * rho[i]
            if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                ok = False
                detail = f"corpus[{i}], lambda = {lam}: {lhs!r} vs {rhs!r}"
                break
        if not ok:
            break
    axioms.append(("P1_homogeneity", ok, detail))

    # Deterministic pair set: neighbours plus a fixed scatter.
    pairs = [(i, (i + 1) % n) for i in range(n - 1)]
    pairs += [(i, (37 * i + 11) % n) for i in range(n)]
    pairs = [(i, j) for i, j in pairs if i != j]

    # P1c: triangle inequality.
    ok, detail = True, ""
    for i, j in pairs:
        lhs = lorentz_norm(corpus[i] + corpus[j], tau, "distribution").value
        rhs = rho[i] + rho[j]
        if lhs > rhs + 1e-10:
            ok, detail = False, f"corpus[{i}]+corpus[{j}]: {lhs!r} > {rhs!r}"
            break
    axioms.append(("P1_triangle", ok, detail))

    # P2: monotonicity on constructed comparable pairs (f <= f + g and
    # min(f, g) <= f for nonnegative corpus members).
    ok, detail = True, ""
    for i, j in pairs:
        f, g = corpus[i], corpus[j]
        upper = lorentz_norm(f + g, tau, "distribution").value
        lower = SampledFn(base.domain, base.m, np.minimum(f.values, g.values))
        rho_min = lorentz_norm(lower, tau, "distribution").value
        if rho[i] > upper + 1e-10 or rho_min > min(rho[i], rho[j]) + 1e-10:
            ok, detail = False, f"pair ({i},{j})"
            break
    axioms.append(("P2_monotone", ok, detail))

    # P3: monotone convergence along truncation ladders, exact at the top.
    ok, detail = True, ""
    rungs = 8
    for i, f in enumerate(corpus):
        top = f.max_abs()
        ladder = [
            lorentz_norm(f.clip_at(top * k / rungs), tau, "distribution").value
            for k in range(1, rungs + 1)
        ]
        if any(b < a - 1e-12 * max(1.0, a) for a, b in zip(ladder, ladder[1:])):
            ok, detail = False, f"corpus[{i}]: ladder not monotone {ladder!r}"
            break
        if ladder[-1] != rho[i]:
            ok, detail = False, (
                f"corpus[{i}]: top rung {ladder[-1]!r} != rho {rho[i]!r}"
            )
            break
    axioms.append(("P3_monotone_convergence", ok, detail))

    # P4: indicators of test sets have finite norm.
    ok, detail = True, ""
    indicators = []
    for E in sets:
        chi = SampledFn.indicator(base.domain, base.m, E)
        indicators.append(chi)
        val = lorentz_norm(chi, tau, "distribution").value
        if not np.isfinite(val):
            ok, detail = False, f"set {_set_label(E)}: rho = {val!r}"
            break
    axioms.append(("P4_indicator_finite", ok, detail))

    # P5: integral_E f <= C(E) rho(f).  Report the empirical constant and
    # check the analytic bound C(E) <= integral_0^mu(E) ds / tau_inv(s).
    ok, detail = True, ""
    constants = []
    for E, chi in zip(sets, indicators):
        mu_e = chi.integral()
        if mu_e > 0.0:
            c_an = integrate_weight(
                lambda s: 1.0 / tau.inverse(s), 0.0, mu_e
            )
        else:
            c_an = 0.0
        c_emp = 0.0
        for i, f in enumerate(corpus):
            if rho[i] == 0.0:
                continue
            avg = f.integral_abs_over(E)
            c_emp = max(c_emp, avg / rho[i])
            if avg > rho[i] * c_an * (1.0 + 1e-9) + 1e-12:
                ok = False
                detail = (
                    f"corpus[{i}] on {_set_label(E)}: integral {avg!r} > "
                    f"rho * C_analytic = {rho[i] * c_an!r}"
                )
        constants.append((_set_label(E), mu_e, c_emp, c_an))
    axioms.append(("P5_averaging_bound", ok, detail))

    return AxiomReport(
        psi_label=tau.source_label,
        n_corpus=n,
        axioms=tuple(axioms),
        constants=tuple(constants),
    )
