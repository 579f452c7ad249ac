"""Young functions and the derived time-change transform.

A Young function is a nondecreasing, left-continuous, convex map
``psi: [0, inf) -> [0, inf]`` with ``psi(0) = 0`` and ``psi(t) -> inf``.
The norm engine consumes psi only through the transform

    tau(t) = 1 / psi(1/t),   tau(0) = 0,

whose inverse maps measures to lengths in the Lorentz-type norm (see
:mod:`lorsolve.norms`); the Orlicz side uses psi itself.  For the built-in
power family ``psi(t) = m * t**m`` both have closed form:
``tau(t) = t**m / m`` and ``tau^{-1}(s) = (m*s)**(1/m)``.

The closed form of psi^{-1} is supplied by the caller; nothing here
inverts numerically.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "YoungFn",
    "TauFn",
    "YoungFnError",
    "power_young",
    "monomial_young",
    "derive_tau",
    "young_family",
]


class YoungFnError(ValueError):
    """Raised when a candidate fails the basic Young-function sanity probes
    or its tau^-1(s) = 1/psi^-1(1/s) is 0 or infinite at a sampled
    interior point."""


@dataclass(frozen=True)
class YoungFn:
    """A Young function with its closed-form inverse.

    ``fn`` and ``inv`` must be vectorized over numpy arrays; ``inv`` is the
    inverse where psi is strictly increasing.  Instances are immutable and
    safe to share across threads.
    """

    label: str
    fn: Callable
    inv: Callable

    def __post_init__(self):
        z = float(self.fn(0.0))
        if z != 0.0:
            raise YoungFnError(f"{self.label}: psi(0) = {z!r}, expected 0")
        probe = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
        # psi takes values in [0, inf]: a probe that overflows reads inf.
        with np.errstate(over="ignore"):
            vals = np.asarray(self.fn(probe), dtype=float)
        if np.any(vals[1:] < vals[:-1]):
            raise YoungFnError(f"{self.label}: not nondecreasing on probe grid")

    def __call__(self, t):
        return self.fn(t)

    def inverse(self, v):
        return self.inv(v)


@dataclass(frozen=True)
class TauFn:
    """The transform tau(t) = 1/psi(1/t) of a Young function, tau(0) = 0.

    The norm routes need only ``inv`` = tau^-1; ``source_label`` names psi.
    """

    label: str
    fn: Callable
    inv: Callable
    source_label: str = ""

    def __call__(self, t):
        return self.fn(t)

    def inverse(self, s):
        return self.inv(s)


def power_young(m):
    """The admissible power family psi(t) = m * t**m, real 1 < m < inf.

    Closed form psi^{-1}(v) = (v/m)**(1/m).  m <= 1 is rejected: m = 1
    fails the N-function limits and m < 1 breaks convexity.
    """
    m = float(m)
    if not 1.0 < m < np.inf:
        raise YoungFnError(f"power family needs 1 < m < inf, got {m}")
    return YoungFn(
        label=f"power[m={m:g}]",
        fn=lambda t: m * np.asarray(t, dtype=float) ** m,
        inv=lambda v: (np.asarray(v, dtype=float) / m) ** (1.0 / m),
    )


def monomial_young(p):
    """Plain monomial Psi(t) = t**p, real 1 <= p < inf.

    A valid Young function for the Orlicz/Luxemburg side (p = 1 gives L^1).
    Not necessarily admissible as the Lorentz-side psi: p = 1 fails the
    N-function limits, and the solver's config loader only accepts the
    ``power`` family there.
    """
    p = float(p)
    if not 1.0 <= p < np.inf:
        raise YoungFnError(f"monomial family needs 1 <= p < inf, got {p}")
    return YoungFn(
        label=f"monomial[p={p:g}]",
        fn=lambda t: np.asarray(t, dtype=float) ** p,
        inv=lambda v: np.asarray(v, dtype=float) ** (1.0 / p),
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


def derive_tau(psi):
    """Build tau(t) = 1/psi(1/t) and its inverse from psi's closed forms.

        tau^{-1}(s) = 1 / psi^{-1}(1/s)

    ``tau`` and ``tau^{-1}`` give 0 where their argument is 0 and a float
    for a 0-d argument; ``tau`` is 0 where psi(1/t) overflows and inf where
    it underflows to 0.  ``tau^{-1}`` of a non-empty array whose entries
    are all positive (the measures of a step distribution) skips the mask
    and evaluates the closed form on the whole array at once; elementwise,
    the bits are those of the masked path.

    Raises :class:`YoungFnError` if psi^{-1}(1/s) is 0 or non-finite at a
    sampled s in 1e-8 .. 1e8 (tau^{-1}, the only part the norms evaluate,
    would be ill-defined there).
    """
    with np.errstate(all="ignore"):
        probe = np.asarray(psi.inv(1.0 / _TAU_PROBE), dtype=float)
    bad = ~np.isfinite(probe) | (probe == 0.0)
    if bad.any():
        raise YoungFnError(
            f"{psi.label}: psi^-1(1/s) = {float(probe[bad][0])!r} at "
            f"s = {float(_TAU_PROBE[bad][0])!r}; tau undefined"
        )

    def tau(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        # psi(1/t) lies in [0, inf]: tau is 0 where it overflows and inf
        # where it underflows to 0.
        with np.errstate(over="ignore", divide="ignore"):
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

    return TauFn(
        label=f"tau[{psi.label}]",
        fn=tau,
        inv=tau_inv,
        source_label=psi.label,
    )
