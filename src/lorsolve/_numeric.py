"""Shared numerical kernels: vectorized bisection and panel quadrature.

Everything here is deterministic and loop-free over data points (loops run
over a fixed iteration count only), so results are reproducible bit-for-bit
across runs.
"""

import numpy as np

__all__ = ["bisect_increasing", "integrate_weight"]

# 24-point Gauss-Legendre rule; spectrally accurate on panels where the
# integrand is analytic, which the dyadic panel layout below guarantees.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Bisection steps: after ~60 the bracket is at adjacent floats; 90 is
# overkill on purpose.
_BISECT_ITERS = 90
# Cap on the geometric panel edges of integrate_weight.
_MAX_PANELS = 1100


def bisect_increasing(fn, target, lo, hi):
    """Solve fn(x) = target for increasing fn, elementwise over arrays.

    ``lo`` and ``hi`` must bracket the solution (fn(lo) <= target <= fn(hi)).
    Runs ``_BISECT_ITERS`` steps and returns the midpoint of the final
    bracket.
    """
    target = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        take_hi = fn(mid) >= target
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def gauss_panels(fn, lo, hi):
    """Per-panel Gauss-Legendre estimates of ``integral(fn)`` over [lo_i, hi_i].

    ``fn`` must be vectorized.  Returns an array of panel integrals.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _GL_NODES
    return half * (fn(pts) @ _GL_WEIGHTS)


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
    parts = gauss_panels(fn, lo[keep], hi[keep])
    # Sum smallest panels first for accuracy.
    return float(parts[::-1].sum())
