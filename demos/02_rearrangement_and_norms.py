"""Step functions, their rearrangement, and two routes to one norm.

Everything in this library lives on a finite union of intervals split
into equal cells; functions are constant on cells.  That makes distribution
functions and decreasing rearrangements *exact* step computations, and
gives two routes to the same rearrangement norm:

  distribution          exact sum over level plateaus
  rearrangement_tau     exact sum after the monotone substitution

Both read the levels and measures from one sort, so their agreement on
every input, one of the library's standing checks, checks the two sums.

Run:  python3 demos/02_rearrangement_and_norms.py
"""

import numpy as np

from lorsolve import (
    ROUTES,
    Domain,
    SampledFn,
    derive_tau,
    distribution,
    lorentz_norm,
    luxemburg_norm,
    monomial_young,
    orlicz_modular,
    power_young,
    rearrangement,
)


def main():
    print("=" * 70)
    print("1. A step function on a two-box domain")
    print("=" * 70)
    dom = Domain.from_intervals([(0.0, 0.5), (2.0, 2.25)])
    f = SampledFn(dom, 4, np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]))
    print(f"domain        : {dom.boxes}  (total measure {dom.total_measure})")
    print(f"cells         : {f.ncells} (4 per box), values {f.values.tolist()}")
    print(f"integral      : {f.integral()}")

    print()
    print("Distribution function mu(lambda) = measure of {|f| > lambda}:")
    dist = distribution(f)
    for lam in (0.0, 1.0, 4.0, 8.9, 9.0):
        print(f"  mu({lam:>4}) = {dist(lam)}")
    print("(right-continuous: mu(9.0) counts nothing, the level is not exceeded)")

    print()
    print("Decreasing rearrangement f*: same values, sorted onto (0, measure):")
    star = rearrangement(f)
    print(f"  plateau values   {star.values.tolist()}")
    print(f"  mass preserved   {star.integral()} == {f.integral()}")

    print()
    print("=" * 70)
    print("2. Two routes, one number")
    print("=" * 70)
    tau = derive_tau(power_young(2.0))
    for route in ROUTES:
        nv = lorentz_norm(f, tau, route)
        print(f"  {route:<22} -> {nv.value!r}")
    print("The norm only sees the rearrangement: any shuffle of the cell")
    print("values gives bit-for-bit the same number.")
    shuffled = SampledFn(dom, 4, f.values[::-1].copy())
    print(f"  reversed values        -> "
          f"{lorentz_norm(shuffled, tau).value!r}")

    print()
    print("Closed-form anchor: the indicator of a set E of measure a has")
    print("norm tau_inv(a); for psi_2 that is sqrt(2a).")
    ind = SampledFn.indicator(dom, 4, Domain.from_intervals([(0.0, 0.5)]))
    print(f"  indicator of measure 0.5: norm = "
          f"{lorentz_norm(ind, tau).value!r}  (sqrt(2 * 0.5) = 1)")

    print()
    print("=" * 70)
    print("3. The Orlicz (Luxemburg) norm by bisection")
    print("=" * 70)
    quad = monomial_young(2.0)
    print("Luxemburg norm: smallest c with modular(f/c) <= 1, found by")
    print("bracketed bisection; the result is always feasible (modular <= 1).")
    nv = luxemburg_norm(ind, quad)
    print(f"  ||indicator||_Orlicz = {nv.value!r}   (exact: sqrt(0.5))")
    print(f"  modular at that scale = "
          f"{orlicz_modular(ind, quad, scale=1.0 / nv.value)!r}")

    g = SampledFn.from_callable(Domain.unit_interval(), 4096, lambda x: x)
    nv = luxemburg_norm(g, quad)
    print(f"  ||x||_Orlicz on (0,1) = {nv.value!r}   (exact: 1/sqrt(3) "
          f"= {1.0 / np.sqrt(3.0)!r})")


if __name__ == "__main__":
    main()
