"""Piecewise maps, branch counting, and the substitution identity.

The operator in this library composes functions with piecewise monotone
maps.  The geometric bookkeeping behind the contraction audit -- how
many branches cover a point, how strongly images overlap -- is driven by
the branch-counting function N_F(y) = #{x : F(x) = y}, and the identity

    integral_E H(F(x)) |F'(x)| dx  =  integral H(y) N_F(y, E) dy

ties the two sides together.  This demo counts branches for the bundled
map gallery and verifies the identity numerically on a fine grid.

Run:  python3 demos/04_change_of_variables.py
"""

from lorsolve import (
    Domain,
    SampledFn,
    change_of_variables_check,
    doubling_map,
    halving_map,
    identity_map,
    indicatrix_profile,
    tent3_map,
)


def main():
    unit = Domain.unit_interval()
    gallery = (identity_map(), doubling_map(), halving_map(), tent3_map())

    print("=" * 70)
    print("1. Counting preimages with the branch counter")
    print("=" * 70)
    for F in gallery:
        counts = indicatrix_profile(F, unit, [0.25, 0.75])
        print(f"  {F.label:<10} N(0.25) = {counts[0]}, N(0.75) = {counts[1]}")
    print()
    print("Restricting the count to a subset E = (0, 1/2):")
    E = Domain.from_intervals([(0.0, 0.5)])
    [c] = indicatrix_profile(doubling_map(), E, [0.3])
    print(f"  doubling, y = 0.3, E = (0, 1/2): count = {c}")
    print("  (only the first branch's preimage lies inside E)")

    print()
    print("=" * 70)
    print("2. The substitution identity, checked on a 4096-cell grid")
    print("=" * 70)
    weights = (
        ("H = 1", SampledFn.constant(unit, 4096, 1.0)),
        ("H = lower-half indicator",
         SampledFn.indicator(unit, 4096, [(0.0, 0.5)])),
        ("H(y) = y", SampledFn.from_callable(unit, 4096, lambda y: y)),
    )
    print(f"{'map':<10} {'weight':<28} {'lhs':>12} {'rhs':>12} {'rel gap':>10}")
    for F in gallery:
        for wname, H in weights:
            rep = change_of_variables_check(F, H, unit, m=4096, tol=1e-3)
            print(f"{F.label:<10} {wname:<28} {rep.lhs:>12.8f} "
                  f"{rep.rhs:>12.8f} {rep.rel_gap:>10.2e} "
                  f"{'PASS' if rep.passed else 'FAIL'}")

    print()
    print("The doubling map stretches by 2 and covers twice, so both sides")
    print("double the plain integral of H; the halving map compresses and")
    print("covers only (0, 1/2), so the indicator row integrates H there.")


if __name__ == "__main__":
    main()
