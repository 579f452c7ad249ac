"""Convex gauges and the transform that turns them into norm weights.

A Young function is a convex function psi with psi(0) = 0; it plays the
role of a "shape" for measuring the size of a function.  This demo builds
the two bundled families, runs the structural probes on them, and shows
the derived transform tau(t) = 1/psi(1/t) whose inverse turns measures
into lengths inside the Lorentz norm.

Run:  python3 demos/01_young_functions.py
"""

from lorsolve import (
    check_delta2,
    check_n_function,
    derive_tau,
    monomial_young,
    power_young,
    validate_tau,
    validate_young,
    young_family,
)


def main():
    print("=" * 70)
    print("1. The power family psi_m(t) = m * t^m  (admissible for m > 1)")
    print("=" * 70)
    psi2 = power_young(2.0)
    print(f"label                 : {psi2.label}")
    print(f"psi(1), psi(2), psi(4): {psi2(1.0)}, {psi2(2.0)}, {psi2(4.0)}")
    print(f"inverse of psi(2)     : {psi2.inverse(psi2(2.0))}  (should be 2)")

    print()
    print("Doubling probe: sup psi(2t)/psi(t) should be the constant 2^m.")
    rep = check_delta2(psi2)
    print(f"  max ratio = {rep.max_ratio}  -> {'PASS' if rep.passed else 'FAIL'}")

    print()
    print("Growth probe: psi(t)/t must vanish at 0 and blow up at infinity.")
    rep = check_n_function(psi2)
    print(f"  verdict = {rep.verdict}")
    rep = check_n_function(monomial_young(1.0))
    print(f"  monomial p=1 verdict = {rep.verdict}  (linear growth fails)")

    print()
    print("=" * 70)
    print("2. Family registry and the admissibility gate")
    print("=" * 70)
    psi = young_family("power", 3.0)
    print(f"young_family('power', 3.0) -> {psi.label}")
    try:
        young_family("monomial", 2.0, require_admissible=True)
    except Exception as exc:
        print(f"monomial rejected where admissibility is required:\n  {exc}")

    print()
    print("=" * 70)
    print("3. The transform tau(t) = 1/psi(1/t) and its calculus")
    print("=" * 70)
    tau = derive_tau(psi2)
    print(f"tau(2)        = {tau(2.0)}          (for psi_2: tau(t) = t^2/2 -> 2)")
    print(f"tau_inv(0.5)  = {tau.inverse(0.5)}          (t with t^2/2 = 0.5)")
    print(f"tau'(2)       = {tau.right_deriv(2.0)}          (t^(m-1) -> 2)")

    print()
    print("Self-validation (convexity, round-trips, derivative consistency):")
    print(f"  validate_young(psi_2) -> "
          f"{'PASS' if validate_young(psi2).passed else 'FAIL'}")
    print(f"  validate_tau(tau_2)   -> "
          f"{'PASS' if validate_tau(tau, psi2).passed else 'FAIL'}")


if __name__ == "__main__":
    main()
