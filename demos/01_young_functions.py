"""Convex gauges and the transform that turns them into norm weights.

A Young function is a convex function psi with psi(0) = 0; it plays the
role of a "shape" for measuring the size of a function.  This demo builds
the power family, looks families up by name behind the admissibility
gate, and shows the derived transform tau(t) = 1/psi(1/t) whose inverse
turns measures into lengths inside the Lorentz norm.

Run:  python3 demos/01_young_functions.py
"""

from lorsolve import YoungFnError, derive_tau, power_young, young_family


def main():
    print("=" * 70)
    print("1. The power family psi_m(t) = m * t^m  (admissible for m > 1)")
    print("=" * 70)
    psi2 = power_young(2.0)
    print(f"label                 : {psi2.label}")
    print(f"psi(1), psi(2), psi(4): {psi2(1.0)}, {psi2(2.0)}, {psi2(4.0)}")
    print(f"inverse of psi(2)     : {psi2.inverse(psi2(2.0))}  (should be 2)")
    try:
        power_young(1.0)
    except YoungFnError as exc:
        print(f"m = 1 is refused (linear growth):\n  {exc}")

    print()
    print("=" * 70)
    print("2. Family registry and the admissibility gate")
    print("=" * 70)
    psi = young_family("power", 3.0)
    print(f"young_family('power', 3.0) -> {psi.label}")
    try:
        young_family("monomial", 2.0, require_admissible=True)
    except YoungFnError as exc:
        print(f"monomial rejected where admissibility is required:\n  {exc}")

    print()
    print("=" * 70)
    print("3. The transform tau(t) = 1/psi(1/t) and its inverse")
    print("=" * 70)
    tau = derive_tau(psi2)
    print(f"tau(2)        = {tau(2.0)}          (for psi_2: tau(t) = t^2/2 -> 2)")
    print(f"tau_inv(0.5)  = {tau.inverse(0.5)}          (t with t^2/2 = 0.5)")
    print(f"tau_inv(0)    = {tau.inverse(0.0)}          (tau(0) = 0)")


if __name__ == "__main__":
    main()
