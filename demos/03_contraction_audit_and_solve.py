"""Audit the operator, then sum the series with a certified error bar.

The solver computes the unique solution of

    phi(x) = sum_n g_n(x) * phi(f_n(x)) + h0(x)

by summing the series phi = h0 + P h0 + P^2 h0 + ...  This only
converges when the right-hand-side operator P is a contraction, so the
solver refuses to run until a machine check of the contraction
inequality passes on every grid cell.  Once it runs, every step carries
a rigorous tail bound, and the final certificate is reproducible.

Run:  python3 demos/03_contraction_audit_and_solve.py
"""

import numpy as np

from lorsolve import (
    AuditFailure,
    ProblemInstance,
    audit_contraction,
    bundled_instance_path,
    load_instance,
    residual,
    solve_elementary,
)


def main():
    print("=" * 70)
    print("1. Audit the bundled doubling instance")
    print("=" * 70)
    inst, oracle = load_instance(bundled_instance_path("doubling"))
    print("phi(x) = 0.25 * phi(2x mod 1) + 1 on (0, 1); exact solution 4/3.")
    print()
    print(audit_contraction(inst).as_text())

    print("=" * 70)
    print("2. Solve with a certified tail bound")
    print("=" * 70)
    solution, trace = solve_elementary(inst, tol=1e-10)
    print("First and last trace rows (term, tail bound; partial and "
          "residual on the last row only):")
    rows = list(trace.rows)
    for row in rows[:3] + ["..."] + rows[-2:]:
        print(f"  {row}")
    print()
    print(trace.certificate_text())
    dev = float(np.max(np.abs(solution.values - oracle["solution_constant"])))
    print(f"max |solution - 4/3| = {dev!r}")
    print(f"residual check       = {residual(solution, inst).value!r}")

    print()
    print("=" * 70)
    print("3. A tightened declaration is refused -- and honestly forced")
    print("=" * 70)
    tight = ProblemInstance(
        domain=inst.domain, maps=inst.maps, coeffs=inst.coeffs, h0=inst.h0,
        K_decl=inst.K_decl, L_decl=inst.L_decl, alpha=0.2, psi=inst.psi,
        label="doubling_alpha_0.2",
    )
    print("Same instance, but declared with alpha = 0.2 < feasible 0.25:")
    try:
        solve_elementary(tight)
    except AuditFailure as exc:
        print(f"  refused: {exc}")
    print()
    print("A forced run still iterates, but its certificate says FAIL:")
    _, forced = solve_elementary(tight, force=True)
    for line in forced.certificate_text().splitlines():
        if line.startswith(("audit", "verdict", "stop_reason")):
            print(f"  {line}")


if __name__ == "__main__":
    main()
