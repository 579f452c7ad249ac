"""Vector- and complex-valued problems through the same scalar engine.

Norms of vector-valued functions are computed by first taking the
pointwise Euclidean length, then applying the scalar machinery to that
length.  A function whose vector values occupy a single component
therefore has *exactly* the scalar norm -- bit for bit -- and solver
traces of lifted problems reproduce scalar traces byte-identically.
Complex coefficients ride along the same way via |.|.

Run:  python3 demos/05_vector_valued.py
"""

import io

import numpy as np

from lorsolve import (
    Domain,
    ProblemInstance,
    SampledFn,
    bundled_instance_path,
    derive_tau,
    load_instance,
    lorentz_norm,
    pointwise_norm,
    power_young,
    solve_elementary,
)


def main():
    print("=" * 70)
    print("1. The pointwise lift")
    print("=" * 70)
    unit = Domain.unit_interval()
    vals = np.zeros((8, 2))
    vals[:, 0] = 3.0
    vals[:, 1] = 4.0
    f = SampledFn(unit, 8, vals)
    mag = pointwise_norm(f)
    print(f"f has values (3, 4) in every cell; |f| = {mag.values[0]} everywhere")
    tau = derive_tau(power_young(2.0))
    print(f"||f|| = ||(|f|)|| = {lorentz_norm(f, tau).value!r} "
          f"(= 5 * sqrt(2))")

    print()
    print("=" * 70)
    print("2. A 3-component solve reproduces the scalar trace byte-for-byte")
    print("=" * 70)
    inst, _ = load_instance(bundled_instance_path("doubling"))
    sol_s, tr_s = solve_elementary(inst, tol=1e-8)

    vec = np.zeros((inst.h0.ncells, 3))
    vec[:, 0] = 1.0
    lifted = ProblemInstance(
        domain=inst.domain, maps=inst.maps, coeffs=inst.coeffs,
        h0=SampledFn(inst.domain, inst.h0.m, vec),
        K_decl=inst.K_decl, L_decl=inst.L_decl, alpha=inst.alpha,
        psi=inst.psi, label="doubling_vec3",
    )
    sol_v, tr_v = solve_elementary(lifted, tol=1e-8)

    buf_s, buf_v = io.StringIO(), io.StringIO()
    tr_s.write_csv(buf_s)
    tr_v.write_csv(buf_v)
    same = buf_s.getvalue() == buf_v.getvalue()
    print(f"scalar trace == vector trace, as CSV bytes: {same}")
    print(f"vector solution first component: "
          f"{sol_v.values[0, 0]!r} (scalar: {sol_s.values[0]!r})")
    print(f"other components identically zero: "
          f"{bool(np.all(sol_v.values[:, 1:] == 0.0))}")

    print()
    print("=" * 70)
    print("3. Complex coefficients")
    print("=" * 70)
    print("Replace the coefficient 1/4 by i/4: the audit sees |g| = 1/4,")
    print("so the same contraction argument certifies the complex solve.")
    g = SampledFn.constant(inst.domain, inst.h0.m, 0.25j)
    cplx = ProblemInstance(
        domain=inst.domain, maps=inst.maps, coeffs=(g,), h0=inst.h0,
        K_decl=inst.K_decl, L_decl=inst.L_decl, alpha=inst.alpha,
        psi=inst.psi, label="doubling_complex",
    )
    sol_c, tr_c = solve_elementary(cplx, tol=1e-12)
    expected = 1.0 / (1.0 - 0.25j)
    dev = float(np.max(np.abs(sol_c.values - expected)))
    print(f"solution constant  : {sol_c.values[0]!r}")
    print(f"exact 1/(1 - i/4)  : {expected!r}")
    print(f"max deviation      : {dev:.2e}")
    print(f"certified          : {tr_c.certified}")


if __name__ == "__main__":
    main()
