"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints exactly one ``[PASS]/[FAIL] criterion N: ...`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and
fails with the list of violated sub-checks.  All randomness is seeded,
so the suite is deterministic.
"""

import io
import math
import time
from fractions import Fraction

import numpy as np

from lorsolve import (
    BUNDLED_INSTANCES,
    Domain,
    ProblemInstance,
    SampledFn,
    audit_contraction,
    axiom_suite,
    bundled_instance_path,
    change_of_variables_check,
    check_orlicz_lorentz_bridge,
    default_test_sets,
    derive_tau,
    doubling_map,
    halving_map,
    identity_map,
    load_instance,
    lorentz_norm,
    monomial_young,
    orlicz_modular,
    power_young,
    residual,
    seeded_corpus,
    solve_elementary,
    tent3_map,
    uniqueness_probe,
)

SQRT2 = math.sqrt(2.0)
ROUTES = ("distribution", "rearrangement_tau")


def _bundled(name, **kw):
    return load_instance(bundled_instance_path(name), **kw)


def _report(n, label, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok, f"criterion {n} ({label}): " + " | ".join(failures)


def test_criterion_01_tail_bound_dominates_true_gap():
    # Doubling instance at 4096 cells: the m-term partial sums are
    # grid-exact dyadic rationals, so the distance to the limit 4/3 can be
    # formed exactly and must (a) match sqrt(2)*(4/3)*4^-m to rel 1e-6,
    # (b) stay below the certified tail bound 2^(1-m)*sqrt(2), for
    # m = 0..20, with the whole computation under one second.
    failures = []
    t0 = time.perf_counter()
    inst, _ = _bundled("doubling", grid=4096)
    solution, trace = solve_elementary(inst)

    partial = 0.0 * inst.h0
    term = inst.h0
    worst_rel = 0.0
    for m in range(21):
        exact_cells = float(Fraction(4, 3) * (1 - Fraction(1, 4) ** m))
        if not np.all(partial.values == exact_cells):
            failures.append(f"partial sum m={m} is not grid-exact")
        gap_value = float(Fraction(4, 3) * Fraction(1, 4) ** m)
        gap = SampledFn.constant(inst.h0.domain, 4096, gap_value)
        err = inst.norm(gap)
        target = SQRT2 * (4.0 / 3.0) * 0.25 ** m
        rel = abs(err - target) / target
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            failures.append(f"m={m}: gap norm {err!r} off target by rel {rel:.2e}")
        bound = 2.0 ** (1 - m) * SQRT2
        if err > bound:
            failures.append(f"m={m}: gap norm {err!r} exceeds tail bound {bound!r}")
        if m < len(trace.rows):
            tb = trace.rows[m].tail_bound
            if abs(tb - bound) > 1e-12 * bound:
                failures.append(f"m={m}: trace tail bound {tb!r} != {bound!r}")
        if m <= 13:
            # Direct float subtraction is still cancellation-safe here.
            direct = inst.norm(solution - partial)
            rel_d = abs(direct - target) / target
            if rel_d > 1e-6:
                failures.append(f"m={m}: direct gap off by rel {rel_d:.2e}")
        partial = partial + term
        term = inst.apply(term)

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s at 4096 cells")
    _report(1, "tail bound sound on doubling instance, m=0..20 "
               f"(worst rel dev {worst_rel:.2e}, {elapsed:.3f}s)", failures)


def test_criterion_02_bundled_instances_hit_fixed_point_oracle():
    # Both reference instances converge to the constant 4/3 with residual
    # <= 1e-10 and the 1e-8 tail tolerance certified within 30 steps.
    failures = []
    stopped = []
    for name in ("doubling", "twobranch"):
        inst, oracle = _bundled(name)
        solution, trace = solve_elementary(inst, tol=1e-8)
        if not trace.certified:
            failures.append(f"{name}: run not certified ({trace.stop_reason})")
        if trace.m_stop > 30:
            failures.append(f"{name}: needed {trace.m_stop} > 30 steps")
        res = residual(solution, inst).value
        if res > 1e-10:
            failures.append(f"{name}: residual {res!r} > 1e-10")
        dev = float(np.max(np.abs(solution.values - oracle["solution_constant"])))
        if dev > 1e-9:
            failures.append(f"{name}: solution off 4/3 by {dev!r}")
        stopped.append(f"{name} m={trace.m_stop}")
    _report(2, "both bundled instances reach 4/3 with certified tol 1e-8 "
               f"({', '.join(stopped)})", failures)


def test_criterion_03_norm_routes_agree_and_converge():
    # f(x) = x on (0,1): every route matches 2*sqrt(2)/3 to rel 1e-3 at
    # 4096 cells and refines with empirical order >= 1 from 512 to 8192.
    failures = []
    true = 2.0 * SQRT2 / 3.0
    tau = derive_tau(power_young(2.0))
    unit = Domain.unit_interval()
    errs = {route: {} for route in ROUTES}
    for M in (512, 2048, 4096, 8192):
        f = SampledFn.from_callable(unit, M, lambda x: x)
        for route in ROUTES:
            val = lorentz_norm(f, tau, route).value
            rel = abs(val - true) / true
            errs[route][M] = rel
            if M == 4096 and rel > 1e-3:
                failures.append(f"{route} at 4096: rel err {rel:.2e} > 1e-3")
    orders = {}
    for route in ROUTES:
        order = math.log(errs[route][512] / errs[route][8192]) / math.log(16.0)
        orders[route] = order
        if order < 1.0:
            failures.append(f"{route}: empirical order {order:.2f} < 1")
    worst = max(errs[route][4096] for route in ROUTES)
    _report(3, "two norm routes agree with 2*sqrt(2)/3 "
               f"(worst rel {worst:.1e} at 4096, orders "
               f"{min(orders.values()):.2f}..{max(orders.values()):.2f})",
            failures)


def test_criterion_04_axiom_suite_full_pass_on_seeded_corpus():
    # 200 seeded step functions: all norm axioms pass for the power
    # family at exponents 1.5, 2 and 3, and the triangle-inequality slack
    # over a deterministic pair set never drops below -1e-10.
    failures = []
    unit = Domain.unit_interval()
    grid = 1024
    corpus = seeded_corpus(unit, grid, 200, seed=0)
    sets = default_test_sets(unit)
    min_slack = math.inf
    n = len(corpus)
    pairs = [(i, (i + 1) % n) for i in range(n - 1)]
    pairs += [(i, (37 * i + 11) % n) for i in range(n)]
    pairs = [(i, j) for i, j in pairs if i != j]
    for expo in (1.5, 2.0, 3.0):
        tau = derive_tau(power_young(expo))
        rep = axiom_suite(tau, corpus, sets)
        if not rep.passed:
            bad = [name for name, ok, _ in rep.axioms if not ok]
            failures.append(f"exponent {expo}: failed axioms {bad}")
        rho = [lorentz_norm(f, tau, "distribution").value for f in corpus]
        for i, j in pairs:
            both = lorentz_norm(corpus[i] + corpus[j], tau, "distribution").value
            min_slack = min(min_slack, rho[i] + rho[j] - both)
    if min_slack < -1e-10:
        failures.append(f"triangle slack {min_slack!r} < -1e-10")
    _report(4, "norm axioms pass on 200-function corpus for exponents "
               f"{{1.5, 2, 3}} (min triangle slack {min_slack:.1e})", failures)


def test_criterion_05_change_of_variables_gallery():
    # Substitution identity on {identity, doubling, halving, 3-branch
    # tent} x {1, lower-half indicator, y}: both sides agree to rel 1e-3
    # at 4096 cells.
    failures = []
    unit = Domain.unit_interval()
    M = 4096
    weights = (
        ("one", SampledFn.constant(unit, M, 1.0)),
        ("lower_half", SampledFn.indicator(unit, M, [(0.0, 0.5)])),
        ("linear", SampledFn.from_callable(unit, M, lambda y: y)),
    )
    maps = (identity_map(), doubling_map(), halving_map(), tent3_map())
    worst = 0.0
    for F in maps:
        for wname, H in weights:
            rep = change_of_variables_check(F, H, unit, m=M, tol=1e-3)
            worst = max(worst, rep.rel_gap)
            if not rep.passed:
                failures.append(
                    f"{F.label} x {wname}: rel gap {rep.rel_gap:.2e} > 1e-3"
                )
    _report(5, "substitution identity holds on 4 maps x 3 weights "
               f"(worst rel gap {worst:.1e})", failures)


def test_criterion_06_contraction_audit_passes_and_catches():
    # The doubling instance is audited feasible at alpha = 1/4 with the
    # declared multiplicity and overlap recovered exactly; tightening the
    # declaration to alpha = 0.2 must fail with a concrete cell witness.
    failures = []
    inst, _ = _bundled("doubling")
    rep = audit_contraction(inst)
    if not rep.passed:
        failures.append(f"audit failed at alpha=0.25: {rep.worst_witness}")
    if rep.k_est != 2 or rep.k_est != inst.K_decl:
        failures.append(f"estimated multiplicity {rep.k_est} != declared 2")
    if rep.l_est != 1 or rep.l_est != inst.L_decl:
        failures.append(f"estimated overlap {rep.l_est} != declared 1")
    tight = ProblemInstance(
        domain=inst.domain, maps=inst.maps, coeffs=inst.coeffs, h0=inst.h0,
        K_decl=inst.K_decl, L_decl=inst.L_decl, alpha=0.2, psi=inst.psi,
        label="doubling_tight",
    )
    rep2 = audit_contraction(tight)
    if rep2.passed:
        failures.append("audit passed at alpha=0.2 (must fail)")
    if "cell" not in rep2.worst_witness:
        failures.append(f"no cell witness in {rep2.worst_witness!r}")
    if abs(rep2.feasible_alpha - 0.25) > 1e-12:
        failures.append(f"feasible alpha {rep2.feasible_alpha!r} != 0.25")
    _report(6, "audit passes at alpha=1/4 (K=2, L=1 recovered) and fails "
               "at alpha=0.2 with a cell witness", failures)


def test_criterion_07_operator_contracts_random_inputs():
    # For every bundled instance that passes its audit, 100 seeded random
    # step functions phi satisfy ||P phi|| / ||phi|| <= 2*alpha + 0.02 at
    # 4096 cells.
    failures = []
    worst_overall = 0.0
    for name in BUNDLED_INSTANCES:
        inst, _ = _bundled(name, grid=4096)
        if not audit_contraction(inst).passed:
            failures.append(f"{name}: audit failed, no contraction claim")
            continue
        bound = 2.0 * inst.alpha + 0.02
        worst = 0.0
        for phi in seeded_corpus(inst.domain, 4096, 100, seed=7):
            denom = inst.norm(phi)
            ratio = inst.norm(inst.apply(phi)) / denom
            worst = max(worst, ratio)
        worst_overall = max(worst_overall, worst)
        if worst > bound:
            failures.append(f"{name}: ratio {worst!r} > {bound!r}")
    _report(7, "operator contracts 100 seeded inputs per instance "
               f"(worst ratio {worst_overall:.4f})", failures)


def test_criterion_08_iteration_forgets_starting_point():
    # Picard iterates started from 0, h0 and 10*h0 collapse to pairwise
    # distance <= 1e-9 after 20 steps on both bundled instances.
    failures = []
    worst = 0.0
    for name in ("doubling", "twobranch"):
        inst, _ = _bundled(name)
        h0 = inst.h0
        rep = uniqueness_probe(inst, (0.0 * h0, h0, 10.0 * h0), steps=20)
        if len(rep.distances) != 3:
            failures.append(f"{name}: expected 3 pairs, got {len(rep.distances)}")
        dmax = max(d for _, _, d in rep.distances)
        worst = max(worst, dmax)
        if dmax > 1e-9:
            failures.append(f"{name}: pairwise distance {dmax!r} > 1e-9")
        if not rep.passed:
            failures.append(f"{name}: probe verdict FAIL")
    _report(8, "three starting points collapse within 20 steps "
               f"(worst distance {worst:.1e})", failures)


def test_criterion_09_vector_lift_reproduces_scalar_trace():
    # A 3-component run with h0 = (1, 0, 0) must produce a trace CSV that
    # is byte-identical to the scalar doubling run: the lifted norm of a
    # single-component vector is exactly the scalar norm.
    failures = []
    inst, _ = _bundled("doubling")
    sol_s, tr_s = solve_elementary(inst, tol=1e-8)

    vals = np.zeros((inst.h0.ncells, 3))
    vals[:, 0] = 1.0
    h0_vec = SampledFn(inst.domain, inst.h0.m, vals)
    lifted = ProblemInstance(
        domain=inst.domain, maps=inst.maps, coeffs=inst.coeffs, h0=h0_vec,
        K_decl=inst.K_decl, L_decl=inst.L_decl, alpha=inst.alpha,
        psi=inst.psi, label="doubling_vec3",
    )
    sol_v, tr_v = solve_elementary(lifted, tol=1e-8)

    buf_s, buf_v = io.StringIO(), io.StringIO()
    tr_s.write_csv(buf_s)
    tr_v.write_csv(buf_v)
    if buf_s.getvalue().encode() != buf_v.getvalue().encode():
        failures.append("trace CSV bytes differ between scalar and vector runs")
    if not np.array_equal(sol_v.values[:, 0], sol_s.values):
        failures.append("first vector component differs from scalar solution")
    if np.any(sol_v.values[:, 1:] != 0.0):
        failures.append("untouched vector components are not exactly zero")
    _report(9, "3-component run with h0=(1,0,0) reproduces the scalar "
               "trace byte-for-byte", failures)


def test_criterion_10_lorentz_bounded_by_twice_orlicz():
    # 50 seeded functions rescaled so the quadratic modular is < 1: the
    # Lorentz norm never exceeds twice the Luxemburg norm (slack >= -1e-9).
    failures = []
    unit = Domain.unit_interval()
    psi = power_young(2.0)
    orlicz = monomial_young(2.0)
    min_slack = math.inf
    for idx, h in enumerate(seeded_corpus(unit, 1024, 50, seed=3)):
        mod = orlicz_modular(h, orlicz)
        scale = math.sqrt((1.0 - 1e-9) / mod) if mod > 0 else 1.0
        rep = check_orlicz_lorentz_bridge(scale * h, orlicz, psi)
        min_slack = min(min_slack, rep.slack)
        if not rep.gate_passed:
            failures.append(f"fn {idx}: modular {rep.modular!r} not <= 1")
        if rep.verdict != "PASS":
            failures.append(f"fn {idx}: verdict {rep.verdict}, slack {rep.slack!r}")
        if rep.slack < -1e-9:
            failures.append(f"fn {idx}: slack {rep.slack!r} < -1e-9")
    _report(10, "Lorentz norm <= 2x Orlicz norm on 50 seeded functions "
                f"(min slack {min_slack:.3e})", failures)
