import io
import math

import numpy as np
import pytest

from lorsolve import (
    AuditFailure,
    DivergenceError,
    SampledFn,
    ToleranceError,
    residual,
    solve_elementary,
    uniqueness_probe,
)
from conftest import make_doubling_instance, make_twobranch_instance

SQRT2 = math.sqrt(2.0)


class TestSolveDoubling:
    def test_converges_to_four_thirds(self):
        inst = make_doubling_instance(m=256)
        solution, trace = solve_elementary(inst)
        assert np.max(np.abs(solution.values - 4.0 / 3.0)) <= 1e-12
        assert trace.certified
        assert trace.stop_reason == "tolerance"
        assert trace.m_stop <= 30

    def test_term_norms_follow_quarter_powers(self):
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst)
        for row in trace.rows[:10]:
            want = SQRT2 * 0.25**row.m
            assert row.term_norm == pytest.approx(want, rel=1e-12)

    def test_tail_bound_formula(self):
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst)
        prefactor = trace.h0_norm / (1.0 - 2.0 * inst.alpha)
        for row in trace.rows:
            assert row.tail_bound == pytest.approx(
                prefactor * (2.0 * inst.alpha) ** row.m, rel=1e-12
            )

    def test_residual_column_equals_next_term(self):
        # S_m - P S_m - h0 = -P^m h0, so the residual column must retrace
        # the term norms
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst)
        for row in trace.rows:
            assert row.residual_norm == pytest.approx(row.term_norm,
                                                      rel=1e-10, abs=1e-15)

    def test_final_residual_tiny(self):
        inst = make_doubling_instance(m=256)
        solution, _ = solve_elementary(inst)
        assert residual(solution, inst).value <= 1e-10

    def test_tolerance_controls_steps(self):
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst, tol=1e-3)
        # 2*sqrt(2) * 0.5^m <= 1e-3 first at m = 12
        assert trace.m_stop == 12

    def test_max_steps_reached(self):
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst, max_steps=5)
        assert trace.stop_reason == "max_steps"
        assert not trace.certified
        assert trace.m_stop == 5

    def test_negative_max_steps_refused(self):
        inst = make_doubling_instance(m=64)
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            solve_elementary(inst, max_steps=-1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_degenerate_tolerance_refused(self, tol):
        inst = make_doubling_instance(m=64)
        with pytest.raises(ValueError, match="tol must be > 0"):
            solve_elementary(inst, tol=tol, max_steps=5)

    def test_tolerance_below_float_resolution_refused(self):
        inst = make_doubling_instance(m=64)
        # One ulp of ||h0|| / (1 - 2*alpha) = 2*sqrt(2), the bound on ||phi||.
        ulp = np.finfo(float).eps * 2 * SQRT2
        for tol in (1e-300, 0.99 * ulp):
            with pytest.raises(ToleranceError, match="below float resolution"):
                solve_elementary(inst, tol=tol, max_steps=2000)
        _, trace = solve_elementary(inst, tol=1.01 * ulp)
        assert trace.certified

    def test_zero_h0_default_tolerance_is_exact_at_step_zero(self, unit):
        inst = make_doubling_instance(m=64, h0=SampledFn.zeros(unit, 64))
        solution, trace = solve_elementary(inst)
        assert trace.tol == 0.0 and trace.m_stop == 0 and trace.certified
        assert not np.any(solution.values)

    def test_partial_norms_nondecreasing(self):
        inst = make_doubling_instance(m=256)
        _, trace = solve_elementary(inst)
        partials = [row.partial_norm for row in trace.rows]
        assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))


class TestSolveTwoBranch:
    def test_converges_to_four_thirds(self):
        inst = make_twobranch_instance(m=256)
        solution, trace = solve_elementary(inst)
        assert np.max(np.abs(solution.values - 4.0 / 3.0)) <= 1e-12
        assert trace.certified


class TestAuditGate:
    def test_failed_audit_refuses(self):
        inst = make_doubling_instance(m=128, alpha=0.2)
        with pytest.raises(AuditFailure) as err:
            solve_elementary(inst)
        assert not err.value.report.passed

    def test_forced_run_is_never_certified(self):
        inst = make_doubling_instance(m=128, alpha=0.2)
        solution, trace = solve_elementary(inst, force=True)
        assert trace.stop_reason == "tolerance"
        assert not trace.audit_passed
        assert not trace.certified
        assert "FAIL" in trace.certificate_text()
        # the sum itself still lands on the fixed point
        assert np.max(np.abs(solution.values - 4.0 / 3.0)) <= 1e-10


class TestDivergenceGuard:
    def test_expanding_coefficient_aborts(self):
        inst = make_doubling_instance(m=128, g=1.2, alpha=0.3)
        with pytest.raises(DivergenceError) as err:
            solve_elementary(inst, force=True)
        assert len(err.value.rows) >= 3

    def test_within_slack_growth_is_tolerated(self):
        # true factor 0.25 is below the declared 2*alpha + slack: no abort
        inst = make_doubling_instance(m=128)
        _, trace = solve_elementary(inst)
        assert trace.certified


class TestVectorAndComplex:
    def test_vector_lift_constant(self):
        vals = np.zeros((256, 3))
        vals[:, 0] = 1.0
        inst = make_doubling_instance(
            m=256,
            h0=SampledFn(make_doubling_instance(m=256).domain, 256, vals),
        )
        solution, trace = solve_elementary(inst)
        assert solution.is_vector
        assert np.max(np.abs(solution.values[:, 0] - 4.0 / 3.0)) <= 1e-12
        assert np.all(solution.values[:, 1:] == 0.0)
        assert trace.certified

    def test_complex_coefficient_fixed_point(self):
        # phi = (i/4) phi(2x mod 1) + 1 has constant solution 1/(1 - i/4)
        inst = make_doubling_instance(m=128, g=0.25j)
        solution, trace = solve_elementary(inst)
        want = 1.0 / (1.0 - 0.25j)
        assert np.max(np.abs(solution.values - want)) <= 1e-10
        assert trace.certified


class TestTraceSerialization:
    def test_csv_shape_and_header(self):
        inst = make_doubling_instance(m=64)
        _, trace = solve_elementary(inst)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "m,term_norm,partial_norm,tail_bound,residual"
        assert len(lines) == trace.m_stop + 2

    def test_certificate_fields(self):
        inst = make_doubling_instance(m=64)
        _, trace = solve_elementary(inst)
        text = trace.certificate_text()
        for key in ("instance =", "alpha =", "tol =", "steps =",
                    "stop_reason = tolerance", "verdict = PASS",
                    "audit = PASS"):
            assert key in text


class TestUniqueness:
    def test_distinct_starts_collapse(self):
        inst = make_doubling_instance(m=256)
        zero = SampledFn.zeros(inst.domain, 256)
        rep = uniqueness_probe(inst, [zero, inst.h0, 10.0 * inst.h0],
                               steps=20)
        assert rep.passed
        assert all(d <= 1e-9 for _, _, d in rep.distances)

    def test_report_counts_pairs(self):
        inst = make_doubling_instance(m=64)
        zero = SampledFn.zeros(inst.domain, 64)
        rep = uniqueness_probe(inst, [zero, inst.h0], steps=10)
        assert rep.n_starts == 2
        assert len(rep.distances) == 1
