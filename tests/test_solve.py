import io
import math

import numpy as np
import pytest

from lorsolve import (
    AuditFailure,
    DivergenceError,
    Domain,
    GridError,
    IterationTrace,
    ProblemInstance,
    SampledFn,
    ToleranceError,
    affine_map,
    power_young,
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
        # S_m - P S_m - h0 = -P^m h0, so the residual of every partial sum
        # must retrace the term norms; the solve that stops after k steps
        # reports S_k's residual on its last row
        inst = make_doubling_instance(m=256)
        for row in _last_rows(inst):
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_degenerate_tolerance_refused(self, tol):
        inst = make_doubling_instance(m=64)
        with pytest.raises(ToleranceError, match="tol must be > 0 and finite"):
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
        partials = [row.partial_norm for row in _last_rows(inst)]
        assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))

    def test_one_norm_and_one_apply_per_step(self, monkeypatch):
        # ||h0||, one norm and one apply per step, and the residual and
        # ||S|| of the returned partial sum
        inst = make_doubling_instance(m=256)
        calls = {"norm": 0, "apply": 0}
        for name in calls:
            method = getattr(ProblemInstance, name)

            def counted(self, f, name=name, method=method):
                calls[name] += 1
                return method(self, f)

            monkeypatch.setattr(ProblemInstance, name, counted)
        _, trace = solve_elementary(inst)
        assert calls == {"norm": trace.m_stop + 3, "apply": trace.m_stop + 1}

    def test_last_row_describes_returned_sum(self):
        inst = make_doubling_instance(m=256)
        solution, trace = solve_elementary(inst)
        last = trace.rows[-1]
        assert last.residual_norm == residual(solution, inst).value
        assert last.partial_norm == inst.norm(solution)
        assert trace.rows[0].term_norm == trace.h0_norm
        for row in trace.rows[:-1]:
            assert row.partial_norm is None and row.residual_norm is None


def _last_rows(inst):
    """Last trace row of the solves stopped after k = 0..m_stop steps."""
    _, trace = solve_elementary(inst)
    return [solve_elementary(inst, max_steps=k)[1].rows[-1]
            for k in range(trace.m_stop + 1)]


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


class TestAuditedRate:
    def test_stops_at_the_audited_rate(self):
        # Declared alpha 1/4, audited 1/5 on every cell: the tail falls
        # by 2/5 a step, and the certificate says which alpha did it.
        inst = make_doubling_instance(m=256, g=0.2, alpha=0.25)
        solution, trace = solve_elementary(inst)
        assert trace.alpha == 0.25 and trace.audited_alpha == 0.2
        prefactor = trace.h0_norm / (1.0 - 0.4)
        for row in trace.rows:
            assert row.tail_bound == pytest.approx(prefactor * 0.4**row.m,
                                                   rel=1e-12)
        assert trace.certified and trace.m_stop == 21
        assert np.max(np.abs(solution.values - 1.0 / 0.8)) <= 1e-8
        text = trace.certificate_text()
        assert "alpha = 0.25\naudited_alpha = 0.2\n" in text

    def test_forced_run_keeps_the_declared_rate(self):
        # The audit FAILs (0.25 > 0.2): the audited alpha is reported,
        # but the rate stays the declared 2*alpha.
        inst = make_doubling_instance(m=64, alpha=0.2)
        _, trace = solve_elementary(inst, force=True)
        assert trace.audited_alpha == 0.25
        assert trace.rows[3].tail_bound == pytest.approx(
            trace.h0_norm / 0.6 * 0.4**3, rel=1e-12)
        assert "audited_alpha = 0.25\n" in trace.certificate_text()

    def test_sampled_audit_keeps_the_declared_rate(self, unit):
        h0 = SampledFn.constant(unit, 64, 1.0)
        inst = ProblemInstance(unit, (affine_map([(0.0, 0.5, 2.0, 0.0),
                                                  (0.5, 1.0, 2.0, -1.0)]),),
                               (lambda x: 0.2 + 0.0 * x,), h0, K_decl=2,
                               L_decl=1, alpha=0.25, psi=power_young(2.0))
        _, trace = solve_elementary(inst)
        assert trace.audited_alpha is None
        assert trace.rows[3].tail_bound == pytest.approx(
            trace.h0_norm / 0.5 * 0.5**3, rel=1e-12)
        assert "audited_alpha = none\n" in trace.certificate_text()


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


def _signed_h0(domain, m, rng, shape=()):
    """Seeded h0 values with negative, +0.0 and -0.0 cells."""
    vals = rng.normal(size=(len(domain.boxes) * m,) + shape)
    vals[::5] = -0.0
    vals[1::7] = 0.0
    return SampledFn(domain, m, vals)


def _scalar_instance():
    inst = make_doubling_instance(m=64)
    h0 = _signed_h0(inst.domain, 64, np.random.default_rng(1))
    return make_doubling_instance(m=64, h0=h0)


def _complex_instance():
    inst = make_doubling_instance(m=64)
    h0 = _signed_h0(inst.domain, 64, np.random.default_rng(2))
    return make_doubling_instance(m=64, g=0.25j, h0=h0)


def _two_interval_vector_instance():
    # P phi(x) = g(x) phi(swap(x)), swap exchanging [0, 1) and [2, 3).
    domain = Domain.from_intervals([(0.0, 1.0), (2.0, 3.0)])
    m = 64
    rng = np.random.default_rng(3)
    swap = affine_map([(0.0, 1.0, 1.0, 2.0), (2.0, 3.0, 1.0, -2.0)],
                      label="swap")
    g = SampledFn(domain, m, rng.uniform(-0.2, 0.2, size=2 * m))
    return ProblemInstance(domain=domain, maps=(swap,), coeffs=(g,),
                           h0=_signed_h0(domain, m, rng, shape=(3,)),
                           K_decl=1, L_decl=1, alpha=0.25,
                           psi=power_young(2.0), label="swap_vec")


_ACCUMULATOR_INSTANCES = {
    "scalar": _scalar_instance,
    "complex": _complex_instance,
    "two-interval-vector": _two_interval_vector_instance,
}


class TestPartialSumAccumulator:
    """The in-place partial sum has the bits and dtype of
    0.0*h0 + h0 + P h0 + ... added one term at a time."""

    @staticmethod
    def _reference(inst, steps):
        ref = 0.0 * inst.h0.values
        term = inst.h0
        for _ in range(steps):
            ref = ref + term.values
            term = inst.apply(term)
        return ref

    @pytest.mark.parametrize("name", sorted(_ACCUMULATOR_INSTANCES))
    @pytest.mark.parametrize("max_steps", [0, 1, 2, None])
    def test_same_bits_as_term_by_term_sum(self, name, max_steps):
        inst = _ACCUMULATOR_INSTANCES[name]()
        if max_steps is None:
            solution, trace = solve_elementary(inst)
            assert trace.stop_reason == "tolerance"
        else:
            solution, trace = solve_elementary(inst, max_steps=max_steps)
            assert trace.m_stop == max_steps
        want = self._reference(inst, trace.m_stop)
        assert solution.values.dtype == want.dtype
        if name == "complex":  # real h0: S_0 and S_1 are real, S_2 on complex
            assert solution.values.dtype.kind == "fc"[trace.m_stop >= 2]
        assert solution.values.shape == want.shape
        assert solution.values.tobytes() == want.tobytes()
        if trace.m_stop == 1:  # S_1 = 0.0*h0 + h0 = h0, -0.0 cells included
            assert solution.values.tobytes() == inst.h0.values.tobytes()

    def test_solution_and_apply_are_read_only(self):
        inst = _two_interval_vector_instance()
        solution, _ = solve_elementary(inst, max_steps=3)
        for f in (solution, inst.apply(inst.h0), inst.apply(solution)):
            assert not f.values.flags.writeable
            with pytest.raises(ValueError):
                f.values[0, 0] = 1.0

    def test_overflow_in_the_sum_raises(self):
        # Each term is finite, S_3 = (1 + 0.45 + 0.45**2) * 1.2e308 is not.
        inst = make_doubling_instance(
            m=8, alpha=0.45, g=0.45,
            h0=SampledFn.constant(Domain.unit_interval(), 8, 1.2e308))
        with pytest.raises(GridError, match="must be finite"), \
                np.errstate(over="ignore"):
            solve_elementary(inst, max_steps=3)


class TestTraceSerialization:
    def test_csv_shape_and_header(self):
        inst = make_doubling_instance(m=64)
        _, trace = solve_elementary(inst)
        lines = _csv_lines(trace)
        assert lines[0] == "m,term_norm,partial_norm,tail_bound,residual"
        assert len(lines) == trace.m_stop + 2
        fields = [line.split(",") for line in lines[1:]]
        for m, row in enumerate(fields[:-1]):
            assert row[0] == str(m) and row[1] and row[3]
            assert row[2] == row[4] == ""
        last = trace.rows[-1]
        assert fields[-1] == [str(last.m), repr(last.term_norm),
                              repr(last.partial_norm), repr(last.tail_bound),
                              repr(last.residual_norm)]

    def test_forced_run_serializes(self):
        inst = make_doubling_instance(m=64, alpha=0.2)
        _, trace = solve_elementary(inst, force=True)
        lines = _csv_lines(trace)
        assert len(lines) == trace.m_stop + 2
        assert all(lines[-1].split(","))

    def test_zero_steps_serializes(self):
        inst = make_doubling_instance(m=64)
        solution, trace = solve_elementary(inst, max_steps=0)
        lines = _csv_lines(trace)
        assert len(lines) == 2
        row = trace.rows[0]
        assert lines[1] == ",".join(
            ["0", repr(trace.h0_norm), "0.0", repr(row.tail_bound),
             repr(residual(solution, inst).value)])
        assert row.residual_norm == row.term_norm == trace.h0_norm

    def test_divergence_rows_serialize(self):
        inst = make_doubling_instance(m=64, g=1.2, alpha=0.3)
        with pytest.raises(DivergenceError) as err:
            solve_elementary(inst, force=True)
        trace = IterationTrace(
            instance_label=inst.label, psi_label=inst.psi_label,
            alpha=inst.alpha, tol=1.0, h0_norm=err.value.rows[0].term_norm,
            rows=err.value.rows, stop_reason="diverged", audit_passed=False)
        lines = _csv_lines(trace)
        assert len(lines) == len(err.value.rows) + 1
        for line in lines[1:]:
            row = line.split(",")
            assert len(row) == 5 and row[2] == row[4] == ""

    def test_certificate_fields(self):
        inst = make_doubling_instance(m=64)
        _, trace = solve_elementary(inst)
        text = trace.certificate_text()
        for key in ("instance =", "alpha =", "tol =", "steps =",
                    "stop_reason = tolerance", "verdict = PASS",
                    "audit = PASS"):
            assert key in text


def _csv_lines(trace):
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue().splitlines()


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
