import numpy as np
import pytest

from lorsolve import (
    Domain,
    InstanceError,
    ProblemInstance,
    SampledFn,
    affine_map,
    audit_contraction,
    doubling_map,
    estimate_multiplicity,
    estimate_overlap_L,
    identity_map,
    power_young,
    tent3_map,
)
from lorsolve.transfer import _max_depth
from conftest import make_doubling_instance, make_twobranch_instance


class TestApply:
    def test_constant_input(self):
        inst = make_doubling_instance(m=64)
        out = inst.apply(SampledFn.constant(inst.domain, 64, 1.0))
        assert np.all(out.values == 0.25)

    def test_matches_direct_lookup(self):
        inst = make_doubling_instance(m=128)
        rng = np.random.default_rng(2)
        phi = SampledFn(inst.domain, 128, rng.normal(size=128))
        out = inst.apply(phi)
        y = np.mod(2.0 * phi.midpoints, 1.0)
        want = 0.25 * phi.values[phi.cell_index_of(y)]
        assert np.array_equal(out.values, want)

    def test_linearity(self):
        inst = make_twobranch_instance(m=64)
        rng = np.random.default_rng(3)
        phi = SampledFn(inst.domain, 64, rng.normal(size=64))
        chi = SampledFn.indicator(inst.domain, 64, [(0.25, 0.75)])
        left = inst.apply(2.0 * phi + 3.0 * chi)
        right = 2.0 * inst.apply(phi) + 3.0 * inst.apply(chi)
        assert np.allclose(left.values, right.values, rtol=1e-13)

    def test_two_branch_sum(self):
        inst = make_twobranch_instance(m=64)
        out = inst.apply(SampledFn.constant(inst.domain, 64, 1.0))
        assert np.all(out.values == 0.25)  # 1/8 + 1/8

    def test_vector_input(self):
        inst = make_doubling_instance(m=64)
        vals = np.zeros((64, 3))
        vals[:, 0] = 1.0
        out = inst.apply(SampledFn(inst.domain, 64, vals))
        assert out.is_vector
        assert np.all(out.values[:, 0] == 0.25)
        assert np.all(out.values[:, 1:] == 0.0)

    def test_complex_coefficient(self):
        inst = make_doubling_instance(m=64, g=0.25j)
        out = inst.apply(SampledFn.constant(inst.domain, 64, 1.0))
        assert np.all(out.values == 0.25j)

    @pytest.mark.parametrize("kind", ["scalar", "vector", "complex_g",
                                      "complex_phi", "vector5",
                                      "vector_fortran"])
    def test_matches_reference_loop(self, kind):
        m = 64
        domain = Domain.unit_interval()
        maps = (doubling_map(), affine_map([(0.0, 1.0, 0.5, 0.25)]))
        g_fns = [lambda x: 0.1 + 0.05 * x, lambda x: 0.2 - 0.1 * x * x]
        if kind == "complex_g":
            g_fns = [lambda x: 0.1 + 0.05j * x, lambda x: 0.2j - 0.1 * x]
        coeffs = [SampledFn.from_callable(domain, m, g) for g in g_fns]
        inst = ProblemInstance(domain=domain, maps=maps, coeffs=coeffs,
                               h0=SampledFn.constant(domain, m, 1.0), K_decl=2,
                               L_decl=2, alpha=0.25, psi=power_young(2.0))
        rng = np.random.default_rng(4)
        shape = {"vector": (m, 3), "vector5": (m, 5),
                 "vector_fortran": (m, 4)}.get(kind, m)
        vals = rng.normal(size=shape)
        if kind == "complex_phi":
            vals = vals + 1j * rng.normal(size=shape)
        if kind == "vector_fortran":
            vals = np.asfortranarray(vals)
        phi = SampledFn(domain, m, vals)
        if phi.is_vector:
            assert phi.values.flags.c_contiguous != (kind == "vector_fortran")
        want = 0.0
        for F, g in zip(maps, coeffs):
            idx = phi.cell_index_of(F(phi.midpoints))
            assert np.all(idx >= 0)
            weight = g.values[:, None] if phi.is_vector else g.values
            want = want + weight * phi.values[idx]
        out = inst.apply(phi).values
        assert out.dtype == want.dtype
        assert out.tobytes() == want.tobytes()

    def test_wrong_grid_rejected(self):
        inst = make_doubling_instance(m=64)
        with pytest.raises(InstanceError):
            inst.apply(SampledFn.constant(inst.domain, 128, 1.0))


class TestInstanceValidation:
    def test_alpha_must_allow_contraction(self):
        with pytest.raises(InstanceError):
            make_doubling_instance(alpha=0.5)
        with pytest.raises(InstanceError):
            make_doubling_instance(alpha=-0.1)

    def test_multiplicity_declaration_bounds(self, unit):
        h0 = SampledFn.constant(unit, 32, 1.0)
        g = SampledFn.constant(unit, 32, 0.25)
        psi = power_young(2.0)
        with pytest.raises(InstanceError):
            ProblemInstance(unit, (doubling_map(),), (g,), h0,
                            K_decl=0, L_decl=1, alpha=0.25, psi=psi)
        with pytest.raises(InstanceError):
            ProblemInstance(unit, (doubling_map(),), (g,), h0,
                            K_decl=2, L_decl=2, alpha=0.25, psi=psi)

    def test_non_piecewise_map_rejected(self, unit):
        h0 = SampledFn.constant(unit, 32, 1.0)
        g = SampledFn.constant(unit, 32, 0.25)
        with pytest.raises(InstanceError, match="not a PiecewiseMap"):
            ProblemInstance(unit, (lambda x: x,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.25, psi=power_young(2.0))

    def test_empty_maps_rejected(self, unit):
        h0 = SampledFn.constant(unit, 32, 1.0)
        with pytest.raises(InstanceError):
            ProblemInstance(unit, (), (), h0, K_decl=1, L_decl=1,
                            alpha=0.25, psi=power_young(2.0))

    def test_map_not_covering_domain_rejected(self, unit):
        partial = affine_map([(0.0, 0.5, 1.0, 0.0)], label="partial")
        h0 = SampledFn.constant(unit, 32, 1.0)
        g = SampledFn.constant(unit, 32, 0.25)
        with pytest.raises(InstanceError):
            ProblemInstance(unit, (partial,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.25, psi=power_young(2.0))

    def test_callable_coeff_is_sampled(self, unit):
        h0 = SampledFn.constant(unit, 32, 1.0)
        inst = ProblemInstance(
            unit, (identity_map(),), (lambda x: 0.1 * x,), h0,
            K_decl=1, L_decl=1, alpha=0.25, psi=power_young(2.0),
        )
        assert isinstance(inst.coeffs[0], SampledFn)
        assert inst.coeffs[0].values[0] == pytest.approx(0.1 / 64, rel=1e-12)


class TestOutsideImages:
    def test_tiny_excursion_is_clamped(self, unit):
        # slope sized so only the top midpoint's image exceeds 1, by ~1e-13
        # (below the clamp tolerance): accepted and counted
        top_mid = 1.0 - 0.5 / 64
        slope = (1.0 + 1e-13) / top_mid
        drift = affine_map([(0.0, 1.0, slope, 0.0)], label="drift")
        h0 = SampledFn.constant(unit, 64, 1.0)
        g = SampledFn.constant(unit, 64, 0.25)
        inst = ProblemInstance(unit, (drift,), (g,), h0, K_decl=1,
                               L_decl=1, alpha=0.30, psi=power_young(2.0))
        assert inst.clamped_within_tol == 1
        assert inst.clamped_beyond_tol == 0
        # the clamped image resolves to the top cell
        assert inst.apply(h0).values[-1] == 0.25

    def test_large_excursion_rejected(self, unit):
        shifted = affine_map([(0.0, 1.0, 1.0, 0.01)], label="shifted")
        h0 = SampledFn.constant(unit, 512, 1.0)
        g = SampledFn.constant(unit, 512, 0.25)
        with pytest.raises(InstanceError, match="outside"):
            ProblemInstance(unit, (shifted,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.30, psi=power_young(2.0))


class TestEstimates:
    def test_multiplicity(self, unit):
        assert estimate_multiplicity(doubling_map(), domain=unit) == 2
        assert estimate_multiplicity(identity_map(), domain=unit) == 1
        assert estimate_multiplicity(tent3_map(), domain=unit) == 3

    def test_overlap_single_map(self):
        est = estimate_overlap_L((doubling_map(),))
        assert est.L == 1

    def test_overlap_identical_images(self):
        est = estimate_overlap_L((doubling_map(), doubling_map()))
        assert est.L == 2

    def test_overlap_disjoint_images(self):
        lower = affine_map([(0.0, 1.0, 0.5, 0.0)])
        upper = affine_map([(0.0, 1.0, 0.5, 0.5)])
        est = estimate_overlap_L((lower, upper))
        assert est.L == 1

    def test_overlap_witness(self):
        lower = affine_map([(0.0, 1.0, 0.5, 0.0)])   # image [0, 0.5]
        middle = affine_map([(0.0, 1.0, 0.5, 0.25)])  # image [0.25, 0.75]
        upper = affine_map([(0.0, 1.0, 0.5, 0.5)])   # image [0.5, 1]
        est = estimate_overlap_L((lower, middle, upper))
        # depth 2 first on [0.25, 0.5), where lower and middle overlap
        assert est.L == 2
        assert est.witness == ((1, 2), (0.25, 0.5))

    def test_multiplicity_ignores_what_lies_outside_the_domain(self, unit):
        # the second branch lies outside [0, 1) and maps onto it
        outside_part = affine_map([(0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 1.0, -1.0)])
        assert estimate_multiplicity(outside_part) == 2
        assert estimate_multiplicity(outside_part, domain=unit) == 1
        # the branch images [0.75, 1.25] and [1, 1.5] overlap beyond 1 only
        outside_image = affine_map([(0.0, 0.5, 1.0, 0.75), (0.5, 1.0, 1.0, 0.5)])
        assert estimate_multiplicity(outside_image) == 2
        assert estimate_multiplicity(outside_image, domain=unit) == 1


class TestMaxDepth:
    def test_touching_intervals_do_not_overlap(self):
        assert _max_depth([(0.0, 1.0), (1.0, 2.0)]) == (1, (0.0, 1.0))

    def test_empty_input(self):
        assert _max_depth([]) == (0, None)
        assert _max_depth([(1.0, 1.0)]) == (0, None)

    def test_first_deepest_segment(self):
        ivals = [(0.0, 3.0), (2.0, 4.0), (1.0, 2.5), (5.0, 6.0), (5.0, 6.0)]
        assert _max_depth(ivals) == (3, (2.0, 2.5))


class TestAudit:
    def test_doubling_passes_at_quarter(self):
        rep = audit_contraction(make_doubling_instance(m=256, alpha=0.25))
        assert rep.passed
        assert rep.feasible_alpha == 0.25
        assert rep.k_est == 2 == rep.k_decl
        assert rep.l_est == 1 == rep.l_decl

    def test_fails_below_feasible_alpha(self):
        rep = audit_contraction(make_doubling_instance(m=256, alpha=0.2))
        assert not rep.passed
        assert "cell" in rep.worst_witness
        assert rep.feasible_alpha == pytest.approx(0.25, rel=1e-12)

    def test_underdeclared_multiplicity_fails(self, unit):
        h0 = SampledFn.constant(unit, 64, 1.0)
        g = SampledFn.constant(unit, 64, 0.1)
        inst = ProblemInstance(unit, (doubling_map(),), (g,), h0,
                               K_decl=1, L_decl=1, alpha=0.45,
                               psi=power_young(2.0))
        rep = audit_contraction(inst)
        assert not rep.passed
        assert rep.k_est == 2 > rep.k_decl

    def test_narrow_branch_overlap_fails(self, unit):
        # images [0, 0.5001] and [0.5, 1]: two branches reach (0.5, 0.5001)
        narrow = affine_map([(0.0, 0.5, 1.0002, 0.0), (0.5, 1.0, 1.0, 0.0)])
        h0 = SampledFn.constant(unit, 64, 1.0)
        g = SampledFn.constant(unit, 64, 0.25)
        inst = ProblemInstance(unit, (narrow,), (g,), h0, K_decl=1,
                               L_decl=1, alpha=0.3, psi=power_young(2.0))
        rep = audit_contraction(inst)
        assert rep.feasible_alpha <= inst.alpha
        assert not rep.passed
        assert rep.k_est == 2

    def test_seventeen_maps_audit(self, unit):
        h0 = SampledFn.constant(unit, 64, 1.0)
        g = SampledFn.constant(unit, 64, 0.01)
        inst = ProblemInstance(unit, [identity_map()] * 17, [g] * 17, h0,
                               K_decl=1, L_decl=17, alpha=0.2,
                               psi=power_young(2.0))
        rep = audit_contraction(inst)
        assert rep.passed
        assert rep.l_est == 17
        assert "overlap_witness = maps [1, 2, 3," in rep.as_text()

    def test_zero_coefficient_gives_zero_ratio(self):
        inst = make_doubling_instance(m=64, g=0.0, alpha=0.0)
        rep = audit_contraction(inst)
        assert rep.passed
        assert rep.feasible_alpha == 0.0

    def test_report_text_disclaims_grid_resolution(self):
        rep = audit_contraction(make_doubling_instance(m=64))
        text = rep.as_text()
        assert "grid resolution" in text
        assert "verdict = PASS" in text

    def test_complex_coefficient_uses_magnitude(self):
        inst = make_doubling_instance(m=64, g=0.25j)
        rep = audit_contraction(inst)
        assert rep.passed
        assert rep.feasible_alpha == 0.25
