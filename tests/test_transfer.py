import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from lorsolve import (
    Branch,
    Domain,
    InstanceError,
    PiecewiseMap,
    ProblemInstance,
    SampledFn,
    affine_map,
    audit_contraction,
    bundled_instance_path,
    doubling_map,
    estimate_overlap_L,
    identity_map,
    load_instance,
    power_young,
    tent3_map,
)
from lorsolve.config import BUNDLED_INSTANCES
from lorsolve.expressions import _parse, compile_expression
from lorsolve.transfer import _max_depth
from conftest import (bench_workloads, make_doubling_instance,
                      make_twobranch_instance)


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
        with pytest.raises(InstanceError,
                           match=r"'partial'.*no branch holds \[0\.5, 1\.0\)"):
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
    def test_tiny_excursion_is_refused(self, unit):
        # slope sized so only the top midpoint's image exceeds 1, by ~1e-13;
        # the map's image reaches about 1.0079, so it is no self-map
        top_mid = 1.0 - 0.5 / 64
        slope = (1.0 + 1e-13) / top_mid
        drift = affine_map([(0.0, 1.0, slope, 0.0)], label="drift")
        h0 = SampledFn.constant(unit, 64, 1.0)
        g = SampledFn.constant(unit, 64, 0.25)
        with pytest.raises(InstanceError, match="'drift'.*outside"):
            ProblemInstance(unit, (drift,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.30, psi=power_young(2.0))

    def test_large_excursion_rejected(self, unit):
        shifted = affine_map([(0.0, 1.0, 1.0, 0.01)], label="shifted")
        h0 = SampledFn.constant(unit, 512, 1.0)
        g = SampledFn.constant(unit, 512, 0.25)
        with pytest.raises(InstanceError, match="outside"):
            ProblemInstance(unit, (shifted,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.30, psi=power_young(2.0))

    def test_image_rounded_onto_top_end_lands_on_last_cell(self, unit):
        # A self-map whose image closes at 1: exactly one midpoint image
        # rounds onto 1.0, outside [0, 1), and goes to the top cell.
        m = 2**14
        quartic = PiecewiseMap([Branch(0.0, 1.0, "1 - (1 - x)^4")])
        h0 = SampledFn.constant(unit, m, 1.0)
        g = SampledFn.constant(unit, m, 0.1)
        inst = ProblemInstance(unit, (quartic,), (g,), h0, K_decl=1,
                               L_decl=1, alpha=0.25, psi=power_young(2.0))
        top = np.flatnonzero(quartic(h0.midpoints) == 1.0)
        assert top.size == 1
        assert inst._target_idx[0][top[0]] == m - 1
        assert inst.clamped_images == 1
        assert audit_contraction(inst).clamped_images == 1

    @pytest.mark.parametrize("boxes, top, accepted", [
        (((0.0, 1.0), (2.0, 2.5)), 2.25, False),
        (((0.0, 1.0), (1.0, 2.0)), 1.5, True),
    ], ids=["across-a-gap", "across-touching-boxes"])
    def test_image_spanning_two_boxes(self, boxes, top, accepted):
        # The first box goes onto [0.5, top], the second onto itself.
        domain = Domain.from_intervals(boxes)
        lo, hi = boxes[1]
        spread = affine_map([(0.0, 1.0, top - 0.5, 0.5), (lo, hi, 1.0, 0.0)],
                            label="spread")
        h0 = SampledFn.constant(domain, 64, 1.0)
        g = SampledFn.constant(domain, 64, 0.1)

        def build():
            return ProblemInstance(domain, (spread,), (g,), h0, K_decl=1,
                                   L_decl=1, alpha=0.25,
                                   psi=power_young(2.0))

        if accepted:
            assert build().clamped_images == 0
        else:
            with pytest.raises(InstanceError,
                               match=r"'spread'.*\[0\.5, 2\.25\].*outside"):
                build()


def _unit_instance(*maps, K=1, L=1):
    """Maps on [0, 1), each with the coefficient 0."""
    unit = Domain.unit_interval()
    g = SampledFn.constant(unit, 32, 0.0)
    return ProblemInstance(unit, maps, [g] * len(maps),
                           SampledFn.constant(unit, 32, 1.0), K_decl=K,
                           L_decl=L, alpha=0.25, psi=power_young(2.0))


def _overlap(*maps):
    return estimate_overlap_L(_unit_instance(*maps, L=len(maps)).piece_images)


class TestEstimates:
    def test_multiplicity(self):
        for F, k in [(doubling_map(), 2), (identity_map(), 1), (tent3_map(), 3)]:
            assert audit_contraction(_unit_instance(F, K=k)).k_est == k

    def test_overlap_single_map(self):
        assert _overlap(doubling_map()).L == 1

    def test_overlap_identical_images(self):
        assert _overlap(doubling_map(), doubling_map()).L == 2

    def test_overlap_disjoint_images(self):
        lower = affine_map([(0.0, 1.0, 0.5, 0.0)])
        upper = affine_map([(0.0, 1.0, 0.5, 0.5)])
        assert _overlap(lower, upper).L == 1

    def test_overlap_witness(self):
        lower = affine_map([(0.0, 1.0, 0.5, 0.0)])   # image [0, 0.5]
        middle = affine_map([(0.0, 1.0, 0.5, 0.25)])  # image [0.25, 0.75]
        upper = affine_map([(0.0, 1.0, 0.5, 0.5)])   # image [0.5, 1]
        est = _overlap(lower, middle, upper)
        # depth 2 first on [0.25, 0.5), where lower and middle overlap
        assert est.L == 2
        assert est.witness == ((1, 2), (0.25, 0.5))

    def test_overlap_merges_the_pieces_of_one_map(self):
        # both doubling branches map onto [0, 1]: the union is one interval
        pieces = doubling_map().piece_images([(0.0, 1.0)])
        assert pieces == [(0.0, 1.0), (0.0, 1.0)]
        assert estimate_overlap_L([pieces]) == (1, ((1,), (0.0, 1.0)))

    def test_multiplicity_ignores_what_lies_outside_the_domain(self):
        # the second branch lies outside [0, 1) and maps onto it
        outside_part = affine_map([(0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 1.0, -1.0)])
        assert audit_contraction(_unit_instance(outside_part)).k_est == 1
        # the branch images [0.75, 1.25] and [1, 1.5] reach beyond 1: the
        # instance refuses the map before any estimate
        outside_image = affine_map([(0.0, 0.5, 1.0, 0.75), (0.5, 1.0, 1.0, 0.5)])
        with pytest.raises(InstanceError, match="not a self-map"):
            _unit_instance(outside_image)

    def test_audit_evaluates_no_branch(self, monkeypatch):
        inst, _ = load_instance(bundled_instance_path("twobranch").read_text())
        want = audit_contraction(inst).as_text()

        def refuse(*args):
            raise AssertionError("the audit evaluated a branch")

        # No branch value: the audit reads only the slopes at the midpoints.
        monkeypatch.setattr(PiecewiseMap, "piece_images", refuse)
        monkeypatch.setattr(PiecewiseMap, "evaluate", refuse)
        monkeypatch.setattr(PiecewiseMap, "__call__", refuse)
        assert audit_contraction(inst).as_text() == want


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

    def test_ratio_above_alpha_by_any_margin_fails(self):
        # The bundled doubling instance with |g| 1e-14 above its declared
        # alpha = 1/4: inside the 1e-12 slack the audit once allowed.
        with open(bundled_instance_path("doubling"), encoding="utf-8") as fh:
            text = fh.read()
        assert "[coeff1]\nexpr = 0.25\n" in text
        text = text.replace("[coeff1]\nexpr = 0.25\n",
                            "[coeff1]\nexpr = 0.25000000000001\n")
        inst, _ = load_instance(text)
        rep = audit_contraction(inst)
        assert rep.feasible_alpha == 0.25000000000001 > rep.alpha == 0.25
        assert not rep.passed
        assert "verdict = FAIL" in rep.as_text()

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
        # Only a midpoint-sampled PASS is evidence at grid resolution; a
        # cell-enclosure PASS is proved on every closed cell.
        sampled = audit_contraction(
            _midpoint_sampled(make_doubling_instance(m=64))).as_text()
        assert "audit_mode = midpoint-sampled\n" in sampled
        assert "grid resolution" in sampled
        assert "verdict = PASS" in sampled
        proved = audit_contraction(make_doubling_instance(m=64)).as_text()
        assert "audit_mode = cell-enclosure\n" in proved
        assert "grid resolution" not in proved
        assert "verdict = PASS" in proved

    def test_complex_coefficient_uses_magnitude(self):
        inst = make_doubling_instance(m=64, g=0.25j)
        rep = audit_contraction(inst)
        assert rep.passed
        assert rep.feasible_alpha == 0.25


class TestExcursionFarFromZero:
    @pytest.mark.parametrize("lo", [0.0, 1e8])
    def test_top_excursion_is_refused(self, lo):
        # The top midpoint's image lies 0.25 cells above the domain; the
        # refusal must not depend on where the domain sits on the real line.
        m = 2048
        domain = Domain.interval(lo, lo + 1.0)
        shifted = affine_map([(lo, lo + 1.0, 1.0, 0.75 / m)], label="shifted")
        h0 = SampledFn.constant(domain, m, 1.0)
        g = SampledFn.constant(domain, m, 0.1)
        with pytest.raises(InstanceError, match="'shifted'.*outside"):
            ProblemInstance(domain, (shifted,), (g,), h0, K_decl=1,
                            L_decl=1, alpha=0.25, psi=power_young(2.0))


def _midpoint_sampled(inst):
    """``inst`` with each coefficient given as a callable that returns
    its sampled values: the audit has no tree to enclose and samples the
    midpoints."""
    coeffs = [lambda x, v=g.values: v for g in inst.coeffs]
    return ProblemInstance(inst.domain, inst.maps, coeffs, inst.h0,
                           inst.K_decl, inst.L_decl, inst.alpha, inst.psi,
                           label=inst.label)


def _audit_text_from_evaluate(inst):
    """``as_text()`` of the audit by the formula it had when the instance
    kept |f'| from ``F.evaluate(h0.midpoints)``: fresh arrays for each
    map, and ``np.where`` for the cells where g is 0."""
    report = audit_contraction(inst)
    x = inst.h0.midpoints
    n, kl = inst.n_maps, float(inst.K_decl * inst.L_decl)
    worst, witness, per_map = 0.0, "none", []
    for i, (F, g) in enumerate(zip(inst.maps, inst.coeffs)):
        absg = np.abs(g.values)
        absj = np.abs(F.evaluate(x)[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.maximum(kl / absj, float(n))
            ratio = np.where(absg == 0.0, 0.0, absg * factor)
        w = float(np.max(ratio))
        per_map.append(w)
        if w > worst or witness == "none":
            worst = w
            c = int(np.argmax(ratio))
            witness = (
                f"map {i + 1}, cell {c} at x = {x[c:c + 1].tolist()!r}: "
                f"|g| = {float(absg[c])!r}, |J| = {float(absj[c])!r}, "
                f"ratio = {float(ratio[c])!r}"
            )
    passed = (worst <= inst.alpha and inst.K_decl >= report.k_est
              and inst.L_decl >= report.l_est)
    return dataclasses.replace(
        report, per_map_worst=tuple(per_map), feasible_alpha=worst,
        worst_witness=witness, passed=bool(passed)).as_text()


def _flat_spot_instance(g):
    """One cubic branch whose slope is exactly 0 at the midpoint 15/32 of
    a 16-cell grid, with the coefficient ``g``."""
    unit = Domain.unit_interval()
    F = PiecewiseMap([Branch(0.0, 1.0, "0.5 + 3*(x - 0.46875)^3")])
    return ProblemInstance(unit, [F], [g], SampledFn.constant(unit, 16, 1.0),
                           K_decl=1, L_decl=1, alpha=0.25,
                           psi=power_young(2.0))


class TestAuditWorksOutTheSlopes:
    # The midpoint mode, which a coefficient without a tree takes, keeps
    # the formula and the witness it had before cells were enclosed.
    @pytest.mark.parametrize("name", BUNDLED_INSTANCES)
    def test_bundled_instances(self, name):
        inst, _ = load_instance(bundled_instance_path(name))
        inst = _midpoint_sampled(inst)
        assert audit_contraction(inst).as_text() == \
            _audit_text_from_evaluate(inst)

    @pytest.mark.parametrize("seed", [0, 23])
    def test_fourteen_maps_on_three_boxes(self, tmp_path, seed):
        bench_workloads().generate("multibox-vec", tmp_path, seed,
                                   cells=2**10)
        inst, _ = load_instance(tmp_path / "instance.cfg")
        assert (inst.n_maps, len(inst.domain.boxes)) == (14, 3)
        inst = _midpoint_sampled(inst)
        assert audit_contraction(inst).as_text() == \
            _audit_text_from_evaluate(inst)

    @pytest.mark.parametrize("g, worst", [
        # g is 0 where |J| is: 0 * inf counts as 0, and the worst cell is
        # the next one down.
        (lambda x: x - 0.46875, "cell 6 at x = [0.40625]"),
        (lambda x: 0.01 + 0.0 * x, "cell 7 at x = [0.46875]: |g| = 0.01, "
                                   "|J| = 0.0, ratio = inf"),
    ])
    def test_slope_zero_at_a_midpoint(self, g, worst):
        inst = _flat_spot_instance(g)
        assert inst.h0.midpoints[7] == 0.46875
        text = audit_contraction(inst).as_text()
        assert text == _audit_text_from_evaluate(inst)
        assert f"worst_witness = map 1, {worst}" in text


class TestInstanceMemory:
    def test_holds_what_apply_reads_and_no_more(self, tmp_path):
        # Per map, a target index (8 B) and a sampled coefficient (8 B) per
        # cell; no slopes and no midpoints.  A 14-map instance that kept
        # |f'| would hold 8 B per map and cell more, 344 KiB here.
        bench_workloads().generate("multibox-vec", tmp_path, 23,
                                   cells=2**10)
        inst, _ = load_instance(tmp_path / "instance.cfg")
        coeffs = [lambda x, k=k: (0.001 + 0.0001 * k) + 0.0 * x
                  for k in range(inst.n_maps)]
        args = (inst.domain, inst.maps, coeffs, inst.h0, inst.K_decl,
                inst.L_decl, inst.alpha, inst.psi)
        ProblemInstance(*args)      # warm every lazy import and cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = ProblemInstance(*args)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ncells = inst.h0.ncells
        assert built.n_maps * ncells == 14 * 3072
        assert held <= built.n_maps * ncells * 16 + 64 * 1024


def _certified_instances(tmp_path):
    """(name, instance) of the three bundled instances, and of the two
    generated bench workloads at full size and seeds 0 and 23."""
    for name in BUNDLED_INSTANCES:
        yield name, load_instance(bundled_instance_path(name))[0]
    workloads = bench_workloads()
    for name in ("rough-csv", "multibox-vec"):
        for seed in (0, 23):
            where = tmp_path / f"{name}-{seed}"
            workloads.generate(name, where, seed)
            yield f"{name}-{seed}", load_instance(where / "instance.cfg")[0]


def _rate_instance(branches, g, m=4):
    """One map of the given branches on (0, 1), coefficient text ``g``,
    K = L = 1, alpha = 0.45."""
    unit = Domain.unit_interval()
    F = PiecewiseMap([Branch(lo, hi, expr) for lo, hi, expr in branches])
    return ProblemInstance(unit, [F], [compile_expression(g)],
                           SampledFn.constant(unit, m, 1.0), K_decl=1,
                           L_decl=1, alpha=0.45, psi=power_young(2.0),
                           coeff_trees=[_parse(g)])


class TestCellAudit:
    def test_proved_ratio_is_at_least_the_sampled_one(self, tmp_path):
        for name, inst in _certified_instances(tmp_path):
            proved = audit_contraction(inst)
            sampled = audit_contraction(_midpoint_sampled(inst))
            assert proved.audit_mode == "cell-enclosure", name
            assert sampled.audit_mode == "midpoint-sampled", name
            assert proved.feasible_alpha >= sampled.feasible_alpha, name
            for p, s in zip(proved.per_map_worst, sampled.per_map_worst):
                assert p >= s, name
            assert proved.passed, name

    def test_bench_rates_at_seed_23(self, tmp_path):
        # The audited alpha at seed 23 lies above the midpoint value and
        # close enough to it for the step counts the rate gives.
        workloads = bench_workloads()
        for name, low, high in [("rough-csv", 0.21656525998322979, 0.2189),
                                ("multibox-vec", 0.11589103905432335,
                                 0.1187)]:
            workloads.generate(name, tmp_path / name, 23)
            inst, _ = load_instance(tmp_path / name / "instance.cfg")
            rep = audit_contraction(inst)
            assert rep.audit_mode == "cell-enclosure"
            assert low <= rep.audited_alpha < high

    @pytest.mark.parametrize("name", ["doubling", "twobranch"])
    def test_constant_coefficients_keep_a_quarter(self, name):
        inst, _ = load_instance(bundled_instance_path(name), grid=2**16)
        rep = audit_contraction(inst)
        assert rep.audit_mode == "cell-enclosure"
        assert rep.feasible_alpha == 0.25 and rep.passed

    def test_constant_coefficients_allocate_no_cell_array(self):
        # Constant g and constant slopes: one scalar ratio per branch
        # slice, and no array of one float per cell (512 KiB here).
        inst, _ = load_instance(bundled_instance_path("twobranch"),
                                grid=2**16)
        want = audit_contraction(inst)
        gc.collect()
        tracemalloc.start()
        try:
            got = audit_contraction(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < inst.h0.ncells * 8 // 8

    def test_sampled_function_coefficient_is_exact_per_cell(self):
        # A SampledFn is the weight itself, constant on each cell.
        rep = audit_contraction(make_doubling_instance(m=64, g=0.2))
        assert rep.audit_mode == "cell-enclosure"
        assert rep.feasible_alpha == rep.audited_alpha == 0.2

    def test_callable_coefficient_is_sampled(self, unit):
        h0 = SampledFn.constant(unit, 64, 1.0)
        inst = ProblemInstance(unit, (doubling_map(),),
                               (lambda x: 0.25 * (1.0 - x),), h0, K_decl=2,
                               L_decl=1, alpha=0.25, psi=power_young(2.0))
        rep = audit_contraction(inst)
        assert rep.audit_mode == "midpoint-sampled"
        assert rep.audited_alpha is None
        assert rep.feasible_alpha == 0.25 * (1.0 - 0.5 / 64)

    def test_trees_pair_with_coefficients(self, unit):
        h0 = SampledFn.constant(unit, 8, 1.0)
        with pytest.raises(InstanceError, match="1 coefficients but 2 trees"):
            ProblemInstance(unit, (doubling_map(),), (lambda x: 0.1 + 0 * x,),
                            h0, K_decl=2, L_decl=1, alpha=0.25,
                            psi=power_young(2.0),
                            coeff_trees=[("const", 0.1)] * 2)

    def test_branch_end_inside_a_cell_takes_the_worse_slope(self):
        # 0.3 cuts cell 1 = [0.25, 0.5]: its right end, where |g| = 0.05,
        # counts with the slope 1/4 of the branch on its left.
        inst = _rate_instance([(0.0, 0.3, "x/4"),
                               (0.3, 1.0, "0.075 + (x - 0.3)")], "0.1*x")
        rep = audit_contraction(inst)
        assert rep.audit_mode == "cell-enclosure"
        assert 0.2 <= rep.feasible_alpha < 0.2 * (1 + 1e-12)
        assert rep.worst_witness.startswith(
            "map 1, cell 1 on [0.25, 0.5]: |g| <= ")
        assert audit_contraction(_midpoint_sampled(inst)).feasible_alpha \
            == 0.1 * 0.875

    def test_varying_slope_is_enclosed_per_cell(self):
        # F' = 0.5 + 0.5x is least, 0.5, at the left end of cell 0.
        inst = _rate_instance([(0.0, 1.0, "0.5*x + 0.25*x^2")], "0.1", m=16)
        rep = audit_contraction(inst)
        assert rep.audit_mode == "cell-enclosure"
        assert 0.2 <= rep.feasible_alpha < 0.2 * (1 + 1e-12)
        assert "cell 0 on [0.0, 0.0625]" in rep.worst_witness
        sampled = audit_contraction(_midpoint_sampled(inst))
        assert sampled.feasible_alpha == pytest.approx(
            0.1 / (0.5 + 0.5 * (0.5 / 16)), rel=1e-15)
