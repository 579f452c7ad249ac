import decimal
import gc
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorsolve import (
    Domain,
    NormError,
    ROUTES,
    SampledFn,
    axiom_suite,
    check_orlicz_lorentz_bridge,
    default_test_sets,
    derive_tau,
    distribution,
    grids,
    lorentz_norm,
    luxemburg_norm,
    monomial_young,
    norms,
    orlicz_modular,
    pointwise_norm,
    power_young,
    seeded_corpus,
)

SQRT2 = math.sqrt(2.0)


class TestLorentzRoutes:
    @pytest.mark.parametrize("route", ROUTES)
    def test_full_indicator_is_sqrt2(self, unit, tau2, route):
        chi = SampledFn.constant(unit, 64, 1.0)
        got = lorentz_norm(chi, tau2, route).value
        assert got == pytest.approx(SQRT2, rel=1e-9)

    @pytest.mark.parametrize("route", ROUTES)
    def test_quarter_indicator(self, unit, tau2, route):
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        # tau_inv(1/4) * 1 = sqrt(1/2)
        got = lorentz_norm(chi, tau2, route).value
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-9)

    @pytest.mark.parametrize("route", ROUTES)
    def test_linear_profile_analytic(self, unit, tau2, route):
        f = SampledFn.from_callable(unit, 4096, lambda x: x)
        got = lorentz_norm(f, tau2, route).value
        assert got == pytest.approx(2.0 * SQRT2 / 3.0, rel=1e-3)

    def test_routes_agree_on_rough_data(self, unit, tau2):
        rng = np.random.default_rng(3)
        f = SampledFn(unit, 512, rng.normal(size=512) * 3.0)
        vals = [lorentz_norm(f, tau2, r).value for r in ROUTES]
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread <= 1e-9

    def test_rearrangement_invariance(self, unit, tau2):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.0, 2.0, 256)
        f = SampledFn(unit, 256, vals)
        g = SampledFn(unit, 256, np.sort(vals))
        a = lorentz_norm(f, tau2).value
        b = lorentz_norm(g, tau2).value
        assert a == b  # identical distributions give identical sums

    def test_multi_box_domain(self, tau2):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        f = SampledFn.constant(d, 32, 1.0)
        assert lorentz_norm(f, tau2).value == pytest.approx(
            math.sqrt(2 * 0.75), rel=1e-12
        )

    def test_unknown_route_rejected(self, unit, tau2):
        f = SampledFn.zeros(unit, 16)
        for route in ("nope", "rearrangement_weight"):
            with pytest.raises(NormError):
                lorentz_norm(f, tau2, route)

    def test_zero_function(self, unit, tau2):
        f = SampledFn.zeros(unit, 16)
        for route in ROUTES:
            assert lorentz_norm(f, tau2, route).value == 0.0

    def test_norm_value_metadata(self, unit, tau2):
        f = SampledFn.constant(unit, 16, 1.0)
        nv = lorentz_norm(f, tau2)
        assert nv.route == "distribution"
        assert float(nv) == nv.value

    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_other_exponents_on_indicator(self, unit, m):
        # ||chi_E|| = tau_inv(mu E) = (m * mu E)^(1/m)
        tau = derive_tau(power_young(m))
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.5)])
        want = (m * 0.5) ** (1.0 / m)
        for route in ROUTES:
            got = lorentz_norm(chi, tau, route).value
            assert got == pytest.approx(want, rel=1e-9)


class TestVectorNorm:
    def test_three_four_five_scaled(self, unit, tau2):
        vals = np.tile([3.0, 4.0], (64, 1))
        f = SampledFn(unit, 64, vals)
        for route in ROUTES:
            got = lorentz_norm(f, tau2, route).value
            assert got == pytest.approx(5.0 * SQRT2, rel=1e-12)

    def test_scalar_passthrough(self, unit, tau2):
        f = SampledFn.constant(unit, 16, 2.0)
        assert lorentz_norm(f, tau2).value == pytest.approx(
            2.0 * SQRT2, rel=1e-12
        )

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("grid", ["unit", "unequal"])
    @pytest.mark.parametrize("seed", range(8))
    def test_vector_norm_is_the_norm_of_its_length(self, seed, grid, route):
        # One cell width, and unequal widths; 1 to 4 components.
        domain = _LADDER_DOMAINS[grid]
        rng = np.random.default_rng(seed)
        d = 1 + seed % 4
        f = SampledFn(domain, 97, rng.uniform(-2.0, 2.0,
                                              (len(domain.boxes) * 97, d)))
        tau = derive_tau(power_young(_EXPONENTS[seed % len(_EXPONENTS)]))
        assert _same_bits(lorentz_norm(f, tau, route).value,
                          lorentz_norm(pointwise_norm(f), tau, route).value)


# One cell width on each grid but the last; 1/3 is not dyadic.
_LADDER_DOMAINS = {
    "unit": Domain.unit_interval(),
    "third": Domain.interval(0.0, 1.0 / 3.0),
    "two-equal": Domain.from_intervals([(0.0, 0.5), (2.0, 2.5)]),
    "unequal": Domain.from_intervals([(0.0, 1.0), (2.0, 2.5)]),
}
_EXPONENTS = (1.3, 1.7, 2.0, 3.0)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _ladder_case(kind, domain, m, rng):
    """A function of the given kind, and whether its norm takes the ladder:
    whether every cell of its grid has one width."""
    n = len(domain.boxes) * m
    one_width = len({(hi - lo) / m for lo, hi in domain.boxes}) == 1
    if kind == "distinct":
        vals = rng.uniform(0.5, 2.0, n)
    elif kind == "distinct-with-zero":
        vals = rng.uniform(0.5, 2.0, n)
        vals[rng.integers(n)] = 0.0
    elif kind == "ties":
        vals = rng.integers(0, 3, n) / 4.0
    elif kind == "zero":
        vals = np.zeros(n)
    elif kind == "vector":
        vals = rng.uniform(-1.0, 1.0, (n, 3))
    else:  # complex
        vals = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return SampledFn(domain, m, vals), one_width


def _reference(f, tau):
    g = pointwise_norm(f) if f.is_vector else f
    return distribution(g).lorentz_integral(tau.inverse)


class TestDistributionLadder:
    """The distribution route reads tau^-1 of a cached measure ladder on
    every one-width grid, ties included; its value must keep the bits of
    ``distribution(f).lorentz_integral(tau.inverse)`` on every grid."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(("distinct", "distinct-with-zero", "ties", "zero",
                            "vector", "complex")),
           st.sampled_from(sorted(_LADDER_DOMAINS)),
           st.integers(1, 300), st.sampled_from(_EXPONENTS))
    @example(seed=0, kind="distinct", grid="unit", m=1, exponent=2.0)
    @example(seed=0, kind="zero", grid="unit", m=1, exponent=2.0)
    @example(seed=0, kind="distinct-with-zero", grid="third", m=1024,
             exponent=1.7)
    @example(seed=1, kind="distinct", grid="third", m=1021, exponent=3.0)
    @example(seed=2, kind="ties", grid="third", m=1024, exponent=1.7)
    def test_value_has_the_bits_of_the_step_distribution(
            self, seed, kind, grid, m, exponent):
        f, takes_ladder = _ladder_case(kind, _LADDER_DOMAINS[grid], m,
                                       np.random.default_rng(seed))
        tau = derive_tau(power_young(exponent))
        got = lorentz_norm(f, tau).value
        assert _same_bits(got, _reference(f, tau))
        assert (norms._ladder[0] is tau) == takes_ladder

    @pytest.mark.parametrize("kind", ["distinct", "ties", "vector"])
    @pytest.mark.parametrize("grid", sorted(_LADDER_DOMAINS))
    def test_every_norm_sorts_once(self, monkeypatch, kind, grid):
        calls = []

        def levels(f):
            calls.append(f.ncells)
            return grids_levels(f)

        grids_levels = grids._levels
        monkeypatch.setattr(grids, "_levels", levels)
        monkeypatch.setattr(norms, "_levels", levels)
        domain = _LADDER_DOMAINS[grid]
        f, one_width = _ladder_case(kind, domain, 100,
                                    np.random.default_rng(5))
        tau = derive_tau(power_young(2.0))
        lorentz_norm(f, tau)
        assert calls == [len(domain.boxes) * 100]
        assert (norms._ladder[0] is tau) == one_width  # ties included

    def test_alternating_exponents_on_one_grid(self, unit):
        rng = np.random.default_rng(6)
        fs = [SampledFn(unit, 777, rng.uniform(size=777)) for _ in range(3)]
        taus = [derive_tau(power_young(1.5)), derive_tau(power_young(3.0))]
        for _ in range(3):
            for tau in taus:
                for f in fs:
                    assert _same_bits(lorentz_norm(f, tau).value,
                                      _reference(f, tau))

    def test_two_widths_at_one_cell_count(self):
        rng = np.random.default_rng(8)
        tau = derive_tau(power_young(2.0))
        fs = [SampledFn(_LADDER_DOMAINS[grid], 512, rng.uniform(size=512))
              for grid in ("unit", "third", "unit")]
        for f in fs:
            assert _same_bits(lorentz_norm(f, tau).value, _reference(f, tau))

    def test_a_new_tau_never_meets_a_stale_ladder(self, unit):
        # A cache keyed on id(tau) would hand a freed TauFn's ladder to a
        # new TauFn built at the same address.
        f = SampledFn(unit, 333, np.random.default_rng(7).uniform(size=333))
        for exponent in (2.0, 3.0, 1.5, 2.0, 1.3, 3.0):
            tau = derive_tau(power_young(exponent))
            assert _same_bits(lorentz_norm(f, tau).value, _reference(f, tau))
            del tau
            gc.collect()

    def test_threads_sharing_the_cache(self):
        # Six threads on two cores replace the one cached ladder with their
        # own (tau, width, cell count) at every switch.
        cases = []
        for i, exponent in enumerate((1.5, 2.0, 3.0) * 2):
            domain = _LADDER_DOMAINS[("unit", "third")[i % 2]]
            f = SampledFn(domain, 257 + i % 3,
                          np.random.default_rng(i).uniform(size=257 + i % 3))
            tau = derive_tau(power_young(exponent))
            cases.append((f, tau, _reference(f, tau)))
        wrong = []

        def work(f, tau, want):
            for _ in range(200):
                if not _same_bits(lorentz_norm(f, tau).value, want):
                    wrong.append(tau.label)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=case)
                       for case in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("grid", ["unit", "two-equal", "unequal"])
    def test_overflowing_magnitude_keeps_the_grid_error(self, grid):
        domain = _LADDER_DOMAINS[grid]
        n = len(domain.boxes) * 16
        vals = np.linspace(1.0, 2.0, n) + 0j
        vals[-1] = 1.5e308 + 1.5e308j  # |value| overflows to inf
        f = SampledFn(domain, 16, vals)
        vector = np.stack([vals.real, vals.imag], axis=1)
        g = SampledFn(domain, 16, vector)  # so does its pointwise length
        tau = derive_tau(power_young(2.0))
        with pytest.raises(grids.GridError, match="thresholds must be finite"):
            distribution(f)
        with pytest.raises(grids.GridError, match="thresholds must be finite"):
            lorentz_norm(f, tau)
        # The length is refused as a cell value, with no warning.
        with pytest.raises(grids.GridError, match="values must be finite"):
            lorentz_norm(g, tau)

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("grid", ["0.3", "1/3"])
    def test_within_3_ulp_of_a_50_digit_reference(self, grid, seed):
        # Measures rounded once from the float cell width: a running sum of
        # it would miss by up to 10 ulp on these grids.
        m = 512
        domain = Domain.interval(0.0, 0.3 if grid == "0.3" else 1.0 / 3.0)
        vals = np.random.default_rng(seed).uniform(size=m)
        got = lorentz_norm(SampledFn(domain, m, vals),
                           derive_tau(power_young(2.0))).value
        lo, hi = domain.boxes[0]
        mags = np.sort(vals)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            w = decimal.Decimal((hi - lo) / m)
            want, below = decimal.Decimal(0), decimal.Decimal(0)
            for i, level in enumerate(mags):
                # tau^-1(s) = sqrt(2 s) for power[m=2]
                gap = decimal.Decimal(level) - below
                want += (2 * (m - i) * w).sqrt() * gap
                below = decimal.Decimal(level)
        want = float(want)
        assert abs(got - want) <= 3 * np.spacing(want)


class TestLuxemburg:
    def test_quarter_indicator_exact(self, unit):
        psi = monomial_young(2.0)
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        # modular(chi / t) = (1/4) / t^2 = 1 at t = 1/2
        assert luxemburg_norm(chi, psi).value == 0.5

    def test_linear_profile(self, unit):
        psi = monomial_young(2.0)
        f = SampledFn.from_callable(unit, 1024, lambda x: x)
        # continuum value 1/sqrt(3); discretization shifts it by O(M^-2)
        assert luxemburg_norm(f, psi).value == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-6
        )

    def test_zero_function(self, unit):
        assert luxemburg_norm(SampledFn.zeros(unit, 16),
                              monomial_young(2.0)).value == 0.0

    def test_result_is_feasible(self, unit):
        psi = monomial_young(3.0)
        rng = np.random.default_rng(9)
        f = SampledFn(unit, 128, rng.uniform(0.0, 5.0, 128))
        t = luxemburg_norm(f, psi).value
        assert orlicz_modular(f, psi, scale=t) <= 1.0 + 1e-12

    def test_homogeneity(self, unit):
        psi = monomial_young(2.0)
        rng = np.random.default_rng(10)
        f = SampledFn(unit, 128, rng.uniform(0.0, 2.0, 128))
        assert luxemburg_norm(3.0 * f, psi).value == pytest.approx(
            3.0 * luxemburg_norm(f, psi).value, rel=1e-9
        )


class TestModular:
    def test_exact_cell_sum(self, unit):
        psi = monomial_young(2.0)
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        assert orlicz_modular(chi, psi) == 0.25
        assert orlicz_modular(chi, psi, scale=0.5) == 1.0

    def test_vector_input_reduces(self, unit):
        psi = monomial_young(2.0)
        vals = np.tile([3.0, 4.0], (64, 1))
        f = SampledFn(unit, 64, vals)
        assert orlicz_modular(f, psi) == pytest.approx(25.0, rel=1e-12)


class TestBridge:
    def test_quarter_indicator_passes(self, unit, psi2):
        chi = SampledFn.indicator(unit, 256, [(0.0, 0.25)])
        rep = check_orlicz_lorentz_bridge(chi, monomial_young(2.0), psi2)
        assert rep.verdict == "PASS"
        assert rep.gate_passed
        assert rep.modular == 0.25
        assert rep.lorentz == pytest.approx(math.sqrt(0.5), rel=1e-9)
        assert rep.orlicz == pytest.approx(0.5, rel=1e-9)
        assert rep.slack == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-6)

    def test_gate_closed_gives_no_claim(self, unit, psi2):
        big = SampledFn.constant(unit, 64, 3.0)  # modular 9 > 1
        rep = check_orlicz_lorentz_bridge(big, monomial_young(2.0), psi2)
        assert rep.verdict == "NO_CLAIM"
        assert not rep.gate_passed

    def test_report_text(self, unit, psi2):
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        text = check_orlicz_lorentz_bridge(
            chi, monomial_young(2.0), psi2
        ).as_text()
        assert "verdict = PASS" in text
        assert "modular" in text


class TestAxiomSuite:
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_seeded_corpus_passes(self, unit, m):
        tau = derive_tau(power_young(m))
        corpus = seeded_corpus(unit, 256, 40, seed=2026)
        rep = axiom_suite(tau, corpus, default_test_sets(unit))
        assert rep.passed, rep.as_text()

    def test_averaging_constants_within_analytic_bound(self, unit, tau2):
        corpus = seeded_corpus(unit, 256, 24, seed=1)
        rep = axiom_suite(tau2, corpus, default_test_sets(unit))
        for label, measure, c_emp, c_an in rep.constants:
            assert c_emp <= c_an * (1 + 1e-9)
        # full unit interval with psi_2: C_an = integral_0^1 ds/sqrt(2s) = sqrt(2)/...
        full = rep.constants[0]
        assert full[3] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_rejects_vector_corpus(self, unit, tau2):
        f = SampledFn(unit, 16, np.ones((16, 2)))
        with pytest.raises(NormError):
            axiom_suite(tau2, [f], default_test_sets(unit))

    def test_rejects_negative_corpus(self, unit, tau2):
        f = SampledFn.constant(unit, 16, -1.0)
        with pytest.raises(NormError):
            axiom_suite(tau2, [f], default_test_sets(unit))

    def test_report_lists_all_axioms(self, unit, tau2):
        corpus = seeded_corpus(unit, 64, 8, seed=3)
        rep = axiom_suite(tau2, corpus, default_test_sets(unit))
        names = [name for name, ok, detail in rep.axioms]
        assert names == [
            "P1_definiteness",
            "P1_homogeneity",
            "P1_triangle",
            "P2_monotone",
            "P3_monotone_convergence",
            "P4_indicator_finite",
            "P5_averaging_bound",
        ]


class TestSeededCorpus:
    def test_deterministic(self, unit):
        a = seeded_corpus(unit, 64, 12, seed=7)
        b = seeded_corpus(unit, 64, 12, seed=7)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_seed_changes_content(self, unit):
        a = seeded_corpus(unit, 64, 12, seed=7)
        b = seeded_corpus(unit, 64, 12, seed=8)
        assert not np.array_equal(a[0].values, b[0].values)

    def test_nonnegative_and_sized(self, unit):
        corpus = seeded_corpus(unit, 64, 9, seed=0)
        assert len(corpus) == 9
        assert all(np.all(f.values >= 0) for f in corpus)
