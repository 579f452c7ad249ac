import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorsolve import (
    YoungFnError,
    derive_tau,
    monomial_young,
    power_young,
    young_family,
)
from lorsolve.young import YoungFn


class TestPowerFamily:
    def test_point_values(self):
        psi = power_young(2.0)
        assert psi(1.0) == 2.0
        assert psi(0.0) == 0.0
        assert psi.inverse(2.0) == 1.0

    def test_inverse_roundtrip(self):
        psi = power_young(3.0)
        t = np.geomspace(1e-6, 1e6, 200)
        back = psi.inverse(psi(t))
        assert np.allclose(back, t, rtol=1e-12)

    def test_rejects_exponent_at_most_one(self):
        for m in (1.0, 0.5, float("inf"), float("nan")):
            with pytest.raises(YoungFnError, match="power family"):
                power_young(m)

    def test_vector_input(self):
        psi = power_young(2.0)
        out = psi(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[2] == 8.0


class TestMonomialFamily:
    def test_point_values(self):
        psi = monomial_young(2.0)
        assert psi(2.0) == 4.0
        assert psi.inverse(4.0) == 2.0

    def test_linear_case_is_allowed(self):
        psi = monomial_young(1.0)
        assert psi(3.0) == 3.0

    def test_rejects_exponent_below_one(self):
        for p in (0.9, float("inf"), float("nan")):
            with pytest.raises(YoungFnError, match="monomial family"):
                monomial_young(p)


class TestFamilyRegistry:
    def test_lookup(self):
        psi = young_family("power", 2.0)
        assert psi(1.0) == 2.0

    def test_unknown_family(self):
        with pytest.raises(YoungFnError):
            young_family("nope", 2.0)

    def test_admissibility_gate(self):
        young_family("power", 2.0, require_admissible=True)
        with pytest.raises(YoungFnError):
            young_family("monomial", 2.0, require_admissible=True)


class TestTauTransform:
    def test_definition_identity(self, psi2, tau2):
        # tau(t) = 1 / psi(1/t)
        t = np.geomspace(1e-4, 1e4, 101)
        assert np.allclose(tau2(t), 1.0 / psi2(1.0 / t), rtol=1e-12)

    def test_power_two_closed_forms(self, tau2):
        assert tau2(2.0) == pytest.approx(2.0, rel=1e-14)  # t^2 / 2
        assert tau2.inverse(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_at_zero(self, tau2):
        assert tau2.inverse(0.0) == 0.0
        assert tau2.inverse(np.array([0.0, 0.5]))[0] == 0.0

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_inverse_positive_fast_path_bit_for_bit(self, m):
        psi = power_young(m)
        tau = derive_tau(psi)
        rng = np.random.default_rng(7)
        s = np.concatenate([np.geomspace(1e-12, 1e12, 301),
                            rng.uniform(size=4096), [1.0]])
        masked = np.zeros_like(s)
        masked[s > 0] = 1.0 / psi.inv(1.0 / s[s > 0])
        got = tau.inverse(s)
        assert got.dtype == masked.dtype and got.shape == s.shape
        assert got.tobytes() == masked.tobytes()
        # Zeros take the masked path: 0 there, the same bits elsewhere.
        z = s.copy()
        z[::3] = 0.0
        got = tau.inverse(z)
        assert np.all(got[::3] == 0.0)
        keep = np.ones(s.size, dtype=bool)
        keep[::3] = False
        assert got[keep].tobytes() == masked[keep].tobytes()

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_inverse_empty_and_zero_d(self, m):
        psi = power_young(m)
        tau = derive_tau(psi)
        empty = tau.inverse(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        for s in (0.0, np.float64(0.0), np.array(0.0)):
            got = tau.inverse(s)
            assert type(got) is float and got == 0.0
        want = float((1.0 / psi.inv(1.0 / np.array([0.25])))[0])
        for s in (0.25, np.float64(0.25), np.array(0.25)):
            got = tau.inverse(s)
            assert type(got) is float and got == want
        assert tau.inverse(np.zeros((2, 3))).tolist() == [[0.0] * 3] * 2

    @pytest.mark.parametrize("m", [39.0, 400.0, 1e6])
    def test_large_exponent_is_defined(self, m):
        # psi(1/t) overflows at t = 1e-8; tau^-1 never evaluates it.
        tau = derive_tau(power_young(m))
        assert tau.inverse(0.5) == pytest.approx((m * 0.5) ** (1.0 / m),
                                                 rel=1e-14)

    @pytest.mark.parametrize("m", [39.0, 400.0, 1e6])
    def test_forward_tau_where_psi_overflows(self, m):
        # psi(1/t) = m * t**-m is inf at t = 1e-8, so tau is 0 there; the
        # tier-1 run turns numpy's overflow warning into an error.
        tau = derive_tau(power_young(m))
        got = tau(1e-8)
        assert type(got) is float and got == 0.0
        assert tau(np.array([0.0, 1e-8, 1.0])).tolist() == [0.0, 0.0, 1.0 / m]

    def test_forward_tau_where_psi_underflows(self):
        # psi(1/2) = 1e6 * 2**-1e6 underflows to 0, so tau(2) is inf.
        tau = derive_tau(power_young(1e6))
        assert tau(2.0) == np.inf
        assert tau(np.array([2.0, 1.0])).tolist() == [np.inf, 1e-6]

    @pytest.mark.parametrize("inv, value", [
        (lambda v: np.zeros_like(np.asarray(v, dtype=float)), "0.0"),
        (lambda v: np.where(np.asarray(v) < 1.0, np.inf, 1.0), "inf"),
    ], ids=["zero", "infinite"])
    def test_degenerate_inverse_refused(self, inv, value):
        psi = YoungFn(label="odd", fn=lambda t: np.asarray(t, dtype=float) ** 2,
                      inv=inv)
        with pytest.raises(YoungFnError,
                           match=rf"odd: psi\^-1\(1/s\) = {value} at s = "):
            derive_tau(psi)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.floats(min_value=1.1, max_value=6.0),
        t=st.floats(min_value=1e-8, max_value=1e8),
    )
    def test_roundtrip_property(self, m, t):
        tau = derive_tau(power_young(m))
        assert tau.inverse(tau(t)) == pytest.approx(t, rel=1e-9)
