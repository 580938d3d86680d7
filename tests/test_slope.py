from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from slopestab.models import IntersectionTable, MixedTable, ModelError
from slopestab.polynomials import UniPoly, integrate_definite
from slopestab.slope import (
    PositivityError,
    alpha_polys,
    df_numerator,
    mu_c,
    perturbation_limit,
    slope_mu,
    stability_scan,
)
from slopestab.toric import export_table


def table(ae, kae, epsilon, n=2, label="t"):
    return IntersectionTable(label, n, tuple(map(F, ae)), tuple(map(F, kae)), F(epsilon))


T1 = table([1, 0, -1], [-3, -1], 1)
T2 = table([4, 0, -1], [-6, -1], 2)
T3 = table([3, 1, -1], [-5, -1], 1)
P3 = table([1, 0, 0, 1], [-4, 0, 2], 1, n=3)
# a1 = 0 in dimension one makes mu and mu_c coincide identically
FLAT = table([1, 0], [-2], F(1, 2), n=1)


class TestAlphaPolys:
    def test_t1(self):
        pair = alpha_polys(T1)
        assert pair.alpha0 == UniPoly([F(1, 2), 0, F(-1, 2)])
        assert pair.alpha1 == UniPoly([F(3, 2), F(-1, 2)])

    def test_t3(self):
        pair = alpha_polys(T3)
        assert pair.alpha0 == UniPoly([F(3, 2), -1, F(-1, 2)])
        assert pair.alpha1 == UniPoly([F(5, 2), F(-1, 2)])

    def test_p3(self):
        pair = alpha_polys(P3)
        assert pair.alpha0 == UniPoly([F(1, 6), 0, 0, F(-1, 6)])
        assert pair.alpha1 == UniPoly([1, 0, F(-1, 2)])

    def test_vanishing_at_epsilon_allowed(self):
        # alpha0 of T1 has its only root exactly at epsilon = 1
        assert alpha_polys(T1).alpha0(1) == 0

    def test_interior_zero_rejected(self):
        with pytest.raises(PositivityError, match="vanishes"):
            alpha_polys(table([1, 0, -1], [-3, -1], 2))

    def test_zero_at_origin_rejected(self):
        with pytest.raises(PositivityError, match="not positive"):
            alpha_polys(table([0, 0, -1], [-3, -1], 1))


class TestMu:
    @pytest.mark.parametrize(
        "tab,expected", [(T1, 3), (T2, F(3, 2)), (T3, F(5, 3)), (P3, 6)]
    )
    def test_values(self, tab, expected):
        assert slope_mu(alpha_polys(tab)) == expected


class TestMuC:
    def test_t1_half(self):
        assert mu_c(alpha_polys(T1), F(1, 2)) == F(30, 11)

    def test_t1_closed_form(self):
        # mu_c = 3(3 - c)/(3 - c^2) for the plane through a point
        pair = alpha_polys(T1)
        for c in (F(1, 4), F(2, 3), F(1)):
            assert mu_c(pair, c) == 3 * (3 - c) / (3 - c * c)

    def test_t2_at_one(self):
        assert mu_c(alpha_polys(T2), 1) == F(15, 11)

    def test_integrals_built_once(self, monkeypatch):
        pair = alpha_polys(T1)
        first = mu_c(pair, F(1, 2))

        def fail(self):
            raise AssertionError("antiderivative rebuilt")

        monkeypatch.setattr(UniPoly, "antiderivative", fail)
        assert mu_c(pair, F(1, 2)) == first
        assert mu_c(pair, F(1, 4)) == 3 * (3 - F(1, 4)) / (3 - F(1, 16))
        df_numerator(pair)

    def test_out_of_range(self):
        pair = alpha_polys(T1)
        for c in (0, -1, 2):
            with pytest.raises(ValueError, match="outside"):
                mu_c(pair, c)


class TestDfNumerator:
    def test_t1(self):
        q, df_norm = df_numerator(alpha_polys(T1))
        assert q == UniPoly([0, 0, F(1, 2), F(-1, 2)])  # c^2 (1 - c)/2
        assert df_norm == UniPoly([0, 0, 1, -1])

    def test_t2(self):
        q, _ = df_numerator(alpha_polys(T2))
        assert q == UniPoly([0, 0, F(1, 2), F(-1, 4)])  # c^2 (2 - c)/4

    def test_t3(self):
        q, _ = df_numerator(alpha_polys(T3))
        assert q == UniPoly([0, F(1, 2), F(-1, 3), F(-5, 18)])

    def test_p3(self):
        q, _ = df_numerator(alpha_polys(P3))
        assert q == UniPoly([0, 0, 0, F(1, 4), F(-1, 4)])  # c^3 (1 - c)/4

    def test_sign_identity(self):
        # mu - mu_c = Q(c) / int_0^c alpha0, denominator positive
        for tab in (T1, T2, T3, P3):
            pair = alpha_polys(tab)
            q, _ = df_numerator(pair)
            for c in (F(1, 3), F(1, 2), pair.epsilon):
                den = integrate_definite(pair.alpha0, 0, c)
                assert den > 0
                assert slope_mu(pair) - mu_c(pair, c) == q(c) / den


class TestStabilityScan:
    def test_t1_semistable(self):
        report = stability_scan(alpha_polys(T1))
        assert report.destabilizing == ()
        assert not report.flat
        assert report.verdict(F(1, 2)) == "positive"
        assert report.verdict(1) == "zero"

    def test_p3_boundary_zero(self):
        report = stability_scan(alpha_polys(P3))
        assert report.destabilizing == ()
        assert report.verdict(1) == "zero"

    def test_t3_destabilized_near_threshold(self):
        report = stability_scan(alpha_polys(T3))
        assert len(report.destabilizing) == 1
        (iv,) = report.destabilizing
        # left endpoint brackets the irrational root 3(sqrt(6) - 1)/5
        assert not iv.left.is_exact
        assert report.Q(iv.left.lo) > 0 > report.Q(iv.left.hi)
        assert 25 * iv.left.lo**2 + 30 * iv.left.lo < 45 < (
            25 * iv.left.hi**2 + 30 * iv.left.hi
        )
        assert iv.right.is_exact and iv.right.lo == 1
        assert iv.right_closed
        assert report.verdict(F(9, 10)) == "negative"
        assert report.verdict(F(1, 2)) == "positive"

    def test_flat_case(self):
        report = stability_scan(alpha_polys(FLAT))
        assert report.flat
        assert report.Q.is_zero
        assert report.verdict(F(1, 4)) == "flat"

    def test_verdict_out_of_range(self):
        report = stability_scan(alpha_polys(T1))
        with pytest.raises(ValueError, match="outside"):
            report.verdict(0)

    @given(c=st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64))
    def test_verdict_matches_mu_comparison(self, c):
        pair = alpha_polys(T3)
        verdict = stability_scan(pair).verdict(c)
        diff = slope_mu(pair) - mu_c(pair, c)
        assert verdict == (
            "positive" if diff > 0 else "negative" if diff < 0 else "zero"
        )


class TestPerturbationLimit:
    def test_f1_big_nef(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        eps_list = [F(1, 10), F(1, 100), F(1, 1000)]
        values, limit = perturbation_limit(mx, F(1, 2), eps_list)
        assert limit == F(3, 11)
        assert values == [
            F(11740, 55627),
            F(78340900, 297099277),
            F(753259009000, 2771559317527),
        ]
        # monotone approach from below along this shrinking sequence
        assert values[0] < values[1] < values[2] < limit

    def test_self_perturbation_closed_form(self, load_model):
        # H = L: the s-family is (1+s)L, so the invariant at c rescales to
        # the base invariant at c/(1+s), divided by (1+s)
        m = load_model("p2")
        from slopestab.toric import ToricModel

        mx = export_table(
            ToricModel(m.label, m.fan, m.L, m.sigma, H=m.L)
        )
        c = F(1, 2)
        eps_list = [F(1, 2), F(1, 7)]
        values, limit = perturbation_limit(mx, c, eps_list)
        pair = alpha_polys(T1)
        for s, v in zip(eps_list, values):
            expected = (slope_mu(pair) - mu_c(pair, c / (1 + s))) / (1 + s)
            assert v == expected
        assert limit == slope_mu(pair) - mu_c(pair, c)

    def test_empty_eps_list(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        values, limit = perturbation_limit(mx, F(1, 2), [])
        assert values == [] and limit == F(3, 11)

    def test_inconsistent_slice_rejected(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError, match="^MIX j=0 slice disagrees with AE at k=0$"):
            MixedTable(
                mx.label, mx.n, (mx.ae[0] + 1,) + mx.ae[1:], mx.kae,
                mx.epsilon, mx.mixed, mx.kmixed,
            )
