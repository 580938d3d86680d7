import random
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import given, strategies as st

from reference import (
    entries,
    poly_antiderivative,
    poly_scale,
    ref_alpha,
    ref_specialize,
    table_of,
)
from slopestab import cli
from slopestab.models import MixedTable, ModelError, format_rational
from slopestab.polynomials import UniPoly
from slopestab.slope import (
    PositivityError,
    _mu_c_pairs,
    alpha_polys,
    df_numerator,
    mu_c,
    perturbation_limit,
    slope_mu,
    stability_scan,
)
from slopestab.toric import export_table


def table(ae, kae, epsilon, n=2, label="t"):
    return table_of(label, n, ae, kae, epsilon)


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

    @pytest.mark.parametrize("ae, epsilon, message", [
        # alpha0 = (2 - t^2)/2: the irrational root sqrt(2), at the default width
        ([2, 0, -1], 2, "alpha0 vanishes inside [0, 2): offending interval "
                        "(741455/524288, 1482911/1048576]"),
        # alpha0 = (1 - t)^2/2: a double root at 1
        ([1, 1, 1], 2, "alpha0 vanishes inside [0, 2): offending interval 1"),
    ])
    def test_interior_zero_message_pinned(self, ae, epsilon, message):
        with pytest.raises(PositivityError) as excinfo:
            alpha_polys(table(ae, [-3, -1], epsilon))
        assert str(excinfo.value) == message

    def test_double_root_at_epsilon_allowed(self):
        assert alpha_polys(table([1, 1, 1], [-3, -1], 1)).alpha0(1) == 0

    def test_zero_at_origin_rejected(self):
        with pytest.raises(PositivityError, match="not positive"):
            alpha_polys(table([0, 0, -1], [-3, -1], 1))


def random_entry(rng, fractional):
    """An entry of up to 40 digits, over a denominator of up to 40 digits
    when `fractional`."""
    num = rng.randint(-10 ** rng.randint(0, 40), 10 ** rng.randint(0, 40))
    return F(num, rng.randint(1, 10 ** rng.randint(0, 40))) if fractional else F(num)


def random_mixed(rng, n, fractional):
    mix = {(i, j, n - i - j): random_entry(rng, fractional)
           for i in range(n + 1) for j in range(n + 1 - i)}
    kmix = {(i, j, n - 1 - i - j): random_entry(rng, fractional)
            for i in range(n) for j in range(n - i)}
    return table_of("m", n, tuple(mix[(n - k, 0, k)] for k in range(n + 1)),
                    tuple(kmix[(n - 1 - k, 0, k)] for k in range(n)), F(1), mix, kmix)


def cauchy_epsilon(alpha0):
    """1/m for the least integer m >= 1 + max_k |a_k| / a0, for alpha0 =
    sum_k a_k t^k with a0 > 0: below every root of alpha0 by Cauchy's bound
    a0 / (a0 + max_k |a_k|), so alpha0 is positive on [0, 1/m]."""
    a = alpha0.coeffs
    return F(1, 1 + ceil(max(map(abs, a[1:]), default=0) / a[0]))


def random_cases(rng, count=2000):
    """(n, AE, KAE, *ref_alpha of the table at epsilon 1) for count random
    tables drawn from rng: n = 1..8, entries of up to 40 digits, fractional
    in every third case, and in every fourth the specialization L + sH of a
    random mixed table at an s of up to 35 digits, checked against
    ref_specialize.  AE[0] is made positive, so alpha0(0) > 0."""
    for case in range(count):
        n, fractional = case % 8 + 1, case % 3 == 0
        if case % 4:
            ae = tuple(random_entry(rng, fractional) for _ in range(n + 1))
            kae = tuple(random_entry(rng, fractional) for _ in range(n))
        else:  # the entries of a specialization L + sH, s = p/q
            mixed = random_mixed(rng, n, fractional)
            s = F(rng.randint(-10**rng.randint(0, 35), 10**rng.randint(0, 35)),
                  rng.randint(1, 10 ** rng.choice((1, 10, 35))))
            spec = mixed.specialize(s)
            ae, kae = entries(spec)
            assert (ae, kae) == ref_specialize(mixed, s)
        ae = (abs(ae[0]) or F(1), *ae[1:])
        yield n, ae, kae, *ref_alpha(table_of("t", n, ae, kae, F(1)))


def tail_zero_cases(rng, count):
    """random_cases with AE's last one or two entries set to 0 (one when
    n = 1, so AE[0] stays positive): int_0^t alpha0 then falls to degree n
    or n - 1, and the degree n of int_0^t (alpha1 + alpha0'/2) ties with it
    or passes it."""
    for n, ae, kae, *_ in random_cases(rng, count):
        zeros = min(rng.randint(1, 2), n)
        ae = (*ae[:n + 1 - zeros], *(F(0),) * zeros)
        yield n, ae, kae, *ref_alpha(table_of("t", n, ae, kae, F(1)))


class TestClosedForms:
    """The closed integer forms of `alpha_polys`, `df_numerator` and
    `MixedTable.specialize` against their definitions in `reference`."""

    def test_match_definitions(self):
        rng = random.Random(23)
        for n, ae, kae, alpha0, alpha1, i0, i1, mu, q in random_cases(rng):
            eps = cauchy_epsilon(alpha0)
            pair = alpha_polys(table_of("t", n, ae, kae, eps))
            assert (pair.alpha0, pair.alpha1) == (alpha0, alpha1)
            assert (pair.alpha0_integral, pair.numerator_integral) == (i0, i1)
            assert slope_mu(pair) == mu and df_numerator(pair) == q
            for c in (eps, eps / 2, eps * F(rng.randint(1, 10**12), 10**12 + 1)):
                assert mu_c(pair, c) == i1(c) / i0(c)

    def test_integer_table_builds_with_no_fraction_arithmetic(self, monkeypatch):
        # the AlphaPair and Q of an integer table come from the entries'
        # numerators alone: no Fraction operator runs while they are built
        def fail(*args):
            raise AssertionError(f"Fraction arithmetic on {args}")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__pow__",
                     "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, name, fail)
        pair = alpha_polys(P3)
        q = df_numerator(pair)
        monkeypatch.undo()
        assert slope_mu(pair) == 6 and q == ref_alpha(P3)[5]


def ref_scan_rows(eps, i0, i1, mu, steps):
    """The rows of `scan` by one Fraction per value: c = i eps / steps,
    mu_c = int_0^c (alpha1 + alpha0'/2) / int_0^c alpha0 as a quotient of two
    Fractions, and the sign of Q(c) as that of mu - mu_c."""
    rows = ["c,mu,mu_c,Q_sign"]
    for i in range(1, steps + 1):
        c = F(i * eps.numerator, eps.denominator * steps)
        mc = i1(c) / i0(c)
        sign = "+" if mu > mc else "-" if mu < mc else "0"
        rows.append(f"{format_rational(c)},{format_rational(mu)},{format_rational(mc)},{sign}")
    return rows


class TestPrintedLines:
    """`scan`'s rows and `analyze`'s polynomial lines, printed from integer
    pairs, against one Fraction per value on the random tables."""

    @staticmethod
    def assert_match(cases, capsys, monkeypatch):
        for n, ae, kae, alpha0, alpha1, i0, i1, mu, q in cases:
            table = table_of("t", n, ae, kae, cauchy_epsilon(alpha0))
            monkeypatch.setattr(cli, "_load_model", lambda path: table)
            for steps in (1, 7, 32):
                assert cli.main(["scan", "t", "--steps", str(steps)]) == 0
                assert (capsys.readouterr().out.splitlines()
                        == ref_scan_rows(table.epsilon, i0, i1, mu, steps))
            pair = alpha_polys(table)
            # the kernel's one pair at c, against mu_c by Fractions
            for c in (table.epsilon, table.epsilon / 3):
                mc = i1(c) / i0(c)
                assert (list(_mu_c_pairs(pair, c.numerator, c.denominator, 1))
                        == [(mc.numerator, mc.denominator)])
            for p in (pair.alpha0, pair.alpha1, df_numerator(pair)):
                text = " ".join(map(format_rational, p.coeffs)) if not p.is_zero else "0"
                assert cli._poly_line(p) == text

    def test_match_fraction_loop(self, capsys, monkeypatch):
        # the first 1000 cases: every n, entry kind and specialization recurs
        self.assert_match(random_cases(random.Random(23), 1000), capsys, monkeypatch)

    def test_match_fraction_loop_ae_tail_zeros(self, capsys, monkeypatch):
        # the integrals' degrees tie or cross
        self.assert_match(tail_zero_cases(random.Random(29), 300), capsys, monkeypatch)


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
        # once alpha_polys has run, mu_c reads its integrals and builds no
        # polynomial; df_numerator builds Q, so it runs after the patch
        pair = alpha_polys(T1)

        def fail(*args):
            raise AssertionError(f"polynomial built from {args}")

        monkeypatch.setattr(UniPoly, "_of", fail)
        values = mu_c(pair, F(1, 2)), mu_c(pair, F(1, 4))
        monkeypatch.undo()
        assert values == (F(30, 11), 3 * (3 - F(1, 4)) / (3 - F(1, 16)))
        assert df_numerator(pair) == ref_alpha(T1)[5]

    def test_nonpositive_integral_is_a_fault(self):
        # int_0^c alpha0 > 0 on (0, epsilon] holds for every AlphaPair that
        # alpha_polys builds: a pair that breaks it is not refused input
        pair = alpha_polys(T1)._replace(alpha0_integral=UniPoly([0, -1]))
        with pytest.raises(RuntimeError, match="not positive at c=1/2"):
            mu_c(pair, F(1, 2))

    def test_out_of_range(self):
        pair = alpha_polys(T1)
        for c in (0, -1, 2):
            with pytest.raises(ModelError, match="outside"):
                mu_c(pair, c)


class TestDfNumerator:
    def test_t1(self):
        pair = alpha_polys(T1)
        q = df_numerator(pair)
        assert q == UniPoly([0, 0, F(1, 2), F(-1, 2)])  # c^2 (1 - c)/2
        assert UniPoly(poly_scale(q.coeffs, 1 / pair.alpha0(0))) == UniPoly([0, 0, 1, -1])

    def test_t2(self):
        q = df_numerator(alpha_polys(T2))
        assert q == UniPoly([0, 0, F(1, 2), F(-1, 4)])  # c^2 (2 - c)/4

    def test_t3(self):
        q = df_numerator(alpha_polys(T3))
        assert q == UniPoly([0, F(1, 2), F(-1, 3), F(-5, 18)])

    def test_p3(self):
        q = df_numerator(alpha_polys(P3))
        assert q == UniPoly([0, 0, 0, F(1, 4), F(-1, 4)])  # c^3 (1 - c)/4

    def test_sign_identity(self):
        # mu - mu_c = Q(c) / int_0^c alpha0, denominator positive
        for tab in (T1, T2, T3, P3):
            pair = alpha_polys(tab)
            q = df_numerator(pair)
            for c in (F(1, 3), F(1, 2), pair.epsilon):
                den = UniPoly(poly_antiderivative(pair.alpha0.coeffs))(c)
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

    def test_one_evaluation_per_gap(self, load_model, monkeypatch):
        # f1_ample's Q has one root in (0, 1], so two gaps; Q(1) takes the
        # last gap's sign, and is not evaluated again for right_closed
        pair = alpha_polys(export_table(load_model("f1_ample")))
        at, calls = UniPoly.at, []

        def counted(self, num, den):
            calls.append(F(num, den))
            return at(self, num, den)

        monkeypatch.setattr(UniPoly, "at", counted)
        (iv,) = stability_scan(pair).destabilizing
        assert len(calls) == 2 and iv.right_closed

    def test_flat_case(self):
        report = stability_scan(alpha_polys(FLAT))
        assert report.flat
        assert report.Q.is_zero
        assert report.verdict(F(1, 4)) == "flat"

    def test_verdict_out_of_range(self):
        report = stability_scan(alpha_polys(T1))
        with pytest.raises(ModelError, match="outside"):
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

    @pytest.mark.parametrize("eps, shown", [(F(-3), "-3"), (F(0), "0"), (F(-1, 10), "-1/10")])
    def test_non_positive_eps_rejected(self, load_model, eps, shown):
        # L + eps H with eps <= 0 is no perturbation towards the ample side,
        # although alpha0(0) of L - 3H may still be positive
        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError, match=f"^eps must be positive, got {shown}$"):
            perturbation_limit(mx, F(1, 2), [F(1, 10), eps])

    def test_inconsistent_slice_rejected(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError, match="^MIX j=0 slice disagrees with AE at k=0$"):
            MixedTable(
                mx.label, mx.n, mx.den, (mx.ae[0] + 1,) + mx.ae[1:], mx.kae,
                mx.epsilon, mx.mixed, mx.kmixed,
            )
