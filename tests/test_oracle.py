import ast
import builtins
import importlib
import pathlib
import sys
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, comb, floor

import pytest

from reference import newton_fit
from slopestab import oracle
from slopestab.oracle import (
    _sigma_form,
    default_m_list,
    fit_expansions,
    verify_main_theorem,
)
from slopestab.models import ModelError
from slopestab.slope import alpha_polys, df_numerator, slope_mu
from slopestab.toric import Fan, ToricError, ToricModel, export_table, polytope_of

SRC = pathlib.Path(oracle.__file__).resolve().parent

# every toric fixture and every model of EXTRA_TORIC in conftest
REFERENCE_MODELS = (
    "p2", "p2_o2", "p3", "f1_ample", "f1_bignef",
    "p4_o2_codim2", "p1_cubed_point", "blp3_014", "p2_o2_point_02",
)

# P^1 with L = O(3), blown up at the point of ray 0
P1_O3 = ToricModel("P1 O(3) point", Fan(((1,), (-1,)), ((0,), (1,))), (0, 3), (0,))
P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
P1_SQUARED_FAN = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))


def projective_space(n, d):
    """P^n with L = d O(1), blown up along the codimension-2 face of rays 0, 1."""
    return ToricModel(
        f"P{n} O({d})",
        Fan(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,),
            tuple(combinations(range(n + 1), n))),
        (0,) * n + (d,),
        (0, 1),
    )


P6_O2 = projective_space(6, 2)
# P^n with L = d O(1), blown up once per delta_j (n, d, deltas, seed), and their ids
BLOW_UPS = [(2, 3, (1,), 1), (2, 5, (2, 1), 3), (2, 4, (1, 1), 2),
            (3, 3, (1,), 1), (3, 3, (1, 1), 1), (3, 4, (1, 1, 1), 2)]
BLOW_UP_IDS = ["P2-d3-1", "P2-d5-2", "P2-d4-2", "P3-d3-1", "P3-d3-2", "P3-d4-3"]


def box_levels(model, m, interior=False):
    """Reference counter: the filtration level of every lattice point of
    m * P_L, or of its interior, by testing each point of the bounding box
    against every facet, <x, u_rho> >= -m a_rho (+ 1 for the interior)."""
    verts = polytope_of(model.fan, model.L).vertices
    ranges = [
        range(floor(m * min(v[d] for v in verts)), ceil(m * max(v[d] for v in verts)) + 1)
        for d in range(model.fan.dim)
    ]
    u_sigma, offset = _sigma_form(model)
    return [
        sum(x * u for x, u in zip(pt, u_sigma)) + m * offset
        for pt in product(*ranges)
        if all(
            sum(x * u for x, u in zip(pt, ray)) >= -m * a + interior
            for ray, a in zip(model.fan.rays, model.L)
        )
    ]


def sample(model, m, cap):
    """The oracle's h0 and weight total of m * P_L with levels capped at cap."""
    return oracle._sample(model, m, oracle._levels(model), _sigma_form(model), (cap,))[0]


def fit_one(model, c, m_list=None):
    """fit_expansions for the single value c."""
    (fit,) = fit_expansions(model, [c], m_list)
    return fit


def filtration_counts(model, m, top):
    """Lattice points of m * P_L at level >= j, for j = 1..top: the steps
    w(j) - w(j - 1) of the capped weight totals."""
    w = [sample(model, m, cap).w for cap in range(top + 1)]
    return [b - a for a, b in zip(w, w[1:])]


def assert_counts_match(model):
    """h0 and the weight totals of the oracle's nested ranges equal
    box_levels' at m = 1..4 and at every cap 0..max + 1, so every filtration
    count, a step between consecutive caps, does too.  The caps are counted
    one per call, and all in one call, in descending order."""
    ranges, form = oracle._levels(model), _sigma_form(model)
    for m in range(1, 5):
        levels = box_levels(model, m)
        caps = range(max(levels) + 1, -1, -1)
        expected = [oracle.WeightSample(m, len(levels), sum(min(lv, cap) for lv in levels))
                    for cap in caps]
        assert list(oracle._sample(model, m, ranges, form, caps)) == expected
        assert [oracle._sample(model, m, ranges, form, (cap,))[0] for cap in caps] == expected


class TestFiltrationCount:
    def test_p2_counts(self, load_model):
        p2 = load_model("p2")
        # 2*P is the triangle with 6 lattice points, levels x + y
        assert sample(p2, 2, 0) == oracle.WeightSample(2, 6, 0)
        assert filtration_counts(p2, 2, 5) == [5, 3, 0, 0, 0]

    def test_section_counts_are_ehrhart(self, load_model):
        p2 = load_model("p2")
        for m in range(1, 5):
            assert sample(p2, m, 1).h0 == comb(m + 2, 2)

    def test_monotone_in_j(self, load_model):
        counts = filtration_counts(load_model("p2"), 3, 5)
        assert counts == sorted(counts, reverse=True)


class TestAgainstBoxCounter:
    def test_slice_steps_take_every_sign(self, load_model):
        steps = {_sigma_form(load_model(name))[0][-1] for name in REFERENCE_MODELS}
        assert min(steps) < 0 and 0 in steps and max(steps) > 0

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_counts_match(self, load_model, name):
        assert_counts_match(load_model(name))

    # P^n with L = d O(1), blown up once per delta_j: ids give n, d and the count
    @pytest.mark.parametrize("n, d, deltas, seed", [
        (3, 3, (1, 1), 1), (3, 4, (1, 1, 1), 2), (4, 3, (1, 1), 3), (4, 4, (2, 1, 1), 4),
        (5, 2, (1,), 5), (6, 1, (), 7),
    ], ids=["P3-d3-2", "P3-d4-3", "P4-d3-2", "P4-d4-3", "P5-d2-1", "P6-d1-0"])
    def test_generated_counts_match(self, blown_up_projective_space, n, d, deltas, seed):
        model = blown_up_projective_space(n, d, deltas, seed)
        assert len(model.fan.rays) == n + 1 + len(deltas) and model.validate() == []
        assert_counts_match(model)

    def test_p1_counts_match(self):
        # n = 1: no prefix and no x_{n-1}, one slice per m
        assert_counts_match(P1_O3)

    def test_point_budget(self, load_model):
        with pytest.raises(ToricError, match="budget exceeded at m="):
            fit_one(load_model("p3"), 1, m_list=range(1, 10**6))


class TestWeightTotal:
    def test_p2_values(self, load_model):
        p2 = load_model("p2")
        # levels on 2*P: 0, 1, 1, 2, 2, 2
        assert sample(p2, 2, 4).w == 8
        assert sample(p2, 2, 1).w == 5
        assert sample(p2, 1, 1).w == 2

    def test_telescopes_filtration_counts(self, load_model):
        # a cap far above the top level 3 of 3*P counts each level in full
        p2 = load_model("p2")
        levels = box_levels(p2, 3)
        total = sum(sum(lv >= j for lv in levels) for j in range(1, 7))
        assert sample(p2, 3, 6).w == total == sum(levels)


class TestDefaultMList:
    def test_denominator_multiples(self):
        assert default_m_list(2, F(1, 3)) == [3, -3, 6, -6, 9]
        assert default_m_list(3, 1) == [1, -1, 2, -2, 3, -3]

    def test_budget_reaches_p6_o2_at_one_half(self):
        # m = 2, -2, ..., -8 and 10 visit 83340 prefixes, the interiors at
        # negative m included; n + 4 positive samples, m = 2, ..., 20, go past
        # the budget at m = 20.  Only the budget is counted here.
        levels, counts = oracle._levels(P6_O2), {}
        ms = default_m_list(6, F(1, 2))
        assert ms == [2, -2, 4, -4, 6, -6, 8, -8, 10]
        oracle._check_budget(levels, ms, counts, False)
        assert sum(counts.values()) == 83340
        with pytest.raises(ToricError, match="^lattice-point budget exceeded at m=20: "):
            oracle._check_budget(levels, range(2, 21, 2), counts, True)

    def test_p8_o1_verifies_at_one_half(self):
        # n + 4 positive samples would end at m = 22, past the budget; the
        # default list walks no dilation above 12
        start = time.perf_counter()
        rec = verify_main_theorem(projective_space(8, 1), F(1, 2))
        assert time.perf_counter() - start < 3
        assert rec.exact_match and rec.df_oracle == F(7, 128)
        assert [s.m for s in rec.samples] == [2, -2, 4, -4, 6, -6, 8, -8, 10, -10, 12]

    @pytest.mark.parametrize("m_list, message", [
        ((0, 1, 2, 3, 4, 5), "m=0 is not a positive m-sample"),
        ((1, 2, 3, -1, 4, 5), "m=-1 is not a positive m-sample"),
        ((1, 2, 3, 3, 4, 5), "m=3 is repeated in the m-list"),
    ], ids=["zero", "negative", "repeated"])
    def test_m_list_refused(self, load_model, m_list, message):
        with pytest.raises(ToricError, match=f"^{message}$"):
            oracle.verify(load_model("p2"), (1,), m_list)


def positive_fits(model):
    """(c, a, b) for c = eps/2 and eps: h0 and w fitted by the reference from
    the oracle's samples at the first n + 4 positive multiples of c's
    denominator, with no m = 0 point and no negative m."""
    n, levels = model.fan.dim, oracle._levels(model)
    eps = export_table(model).epsilon
    for c in (eps / 2, eps):
        ms = [c.denominator * i for i in range(1, n + 5)]
        own = [oracle._sample(model, m, levels, _sigma_form(model), ((c * m).numerator,))[0]
               for m in ms]
        yield c, newton_fit([(s.m, s.h0) for s in own], n), newton_fit(
            [(s.m, s.w) for s in own], n + 1)


class TestKnownSampleAtZero:
    """Counting confirms the values the fits take at m = 0 without a walk,
    h0(0L) = 1 and w_0 = 0: h0 and w fitted by the reference from n + 4
    positive multiples of c's denominator have these constant terms."""

    @staticmethod
    def assert_constant_terms(model):
        for _, a, b in positive_fits(model):
            assert (a.degree, a.coeff(0), b.coeff(0)) == (model.fan.dim, 1, 0)

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_reference_models(self, load_model, name):
        self.assert_constant_terms(load_model(name))

    @pytest.mark.parametrize("n, d, deltas, seed", BLOW_UPS, ids=BLOW_UP_IDS)
    def test_generated_blow_ups(self, blown_up_projective_space, n, d, deltas, seed):
        self.assert_constant_terms(blown_up_projective_space(n, d, deltas, seed))


class TestReciprocity:
    """The samples at m = -M, M = q and 2q: h0 and w fitted by the reference
    from positive multiples of c's denominator q take at -M the values that
    Ehrhart-Macdonald reciprocity reads off the brute-force interior of
    M * P_L, H(-M) = (-1)^n N and W(-M) = (-1)^(n+1) sum of min(l_M, cM)
    over its N lattice points; _sample at -M gives both."""

    @staticmethod
    def assert_identities(model):
        n, levels = model.fan.dim, oracle._levels(model)
        nonzero = 0
        for c, a, b in positive_fits(model):
            for big_m in (c.denominator, 2 * c.denominator):
                cap = (c * big_m).numerator
                inner = box_levels(model, big_m, interior=True)
                h0 = (-1) ** n * len(inner)
                w = (-1) ** (n + 1) * sum(min(lv, cap) for lv in inner)
                assert (a(-big_m), b(-big_m)) == (h0, w)
                assert oracle._sample(model, -big_m, levels, _sigma_form(model), (-cap,)) == (
                    oracle.WeightSample(-big_m, h0, w),)
                nonzero += w != 0
        return nonzero

    def test_values_are_not_all_zero(self, load_model):
        # the interiors at M = q and 2q hold points on most models
        found = sum(self.assert_identities(load_model(name)) > 0 for name in REFERENCE_MODELS)
        assert found >= 5

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_reference_models(self, load_model, name):
        self.assert_identities(load_model(name))

    @pytest.mark.parametrize("n, d, deltas, seed", BLOW_UPS, ids=BLOW_UP_IDS)
    def test_generated_blow_ups(self, blown_up_projective_space, n, d, deltas, seed):
        self.assert_identities(blown_up_projective_space(n, d, deltas, seed))

    def test_p1(self):
        assert self.assert_identities(P1_O3)


class TestFitExpansions:
    def test_p2_half(self, load_model):
        fit = fit_one(load_model("p2"), F(1, 2))
        assert fit.a == (F(1, 2), F(3, 2), F(1))
        assert fit.b == (F(11, 48), F(5, 8), F(1, 3), F(0))
        assert fit.df == F(1, 8)

    def test_p2_o2_at_one(self, load_model):
        fit = fit_one(load_model("p2_o2"), 1)
        assert fit.a[0] == 2 and fit.a[1] == 3
        assert fit.b[0] == F(11, 6) and fit.b[1] == F(5, 2)
        assert fit.df == F(1, 8)

    def test_p2_at_threshold_is_critical(self, load_model):
        assert fit_one(load_model("p2"), 1).df == 0

    def test_p3_ehrhart_leading_terms(self, load_model):
        fit = fit_one(load_model("p3"), 1)
        assert fit.a == (F(1, 6), F(1), F(11, 6), F(1))

    def test_leading_terms_integrate_alpha(self, load_model):
        # b0 and b1 are the t-integrals of alpha0 and alpha1 + alpha0'/2
        # over [0, c]; checked against the geometric path
        for name, c in (("p2", F(1, 2)), ("f1_ample", F(1, 2))):
            model = load_model(name)
            fit = fit_one(model, c)
            pair = alpha_polys(export_table(model))
            assert fit.b[0] == pair.alpha0_integral(c)
            assert fit.b[1] == pair.numerator_integral(c)
            assert fit.a[0] == pair.alpha0(0) and fit.a[1] == pair.alpha1(0)

    def test_too_few_samples(self, load_model):
        with pytest.raises(ToricError, match="at least"):
            fit_one(load_model("p2"), 1, m_list=[1, 2, 3])

    def test_incompatible_m_list(self, load_model):
        with pytest.raises(ToricError, match="integral"):
            fit_one(load_model("p2"), F(1, 2), m_list=[1, 2, 3, 4, 5, 6])

    # L not big: m * P_L is a point or empty, so h0(mL) has no m^n term
    @pytest.mark.parametrize("fan, L, message", [
        (P2_FAN, (0, 0, 0), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
        (P2_FAN, (0, 0, -1), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
        # eliminating y leaves the row -m >= 0
        (P1_SQUARED_FAN, (0, 0, 0, -1), "^sections polytope is empty: L is not big$"),
        # a segment, whose interior is empty: eliminating y (for the first) or
        # x (for the second) leaves -2 s >= 0 at s = 1, before any walk
        (P1_SQUARED_FAN, (0, 0, 1, 0), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
        (P1_SQUARED_FAN, (0, 0, 0, 1), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
    ], ids=["p2-point", "p2-empty", "p1xp1-empty", "p1xp1-segment-x", "p1xp1-segment-y"])
    def test_not_big_l_refused(self, fan, L, message):
        with pytest.raises(ToricError, match=message):
            fit_one(ToricModel("not big", fan, L, (0, 1)), F(1, 2))

    def test_empty_polytope_refused_before_a_long_m_list(self):
        # every m-sample of an empty m * P_L visits no prefix, so the budget
        # never stops the list: the elimination must refuse it first
        model = ToricModel("empty", P2_FAN, (0, 0, -1), (0, 1))
        with pytest.raises(ToricError, match="^h0\\(mL\\) has no m\\^2 term: L is not big$"):
            fit_one(model, F(1, 2), m_list=range(2, 10**20, 2))


class TestVerifyMainTheorem:
    def test_p2_positive(self, load_model):
        rec = verify_main_theorem(load_model("p2"), F(1, 2))
        assert rec.sign_match and rec.exact_match
        assert rec.df_oracle == rec.df_predicted == F(1, 8)
        assert [s.m for s in rec.samples] == [2, -2, 4, -4, 6]

    def test_p2_boundary_zero(self, load_model):
        rec = verify_main_theorem(load_model("p2"), 1)
        assert rec.df_oracle == rec.df_predicted == 0
        assert rec.sign_match and rec.exact_match

    def test_f1_negative_side(self, load_model):
        rec = verify_main_theorem(load_model("f1_ample"), F(9, 10))
        assert rec.df_predicted < 0
        assert rec.sign_match and rec.exact_match

    def test_f1_positive_side(self, load_model):
        rec = verify_main_theorem(load_model("f1_ample"), F(1, 2))
        assert rec.df_predicted > 0
        assert rec.sign_match and rec.exact_match

    @pytest.mark.parametrize("c, df", [(F(1, 2), F(9, 448)), (F(1), F(3, 28))])
    def test_blown_up_p3_at_point_on_e(self, load_model, c, df):
        rec = verify_main_theorem(load_model("blp3_014"), c)
        assert rec.exact_match and rec.df_oracle == df

    def test_prediction_cross_check_is_an_internal_error(self, load_model, monkeypatch):
        # mu_c = mu + 1, so mu - mu_c < 0 while Q(1/2) > 0
        def mu_plus_one(pair, num, den, count):
            mu = slope_mu(pair)
            return [(mu.numerator + mu.denominator, mu.denominator)] * count

        monkeypatch.setattr(oracle, "_mu_c_pairs", mu_plus_one)
        with pytest.raises(RuntimeError, match="disagrees"):
            verify_main_theorem(load_model("p2"), F(1, 2))

    def test_c_out_of_range(self, load_model):
        # refused as slope refuses it: a ModelError, not a ToricError
        with pytest.raises(ModelError, match="^c=2 outside \\(0, 1\\]$") as excinfo:
            verify_main_theorem(load_model("p2"), 2)
        assert type(excinfo.value) is ModelError


class TestVerify:
    def test_records_match_single_c_runs(self, load_model):
        model = load_model("f1_ample")
        cs = (F(1, 2), F(9, 10), F(1, 3), F(1, 2))
        assert oracle.verify(model, cs) == tuple(verify_main_theorem(model, c) for c in cs)

    def test_sigma_form_once_per_verification(self, load_model, monkeypatch):
        # the level form is the model's, the same for every m-sample and c
        calls = []

        def counted(model):
            calls.append(model)
            return _sigma_form(model)

        monkeypatch.setattr(oracle, "_sigma_form", counted)
        records = oracle.verify(load_model("f1_ample"), (F(1, 2), F(9, 10)))
        assert len({s.m for r in records for s in r.samples}) > 1 and len(calls) == 1

    # at c = eps/2 and eps: their denominators are at most 2, so m stays small
    @pytest.mark.parametrize("n, d, deltas, seed", BLOW_UPS, ids=BLOW_UP_IDS)
    def test_generated_blow_ups(self, blown_up_projective_space, n, d, deltas, seed):
        model = blown_up_projective_space(n, d, deltas, seed)
        eps = export_table(model).epsilon
        assert eps.denominator == 1
        recs = oracle.verify(model, (eps / 2, eps))
        assert [(r.sign_match, r.exact_match) for r in recs] == [(True, True)] * 2

    def test_p1(self):
        recs = oracle.verify(P1_O3, (F(1, 2), 1))
        assert [(r.df_oracle, r.sign_match, r.exact_match) for r in recs] == [
            (F(5, 72), True, True), (F(1, 9), True, True)]

    # each c is checked in turn, range first: the first c to fail decides
    @pytest.mark.parametrize("cs, m_list, error, message", [
        ((F(1, 2), 2), range(1, 7), ToricError, "^m=1 does not make c\\*m integral$"),
        ((2, F(1, 2)), range(1, 7), ModelError, "^c=2 outside"),
        ((1, 2), (1, 2, 3), ToricError, "^need at least 6 m-samples, got 3$"),
        ((2, 1), (1, 2, 3), ModelError, "^c=2 outside"),
    ], ids=["integrality", "range-before-integrality", "count", "range-before-count"])
    def test_first_failing_c_decides(self, load_model, cs, m_list, error, message):
        # the exact class: pytest.raises(ModelError) would also pass a ToricError
        with pytest.raises(error, match=message) as excinfo:
            oracle.verify(load_model("p2"), cs, m_list)
        assert type(excinfo.value) is error


@pytest.fixture(scope="module")
def tail_models(load_model, csck_models):
    """(model, alpha pair, Q) for every model of REFERENCE_MODELS and the
    csck_models of dimension at most 3."""
    models = [load_model(name) for name in REFERENCE_MODELS]
    models += [model for model in csck_models if model.fan.dim <= 3]
    return [(model, pair, df_numerator(pair))
            for model, pair in ((model, alpha_polys(export_table(model))) for model in models)]


class TestIntegerTail:
    """fit_expansions' df and verify's df_predicted are each one Fraction
    built from integer forms; they equal the Fraction formulas of the fits'
    a and b, (b[0] a[1] - b[1] a[0]) / a[0]^2, and of Q(c) / alpha0(0), at
    c = epsilon/2 and epsilon, on default m-lists and on one explicit one."""

    def test_matches_fraction_forms(self, tail_models, monkeypatch):
        fits = []
        fit_expansions_ = oracle.fit_expansions

        def recorded(*args):
            fits.append(fit_expansions_(*args))
            return fits[-1]

        monkeypatch.setattr(oracle, "fit_expansions", recorded)
        assert len(tail_models) == 169
        for model, pair, q in tail_models:
            cs = (pair.epsilon / 2, pair.epsilon)
            d = cs[0].denominator  # a multiple of epsilon's
            for m_list in (None, range(d, d * (model.fan.dim + 5), d)):
                fits.clear()
                records = oracle.verify(model, cs, m_list)
                (own,) = fits
                for c, fit, record in zip(cs, own, records):
                    a, b = fit.a, fit.b
                    assert fit.df == record.df_oracle == (b[0] * a[1] - b[1] * a[0]) / a[0] ** 2
                    assert record.df_predicted == q(c) / pair.alpha0(0)
                    assert record.exact_match, (model.label, c, m_list)


class TestEpsilonIsSharp:
    """The nef threshold epsilon pinned from both sides through the oracle,
    which shares no code with the table path: at c = epsilon its df is
    Q(c) / alpha0(0), and at c = 5 epsilon / 4 it departs from it, or its
    counts are not polynomial in m (past epsilon the cut polytope can have
    non-lattice vertices).  fit_expansions takes a c past epsilon, which
    verify refuses.  An epsilon too small by a factor of 5/4 or more, as a
    halved one, would show a match past it."""

    def test_exact_at_epsilon_departs_past_it(self, tail_models):
        not_exact, matched, kinds = [], [], {"departs": 0, "witness": 0}
        for model, pair, q in tail_models:
            eps = pair.epsilon
            if not oracle.verify(model, (eps,))[0].exact_match:
                not_exact.append(model.label)
            c = 5 * eps / 4
            try:
                (fit,) = fit_expansions(model, (c,))
            except RuntimeError as exc:
                assert str(exc).startswith("oracle counts are not polynomial in m: ")
                kinds["witness"] += 1
                continue
            if fit.df == q(c) / pair.alpha0(0):
                matched.append(model.label)
            kinds["departs"] += 1
        assert (not_exact, matched) == ([], [])
        assert kinds == {"departs": 157, "witness": 12}


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants are explicit checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_refusals_raise_model_error():
    # the CLI exits 2 on a ModelError and 4 on anything else, so outside
    # polynomials (whose bare ValueErrors are API misuse) a raise is a
    # ModelError subclass, an internal RuntimeError, or a re-raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "polynomials":
            continue
        module = importlib.import_module(f"slopestab.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = getattr(getattr(node.exc, "func", None), "id", "")
            cls = getattr(module, name, getattr(builtins, name, None))
            if not (isinstance(cls, type) and issubclass(cls, (ModelError, RuntimeError))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_runtime_imports_stdlib_only_and_has_no_floats():
    # the runtime is stdlib-only and exact: no third-party import, no float
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = []
            found += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
            if isinstance(node, ast.Constant) and type(node.value) is float:
                found.append(f"{path.name}:{node.lineno} float literal")
            if isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno} uses float")
    assert found == []


def test_oracle_imports_from_toric_only_the_model_and_export():
    # the oracle must stay independent of the toric internals (lattice
    # polytopes, fans, localization): it sees a model and its exported table
    tree = ast.parse((SRC / "oracle.py").read_text())
    imported = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "toric"
        for alias in node.names
    )
    assert imported == ["ToricError", "ToricModel", "export_table"]
