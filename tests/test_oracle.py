import ast
import pathlib
import sys
from fractions import Fraction as F
from itertools import product
from math import ceil, comb, floor

import pytest

from slopestab import oracle
from slopestab.oracle import (
    _sigma_form,
    default_m_list,
    fit_expansions,
    verify_main_theorem,
)
from slopestab.slope import alpha_polys, slope_mu
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


def box_levels(model, m):
    """Reference counter: the filtration level of every lattice point of
    m * P_L, by testing each point of the bounding box against every facet."""
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
            sum(x * u for x, u in zip(pt, ray)) >= -m * a
            for ray, a in zip(model.fan.rays, model.L)
        )
    ]


def sample(model, m, cap):
    """The oracle's h0 and weight total of m * P_L with levels capped at cap."""
    return oracle._sample(model, m, oracle._levels(model), (cap,))[0]


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
    ranges = oracle._levels(model)
    for m in range(1, 5):
        levels = box_levels(model, m)
        caps = range(max(levels) + 1, -1, -1)
        expected = [oracle.WeightSample(m, len(levels), sum(min(lv, cap) for lv in levels))
                    for cap in caps]
        assert list(oracle._sample(model, m, ranges, caps)) == expected
        assert [oracle._sample(model, m, ranges, (cap,))[0] for cap in caps] == expected


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
        with pytest.raises(ValueError, match="budget exceeded at m="):
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
        assert default_m_list(2, F(1, 3)) == [3, 6, 9, 12, 15, 18]
        assert default_m_list(3, 1) == [1, 2, 3, 4, 5, 6, 7]


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
        with pytest.raises(ValueError, match="at least"):
            fit_one(load_model("p2"), 1, m_list=[1, 2, 3])

    def test_incompatible_m_list(self, load_model):
        with pytest.raises(ValueError, match="integral"):
            fit_one(load_model("p2"), F(1, 2), m_list=[1, 2, 3, 4, 5, 6])

    # L not big: m * P_L is a point or empty, so h0(mL) has no m^n term
    @pytest.mark.parametrize("fan, L, message", [
        (P2_FAN, (0, 0, 0), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
        (P2_FAN, (0, 0, -1), "^h0\\(mL\\) has no m\\^2 term: L is not big$"),
        # eliminating y leaves the row -m >= 0
        (P1_SQUARED_FAN, (0, 0, 0, -1), "^sections polytope is empty: L is not big$"),
    ], ids=["p2-point", "p2-empty", "p1xp1-empty"])
    def test_not_big_l_refused(self, fan, L, message):
        with pytest.raises(ToricError, match=message):
            fit_one(ToricModel("not big", fan, L, (0, 1)), F(1, 2))


class TestVerifyMainTheorem:
    def test_p2_positive(self, load_model):
        rec = verify_main_theorem(load_model("p2"), F(1, 2))
        assert rec.sign_match and rec.exact_match
        assert rec.df_oracle == rec.df_predicted == F(1, 8)
        assert len(rec.samples) >= 6

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
        monkeypatch.setattr(oracle, "mu_c", lambda pair, c: slope_mu(pair) + 1)
        with pytest.raises(RuntimeError, match="disagrees"):
            verify_main_theorem(load_model("p2"), F(1, 2))

    def test_c_out_of_range(self, load_model):
        with pytest.raises(ToricError, match="outside"):
            verify_main_theorem(load_model("p2"), 2)


class TestVerify:
    def test_records_match_single_c_runs(self, load_model):
        model = load_model("f1_ample")
        cs = (F(1, 2), F(9, 10), F(1, 3), F(1, 2))
        assert oracle.verify(model, cs) == tuple(verify_main_theorem(model, c) for c in cs)

    def test_p1(self):
        recs = oracle.verify(P1_O3, (F(1, 2), 1))
        assert [(r.df_oracle, r.sign_match, r.exact_match) for r in recs] == [
            (F(5, 72), True, True), (F(1, 9), True, True)]

    # each c is checked in turn, range first: the first c to fail decides
    @pytest.mark.parametrize("cs, m_list, error, message", [
        ((F(1, 2), 2), range(1, 7), ValueError, "^m=1 does not make c\\*m integral$"),
        ((2, F(1, 2)), range(1, 7), ToricError, "^c=2 outside"),
        ((1, 2), (1, 2, 3), ValueError, "^need at least 6 m-samples, got 3$"),
        ((2, 1), (1, 2, 3), ToricError, "^c=2 outside"),
    ], ids=["integrality", "range-before-integrality", "count", "range-before-count"])
    def test_first_failing_c_decides(self, load_model, cs, m_list, error, message):
        with pytest.raises(error, match=message):
            oracle.verify(load_model("p2"), cs, m_list)


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants are explicit checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
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
