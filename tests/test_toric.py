import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import prod

import pytest

from slopestab import toric as toric_mod
from slopestab.models import IntersectionTable, MixedTable
from slopestab.polynomials import UniPoly
from slopestab.slope import alpha_polys, slope_mu
from slopestab.toric import (
    Fan,
    LatticePolytope,
    ToricDivisor,
    ToricError,
    ToricModel,
    Wall,
    _adjugate,
    _exceptional_setup,
    _intersect,
    _localize,
    check_fan,
    curve_degree,
    export_table,
    nef_threshold,
    polytope_of,
    serialize_toric_model,
    star_subdivide,
)

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
F1_FAN = Fan(((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (1, 3), (1, 2), (0, 2)))
# eight unimodular cones winding three times around the plane: every wall
# has two cones and every cone is smooth, but it is not a fan
WINDING_FAN = Fan(
    ((1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1)),
    tuple(tuple(sorted((i, (i + 1) % 8))) for i in range(8)),
)


# every toric fixture and every model of EXTRA_TORIC in conftest
REFERENCE_MODELS = (
    "p2", "p2_o2", "p3", "f1_ample", "f1_bignef",
    "p4_o2_codim2", "p1_cubed_point", "blp3_014", "p2_o2_point_02",
)


def gauss_jordan_solve(rows, rhs):
    """Reference solver: Fraction Gauss-Jordan elimination of A x = b; the
    solution list, or None when the system is inconsistent or underdetermined."""
    m = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(m[i][ncols] != 0 for i in range(r, nrows)) or len(pivots) < ncols:
        return None
    sol = [F(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def leibniz_det(rows):
    n = len(rows)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        * prod(rows[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


def reference_curve_degree(fan, wall, divisor):
    """Solve u_a + u_b = sum_i c_i u_i over the wall's rays directly."""
    ia, ib = wall.opposite
    target = [fan.rays[ia][d] + fan.rays[ib][d] for d in range(fan.dim)]
    if wall.rays:
        rows = [[fan.rays[i][d] for i in wall.rays] for d in range(fan.dim)]
        sol = gauss_jordan_solve(rows, target)
    else:
        sol = None if any(target) else []
    if sol is None:
        return None
    a = divisor.coeffs
    return a[ia] + a[ib] - sum(c * a[i] for c, i in zip(sol, wall.rays))


def reference_vertices(polytope):
    """Solve every n-subset of the inequalities as equalities."""
    out = set()
    for subset in combinations(polytope.inequalities, polytope.dim):
        sol = gauss_jordan_solve([u for u, _ in subset], [-a for _, a in subset])
        if sol is not None and polytope.contains(sol):
            out.add(tuple(sol))
    return tuple(sorted(out))


def wall_with_rays(fan, rays):
    for w in fan.walls:
        if w.rays == tuple(sorted(rays)):
            return w
    raise AssertionError(f"no wall {rays}")


class TestCheckFan:
    def test_p2_ok(self):
        assert check_fan(P2_FAN) == []

    def test_non_smooth_cone(self):
        fan = Fan(((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
        assert check_fan(fan) == ["non-smooth cone (0, 1), det 2"]

    def test_missing_cone(self):
        fan = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
        assert check_fan(fan) == [
            "wall (0,) with 1 incident cone(s), expected 2",
            "wall (2,) with 1 incident cone(s), expected 2",
        ]

    def test_winding_cones_cover_three_times(self):
        for errors in (
            check_fan(WINDING_FAN),
            ToricModel("winding", WINDING_FAN, ToricDivisor((1,) * 8), (0,)).validate(),
        ):
            assert errors == ["direction (1, 2) lies in 3 maximal cones, expected 1"]


class TestStarSubdivide:
    def test_p2_corner(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        assert fan.rays[e_idx] == (1, 1)
        assert len(fan.max_cones) == 4
        assert check_fan(fan) == []

    def test_single_ray_identity(self):
        fan, e_idx = star_subdivide(P2_FAN, (2,))
        assert fan is P2_FAN and e_idx == 2

    def test_p3_full_cone(self):
        rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
        cones = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        fan, e_idx = star_subdivide(Fan(rays, cones), (0, 1, 2))
        assert fan.rays[e_idx] == (1, 1, 1)
        assert len(fan.max_cones) == 6
        assert check_fan(fan) == []

    def test_not_a_face(self):
        with pytest.raises(ToricError, match="not a face"):
            star_subdivide(F1_FAN, (2, 3))


class TestCurveDegree:
    def test_p2_lines(self):
        # O(1) as the single prime divisor of the ray (-1,-1)
        d = ToricDivisor((0, 0, 1))
        for w in P2_FAN.walls:
            assert curve_degree(P2_FAN, w, d) == 1

    def test_exceptional_self_intersection(self):
        e = ToricDivisor((0, 0, 0, 1))
        w = wall_with_rays(F1_FAN, (3,))
        assert curve_degree(F1_FAN, w, e) == -1

    def test_zero_divisor(self):
        z = ToricDivisor((0, 0, 0, 0))
        for w in F1_FAN.walls:
            assert curve_degree(F1_FAN, w, z) == 0

    def test_dimension_one(self):
        p1 = Fan(((1,), (-1,)), ((0,), (1,)))
        (wall,) = p1.walls
        assert curve_degree(p1, wall, ToricDivisor((2, 3))) == 5
        folded = Fan(((1,), (1,)), ((0,), (1,)))
        with pytest.raises(ToricError, match="^wall data inconsistent in dimension one$"):
            folded.walls


class TestNefThreshold:
    def test_p2_blowup(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        pi_l = ToricDivisor((0, 0, 1, 0))
        assert nef_threshold(fan, pi_l, e_idx) == 1

    def test_threshold_is_a_fraction(self):
        # curve degrees of integral divisors are ints; their quotient must not
        # become a float
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        eps = nef_threshold(fan, ToricDivisor((0, 0, 3, 0)), e_idx)
        assert type(eps) is F and eps == 3

    def test_scales_with_l(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        for d in (2, 3, 5):
            pi_l = ToricDivisor((0, 0, d, 0))
            assert nef_threshold(fan, pi_l, e_idx) == d

    def test_f1_divisor_case(self):
        # L = 2H - E0 with E = the (1,1) ray's divisor
        assert nef_threshold(F1_FAN, ToricDivisor((0, 0, 2, -1)), 3) == 1

    def test_threshold_boundary_is_sharp(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        pi_l = ToricDivisor((0, 0, 1, 0))
        eps = nef_threshold(fan, pi_l, e_idx)
        e = ToricDivisor(tuple(int(i == e_idx) for i in range(4)))
        at = [curve_degree(fan, w, pi_l) - eps * curve_degree(fan, w, e)
              for w in fan.walls]
        assert min(at) == 0
        past = [
            curve_degree(fan, w, pi_l)
            - (eps + F(1, 1000)) * curve_degree(fan, w, e)
            for w in fan.walls
        ]
        assert min(past) < 0


class TestPolytopes:
    def test_unit_simplex(self):
        p = polytope_of(P2_FAN, ToricDivisor((0, 0, 1)))
        assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
        assert p.volume() == F(1, 2)

    def test_truncated_simplex(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        p = polytope_of(fan, ToricDivisor((0, 0, 1, F(-1, 2))))
        assert set(p.vertices) == {
            (F(1, 2), F(0)), (F(0), F(1, 2)), (F(1), F(0)), (F(0), F(1)),
        }
        # inclusion-exclusion oracle: 1/2 - (1/2)^2/2
        assert p.volume() == F(3, 8)

    def test_empty_beyond_threshold(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        p = polytope_of(fan, ToricDivisor((0, 0, 1, -2)))
        assert p.is_empty
        assert p.volume() == 0

    def test_incomplete_fan_rejected(self):
        # P2 without its maximal cone (0, 2): the rays still span the plane
        fan = Fan(P2_FAN.rays, ((0, 1), (1, 2)))
        with pytest.raises(ToricError, match=r"wall \(0,\) with 1 incident cone"):
            polytope_of(fan, ToricDivisor((0, 0, 1)))

    def test_unit_square_volume(self):
        square = LatticePolytope(
            [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)]
        )
        assert square.volume() == 1

    def test_unit_simplex_3d(self):
        fan = Fan(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        )
        p = polytope_of(fan, ToricDivisor((0, 0, 0, 1)))
        assert p.volume() == F(1, 6)


class TestFacetLatticeVolume:
    def test_horizontal_segment(self):
        rect = LatticePolytope(
            [((1, 0), 0), ((0, 1), 0), ((-1, 0), 2), ((0, -1), 1)]
        )
        # facet y = 0 runs from (0,0) to (2,0)
        assert rect.facet_lattice_volume(1) == 2

    def test_hypotenuse(self):
        tri = LatticePolytope([((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
        assert tri.facet_lattice_volume(2) == 1

    def test_simplex_facet_3d(self):
        simplex = LatticePolytope(
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)]
        )
        assert simplex.facet_lattice_volume(3) == F(1, 2)

    def test_proportional_restrictions_count_once(self, load_model):
        # at t = eps = 1 two inequalities restrict to proportional ones on the
        # z = 0 facet; each facet of the slice must be counted once
        model = load_model("blp3_014")
        fan1, e_idx, pullback = _exceptional_setup(model)
        e_div = ToricDivisor(tuple(int(i == e_idx) for i in range(len(fan1.rays))))
        p = polytope_of(fan1, pullback(model.L) - e_div)
        assert p.inequalities[2][0] == (0, 0, 1)
        assert p.facet_lattice_volume(2) == F(3, 2)
        assert p.boundary_lattice_volume() / 2 == 3

    def test_non_primitive_normal_rejected(self):
        p = LatticePolytope([((2, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
        with pytest.raises(ToricError, match="primitive"):
            p.facet_lattice_volume(0)


class TestExportTable:
    def test_p2_is_t1(self, load_model):
        t = export_table(load_model("p2"))
        assert t == IntersectionTable(
            "P2 O(1) point", 2, (F(1), F(0), F(-1)), (F(-3), F(-1)), F(1)
        )

    def test_p3(self, load_model):
        t = export_table(load_model("p3"))
        assert t.ae == (F(1), F(0), F(0), F(1))
        pair = alpha_polys(t)
        assert pair.alpha0.coeffs == (F(1, 6), F(0), F(0), F(-1, 6))
        assert pair.alpha1.coeffs == (F(1), F(0), F(-1, 2))
        assert t.epsilon == 1

    def test_f1_big_nef_matches_p2_slope(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        assert isinstance(mx, MixedTable)
        p2 = export_table(load_model("p2"))
        assert mx.ae == p2.ae and mx.kae == p2.kae
        assert slope_mu(alpha_polys(mx)) == 3

    @pytest.mark.parametrize("name, calls", [("f1_bignef", 10), ("p2", 6)])
    def test_each_intersection_number_computed_once(self, load_model, monkeypatch, name,
                                                    calls):
        # one for validation's (L^n) > 0 check, then one per MIX/KMIX entry
        # with H (AE/KAE are their j = 0 slices), or one per AE/KAE entry
        counted = []

        def counting(*args):
            counted.append(args)
            return _intersect(*args)

        monkeypatch.setattr(toric_mod, "_intersect", counting)
        export_table(load_model(name))
        assert len(counted) == calls

    def test_blown_up_p3_at_point_on_e(self, load_model):
        t = export_table(load_model("blp3_014"))
        assert t.ae == (7, 0, 0, 1)
        assert t.kae == (-14, 0, 2)
        assert t.epsilon == 1

    def test_invalid_model_rejected(self):
        model = ToricModel(
            "bad", P2_FAN, ToricDivisor((0, 0, -1)), (0, 1)
        )
        with pytest.raises(ToricError, match="nef"):
            export_table(model)


class TestTwoPathConsistency:
    # the localization table against the polytope volume reference path
    @pytest.mark.parametrize(
        "name",
        ["p2", "p2_o2", "p3", "f1_ample", "f1_bignef",
         "p4_o2_codim2", "p1_cubed_point", "blp3_014"],
    )
    def test_fixture(self, load_model, agrees_with_polytopes, name):
        assert agrees_with_polytopes(load_model(name))

    @pytest.mark.parametrize("s", [F(1, 4), F(1, 2), F(1)])
    def test_mixed_s_direction(self, load_model, agrees_with_polytopes, s):
        assert agrees_with_polytopes(load_model("f1_bignef"), s)


class TestScaling:
    def test_alpha0_covariance(self, load_model):
        # replacing L by dL: epsilon scales by d, alpha0(dL; t) = d^n alpha0(L; t/d)
        base = alpha_polys(export_table(load_model("p2")))
        for d, name in ((2, "p2_o2"),):
            scaled = alpha_polys(export_table(load_model(name)))
            assert scaled.epsilon == d * base.epsilon
            # base.alpha0 at t/d: the coefficient of t^k divided by d^k
            at_t_over_d = UniPoly(c / d**k for k, c in enumerate(base.alpha0.coeffs))
            assert scaled.alpha0 == d**2 * at_t_over_d

    def test_birational_invariance(self, load_model):
        # mu from the subdivided fan equals the value on the base variety
        f1 = export_table(load_model("f1_bignef"))
        p2 = export_table(load_model("p2"))
        assert slope_mu(alpha_polys(f1)) == slope_mu(alpha_polys(p2))


class TestModelValidation:
    def test_good_fixtures(self, load_model):
        for name in ("p2", "p2_o2", "p3", "f1_ample", "f1_bignef"):
            assert load_model(name).validate() == []

    def test_l_must_be_big(self):
        # pullback of O(1) from one factor of P1 x P1: nef with L^2 = 0
        fan = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
        errors = ToricModel("P1xP1 O(1,0)", fan, ToricDivisor((0, 0, 1, 0)), (0, 1)).validate()
        assert errors == ["L not big: sections polytope is flat"]

    def test_folded_wall_is_a_diagnostic(self):
        # the cones (0, 1) and (1, 2) lie on the same side of their wall
        fan = Fan(((-1, 0), (0, 1), (-1, 1), (1, 0), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        errors = ToricModel("folded", fan, ToricDivisor((1,) * 5), (0,)).validate()
        assert errors == ["wall data inconsistent at (1,)"]

    def test_h_must_be_ample(self, load_model):
        m = load_model("p2")
        bad = ToricModel(m.label, m.fan, m.L, m.sigma, H=ToricDivisor((0, 0, 0)))
        assert bad.validate() == [
            "H not ample: degree 0 on wall (0,)",
            "H not ample: degree 0 on wall (1,)",
            "H not ample: degree 0 on wall (2,)",
        ]

    @pytest.mark.parametrize("L, H, message", [
        ((0, 0, 1, F(-1, 2)), None, "L coefficient 3 is -1/2, not an integer"),
        ((0, 0, 1, -1), (1, 1, 1, F(1, 3)), "H coefficient 3 is 1/3, not an integer"),
    ])
    def test_serialize_refuses_fractional_coefficient(self, L, H, message):
        fan, _ = star_subdivide(P2_FAN, (0, 1))
        model = ToricModel("fractional", fan, ToricDivisor(L), (0,), H and ToricDivisor(H))
        with pytest.raises(ToricError) as err:
            serialize_toric_model(model)
        assert str(err.value) == message

class TestIntegerKernel:
    """The integer adjugate kernel against Fraction Gauss-Jordan elimination."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_adjugate_on_random_matrices(self, n):
        rng = random.Random(1000 + n)
        dets = []
        for trial in range(60):
            size = 10**12 if trial % 5 == 4 else 4
            rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 0:  # singular: the last row depends on the others
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[n // 2])]
                if n == 1:
                    rows = [[0]]
            det, adj = _adjugate(rows)
            dets.append(det)
            assert det == leibniz_det(rows)
            if det == 0:
                assert adj is None
                continue
            for i in range(n):
                for j in range(n):
                    assert sum(rows[i][k] * adj[k][j] for k in range(n)) == det * (i == j)
            for j in range(n):
                unit = [int(i == j) for i in range(n)]
                assert [F(adj[i][j], det) for i in range(n)] == gauss_jordan_solve(rows, unit)
        assert 0 in dets and any(abs(d) > 1 for d in dets)

    def test_row_swap(self):
        assert _adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert _adjugate([[0, 2], [3, 1]]) == (-6, [[1, -2], [-3, 0]])

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_toric_data_match_reference(self, load_model, name):
        model = load_model(name)
        fan1, e_idx, pullback = _exceptional_setup(model)
        e_div = ToricDivisor(tuple(int(i == e_idx) for i in range(len(fan1.rays))))
        hs = [] if model.H is None else [model.H]
        for fan, divisors in (
            (model.fan, [model.L, *hs]),
            (fan1, [pullback(model.L), e_div, *map(pullback, hs)]),
        ):
            c, coords = fan.generic
            for cone, ys in zip(fan.max_cones, coords):
                rows = [[fan.rays[i][d] for i in cone] for d in range(fan.dim)]
                assert list(ys) == gauss_jordan_solve(rows, c)
            for wall in fan.walls:
                for d in divisors:
                    assert curve_degree(fan, wall, d) == reference_curve_degree(fan, wall, d)
        eps = export_table(model).epsilon
        for p in (
            polytope_of(model.fan, model.L),
            polytope_of(fan1, pullback(model.L) - eps / 2 * e_div),
            polytope_of(fan1, pullback(model.L) - eps * e_div),
        ):
            assert p.vertices == reference_vertices(p)

    def test_folded_wall_matches_reference(self):
        fan = Fan(((-1, 0), (0, 1), (-1, 1), (1, 0), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        # the wall (1,) between the cones (0, 1) and (1, 2), opposite rays 0 and 2
        wall = Wall((1,), (0, 2), ())
        assert reference_curve_degree(fan, wall, ToricDivisor((1,) * 5)) is None
        with pytest.raises(ToricError, match=r"^wall data inconsistent at \(1,\)$"):
            fan.walls


class TestNoFloats:
    """Localization runs on ints: a float must never reach a table entry
    (1 / prod(ys) of ints would be one)."""

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_table_entries_and_weights(self, load_model, name):
        model = load_model(name)
        table = export_table(model)
        entries = [*table.ae, *table.kae, table.epsilon]
        if isinstance(table, MixedTable):
            entries += [*table.mixed.values(), *table.kmixed.values()]
        assert all(type(x) in (int, F) for x in entries)
        fan1, e_idx, pullback = _exceptional_setup(model)
        denom, points = _localize(fan1, (pullback(model.L),))
        assert type(denom) is int
        assert all(type(w) is int and type(v) is int for w, (v,) in points)

    def test_fractional_coefficient(self):
        fan, _ = star_subdivide(P2_FAN, (0, 1))
        divisor = ToricDivisor((0, 0, 1, F(-1, 2)))
        denom, points = _localize(fan, (divisor,))
        assert type(denom) is int and all(type(w) is int for w, _ in points)
        values = [v for _, (v,) in points]
        assert all(type(v) in (int, F) for v in values)
        assert any(type(v) is F and v.denominator == 2 for v in values)
        square = _intersect((denom, points), (2,))
        # D^2 = 2! vol(P_D) for nef D: the truncated simplex of area 3/8
        assert type(square) is F and square == F(3, 4)
