import json
import random
import time
from collections import Counter
from fractions import Fraction as F
from functools import cached_property
from itertools import combinations, permutations, product
from math import prod

import pytest

from reference import (
    PerConeFan,
    Wall,
    curve_degree,
    entries,
    exceptional_setup,
    localize,
    mixed_entries,
    ref_export_table,
    ref_validate,
    star_subdivide,
    subdivided_localization,
    table_of,
    wall_nef_threshold,
    walls_of,
)
from slopestab import cli, oracle
from slopestab import toric as toric_mod
from slopestab.models import IntersectionTable, MixedTable, ModelError, parse_model
from slopestab.polynomials import UniPoly
from slopestab.slope import alpha_polys, slope_mu, stability_scan
from slopestab.toric import (
    Fan,
    LatticePolytope,
    ToricError,
    ToricModel,
    _adjugate,
    _blow_up,
    _generic_direction,
    _intersect,
    _wall_degrees,
    check_fan,
    export_table,
    nef_threshold,
    polytope_of,
)

P2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
F1_FAN = Fan(((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (1, 3), (1, 2), (0, 2)))
# eight unimodular cones winding three times around the plane: every wall
# has two cones and every cone is smooth, but it is not a fan
WINDING_FAN = Fan(
    ((1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1)),
    tuple(tuple(sorted((i, (i + 1) % 8))) for i in range(8)),
)


# every toric fixture, then every model of EXTRA_TORIC in conftest
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


def reference_curve_degree(fan, wall, a):
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
    return a[ia] + a[ib] - sum(c * a[i] for c, i in zip(sol, wall.rays))


def reference_vertices(polytope):
    """Solve every n-subset of the inequalities as equalities."""
    out = set()
    for subset in combinations(polytope.inequalities, polytope.dim):
        sol = gauss_jordan_solve([u for u, _ in subset], [-a for _, a in subset])
        if sol is not None and polytope.contains(sol):
            out.add(tuple(sol))
    return tuple(sorted(out))


def kernel_calls(patch):
    """Patch the integer kernel's Bareiss, products and rank-one steps to
    record their arguments: name -> list of argument tuples, in call order."""
    calls = {}
    for name in ("_adjugate", "_product", "_cross"):
        def recording(*args, _f=getattr(toric_mod, name), _calls=calls.setdefault(name, [])):
            _calls.append(args)
            return _f(*args)
        patch.setattr(toric_mod, name, recording)
    return calls


def wall_degrees(fan, divisors):
    """`_wall_degrees` at `Fan.generic`, with each divisor's value at each
    cone's fixed point summed here: (rays, opposite rays, degrees) per wall."""
    _, coords = fan.generic
    values = [[sum(a[i] * y for i, y in zip(cone, ys)) for cone, ys in zip(fan.max_cones, coords)]
              for a in divisors]
    for rays, ((_, ia), (_, ib)), degrees in _wall_degrees(fan, coords, values):
        yield rays, (ia, ib), degrees


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
            ToricModel("winding", WINDING_FAN, (1,) * 8, (0,)).validate(),
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


def assert_inherited_adjugates(fan, sigma):
    """Subdivide the `PerConeFan` fan at sigma: the derived (det, adj) of
    every cone must equal Bareiss on its matrix, and the cones left alone
    must share the parent's objects.  Returns the subdivided fan."""
    fan1, new_idx = star_subdivide(fan, sigma)
    if fan1 is fan:
        return fan
    bareiss = tuple(
        _adjugate([[fan1.rays[i][d] for i in cone] for d in range(fan1.dim)])
        for cone in fan1.max_cones
    )
    assert fan1.__dict__["adjugates"] == bareiss  # filled by star_subdivide
    kept = [pair for cone, pair in zip(fan1.max_cones, fan1.adjugates) if new_idx not in cone]
    parent = [pair for cone, pair in zip(fan.max_cones, fan.adjugates)
              if not set(sigma) <= set(cone)]
    assert len(kept) == len(parent) and all(a is b for a, b in zip(kept, parent))
    return fan1


class TestInheritedAdjugates:
    """The reference star_subdivide derives the new cones' (det, adj) from
    the parent's by row operations; Bareiss on each new cone is the
    reference."""

    def test_random_chains_on_projective_spaces(self):
        rng = random.Random(14)
        positions = set()
        for chain in range(1000):
            n = 2 + chain % 5
            # each cone's rays in a random order, so that the replaced ray
            # takes every position p of the sign rule
            cones = [tuple(rng.sample(c, n)) for c in combinations(range(n + 1), n)]
            fan = PerConeFan(tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
                             + ((-1,) * n,), tuple(cones))
            for _ in range(rng.randint(1, 3)):
                cone = rng.choice(fan.max_cones)
                sigma = rng.sample(cone, rng.randint(1, n))
                positions.update((n, cone.index(i)) for i in sigma)
                fan = assert_inherited_adjugates(fan, sigma)
        assert positions == {(n, p) for n in range(2, 7) for p in range(n)}

    @pytest.mark.parametrize("sigma", [(0, 1), (1, 2), (0, 2)])
    def test_weighted_projective_plane(self, sigma):
        # P(1, 1, 2): u0 + u1 + 2 u2 = 0, and the cone (0, 1) has det 2
        fan = PerConeFan(((-1, -2), (1, 0), (0, 1)), ((0, 1), (1, 2), (2, 0)))
        assert [det for det, _ in fan.adjugates] == [2, 1, 1]
        fan1 = assert_inherited_adjugates(fan, sigma)
        new_idx = len(fan1.rays) - 1
        assert_inherited_adjugates(fan1, next(c for c in fan1.max_cones if new_idx in c))

    def test_flat_cone(self):
        # the cone (0, 1, 2) lies in a plane: det 0, and so do its subdivisions
        rays = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (-1, -1, -1))
        fan = PerConeFan(rays, ((0, 1, 2), (1, 0, 3), (0, 3, 4)))
        assert [det for det, _ in fan.adjugates] == [0, -1, 1]
        fan1 = assert_inherited_adjugates(fan, (0, 1))
        assert [adj for det, adj in fan1.adjugates if det == 0] == [None, None]
        assert_inherited_adjugates(fan1, (0, 5))


class TestInheritedWalls:
    """The reference star_subdivide keeps the parent's Wall between two
    cones it leaves alone, once the parent's walls are computed; the walls
    of the same fan built afresh are the reference."""

    @staticmethod
    def assert_inherited_walls(model):
        # a center of one ray leaves the fan as it is: take a 2-face then
        sigma = model.sigma if len(model.sigma) > 1 else model.fan.max_cones[0][:2]
        fresh, _ = star_subdivide(PerConeFan(model.fan.rays, model.fan.max_cones), sigma)
        assert "walls" not in fresh.__dict__  # nothing to carry over
        fan = PerConeFan(model.fan.rays, model.fan.max_cones)
        parent = {id(wall) for wall in fan.walls}
        fan1, new_idx = star_subdivide(fan, sigma)
        reference = PerConeFan(fan1.rays, fan1.max_cones).walls
        assert fan1.__dict__["walls"] == reference == fresh.walls
        # a wall between two kept cones has the new ray neither in it nor opposite
        kept = [new_idx not in (*wall.rays, *wall.opposite) for wall in fan1.walls]
        assert [id(wall) in parent for wall in fan1.walls] == kept and any(kept)

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_reference_models(self, load_model, name):
        self.assert_inherited_walls(load_model(name))

    @pytest.mark.parametrize("n, d, deltas, seed", [
        (2, 4, (1, 1), 2), (3, 4, (1, 1, 1), 2), (4, 4, (2, 1, 1), 4), (5, 2, (1,), 5),
    ], ids=["P2-d4-2", "P3-d4-3", "P4-d4-3", "P5-d2-1"])
    def test_generated_blow_ups(self, blown_up_projective_space, n, d, deltas, seed):
        self.assert_inherited_walls(blown_up_projective_space(n, d, deltas, seed))


class TestCurveDegree:
    """Curve degrees read off the fixed-point values (`_wall_degrees`), and
    the reference's, from the wall relations (`curve_degree`)."""

    @staticmethod
    def degrees(fan, divisor):
        walls = wall_degrees(fan, (divisor,))
        package = {rays: deg for rays, _, (deg,) in walls}
        assert package == {w.rays: curve_degree(w, divisor) for w in walls_of(fan)}
        return package

    def test_p2_lines(self):
        # O(1) as the single prime divisor of the ray (-1,-1)
        assert set(self.degrees(P2_FAN, (0, 0, 1)).values()) == {1}

    def test_exceptional_self_intersection(self):
        assert self.degrees(F1_FAN, (0, 0, 0, 1))[(3,)] == -1

    def test_zero_divisor(self):
        assert set(self.degrees(F1_FAN, (0, 0, 0, 0)).values()) == {0}

    def test_dimension_one(self):
        p1 = Fan(((1,), (-1,)), ((0,), (1,)))
        assert self.degrees(p1, (2, 3)) == {(): 5}
        folded = Fan(((1,), (1,)), ((0,), (1,)))
        for walls in (lambda: list(wall_degrees(folded, ((2, 3),))),
                      lambda: walls_of(folded)):
            with pytest.raises(ToricError, match=r"^wall data inconsistent at \(\)$"):
                walls()


class TestNefThreshold:
    """nef_threshold is the least degree of L on the curves of the parent's
    opposite-ray walls; the bound from every wall of the subdivided fan,
    wall_nef_threshold, is the reference."""

    def test_p2_blowup(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        assert nef_threshold(ToricModel("P2", P2_FAN, (0, 0, 1), (0, 1))) == 1
        assert wall_nef_threshold(fan, (0, 0, 1, 0), e_idx) == 1

    def test_threshold_is_a_fraction(self):
        # the least curve degree, and the reference's least quotient of curve
        # degrees, come back as Fractions, never as floats
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        for eps in (nef_threshold(ToricModel("P2 O(3)", P2_FAN, (0, 0, 3), (0, 1))),
                    wall_nef_threshold(fan, (0, 0, 3, 0), e_idx)):
            assert type(eps) is F and eps == 3

    def test_scales_with_l(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        for d in (2, 3, 5):
            assert nef_threshold(ToricModel("P2 O(d)", P2_FAN, (0, 0, d), (0, 1))) == d
            assert wall_nef_threshold(fan, (0, 0, d, 0), e_idx) == d

    def test_f1_divisor_case(self):
        # L = 2H - E0 with E = the (1,1) ray's divisor
        assert nef_threshold(ToricModel("F1", F1_FAN, (0, 0, 2, -1), (3,))) == 1
        assert wall_nef_threshold(F1_FAN, (0, 0, 2, -1), 3) == 1

    def test_threshold_boundary_is_sharp(self):
        # on the walls of the subdivided fan, pi*L - eps E has degree >= 0
        # with a 0, and pi*L - (eps + 1/1000) E a negative one
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        pi_l = (0, 0, 1, 0)
        eps = nef_threshold(ToricModel("P2", P2_FAN, pi_l[:3], (0, 1)))
        e = tuple(int(i == e_idx) for i in range(4))
        at = [curve_degree(w, pi_l) - eps * curve_degree(w, e)
              for w in fan.walls]
        assert min(at) == 0
        past = [
            curve_degree(w, pi_l)
            - (eps + F(1, 1000)) * curve_degree(w, e)
            for w in fan.walls
        ]
        assert min(past) < 0

    def test_walls_containing_sigma_never_bind(self, load_model):
        # on the models of the differential test: the bound L.C_W / (-c_i)
        # of each wall W that contains sigma, i in sigma with -c_i > 0, is
        # never below epsilon, and epsilon is an integer
        quotients = 0
        for model in differential_models(load_model):
            try:
                eps = export_table(model).epsilon
            except ToricError:
                continue
            assert eps.denominator == 1, model
            for wall in walls_of(model.fan):
                if set(model.sigma) <= set(wall.rays):
                    degree = curve_degree(wall, model.L)
                    for i, c in zip(wall.rays, wall.relation):
                        if i in model.sigma and c < 0:
                            quotients += 1
                            assert F(degree, -c) >= eps, (model, wall)
        assert quotients > 100


class TestPolytopes:
    def test_unit_simplex(self):
        p = polytope_of(P2_FAN, (0, 0, 1))
        assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
        assert p.volume() == F(1, 2)

    def test_truncated_simplex(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        p = polytope_of(fan, (0, 0, 1, F(-1, 2)))
        assert set(p.vertices) == {
            (F(1, 2), F(0)), (F(0), F(1, 2)), (F(1), F(0)), (F(0), F(1)),
        }
        # inclusion-exclusion oracle: 1/2 - (1/2)^2/2
        assert p.volume() == F(3, 8)

    def test_empty_beyond_threshold(self):
        fan, e_idx = star_subdivide(P2_FAN, (0, 1))
        p = polytope_of(fan, (0, 0, 1, -2))
        assert not p.vertices
        assert p.volume() == 0

    def test_incomplete_fan_rejected(self):
        # P2 without its maximal cone (0, 2): the rays still span the plane
        fan = Fan(P2_FAN.rays, ((0, 1), (1, 2)))
        with pytest.raises(ToricError, match=r"wall \(0,\) with 1 incident cone"):
            polytope_of(fan, (0, 0, 1))

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
        p = polytope_of(fan, (0, 0, 0, 1))
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
        fan1, e_idx, pullback = exceptional_setup(model)
        p = polytope_of(fan1, tuple(a - (i == e_idx) for i, a in enumerate(pullback(model.L))))
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
        assert t == table_of("P2 O(1) point", 2, (1, 0, -1), (-3, -1), 1)

    def test_p3(self, load_model):
        t = export_table(load_model("p3"))
        assert entries(t)[0] == (F(1), F(0), F(0), F(1))
        pair = alpha_polys(t)
        assert pair.alpha0.coeffs == (F(1, 6), F(0), F(0), F(-1, 6))
        assert pair.alpha1.coeffs == (F(1), F(0), F(-1, 2))
        assert t.epsilon == 1

    def test_f1_big_nef_matches_p2_slope(self, load_model):
        mx = export_table(load_model("f1_bignef"))
        assert isinstance(mx, MixedTable)
        p2 = export_table(load_model("p2"))
        assert entries(mx) == entries(p2)
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

    @pytest.mark.parametrize("name, cones", [
        ("p2", 3), ("p2_o2", 3), ("p3", 4), ("f1_ample", 4), ("f1_bignef", 4),
        ("p4_o2_codim2", 5), ("p1_cubed_point", 8), ("blp3_014", 6), ("p2_o2_point_02", 3),
    ])
    def test_bareiss_once_per_component(self, load_model, monkeypatch, name, cones):
        # Bareiss runs once, at the first cone of the input fan, whose wall
        # graph is connected: the wall walk derives every other cone's
        # (det, adj); and the input fan, the only one, builds its facet
        # incidence once
        m = load_model(name)
        model = ToricModel(m.label, Fan(m.fan.rays, m.fan.max_cones), m.L, m.sigma, m.H)
        bareiss, built = [], []

        def counting_adjugate(rows):
            bareiss.append(rows)
            return _adjugate(rows)

        facets = Fan.__dict__["facets"].func

        def counting_facets(fan):
            built.append(fan)
            return facets(fan)

        counted = cached_property(counting_facets)
        counted.__set_name__(Fan, "facets")
        monkeypatch.setattr(toric_mod, "_adjugate", counting_adjugate)
        monkeypatch.setattr(Fan, "facets", counted)
        export_table(model)
        first = model.fan.max_cones[0]
        assert bareiss == [[[model.fan.rays[i][d] for i in first] for d in range(model.fan.dim)]]
        assert len(model.fan.max_cones) == cones
        assert len(built) == len({id(fan) for fan in built}) == 1

    def test_cones_axis(self, monkeypatch, product_model):
        # (P^1)^10 with H, 1024 cones: one Bareiss, and an export well
        # inside a generous time bound
        model = product_model("(P1)^10 O(1) H", (1,) * 10, (1,) * 10, with_h=True)
        bareiss = []

        def counting_adjugate(rows):
            bareiss.append(rows)
            return _adjugate(rows)

        monkeypatch.setattr(toric_mod, "_adjugate", counting_adjugate)
        start = time.perf_counter()
        table = export_table(model)
        assert time.perf_counter() - start < 3
        assert len(bareiss) == 1 and len(model.fan.max_cones) == 1024
        assert isinstance(table, MixedTable) and table.epsilon == 1

    @staticmethod
    def count_work(monkeypatch, model):
        """The number of calls of the kernel's Bareiss, products and rank-one
        steps in the wall walk, and in the whole export."""
        with monkeypatch.context() as patch:
            calls = kernel_calls(patch)
            model.fan._walk
            walk = {name: len(args) for name, args in calls.items()}
            export_table(model)
        return walk, {name: len(args) for name, args in calls.items()}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_projective_space_walk_is_a_star(self, monkeypatch, product_model, n):
        # P^n's wall graph is complete: the root reaches every other cone,
        # by one product each, and the walk continues from none of them
        model = product_model(f"P{n} O(1) H", (n,), (1,), with_h=True)
        walk, export = self.count_work(monkeypatch, model)
        assert walk == {"_adjugate": 1, "_product": n, "_cross": 0}
        assert export["_adjugate"] == 1 and export["_cross"] == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_products_on_the_walk_tree(self, monkeypatch, product_model, n):
        # (P^1)^n: one product per edge of the walk's tree, cones - 1
        model = product_model(f"(P1)^{n} O(1)", (1,) * n, (1,) * n)
        walk, export = self.count_work(monkeypatch, model)
        assert walk["_adjugate"] == 1 and walk["_product"] == 2**n - 1
        assert walk["_cross"] < 2**n - 1 and export["_adjugate"] == 1

    @pytest.mark.parametrize("name", REFERENCE_MODELS[:5])
    def test_builds_no_fan(self, models_dir, monkeypatch, name):
        # the blow-up is read off the parent fan: no Fan is built for it
        built = []
        init = Fan.__init__

        def counting(fan, *args):
            built.append(fan)
            init(fan, *args)

        monkeypatch.setattr(Fan, "__init__", counting)
        model = parse_model((models_dir / f"{name}.json").read_bytes())
        assert built == [model.fan]
        export_table(model)
        assert built == [model.fan]

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_fixed_point_data_once(self, load_model, monkeypatch, name):
        # one export reads every wall degree off one pass (`_wall_degrees`)
        # and looks for the sigma-distinct direction at most once; then
        # nef_threshold reads its walls off the model's fixed-point record,
        # scanning no facets, and a second export computes none of it again
        m = load_model(name)
        model = ToricModel(m.label, Fan(m.fan.rays, m.fan.max_cones), m.L, m.sigma, m.H)
        walls, starred = [], []

        def counting_walls(*args):
            walls.append(args)
            return _wall_degrees(*args)

        def counting_direction(fan, *star):
            starred.extend(star)
            return _generic_direction(fan, *star)

        class Unscanned(tuple):
            def __iter__(self):
                raise AssertionError("Fan.facets scanned")

        monkeypatch.setattr(toric_mod, "_wall_degrees", counting_walls)
        monkeypatch.setattr(toric_mod, "_generic_direction", counting_direction)
        table = export_table(model)
        assert len(walls) == 1 and len(starred) <= 1
        facets = model.fan.facets
        model.fan.__dict__["facets"] = Unscanned(facets)
        assert nef_threshold(model) == table.epsilon
        model.fan.__dict__["facets"] = facets
        assert export_table(model) == table
        assert len(walls) == 1 and len(starred) <= 1

    def test_blown_up_p3_at_point_on_e(self, load_model):
        t = export_table(load_model("blp3_014"))
        assert entries(t) == ((7, 0, 0, 1), (-14, 0, 2))
        assert t.epsilon == 1

    def test_invalid_model_rejected(self):
        model = ToricModel("bad", P2_FAN, (0, 0, -1), (0, 1))
        with pytest.raises(ToricError, match="nef"):
            export_table(model)


def generated_blow_ups(count, seed):
    """Models on P^2, P^3 and P^4 after up to two star subdivisions at random
    faces, with the cones in random order and their rays too, blown up at a
    random face of a random size 1..n.  L = d pi*O(1) - sum_j delta_j E_j,
    d in 0..3, delta_j in {0, 1}: delta_j = 0 pulls L back unchanged, which
    makes for zero nef thresholds, and d = 0 for an L that is not big; H,
    on about a third of them, takes delta_j = 1 and may fail to be ample."""
    rng = random.Random(seed)
    for index in range(count):
        n = 2 + index % 3
        fan = Fan(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,),
                  tuple(tuple(rng.sample(c, n)) for c in combinations(range(n + 1), n)))
        L = (0,) * n + (rng.randint(0, 3),)
        H = (0,) * n + (rng.randint(2, 4),)
        for _ in range(rng.randint(0, 2)):
            sigma = rng.sample(rng.choice(fan.max_cones), rng.randint(2, n))
            fan, _ = star_subdivide(fan, sigma)
            L += (sum(L[i] for i in sigma) - rng.randint(0, 1),)
            H += (sum(H[i] for i in sigma) - 1,)
        cones = rng.sample(fan.max_cones, len(fan.max_cones))
        sigma = rng.sample(rng.choice(cones), rng.randint(1, n))
        yield ToricModel(f"generated {index}", Fan(fan.rays, tuple(cones)), L, sigma,
                         H if rng.random() < 1 / 3 else None)


def differential_models(load_model):
    """The 1009 models on which export_table meets the reference path: the
    reference models, then 1000 generated ones."""
    return [load_model(name) for name in REFERENCE_MODELS] + list(generated_blow_ups(1000, seed=25))


class TestBlowUpFromParent:
    """export_table reads the blow-up off the parent fan; the star
    subdivision of tests/reference.py, built afresh, with the bound from
    each of its walls and localization over its cones, is the reference."""

    def test_direction_fallback(self):
        # c = (1, 2) = u_1 + u_3 has equal coordinates on sigma = (1, 3) in
        # the cone (1, 3), and so a zero coordinate in both cones that
        # replace it; the blow-up needs k = 3
        model = ToricModel("F1 point (1, 3)", F1_FAN, (0, 0, 2, -1), (1, 3))
        fan1, _, _, points = subdivided_localization(model)
        assert F1_FAN.generic[0] == (1, 2)
        assert _generic_direction(F1_FAN, model._star)[0] == _generic_direction(fan1)[0] == (1, 3)
        assert _blow_up(model) == points

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_direction_and_fixed_points(self, load_model, name):
        # the same c, and the same fixed points in the same order, with the
        # same weights and divisor values
        model = load_model(name)
        fan1, _, _, points = subdivided_localization(model)
        assert _generic_direction(model.fan, model._star)[0] == _generic_direction(fan1)[0]
        assert _blow_up(model) == points

    def test_matches_subdivided_fan(self, load_model):
        # the same table, or the same refusal, on 1009 models
        outcomes, centers, fallbacks = Counter(), set(), 0
        for model in differential_models(load_model):
            results = []
            for export in (export_table, ref_export_table):
                try:
                    results.append(export(model))
                except ToricError as exc:
                    results.append(str(exc))
            table, expected = results
            assert type(table) is type(expected) and table == expected, model
            if isinstance(table, str):
                outcomes[table.split(":")[0]] += 1
                continue
            outcomes[type(table).__name__] += 1
            centers.add((model.fan.dim, len(model.sigma)))
            fallbacks += _generic_direction(model.fan, model._star) != model.fan.generic
        assert set(outcomes) == {"IntersectionTable", "MixedTable", "nef threshold is zero",
                                 "L not nef", "L not big", "H not ample"}
        assert centers == {(n, k) for n in (2, 3, 4) for k in range(1, n + 1)}
        assert fallbacks > 0


def wall_graph_bareiss(fan, dets):
    """The cones at which the wall walk must run Bareiss: in cone order, each
    cone not yet reached, and then every cone reachable from it across walls
    of two cones, leaving only cones of nonzero det."""
    neighbours = {ci: [] for ci in range(len(fan.max_cones))}
    for _, inc in fan.facets:
        if len(inc) == 2:
            (ca, _), (cb, _) = inc
            neighbours[ca].append(cb)
            neighbours[cb].append(ca)
    reached, roots = set(), []
    for root in neighbours:
        if root in reached:
            continue
        roots.append(root)
        reached.add(root)
        stack = [root]
        while stack:
            a = stack.pop()
            if dets[a]:
                fresh = [b for b in neighbours[a] if b not in reached]
                reached.update(fresh)
                stack += fresh
    return roots


def outcome(fan, model=None, divisors=()):
    """What a fan, or a model on it, reports: every det, check_fan's
    messages, the generic direction or its refusal, each wall's rays,
    opposite rays and degrees of the divisors, or the refusal, and the
    model's validation messages.  On a `PerConeFan` the degrees are
    `curve_degree` on its walls and the validation is `ref_validate`'s; the
    degrees are compared on smooth fans whose every facet has two cones,
    the only fans that `_wall_degrees` takes."""

    def attempt(f):
        try:
            return f()
        except (ToricError, RuntimeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    reference = isinstance(fan, PerConeFan)
    degrees = None
    if all(abs(det) == 1 for det in fan.dets) and all(len(inc) == 2 for _, inc in fan.facets):
        degrees = attempt(lambda: [
            (w.rays, w.opposite, [curve_degree(w, d) for d in divisors]) for w in fan.walls
        ] if reference else list(wall_degrees(fan, divisors)))
    validated = None
    if model is not None:
        validated = ref_validate(model) if reference else ToricModel(
            model.label, fan, model.L, model.sigma, model.H).validate()
    return fan.dets, check_fan(fan), attempt(lambda: fan.generic), degrees, validated


def random_fans(count, seed):
    """Fans that are not all complete, smooth or even fans: each is a
    complete fan, P^n (n = 1..4), F_a or (P^1)^n, or else the boundary of a
    simplex on n + 1 random integer rays, which gives non-smooth cones,
    cones of det 0 and folded walls; then, about half the time, with random
    cones dropped, which leaves walls of one cone and can disconnect the
    wall graph.  Cones and their rays come in random order."""
    rng = random.Random(seed)
    for index in range(count):
        n = 1 + index % 4
        kind = rng.randrange(4)
        if kind == 0:
            rays = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,)
            cones = list(combinations(range(n + 1), n))
        elif kind == 1:
            n = 2
            rays = ((1, 0), (0, 1), (-1, rng.randint(0, 3)), (0, -1))
            cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
        elif kind == 2:
            rays = tuple(tuple(s * int(i == j) for j in range(n)) for s in (1, -1)
                         for i in range(n))
            cones = [tuple(i if plus else i + n for i, plus in enumerate(choice))
                     for choice in product((True, False), repeat=n)]
        else:
            rays = ()
            while len(rays) < n + 1:
                ray = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(ray):
                    rays += (ray,)
            cones = list(combinations(range(n + 1), n))
        if rng.random() < 0.5 and len(cones) > 2:
            cones = rng.sample(cones, rng.randint(2, len(cones) - 1))
        cones = [tuple(rng.sample(cone, n)) for cone in rng.sample(cones, len(cones))]
        yield Fan(rays, tuple(cones))


class TestWallWalk:
    """`Fan` derives every cone's det and generic coordinates from one walk
    over the wall graph, and reads curve degrees off the fixed-point values;
    `PerConeFan`, Bareiss on each cone and a solve per wall and per cone, is
    the reference.  Every value, type, order and message must agree,
    Bareiss must run only where the walk cannot reach a cone, and the walk
    takes one product adj_a u_b per cone it reaches."""

    @staticmethod
    def assert_walk(fan, monkeypatch, model=None, divisors=()):
        walk = Fan(fan.rays, fan.max_cones)
        with monkeypatch.context() as patch:
            calls = kernel_calls(patch)
            walk._walk
        bareiss, products, crosses = (calls[name] for name in ("_adjugate", "_product", "_cross"))
        walked = outcome(walk, model, divisors)
        reference = PerConeFan(fan.rays, fan.max_cones)
        assert walked == outcome(reference, model, divisors)
        roots = wall_graph_bareiss(fan, reference.dets)
        assert bareiss == [([[fan.rays[i][d] for i in fan.max_cones[ci]] for d in range(fan.dim)],)
                           for ci in roots]
        assert len(products) == len(fan.max_cones) - len(roots) >= len(crosses)
        return roots, walked

    def test_differential_models(self, load_model, monkeypatch):
        # the 1009 models of the export differential: each wall graph is
        # connected, so Bareiss runs once; every degree of L and H is an int
        for model in differential_models(load_model):
            divisors = (model.L,) if model.H is None else (model.L, model.H)
            roots, (dets, _, _, degrees, _) = self.assert_walk(model.fan, monkeypatch, model,
                                                               divisors)
            assert roots == [0] and all(abs(det) == 1 for det in dets)
            if not isinstance(degrees, str):
                assert all(type(d) is int for _, _, ds in degrees for d in ds)

    def test_random_fans(self, monkeypatch):
        seen, rng = Counter(), random.Random(19)
        for fan in random_fans(400, seed=18):
            divisors = [tuple(rng.randint(-3, 3) for _ in fan.rays) for _ in range(2)]
            roots, (dets, errors, _, degrees, _) = self.assert_walk(fan, monkeypatch,
                                                                   divisors=divisors)
            seen["several roots"] += len(roots) > 1
            seen["det 0"] += 0 in dets
            seen["non-smooth"] += any(abs(det) > 1 for det in dets)
            components = wall_graph_bareiss(fan, [1] * len(dets))
            seen["root past det 0"] += len(roots) > len(components)
            seen["folded"] += isinstance(degrees, str) and "inconsistent" in degrees
            seen["wall of one cone"] += any(len(inc) == 1 for _, inc in fan.facets)
            seen["valid"] += errors == [] and isinstance(degrees, list)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("fan, roots", [
        # P(1, 1, 2): the cone (0, 1) has det 2
        (Fan(((-1, -2), (1, 0), (0, 1)), ((0, 1), (1, 2), (2, 0))), [0]),
        # the cone (0, 1, 2) lies in a plane: det 0, so the walk starts over
        (Fan(((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (-1, -1, -1)),
             ((0, 1, 2), (1, 0, 3), (0, 3, 4))), [0, 1]),
        # the cones (0, 1) and (1, 2) lie on the same side of their wall
        (Fan(((-1, 0), (0, 1), (-1, 1), (1, 0), (0, -1)),
             ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))), [0]),
        # two cones of P^1 x P^1 that share no wall: two components
        (Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3))), [0, 1]),
        # three rays of a line, one facet () shared by three cones
        (Fan(((1,), (-1,), (2,)), ((0,), (1,), (2,))), [0, 1, 2]),
        (WINDING_FAN, [0]),
    ], ids=["weighted", "flat", "folded", "disconnected", "three-on-a-wall", "winding"])
    def test_small_fans(self, fan, roots, monkeypatch):
        divisors = [tuple(range(len(fan.rays))), (1,) * len(fan.rays)]
        assert self.assert_walk(fan, monkeypatch, divisors=divisors)[0] == roots


def destabilized(table) -> bool:
    """Whether the slope scan flags the table: a destabilizing interval, a
    flat Q, or a refusal."""
    try:
        report = stability_scan(alpha_polys(table))
    except ModelError:
        return True
    return report.flat or bool(report.destabilizing)


# the table faults that the theorem gate must catch, each as the
# (ae, kae, epsilon) it puts in place of a table's own
TABLE_MUTANTS = {
    "KAE doubled": lambda t: (t.ae, tuple(2 * x for x in t.kae), t.epsilon),
    "last KAE entry + 1": lambda t: (t.ae, (*t.kae[:-1], t.kae[-1] + t.den), t.epsilon),
    "sign of AE[1]": lambda t: ((t.ae[0], -t.ae[1], *t.ae[2:]), t.kae, t.epsilon),
    "epsilon doubled": lambda t: (t.ae, t.kae, 2 * t.epsilon),
}


class TestTheoremGate:
    """Ross-Thomas (J. Differential Geom. 2006): a cscK polarization is slope
    semistable along every subscheme.  Products of projective spaces with
    any O(d_1, ..., d_k) carry products of Fubini-Study metrics, and dP6 and
    its products with -K are Kahler-Einstein (Wang-Zhu, Adv. Math. 2004),
    so every table exported from them (conftest's `csck_models`) must give
    "destabilizing: none"."""

    @pytest.fixture(scope="class")
    def tables(self, csck_models):
        return [export_table(model) for model in csck_models]

    def test_no_destabilizing_interval(self, csck_models, tables):
        assert len(tables) == 352
        assert {(m.fan.dim, len(m.sigma)) for m in csck_models} == {
            (n, k) for n in range(1, 6) for k in range(1, n + 1)}
        assert [t.label for t in tables if destabilized(t)] == []

    @pytest.mark.parametrize("mutant", TABLE_MUTANTS)
    def test_catches_table_mutant(self, tables, mutant):
        flagged = [destabilized(IntersectionTable(t.label, t.n, t.den, *TABLE_MUTANTS[mutant](t)))
                   for t in tables]
        assert any(flagged)

    def test_oracle_matches_at_half_epsilon(self, csck_models, tables):
        """The gate's models of dimension at most 3, 160 of them, checked
        against the lattice-point oracle, which shares no code with the
        table path: `oracle.verify` at c = epsilon/2 must give exact_match.
        Products of projective spaces with any O(d_1, ..., d_k) and dP6
        with its products under -K are cscK (Wang-Zhu, Adv. Math. 2004 for
        dP6), hence slope semistable along every sigma (Ross-Thomas,
        J. Differential Geom. 2006), so their exported tables are the ones
        the theorem speaks about; here the oracle pins each entry of them,
        not only the sign."""
        small = [(model, table) for model, table in zip(csck_models, tables)
                 if model.fan.dim <= 3]
        assert len(small) == 160
        assert [model.label for model, table in small
                if not oracle.verify(model, (table.epsilon / 2,))[0].exact_match] == []

    def test_negative_control(self, load_model):
        # F_1 = Bl_p P^2 along E, a polarization with no cscK metric: the
        # gate's scan flags it
        assert destabilized(export_table(load_model("f1_ample")))


class TestProductRelation:
    """X x P^1 with L x O(d) along Z x P^1, against the table of (X, L, Z):
    its blow-up is Bl_Z X x P^1, so with h the point class of P^1,
    (pi*L + d h)^(n+1-k) E^k = (n+1-k) d ae[k] and ae'[n+1] = 0, and
    K' = K + K_{P^1} = K - 2h gives kae'[k] = (n-k) d kae[k] - 2 ae[k]
    (kae'[n] = -2 ae[n]); the nef threshold is unchanged, as every wall of
    the P^1 factor contains Z x P^1.  Both sides share sigma's geometry, so
    this sees the fan, the dimension and K, not a fault local to sigma."""

    @staticmethod
    def predicted(table, d, k_p1=-2):
        n, ae, kae = table.n, table.ae, (*table.kae, 0)
        return IntersectionTable(
            f"{table.label} x P1 O({d})", n + 1, table.den,
            tuple((n + 1 - k) * d * a for k, a in enumerate(ae)) + (0,),
            tuple((n - k) * d * b + k_p1 * a for k, (a, b) in enumerate(zip(ae, kae))),
            table.epsilon)

    @pytest.fixture(scope="class")
    def pairs(self, load_model, csck_models, times_p1):
        """(product model, its table, the predicted table, the K_{P^1}
        mutant's) for the reference models (the toric fixtures and conftest's
        EXTRA_TORIC) and the cscK gate's models, with d = 1..3."""
        rng = random.Random(10)
        bases = [load_model(name) for name in REFERENCE_MODELS] + csck_models
        out = []
        for model in bases:
            d = rng.randint(1, 3)
            table = export_table(ToricModel(model.label, model.fan, model.L, model.sigma))
            product_model = times_p1(model, d)
            out.append((product_model, export_table(product_model),
                        self.predicted(table, d), self.predicted(table, d, -1)))
        return out

    def test_tables_follow_the_relation(self, pairs):
        assert len(pairs) == 361
        assert [model.label for model, table, predicted, _ in pairs if table != predicted] == []

    def test_catches_the_canonical_class_mutant(self, pairs):
        # -1 for the -2 of K_{P^1}: every product table refutes it
        assert [model.label for model, table, _, mutant in pairs if table == mutant] == []

    def test_oracle_matches_on_small_products(self, pairs):
        # the products of the five reference surfaces, checked against the
        # lattice-point oracle at c = epsilon/2
        small = [(model, table) for model, table, _, _ in pairs[:len(REFERENCE_MODELS)]
                 if model.fan.dim == 3]
        assert len(small) == 5
        assert [model.label for model, table in small
                if not oracle.verify(model, (table.epsilon / 2,))[0].exact_match] == []


def relabel_rays(model, rng):
    """The model with its rays renamed by a random permutation; cones keep
    their ray order, so they are no longer sorted."""
    perm = rng.sample(range(len(model.fan.rays)), len(model.fan.rays))

    def move(a):
        out = [None] * len(a)
        for j, x in enumerate(a):
            out[perm[j]] = x
        return tuple(out)

    fan = Fan(move(model.fan.rays), tuple(tuple(perm[j] for j in c) for c in model.fan.max_cones))
    return ToricModel(model.label, fan, move(model.L), tuple(perm[j] for j in model.sigma),
                      None if model.H is None else move(model.H))


def reorder_cones(model, rng):
    cones = rng.sample(model.fan.max_cones, len(model.fan.max_cones))
    return ToricModel(model.label, Fan(model.fan.rays, tuple(cones)), model.L, model.sigma,
                      model.H)


def signed_permutation(model, rng):
    """The model in coordinates changed by a signed permutation."""
    n = model.fan.dim
    perm, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
    rays = tuple(tuple(signs[d] * ray[perm[d]] for d in range(n)) for ray in model.fan.rays)
    return ToricModel(model.label, Fan(rays, model.fan.max_cones), model.L, model.sigma,
                      model.H)


def unimodular(model, rng):
    """The model in coordinates changed by a random element of GL_n(Z): a
    product of elementary row additions with multipliers in -2..2, applied
    to every ray, then a signed permutation."""
    n = model.fan.dim
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        g[i] = [a + k * b for a, b in zip(g[i], g[j])]
    rays = tuple(tuple(sum(a * x for a, x in zip(row, ray)) for row in g)
                 for ray in model.fan.rays)
    return signed_permutation(ToricModel(model.label, Fan(rays, model.fan.max_cones), model.L,
                                         model.sigma, model.H), rng)


class TestMetamorphic:
    """Relabelling rays, reordering cones and changing coordinates by an
    element of GL_n(Z) describe the same variety, L, H and Z: the exported
    table, as printed, must not change."""

    @staticmethod
    def export_stdout(capsys, tmp_path, model):
        doc = {"kind": "toric", "label": model.label, "rays": model.fan.rays,
               "max_cones": model.fan.max_cones, "L": model.L, "sigma": model.sigma}
        if model.H is not None:
            doc["H"] = model.H
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["export-table", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def assert_invariant(self, capsys, tmp_path, model, seed):
        rng = random.Random(seed)
        expected = self.export_stdout(capsys, tmp_path, model)
        for _ in range(3):
            relabelled = relabel_rays(model, rng)
            reordered = reorder_cones(model, rng)
            moved = signed_permutation(model, rng)
            sheared = unimodular(model, rng)
            combined = unimodular(reorder_cones(relabel_rays(model, rng), rng), rng)
            for variant in (relabelled, reordered, moved, sheared, combined):
                assert self.export_stdout(capsys, tmp_path, variant) == expected

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_reference_models(self, capsys, tmp_path, load_model, name):
        self.assert_invariant(capsys, tmp_path, load_model(name), seed=name)

    @pytest.mark.parametrize("n, d, deltas, seed", [
        (3, 4, (1, 1, 1), 2), (4, 4, (2, 1, 1), 4), (5, 3, (1, 1), 6), (6, 3, (1,), 7),
    ], ids=["P3-d4-3", "P4-d4-3", "P5-d3-2", "P6-d3-1"])
    def test_blown_up_projective_spaces(self, capsys, tmp_path, blown_up_projective_space,
                                        n, d, deltas, seed):
        model = blown_up_projective_space(n, d, deltas, seed)
        self.assert_invariant(capsys, tmp_path, model, seed)

    @pytest.mark.parametrize("name", REFERENCE_MODELS[:5])
    def test_verify_records(self, load_model, name):
        # the oracle counts lattice points, which GL_n(Z) maps one to one
        model = load_model(name)
        cs = (export_table(model).epsilon / 2,)
        expected = oracle.verify(model, cs)
        rng = random.Random(name)
        for _ in range(3):
            assert oracle.verify(unimodular(model, rng), cs) == expected


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

    # n = 1: every facet of the polytope is a point, of lattice volume 1
    @pytest.mark.parametrize("L", [(0, 3), (1, 2), (2, 5)])
    def test_p1_point(self, agrees_with_polytopes, L):
        model = ToricModel("P1 point", Fan(((1,), (-1,)), ((0,), (1,))), L, (0,))
        assert agrees_with_polytopes(model)
        fan1, e_idx, pullback = exceptional_setup(model)
        poly = polytope_of(fan1, pullback(model.L))
        assert [poly.facet_lattice_volume(i) for i in range(2)] == [1, 1]


class TestScaling:
    def test_alpha0_covariance(self, load_model):
        # replacing L by dL: epsilon scales by d, alpha0(dL; t) = d^n alpha0(L; t/d)
        base = alpha_polys(export_table(load_model("p2")))
        for d, name in ((2, "p2_o2"),):
            scaled = alpha_polys(export_table(load_model(name)))
            assert scaled.epsilon == d * base.epsilon
            # d^2 base.alpha0 at t/d: the coefficient of t^k times d^2 / d^k
            expected = UniPoly(d**2 * c / d**k for k, c in enumerate(base.alpha0.coeffs))
            assert scaled.alpha0 == expected

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_dilation(self, load_model, name, d):
        self.assert_dilation(load_model(name), d)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n, deg, deltas, seed", [
        (2, 5, (2, 1), 3), (3, 4, (1, 1, 1), 2), (4, 4, (2, 1, 1), 4),
    ], ids=["P2-d5-2", "P3-d4-3", "P4-d4-3"])
    def test_dilation_of_blown_up_projective_spaces(self, blown_up_projective_space,
                                                    n, deg, deltas, seed, d):
        self.assert_dilation(blown_up_projective_space(n, deg, deltas, seed), d)

    @staticmethod
    def assert_dilation(model, d):
        # L -> dL: epsilon scales by d, and an entry of degree i in L by d^i
        base = export_table(model)
        scaled = export_table(ToricModel(model.label, model.fan, tuple(d * a for a in model.L),
                                          model.sigma, model.H))
        n = base.n
        assert scaled.epsilon == d * base.epsilon
        (ae, kae), (scaled_ae, scaled_kae) = entries(base), entries(scaled)
        assert list(scaled_ae) == [d ** (n - k) * a for k, a in enumerate(ae)]
        assert list(scaled_kae) == [d ** (n - 1 - k) * a for k, a in enumerate(kae)]
        assert isinstance(scaled, MixedTable) == isinstance(base, MixedTable)
        if isinstance(base, MixedTable):
            for maps, scaled_maps in zip(mixed_entries(base), mixed_entries(scaled)):
                assert scaled_maps == {
                    (i, j, k): d**i * v for (i, j, k), v in maps.items()}

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
        errors = ToricModel("P1xP1 O(1,0)", fan, (0, 0, 1, 0), (0, 1)).validate()
        assert errors == ["L not big: sections polytope is flat"]

    def test_folded_wall_is_a_diagnostic(self):
        # the cones (0, 1) and (1, 2) lie on the same side of their wall
        fan = Fan(((-1, 0), (0, 1), (-1, 1), (1, 0), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        errors = ToricModel("folded", fan, (1,) * 5, (0,)).validate()
        assert errors == ["wall data inconsistent at (1,)"]

    def test_h_must_be_ample(self, load_model):
        m = load_model("p2")
        bad = ToricModel(m.label, m.fan, m.L, m.sigma, H=(0, 0, 0))
        assert bad.validate() == [
            "H not ample: degree 0 on wall (0,)",
            "H not ample: degree 0 on wall (1,)",
            "H not ample: degree 0 on wall (2,)",
        ]

    def test_fields_normalized(self):
        # sigma is sorted without repeats; L and H become tuples
        model = ToricModel("p2", P2_FAN, [0, 0, 1], [1, 0, 1], H=[1, 1, 1])
        assert model.sigma == (0, 1)
        assert model.L == (0, 0, 1) and isinstance(model.L, tuple)
        assert model.H == (1, 1, 1) and isinstance(model.H, tuple)
        assert ToricModel("p2", P2_FAN, iter((0, 0, 1)), (2,)).L == (0, 0, 1)
        assert ToricModel("p2", P2_FAN, (0, 0, 1), (2,)).H is None

    @pytest.mark.parametrize("L, H, message", [
        ((0, 0, 1, F(-1, 2)), None, "L coefficient 3 is -1/2, not an integer"),
        ((0, 0, 1, -1), (1, 1, 1, F(1, 3)), "H coefficient 3 is 1/3, not an integer"),
    ])
    def test_fractional_coefficient_refused(self, L, H, message):
        fan, _ = star_subdivide(P2_FAN, (0, 1))
        with pytest.raises(ToricError) as err:
            ToricModel("fractional", fan, L, (0,), H)
        assert str(err.value) == message

    @pytest.mark.parametrize("rays, cones, message", [
        # check_fan met a float det: AttributeError in _show_number
        (((1.5, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)),
         "ray (1.5, 0) entry 0 is 1.5, not an integer"),
        # export met the index: TypeError
        (((1, 0), (0, 1), (-1, -1)), ((0.0, 1), (1, 2), (0, 2)),
         "cone (0.0, 1) entry 0 is 0.0, not an integer"),
        (((1, 0), (0, 1), (-1, -1)), ((0, True), (1, 2), (0, 2)),
         "cone (0, True) entry 1 is True, not an integer"),
    ], ids=["float ray entry", "float cone index", "bool cone index"])
    def test_non_integer_fan_refused(self, rays, cones, message):
        with pytest.raises(ToricError) as err:
            Fan(rays, cones)
        assert str(err.value) == message

    @pytest.mark.parametrize("sigma, message", [
        # exported a table, on which oracle.verify met a TypeError
        ((0.0,), "sigma entry 0 is 0.0, not an integer"),
        # silently meant ray 1
        ((True,), "sigma entry 0 is True, not an integer"),
    ], ids=["float", "bool"])
    def test_non_integer_sigma_refused(self, sigma, message):
        with pytest.raises(ToricError) as err:
            ToricModel("P2", P2_FAN, (0, 0, 1), sigma)
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
        fan1, e_idx, pullback = exceptional_setup(model)
        e_div = tuple(int(i == e_idx) for i in range(len(fan1.rays)))
        hs = [] if model.H is None else [model.H]
        for fan, divisors in (
            (model.fan, [model.L, *hs]),
            (Fan(fan1.rays, fan1.max_cones), [pullback(model.L), e_div, *map(pullback, hs)]),
        ):
            c, coords = fan.generic
            for cone, ys in zip(fan.max_cones, coords):
                rows = [[fan.rays[i][d] for i in cone] for d in range(fan.dim)]
                assert list(ys) == gauss_jordan_solve(rows, c)
            for rays, opposite, degrees in wall_degrees(fan, divisors):
                wall = Wall(rays, opposite, None)
                assert degrees == [reference_curve_degree(fan, wall, d) for d in divisors]
        eps = export_table(model).epsilon
        for p in (
            polytope_of(model.fan, model.L),
            *(polytope_of(fan1, tuple(a - t * e for a, e in zip(pullback(model.L), e_div)))
              for t in (eps / 2, eps)),
        ):
            assert p.vertices == reference_vertices(p)

    def test_folded_wall_matches_reference(self):
        fan = Fan(((-1, 0), (0, 1), (-1, 1), (1, 0), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        # the wall (1,) between the cones (0, 1) and (1, 2), opposite rays 0 and 2
        wall = Wall((1,), (0, 2), ())
        assert reference_curve_degree(fan, wall, (1,) * 5) is None
        for walls in (lambda: list(wall_degrees(fan, ((1,) * 5,))),
                      lambda: walls_of(fan)):
            with pytest.raises(ToricError, match=r"^wall data inconsistent at \(1,\)$"):
                walls()


class TestNoFloats:
    """Localization runs on ints: a float must never reach a table entry
    (1 / prod(ys) of ints would be one)."""

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_table_entries_and_weights(self, load_model, name):
        model = load_model(name)
        table = export_table(model)
        ints = [table.den, *table.ae, *table.kae]
        if isinstance(table, MixedTable):
            ints += [*table.mixed.values(), *table.kmixed.values()]
        assert all(type(x) is int for x in ints) and type(table.epsilon) is F
        denom, weights, tables = _blow_up(model)
        assert type(denom) is int
        assert all(type(w) is int for w in weights)
        assert all(type(v) is int for table in tables for row in table for v in row)

    def test_fractional_coefficient(self):
        fan, _ = star_subdivide(P2_FAN, (0, 1))
        divisor = (0, 0, 1, F(-1, 2))
        localized = localize(fan, (divisor,))
        denom, weights, [table] = localized
        assert type(denom) is int and all(type(w) is int for w in weights)
        values = table[1]
        assert all(type(v) in (int, F) for v in values)
        assert any(type(v) is F and v.denominator == 2 for v in values)
        square = _intersect(localized, (2,))
        # D^2 = 2! vol(P_D) for nef D: the truncated simplex of area 3/8
        assert type(square) is F and square / denom == F(3, 4)
