"""Combinatorial toric backend: fans, nef thresholds, intersection numbers
on a blow-up, lattice polytopes with exact volumes, and export of
intersection tables.

Smooth complete fans only.  The blow-up of the orbit closure of a smooth
cone sigma is the star subdivision inserting the ray sum_{i in sigma} u_i
(Cox-Little-Schenck, Toric Varieties, 3.3); the divisorial case (a single
ray) is the identity blow-up.  It is never built: its fixed points, walls
and intersection numbers are read off the parent fan (see `export_table`
and `nef_threshold`).  A torus-invariant divisor sum_rho a_rho D_rho is the
tuple of its integer coefficients a_rho, one per ray; `ToricModel` checks
that its L and H are.

Intersection numbers come from fixed-point localization: one exact sum over
the torus-fixed points (Atiyah-Bott / Berline-Vergne; Brion 1988 in polytope
form), summed in integers over one common denominator.  The fixed-point
data carry each divisor value's powers up to the dimension, so an
intersection number costs a few multiplications per fixed point.  The
polytopes, their volumes and vertices are only a reference, for the tests
and the benchmark: the oracle enumerates lattice points without them.

All linear algebra is fraction-free (Bareiss 1968): one integer kernel,
`_adjugate` (Gauss-Jordan), and its rank-one step `_cross`.  Each fan keeps
the (det, adj) of its maximal cones from one walk over its wall graph:
Bareiss runs at the first cone of each connected component, and crossing a
wall gives the next cone's (det, adj) by one rank-one step, from the same
matrix-vector product that gives the wall's relation.  So cone
determinants, the cone coordinates of the generic direction and the wall
relations behind curve degrees are integer matrix-vector products;
polytope vertices take one adjugate per n-subset of facets.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .models import IntersectionTable, MixedTable, ModelError, _require_keys, _show_number


class ToricError(ModelError):
    """Inconsistent fan, divisor or model data, or an oracle count past a limit."""


# ---------------------------------------------------------------------------
# exact linear algebra: one integer kernel

def _adjugate(rows) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of a square integer matrix, A adj = det I;
    adj is None when det is 0.

    Fraction-free Gauss-Jordan elimination on [A | I] (Bareiss 1968): the
    step at pivot k replaces every other row by
    (piv * m[i] - m[i][k] * m[k]) // prev, a division that is exact because
    each entry is then a minor of [A | I].  The left block ends as +-det I
    and the right block as +-adj, the sign being that of the row swaps.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        piv = pivot_row[k]
        for i in range(n):
            f = m[i][k]
            if i != k and (f or piv != prev):  # else the row is unchanged
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = piv
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def _apply(det: int, adj, v) -> list:
    """The solution x = adj v / det of A x = v for nonzero det: ints when
    |det| = 1 and v is integral, Fractions otherwise."""
    return _divide(det, [sum(map(mul, row, v)) for row in adj])


def _divide(det: int, xs) -> list:
    """xs / det, as `_apply` returns it."""
    if det in (1, -1):
        return [det * x for x in xs]
    return [Fraction(x, det) for x in xs]


def _cross(det: int, adj, y, p: int, order) -> tuple[int, list[list[int]] | None]:
    """(det, adj) of the matrix A' that trades column p of A = (det, adj)
    for a vector u with adj u = y, nonzero det, and then takes its columns
    in `order` (positions in A').

    One fraction-free rank-one step (Bareiss 1968): det A' = y_p, row p of
    adj A' is adj[p] and row i is (y_p adj[i] - y_i adj[p]) / det, a
    division that is exact because the result is the adjugate.  Reordering
    the columns reorders the rows of the adjugate, and an odd permutation
    flips the sign of both.
    """
    yp, pivot = y[p], adj[p]
    if not yp:
        return 0, None
    rows = [row if i == p else [(yp * a - yi * b) // det for a, b in zip(row, pivot)]
            for i, (row, yi) in enumerate(zip(adj, y))]
    if sum(i > j for i, j in combinations(order, 2)) % 2:
        return -yp, [[-a for a in rows[i]] for i in order]
    return yp, [rows[i] for i in order]


# ---------------------------------------------------------------------------
# fans and divisors

class Fan:
    """Complete simplicial fan given by primitive rays and maximal cones;
    immutable by convention."""

    def __init__(self, rays: tuple[tuple[int, ...], ...],
                 max_cones: tuple[tuple[int, ...], ...]):
        self.rays, self.max_cones = rays, max_cones
        if not self.rays:
            raise ToricError("fan has no rays")
        dim = len(self.rays[0])
        for ray in self.rays:
            if len(ray) != dim:
                raise ToricError("rays of mixed dimension")
            if all(x == 0 for x in ray):
                raise ToricError("zero ray")
        for cone in self.max_cones:
            if len(cone) != dim:
                raise ToricError(f"maximal cone {cone} does not have {dim} rays")
            if not all(0 <= i < len(self.rays) for i in cone):
                raise ToricError(f"cone {cone} references missing ray")

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    # computed once per fan

    @cached_property
    def adjugates(self) -> tuple[tuple[int, list[list[int]] | None], ...]:
        """(det, adj) per maximal cone of the matrix with its rays as columns,
        adj None when det is 0: Bareiss at the first cone of each component
        of the wall graph, and a rank-one step per wall crossing (`_walk`)."""
        return self._walk[0]

    @cached_property
    def _walk(self) -> tuple[tuple, dict[tuple[int, ...], list[int]]]:
        """`adjugates`, and per wall the product adj_a u_b of its first cone
        a with the opposite ray u_b of the other, from one breadth-first
        walk over the wall graph: the maximal cones, joined by the facets
        that have exactly two.

        Bareiss (`_adjugate`) runs at the first cone of each connected
        component, and at any cone that the walk reaches only through a
        cone of det 0.  From a cone a of nonzero det the walk crosses each
        wall to a cone b it has not reached yet, which trades the ray at
        position p of a for u_b, by one `_cross` step on y = adj_a u_b;
        when a is the wall's first cone, y is the wall's product too.
        """
        rays, cones = self.rays, self.max_cones
        neighbours = [[] for _ in cones]
        for facet, inc in self.facets:
            if len(inc) == 2:
                (ca, ia), (cb, ib) = inc
                neighbours[ca].append((facet, ia, cb, ib))
                neighbours[cb].append((None, ib, ca, ia))  # not the wall's first cone
        pairs, products = [None] * len(cones), {}
        for root, cone in enumerate(cones):
            if pairs[root] is not None:
                continue
            pairs[root] = _adjugate([[rays[i][d] for i in cone] for d in range(self.dim)])
            queue = [root]
            for a in queue:  # grows while it is read
                det, adj = pairs[a]
                if not det:
                    continue
                for facet, ia, b, ib in neighbours[a]:
                    if facet is None and pairs[b] is not None:
                        continue
                    y = [sum(map(mul, row, rays[ib])) for row in adj]
                    if facet is not None:
                        products[facet] = y
                    if pairs[b] is None:  # b's rays at their positions in a, u_b at u_a's
                        order = [cones[a].index(ia if i == ib else i) for i in cones[b]]
                        pairs[b] = _cross(det, adj, y, cones[a].index(ia), order)
                        queue.append(b)
        return tuple(pairs), products

    @cached_property
    def generic(self):
        """The generic direction c and its cone coordinates; see
        _generic_direction."""
        return _generic_direction(self)

    @cached_property
    def facets(self) -> tuple[tuple[tuple[int, ...], list[tuple[int, int]]], ...]:
        """(facet, incidence) per codimension-one face of a maximal cone,
        sorted: the face's ray indices, sorted, and one (cone index,
        opposite ray) per maximal cone that has it."""
        inc: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for ci, cone in enumerate(self.max_cones):
            for i in cone:
                inc.setdefault(tuple(sorted(set(cone) - {i})), []).append((ci, i))
        return tuple(sorted(inc.items()))

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """The walls, each shared by exactly two maximal cones, with their
        relations.

        The relation u_a + u_b = sum_i c_i u_i over the wall's rays is read
        from the coordinates x = adj_a u_b / det_a of u_b in the ray basis
        of the wall's first cone a, with the product adj_a u_b from `_walk`:
        it holds, with c_i = x_i, exactly when x_a = -1.
        """
        (pairs, products), walls = self._walk, []
        for facet, inc in self.facets:
            if len(inc) != 2:
                raise ToricError(f"wall {facet} with {len(inc)} incident cone(s)")
            (ca, ia), (_, ib) = inc
            det = pairs[ca][0]
            x = dict(zip(self.max_cones[ca], _divide(det, products[facet]))) if det else {}
            if x.get(ia) != -1:
                if not facet:
                    raise ToricError("wall data inconsistent in dimension one")
                raise ToricError(f"wall data inconsistent at {facet}")
            walls.append(Wall(facet, (ia, ib), tuple(x[i] for i in facet)))
        return tuple(walls)


class Wall(namedtuple("Wall", "rays opposite relation")):
    """Codimension-one face shared by two maximal cones: rays holds the n-1
    common ray indices, opposite the two non-shared ones (a, b), and
    relation the c_i, one per wall ray, of u_a + u_b = sum_i c_i u_i."""

    __slots__ = ()


def check_fan(fan: Fan) -> list[str]:
    """Smoothness (unimodular cones), completeness (wall accounting) and,
    for smooth cones, covering: a generic direction lies in exactly one
    maximal cone.  One message per failed check; empty when the fan is valid."""
    errors = [
        f"non-smooth cone {tuple(cone)}, det {_show_number(det)}"
        for cone, (det, _) in zip(fan.max_cones, fan.adjugates)
        if abs(det) != 1
    ]
    smooth = not errors
    for facet, inc in fan.facets:
        if len(inc) != 2:
            errors.append(f"wall {facet} with {len(inc)} incident cone(s), expected 2")
    if smooth:
        c, coords = fan.generic
        covering = sum(all(y > 0 for y in ys) for ys in coords)
        if covering != 1:
            errors.append(f"direction {c} lies in {covering} maximal cones, expected 1")
    return errors


def _generic_direction(fan: Fan, sigma=()):
    """A direction c with nonzero coordinates y_tau in every maximal cone's
    ray basis, c = sum_{i in tau} y_{tau,i} u_i; returns c and the y_tau,
    ints on unimodular cones.

    c = (1, k, ..., k^(n-1)) for the first k >= 2 that works.  On smooth
    cones each coordinate is a nonzero polynomial of degree <= n-1 in k, so
    at most n(n-1) values of k fail per cone.

    With a center sigma, the coordinates must moreover be pairwise distinct
    on sigma in each cone that contains it.  They are then the coordinates
    of a generic direction of the star subdivision at sigma (see
    `_blow_up`), and c is the one `_generic_direction` picks on the
    subdivided fan, under that fan's bound.  No k below the parent's own
    (`Fan.generic`) qualifies, so that one is taken when it does.
    """
    n = fan.dim
    star = {ci: [cone.index(i) for i in sigma]
            for ci, cone in enumerate(fan.max_cones) if sigma and set(sigma) <= set(cone)}

    def distinct(coords):
        return all(len({coords[ci][p] for p in ps}) == len(ps) for ci, ps in star.items())

    if sigma and distinct(fan.generic[1]):
        return fan.generic
    bound = n * (n - 1) * (len(fan.max_cones) + sum(len(ps) - 1 for ps in star.values()))
    for k in range(2, bound + 3):
        c = tuple(k**d for d in range(n))
        coords = []
        for det, adj in fan.adjugates:
            ys = tuple(_apply(det, adj, c)) if det else (0,)  # flat: no coordinates
            if 0 in ys:
                break
            coords.append(ys)
        else:
            if distinct(coords):
                return c, coords
    raise RuntimeError(f"no generic direction among {bound + 1} candidates")


def _localized(points, n: int) -> tuple[int, list[int], list[list[tuple]]]:
    """Fixed points given as (w, values) pairs, in the form that `_intersect`
    reads: a common denominator D, the lcm of the w, the weights D / w, and
    per divisor its power table, whose row e holds the e-th power of the
    divisor's value at each point, for e = 0..n."""
    weights, values = zip(*points)
    denom, tables = lcm(*weights), []
    for column in zip(*values):
        rows = [(1,) * len(column), column]
        for _ in range(n - 1):
            rows.append(tuple(map(mul, rows[-1], column)))
        tables.append(rows)
    return denom, [denom // w for w in weights], tables


def _localize(fan: Fan, divisors) -> tuple[int, list[int], list[list[tuple]]]:
    """Fixed-point data at the generic direction, in integers: per maximal
    cone sigma the weight prod_i y_{sigma,i} and the value
    sum_{i in sigma} a_i y_{sigma,i} of each divisor, in `_localized`
    form up to the dimension."""
    _, coords = fan.generic
    return _localized([
        (prod(ys), tuple(sum(map(mul, map(a.__getitem__, cone), ys)) for a in divisors))
        for cone, ys in zip(fan.max_cones, coords)
    ], fan.dim)


def _blow_up(model: ToricModel) -> tuple[int, list[int], list[list[tuple]]]:
    """The fixed-point data of the blow-up of X along Z, in the form of
    `_localize`, with the values of (pi*L, E, K) and then pi*H, if any, read
    off the parent fan in one integer pass.

    The blow-up's fan is the star subdivision at sigma: each parent cone
    tau that contains sigma gives way to the cones tau_i, i in sigma, that
    trade u_i for the new ray u_E = sum_{j in sigma} u_j (Cox-Little-Schenck,
    Toric Varieties, 3.3).  With c = sum_{j in tau} y_j u_j, the coordinates
    of c in tau_i are y_j - y_i for j in sigma - i, y_j for j not in sigma,
    and y_i on u_E.  So the fixed point tau_i has the weight
    y_i prod_{j != i} (y_j - [j in sigma] y_i), and the values
    pi*D = D(tau), E = y_i and K = -sum_tau y + (|sigma| - 1) y_i, the last
    from K = -sum_rho D_rho (8.2).  Every other cone stays, with E = 0 and
    K = -sum y.  For a single ray tau_i is tau, and E = D_sigma.
    """
    sigma = set(model.sigma)
    _, coords = _generic_direction(model.fan, model.sigma)
    divisors = (model.L,) if model.H is None else (model.L, model.H)
    points = []
    for cone, ys in zip(model.fan.max_cones, coords):
        pi_l, *pi_h = (sum(map(mul, map(a.__getitem__, cone), ys)) for a in divisors)
        canonical = -sum(ys)
        if not sigma <= set(cone):
            points.append((prod(ys), (pi_l, 0, canonical, *pi_h)))
            continue
        for i in model.sigma:
            y = ys[cone.index(i)]
            weight = y * prod(x - y if j in sigma else x for j, x in zip(cone, ys) if j != i)
            points.append((weight, (pi_l, y, canonical + (len(sigma) - 1) * y, *pi_h)))
    return _localized(points, model.fan.dim)


def _intersect(localized, exponents) -> int:
    """D_1^e_1 ... D_m^e_m with sum e = n over the localized divisors, by
    fixed-point localization (Brion 1988), times the localization's
    denominator: the sum over the fixed points of the weight times the
    product of the divisor values, an int when the values are.  The powers
    are rows of the power tables, so an entry costs m multiplications per
    point."""
    _, terms, tables = localized
    for table, e in zip(tables, exponents):
        terms = map(mul, terms, table[e])
    return sum(terms)


def curve_degree(wall: Wall, a: tuple[int, ...]) -> int:
    """Degree of the divisor with coefficients a on the invariant curve of a
    wall of the fan.

    With the wall relation u_a + u_b = sum_i c_i u_i over the wall's rays,
    the degree is a_a + a_b - sum_i c_i a_i for the support-function
    convention <x, u_rho> >= -a_rho.
    """
    ia, ib = wall.opposite
    return a[ia] + a[ib] - sum(map(mul, wall.relation, map(a.__getitem__, wall.rays)))


def nef_threshold(fan: Fan, L: tuple[int, ...], sigma) -> Fraction:
    """sup{t >= 0 : pi*L - tE nef} on the blow-up along the orbit closure Z
    of sigma, for a model that `ToricModel.validate` passes: the least
    degree L.C of L on the invariant curves that leave Z at its fixed
    points, the curves of the walls tau - i with tau a maximal cone that
    contains sigma and i in sigma (the opposite-ray walls).  So it is an
    integer (returned as a Fraction), as the Seshadri constant at a
    torus-fixed point is (Di Rocco, Math. Z. 1999).

    A divisor is nef when its degree on every wall's curve is >= 0
    (Cox-Little-Schenck, Toric Varieties, 6.3-6.4; Fulton, Introduction to
    Toric Varieties, 5.1).  With `_blow_up`'s cones, the wall tau - i lies
    between tau_i and a kept cone, with pi*L.C = L.C and E.C = 1: the bound
    L.C.  A kept wall has E.C = 0, and a wall inside E, between tau_i and
    tau_j, has pi*L.C = 0 and E.C = -1: no bound.  A parent wall W that
    contains sigma, with relation coefficients c, gives for each i in sigma
    a wall with pi*L.C = L.C_W and E.C = -c_i, whose bound
    L.C_W / (-c_i) for -c_i > 0 never binds.  On the toric surface of the
    cone W - i, with a an opposite ray of W, (u_i, u_a) is a basis, as
    W + a is smooth, and u_b = c_i u_i - u_a; measure height by
    <m, u_i> + a_i.  The edge of P_L for the curve C' of the wall
    (W + a) - i starts at the vertex of W + a, at height 0, and rises by
    L.C', while the strip between the edge lines of u_a and u_b narrows
    from width L.C_W by -c_i per unit of height.  Its top vertex is in P_L,
    L being nef, so L.C' <= L.C_W / (-c_i).  The proof uses smooth cones:
    simplicial fans must revisit it.
    """
    sigma = set(sigma)
    eps = min(curve_degree(wall, L) for wall in fan.walls
              if len(sigma.intersection(wall.rays)) + 1 == len(sigma)
              and sigma.intersection(wall.opposite))
    if eps <= 0:
        raise ToricError("nef threshold is zero: center not permissible")
    return Fraction(eps)


# ---------------------------------------------------------------------------
# lattice polytopes

def _restrict(ineqs, pivot_ineq, drop):
    """Restrict the other inequalities to the hyperplane of pivot_ineq,
    eliminating coordinate `drop`.  Returns the reduced system or None when
    the hyperplane slice is plainly empty."""
    u, a = pivot_ineq
    uj = u[drop]
    reduced = []
    for v, b in ineqs:
        if (v, b) == (u, a):
            continue
        w = tuple(
            v[l] - Fraction(v[drop], uj) * u[l]
            for l in range(len(v))
            if l != drop
        )
        b2 = b - Fraction(v[drop], uj) * a
        if all(x == 0 for x in w):
            if b2 < 0:
                return None
            continue
        # canonical positive multiple, so that proportional inequalities
        # become equal and _volume_hrep counts their facet once
        scale = abs(next(x for x in w if x != 0))
        reduced.append((tuple(x / scale for x in w), b2 / scale))
    return reduced


def _interval_volume(ineqs) -> Fraction:
    lo, hi = None, None
    for (u,), a in ineqs:
        if u == 0:
            if a < 0:
                return Fraction(0)
            continue
        bound = Fraction(-a, u)
        if u > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None:
        raise ToricError("unbounded one-dimensional section")
    return max(hi - lo, Fraction(0))


def _facet_volume(ineqs, facet, dim) -> Fraction:
    """Volume of the facet (u, a) of {x : <x,v> >= -b}: the (dim-1)-volume
    of its projection along the coordinate j of largest |u_j|, over |u_j|,
    which is its lattice volume for a primitive u.  Zero when u is zero or
    the slice is plainly empty."""
    u = facet[0]
    drop = max(range(dim), key=lambda l: abs(u[l]))
    if u[drop] == 0:
        return Fraction(0)
    reduced = _restrict(ineqs, facet, drop)
    if reduced is None:
        return Fraction(0)
    return _volume_hrep(reduced, dim - 1) / abs(u[drop])


def _volume_hrep(ineqs, dim) -> Fraction:
    """Euclidean volume of {x : <x,u> >= -a} by the divergence-theorem
    recursion, the sum of a * `_facet_volume` over distinct facets divided
    by dim; exact throughout."""
    if dim == 0:
        return Fraction(1) if all(a >= 0 for _, a in ineqs) else Fraction(0)
    if dim == 1:
        return _interval_volume(ineqs)
    total = Fraction(0)
    for u, a in set(ineqs):  # a repeated inequality is one facet
        total += a * _facet_volume(ineqs, (u, a), dim)
    return total / dim


class LatticePolytope:
    """Rational polytope {x : <x, normal> >= -offset}, exact arithmetic."""

    def __init__(self, inequalities):
        seen = set()
        ineqs = []
        for normal, offset in inequalities:
            key = (tuple(int(x) for x in normal), Fraction(offset))
            if key not in seen:
                seen.add(key)
                ineqs.append(key)
        if not ineqs:
            raise ToricError("polytope needs at least one inequality")
        self.inequalities: tuple = tuple(ineqs)
        self.dim = len(ineqs[0][0])

    def contains(self, point) -> bool:
        return all(
            sum(Fraction(x) * u for x, u in zip(point, normal)) >= -offset
            for normal, offset in self.inequalities
        )

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact vertex enumeration over all n-subsets of tight inequalities."""
        out = []
        seen = set()
        for subset in combinations(self.inequalities, self.dim):
            det, adj = _adjugate([normal for normal, _ in subset])
            if det == 0:
                continue
            pt = tuple(_apply(det, adj, [-offset for _, offset in subset]))
            if pt not in seen and self.contains(pt):
                seen.add(pt)
                out.append(pt)
        return tuple(sorted(out))

    def volume(self) -> Fraction:
        return _volume_hrep(self.inequalities, self.dim)

    def facet_lattice_volume(self, facet_index: int) -> Fraction:
        """Facet volume in unimodular coordinates of its hyperplane lattice:
        `_facet_volume` of the facet, whose normal must be primitive."""
        facet = self.inequalities[facet_index]
        if gcd(*facet[0]) != 1:
            raise ToricError(f"non-primitive facet normal {facet[0]}")
        return _facet_volume(self.inequalities, facet, self.dim)

    def boundary_lattice_volume(self) -> Fraction:
        return sum(
            self.facet_lattice_volume(i) for i in range(len(self.inequalities))
        )


def polytope_of(fan: Fan, coefficients) -> LatticePolytope:
    """Sections polytope {x : <x, u_rho> >= -a_rho for every ray}; the
    offsets a_rho may be rational."""
    if len(coefficients) != len(fan.rays):
        raise ToricError("divisor coefficient count does not match the fan")
    # a smooth complete fan makes the polytope bounded
    errors = check_fan(fan)
    if errors:
        raise ToricError(f"polytope of an invalid fan: {errors[0]}")
    return LatticePolytope(list(zip(fan.rays, coefficients)))


# ---------------------------------------------------------------------------
# toric models and table export

class ToricModel:
    """Combinatorial (X, L, Z): a fan, a nef and big divisor, an optional
    ample companion H, and the smooth cone sigma whose orbit closure is Z;
    immutable by convention.  sigma is kept sorted and without repeats, L
    and H as tuples."""

    def __init__(self, label: str, fan: Fan, L: tuple[int, ...], sigma: tuple[int, ...],
                 H: tuple[int, ...] | None = None):
        self.label, self.fan, self.L, self.H = label, fan, L, H
        self.sigma = tuple(sorted(set(sigma)))
        for name, divisor in (("L", L), ("H", H)):
            if divisor is None:
                continue
            divisor = tuple(divisor)
            setattr(self, name, divisor)
            if len(divisor) != len(self.fan.rays):
                raise ToricError(f"{name} coefficient count does not match the fan")
            for i, a in enumerate(divisor):
                if isinstance(a, bool) or not isinstance(a, int):
                    raise ToricError(f"{name} coefficient {i} is {a}, not an integer")
        if not self.sigma:
            raise ToricError("sigma is empty")
        if not all(0 <= i < len(self.fan.rays) for i in self.sigma):
            raise ToricError("sigma references a missing ray")

    def validate(self) -> list[str]:
        """One message per failed check; empty when the model is valid."""
        errors = check_fan(self.fan)
        if not any(set(self.sigma) <= set(c) for c in self.fan.max_cones):
            errors.append(f"sigma {self.sigma} is not a face of any cone")
        if errors:
            return errors
        try:
            walls = self.fan.walls
        except ToricError as exc:  # a wall with both cones on one side
            return [str(exc)]
        l_nef = True
        for wall in walls:
            deg = curve_degree(wall, self.L)
            if deg < 0:
                l_nef = False
                errors.append(f"L not nef: degree {_show_number(deg)} on wall {wall.rays}")
            if self.H is not None:
                hdeg = curve_degree(wall, self.H)
                if hdeg <= 0:
                    errors.append(f"H not ample: degree {_show_number(hdeg)} "
                                  f"on wall {wall.rays}")
        # for nef L, L^n is n! times the volume of its sections polytope
        if l_nef and _intersect(_localize(self.fan, (self.L,)), (self.fan.dim,)) <= 0:
            errors.append("L not big: sections polytope is flat")
        return errors


def parse_toric_model(doc: dict) -> ToricModel:
    _require_keys(doc, {"kind", "label", "rays", "max_cones", "L", "sigma"}, {"H"})

    def int_list(key, v, shape="be a list of integers"):
        if not isinstance(v, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in v
        ):
            raise ModelError(f"field {key!r} must {shape}")
        return tuple(v)

    def int_vectors(key):
        if not isinstance(doc[key], list):
            raise ModelError(f"field {key!r} must be a list")
        return tuple(int_list(key, row, "hold integer vectors") for row in doc[key])

    return ToricModel(
        label=str(doc["label"]),
        fan=Fan(int_vectors("rays"), int_vectors("max_cones")),
        L=int_list("L", doc["L"]),
        sigma=int_list("sigma", doc["sigma"]),
        H=int_list("H", doc["H"]) if "H" in doc else None,
    )


def export_table(model: ToricModel):
    """IntersectionTable of (X, L, Z); a MixedTable when H is present.

    Every entry is an intersection number on the blow-up Bl_Z X, by
    fixed-point localization over the fixed points that `_blow_up` reads
    off the parent fan: MIX[(i, j, k)] = (pi*L)^i.(pi*H)^j.E^k and
    KMIX[(i, j, k)] = K.(pi*L)^i.(pi*H)^j.E^k with K = -sum D_rho over the
    blow-up's rays (Cox-Little-Schenck, Toric Varieties, 6.3-6.4; Fulton,
    Introduction to Toric Varieties, 5.1), built by one comprehension for
    both kinds, with j <= 0 when H is absent.  Every entry is the int
    `_intersect` sums over `_blow_up`'s denominator, the table's den.
    AE[k] = MIX[(n-k, 0, k)] and KAE[k] = KMIX[(n-1-k, 0, k)] are read from
    the j = 0 slices.  epsilon is `nef_threshold`.  No fan is built for the
    blow-up.
    """
    errors = model.validate()
    if errors:
        raise ToricError("; ".join(errors))
    n = model.fan.dim
    eps = nef_threshold(model.fan, model.L, model.sigma)
    points = _blow_up(model)
    top = 0 if model.H is None else n
    # _blow_up's values are (pi*L, E, K[, pi*H]); K takes the exponent kappa
    mixed, kmixed = ({(i, j, deg - i - j): _intersect(points, (i, deg - i - j, kappa, j))
                      for i in range(deg + 1) for j in range(min(top, deg - i) + 1)}
                     for deg, kappa in ((n, 0), (n - 1, 1)))
    ae = tuple(mixed[(n - k, 0, k)] for k in range(n + 1))
    kae = tuple(kmixed[(n - 1 - k, 0, k)] for k in range(n))
    if model.H is None:
        return IntersectionTable(model.label, n, points[0], ae, kae, eps)
    return MixedTable(model.label, n, points[0], ae, kae, eps, mixed, kmixed)
