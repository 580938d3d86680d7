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
that its L and H are, as `Fan` checks its ray entries and cone indices and
`ToricModel` the entries of sigma.

Each model's fixed-point data are computed once: sigma's star (the cones
that contain sigma, with the positions of sigma's rays in each), the
sigma-distinct generic coordinates, each divisor's value at each parent
fixed point, and the degree of each divisor on each wall's T-curve.
`ToricModel.validate`, `nef_threshold` and `_blow_up` read only these.
Intersection numbers come from fixed-point localization: one exact sum over
the torus-fixed points (Atiyah-Bott / Berline-Vergne; Brion 1988 in polytope
form), summed in integers over one common denominator.  The blow-up's
fixed-point data carry each divisor value's powers up to the dimension, so
an intersection number costs a few multiplications per fixed point.  The
polytopes, their volumes and vertices are only a reference, for the tests
and the benchmark: the oracle enumerates lattice points without them.

All linear algebra is fraction-free (Bareiss 1968): one integer kernel,
`_adjugate` (Gauss-Jordan), and its rank-one step `_cross`.  Each fan walks
its wall graph once, breadth-first (`Fan._walk`): Bareiss runs at the first
cone of each connected component, each edge of the walk's tree costs one
matrix-vector product adj_a u_b, which gives the next cone's det, and a
cone's adjugate comes from its parent's by one rank-one step only where the
walk continues from it.  The generic direction's cone coordinates pass down
the same tree in O(n) per cone, and curve degrees are read off the
fixed-point values: L.C = (L(a) - L(b)) / y_{a,a} on the T-curve of a wall
between the cones a and b (Goresky-Kottwitz-MacPherson 1998), so no wall
relation is built.  The degrees do not depend on the direction, so a model
reads them at its sigma-distinct one, and `check_fan` stays on the fan's
own (`Fan.generic`).  Polytope vertices take one adjugate per n-subset of
facets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .models import (IntersectionTable, MixedTable, ModelError, _is_int, _require_keys,
                     _show_number)


class ToricError(ModelError):
    """Inconsistent fan, divisor or model data, or an oracle count past a limit."""


def _require_ints(values, name: str):
    """ToricError naming the first entry of values that is not an int, a
    bool not being one: "<name> <position> is <entry>, not an integer",
    with {} in name standing for values (formatted only then)."""
    for i, x in enumerate(values):
        if not _is_int(x):
            raise ToricError(f"{name.format(values)} {i} is {x}, not an integer")


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
    return _divide(det, _product(adj, v))


def _product(adj, v) -> list:
    """The matrix-vector product adj v."""
    return [sum(map(mul, row, v)) for row in adj]


def _divide(det, xs) -> list:
    """xs / det, as `_apply` returns it."""
    if det in (1, -1):
        return [det * x for x in xs]
    return [Fraction(x, det) for x in xs]


def _odd(order) -> bool:
    """Whether the permutation `order` of 0..n-1 is odd: the parity of the
    swaps that sort it, at most one per position."""
    perm, odd = list(order), False
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j], odd = perm[j], j, not odd
    return odd


def _cross(det: int, adj, y, p: int, order) -> list[list[int]]:
    """The adjugate of the matrix A' that trades column p of A = (det, adj)
    for a vector u with adj u = y, nonzero det and y_p, and then takes its
    columns in `order` (positions in A').

    One fraction-free rank-one step (Bareiss 1968): det A' = y_p, row p of
    adj A' is adj[p] and row i is (y_p adj[i] - y_i adj[p]) / det, a
    division that is exact because the result is the adjugate.  Reordering
    the columns reorders the rows of the adjugate, and an odd permutation
    flips the sign of both.
    """
    yp, pivot = y[p], adj[p]
    rows = [row if i == p else [(yp * a - yi * b) // det for a, b in zip(row, pivot)]
            for i, (row, yi) in enumerate(zip(adj, y))]
    if _odd(order):
        return [[-a for a in rows[i]] for i in order]
    return [rows[i] for i in order]


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
            _require_ints(ray, "ray {} entry")
            if all(x == 0 for x in ray):
                raise ToricError("zero ray")
        for cone in self.max_cones:
            if len(cone) != dim:
                raise ToricError(f"maximal cone {cone} does not have {dim} rays")
            _require_ints(cone, "cone {} entry")
            if not all(0 <= i < len(self.rays) for i in cone):
                raise ToricError(f"cone {cone} references missing ray")

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    # computed once per fan

    @cached_property
    def dets(self) -> tuple[int, ...]:
        """The det per maximal cone of the matrix with its rays as columns,
        from one walk over the wall graph (`_walk`)."""
        return self._walk[0]

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], list[tuple]]:
        """`dets`, and the steps of one breadth-first walk over the wall
        graph (the maximal cones, joined by the facets that have exactly
        two), in the order it takes them: (b, None, (det, adj)) at a root b,
        where Bareiss runs, and (b, a, (p, x, order)) across the wall from a
        cone a to a cone b, with x = adj_a u_b / det_a the coordinates of
        b's opposite ray u_b in a's ray basis, p the position in a of the
        ray that u_b replaces, and order the positions in a of b's rays, u_b
        taking p.

        Bareiss (`_adjugate`) runs at the first cone of each connected
        component, and at any cone that the walk reaches only through a
        cone of det 0.  From a cone a of nonzero det the walk crosses each
        wall to a cone b that it has not reached yet: one product
        y = adj_a u_b per edge of its tree, and det_b = y_p, negated for an
        odd `order`.  adj_a comes from a's parent by one `_cross` step, and
        only when the walk continues from a: P^n's wall graph is complete,
        so its tree is a star and needs no step at all.
        """
        rays, cones = self.rays, self.max_cones
        neighbours = [[] for _ in cones]
        for _, inc in self.facets:
            if len(inc) == 2:
                (ca, ia), (cb, ib) = inc
                neighbours[ca].append((ia, cb, ib))
                neighbours[cb].append((ib, ca, ia))
        dets, steps, parents = [None] * len(cones), [], {}
        for root, cone in enumerate(cones):
            if dets[root] is not None:
                continue
            dets[root], adj = pair = _adjugate([[rays[i][d] for i in cone]
                                                for d in range(self.dim)])
            steps.append((root, None, pair))
            queue = [root]
            for a in queue:  # grows while it is read
                fresh = [(ia, b, ib) for ia, b, ib in neighbours[a] if dets[b] is None]
                if not (dets[a] and fresh):
                    continue
                if a in parents:
                    adj = _cross(*parents.pop(a))
                for ia, b, ib in fresh:  # b's rays at their positions in a, u_b at u_a's
                    y, p = _product(adj, rays[ib]), cones[a].index(ia)
                    order = [cones[a].index(ia if i == ib else i) for i in cones[b]]
                    dets[b] = -y[p] if _odd(order) else y[p]
                    parents[b] = (dets[a], adj, y, p, order)
                    steps.append((b, a, (p, _divide(dets[a], y), order)))
                    queue.append(b)
        return tuple(dets), steps

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
            rays = sorted(set(cone))
            for i in cone:
                q = rays.index(i)
                inc.setdefault((*rays[:q], *rays[q + 1:]), []).append((ci, i))
        return tuple(sorted(inc.items()))


def check_fan(fan: Fan) -> list[str]:
    """Smoothness (unimodular cones), completeness (wall accounting) and,
    for smooth cones, covering: a generic direction lies in exactly one
    maximal cone.  One message per failed check; empty when the fan is valid."""
    errors = [
        f"non-smooth cone {tuple(cone)}, det {_show_number(det)}"
        for cone, det in zip(fan.max_cones, fan.dets)
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


def _generic_direction(fan: Fan, star=None):
    """A direction c with nonzero coordinates y_tau in every maximal cone's
    ray basis, c = sum_{i in tau} y_{tau,i} u_i; returns c and the y_tau,
    ints on unimodular cones.

    c = (1, k, ..., k^(n-1)) for the first k >= 2 that works.  On smooth
    cones each coordinate is a nonzero polynomial of degree <= n-1 in k, so
    at most n(n-1) values of k fail per cone.  Each candidate runs down the
    steps of `Fan._walk`: an adjugate product at each root, and O(n) per
    other cone b, from its parent a, with x the coordinates of u_b in a's
    basis and p the position that u_b takes: c = t u_b + sum_{i != p}
    (y_{a,i} - t x_i) u_i with t = y_{a,p} / x_p.  A cone of det 0 has no
    coordinates, and then no k works.

    With the star of a center sigma (`ToricModel._star`: each cone that
    contains sigma, mapped to the positions of sigma's rays in it), the
    coordinates must moreover be pairwise distinct at those positions.
    They are then the coordinates of a generic direction of the star
    subdivision at sigma (see `_blow_up`), and c is the one
    `_generic_direction` picks on the subdivided fan, under that fan's
    bound.  No k below the parent's own (`Fan.generic`) qualifies, so that
    one is taken when it does.
    """
    n, star = fan.dim, star or {}

    def distinct(coords):
        return all(len({coords[ci][p] for p in ps}) == len(ps) for ci, ps in star.items())

    if star and distinct(fan.generic[1]):
        return fan.generic
    bound = n * (n - 1) * (len(fan.max_cones) + sum(len(ps) - 1 for ps in star.values()))
    for k in range(2, bound + 3) if 0 not in fan.dets else ():  # a flat cone has no coordinates
        c = tuple(k**d for d in range(n))
        coords = [None] * len(fan.max_cones)
        for b, a, step in fan._walk[1]:
            if a is None:
                ys = _apply(*step, c)
            else:
                p, x, order = step
                t = _divide(x[p], [coords[a][p]])[0]
                ys = [t if q == p else coords[a][q] - t * x[q] for q in order]
            if 0 in ys:
                break
            coords[b] = tuple(ys)
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


def _blow_up(model: ToricModel) -> tuple[int, list[int], list[list[tuple]]]:
    """The fixed-point data of the blow-up of X along Z, in `_localized`
    form, with the values of (pi*L, E, K) and then pi*H, if any, read off
    the model's fixed-point record (`ToricModel._fixed_points`) and sigma's
    star in one integer pass.

    The blow-up's fan is the star subdivision at sigma: each parent cone
    tau that contains sigma gives way to the cones tau_i, i in sigma, that
    trade u_i for the new ray u_E = sum_{j in sigma} u_j (Cox-Little-Schenck,
    Toric Varieties, 3.3).  With c = sum_{j in tau} y_j u_j, the coordinates
    of c in tau_i are y_j - y_i for j in sigma - i, y_j for j not in sigma,
    and y_i on u_E.  So the fixed point tau_i has the weight
    y_i prod_{j != i} (y_j - [j in sigma] y_i), and the values
    pi*D = D(tau), E = y_i and K = -sum_tau y + (|sigma| - 1) y_i, the last
    from K = -sum_rho D_rho (8.2).  Every other cone stays, with E = 0 and
    K = -sum y.  For a single ray tau_i is tau, and E = D_sigma.  The star
    gives the positions of sigma's rays in tau, so j in sigma is a test of
    position, and y the sigma-distinct coordinates that the values share.
    """
    star, (coords, values, _) = model._star, model._fixed_points
    points = []
    for ci, (ys, (pi_l, *pi_h)) in enumerate(zip(coords, zip(*values))):
        canonical = -sum(ys)
        ps = star.get(ci, ())
        if not ps:
            points.append((prod(ys), (pi_l, 0, canonical, *pi_h)))
        for p in ps:
            y = ys[p]
            weight = y * prod(x - y if q in ps else x for q, x in enumerate(ys) if q != p)
            points.append((weight, (pi_l, y, canonical + (len(ps) - 1) * y, *pi_h)))
    return _localized(points, model.fan.dim)


def _intersect(localized, exponents) -> int:
    """D_1^e_1 ... D_m^e_m with sum e = n over the localized divisors, by
    fixed-point localization (Brion 1988), times the localization's
    denominator: the sum over the fixed points of the weight times the
    product of the divisor values, an int when the values are.  The powers
    are rows of the power tables, so an entry costs m multiplications per
    point; exponents past the last given are 0."""
    _, terms, tables = localized
    for table, e in zip(tables, exponents):
        terms = map(mul, terms, table[e])
    return sum(terms)


def _wall_degrees(fan: Fan, coords, values):
    """Yield (rays, incidence, degrees) per wall of a smooth fan whose every
    facet has two cones, in the order of `Fan.facets`: the wall's rays, its
    incidence ((a, i_a), (b, i_b)), the two cones and their opposite rays,
    and the degree of each divisor on the wall's curve, an int.  coords are
    the coordinates y_tau of a direction c with no zero coordinate, and
    values hold, per divisor, its value at each cone's fixed point,
    L(tau) = sum_{i in tau} a_i y_{tau,i}.

    The curve is the T-curve between the fixed points of the two cones, so
    its degree is L.C = (L(a) - L(b)) / y_{a,a}, with y_{a,a} the coordinate
    of c on a's opposite ray (Goresky-Kottwitz-MacPherson 1998).  Proof:
    on smooth cones a's rays are a basis, in which u_b = s u_a +
    sum_i c_i u_i over the wall's rays, and s = +-1 since b is smooth too.
    This turns c = y_{a,a} u_a + sum_i y_{a,i} u_i into b's expansion:
    y_{b,b} = y_{a,a} / s and y_{b,i} = y_{a,i} - c_i y_{a,a} / s.  When
    s = -1, the cones lie on opposite sides of the wall, y_{b,b} = -y_{a,a},
    and L(a) - L(b) = y_{a,a} (a_a + a_b - sum_i c_i a_i), the
    support-function degree (Cox-Little-Schenck, Toric Varieties, 6.3-6.4).
    When s = 1, both cones lie on one side, y_{b,b} = y_{a,a} != -y_{a,a},
    and ToricError says so.  Neither the test nor the degree depends on c,
    as long as its coordinates are nonzero: `Fan.generic` and the
    sigma-distinct direction of a model give the same walls.
    """
    cones = fan.max_cones
    for facet, inc in fan.facets:
        (ca, ia), (cb, ib) = inc
        y = coords[ca][cones[ca].index(ia)]
        if coords[cb][cones[cb].index(ib)] != -y:
            raise ToricError(f"wall data inconsistent at {facet}")
        yield facet, inc, [(v[ca] - v[cb]) // y for v in values]


def nef_threshold(model: ToricModel) -> Fraction:
    """sup{t >= 0 : pi*L - tE nef} on the blow-up along the orbit closure Z
    of sigma, for a model that `ToricModel.validate` passes: the least
    degree L.C of L on the invariant curves that leave Z at its fixed
    points, the curves of the walls tau - i with tau a maximal cone that
    contains sigma and i in sigma (the opposite-ray walls).  So it is an
    integer (returned as a Fraction), as the Seshadri constant at a
    torus-fixed point is (Di Rocco, Math. Z. 1999).  The walls and their
    degrees come from the model's fixed-point record
    (`ToricModel._fixed_points`): a wall is tau - i exactly when its
    incidence holds (tau, i) with tau in sigma's star and i in sigma, so
    no facet is scanned and no degree is computed again.

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
    star, sigma = model._star, model.sigma
    eps = min(degrees[0] for _, inc, degrees in model._fixed_points[2]
              if any(ci in star and i in sigma for ci, i in inc))
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
    and H as tuples.

    Construction also builds sigma's star (`_star`): each maximal cone that
    contains sigma, mapped to the positions of sigma's rays in it, in
    sigma's order.  It is the one place that decides sigma <= tau.  The
    fixed-point record (`_fixed_points`) and the blow-up's data (`_points`)
    are computed once, on first use, and `validate`, `nef_threshold`,
    `_blow_up` and `export_table` read only these.
    """

    def __init__(self, label: str, fan: Fan, L: tuple[int, ...], sigma: tuple[int, ...],
                 H: tuple[int, ...] | None = None):
        self.label, self.fan, self.L, self.H = label, fan, L, H
        sigma = tuple(sigma)
        _require_ints(sigma, "sigma entry")
        self.sigma = tuple(sorted(set(sigma)))
        for name, divisor in (("L", L), ("H", H)):
            if divisor is None:
                continue
            divisor = tuple(divisor)
            setattr(self, name, divisor)
            if len(divisor) != len(self.fan.rays):
                raise ToricError(f"{name} coefficient count does not match the fan")
            _require_ints(divisor, name + " coefficient")
        self._divisors = (self.L,) if self.H is None else (self.L, self.H)
        if not self.sigma:
            raise ToricError("sigma is empty")
        if not all(0 <= i < len(self.fan.rays) for i in self.sigma):
            raise ToricError("sigma references a missing ray")
        self._star = {ci: tuple(map(cone.index, self.sigma))
                      for ci, cone in enumerate(fan.max_cones) if set(self.sigma) <= set(cone)}

    def validate(self) -> list[str]:
        """One message per failed check; empty when the model is valid."""
        errors = check_fan(self.fan)
        if not self._star:
            errors.append(f"sigma {self.sigma} is not a face of any cone")
        if errors:
            return errors
        try:
            walls = self._fixed_points[2]
        except ToricError as exc:  # a wall with both cones on one side
            return [str(exc)]
        l_nef = True
        for rays, _, (deg, *hdeg) in walls:
            if deg < 0:
                l_nef = False
                errors.append(f"L not nef: degree {_show_number(deg)} on wall {rays}")
            if hdeg and hdeg[0] <= 0:
                errors.append(f"H not ample: degree {_show_number(hdeg[0])} on wall {rays}")
        # for nef L, L^n = (pi*L)^n is n! times the volume of its sections polytope
        if l_nef and _intersect(self._points, (self.fan.dim,)) <= 0:
            errors.append("L not big: sections polytope is flat")
        return errors

    @cached_property
    def _fixed_points(self) -> tuple[list[tuple], list[list[int]], list[tuple]]:
        """The model's fixed-point data, for a fan that `check_fan` passes
        and a sigma with a star: the coordinates y_tau of the sigma-distinct
        generic direction (`_generic_direction` at `_star`), each divisor's
        values L(tau) = sum_{i in tau} a_i y_{tau,i} at the parent fixed
        points, one list per divisor of L and H, and every wall with its
        incidence and degrees (`_wall_degrees`).  ToricError when a wall
        has both cones on one side."""
        _, coords = _generic_direction(self.fan, self._star)
        values = [[sum(map(mul, map(a.__getitem__, cone), ys))
                   for cone, ys in zip(self.fan.max_cones, coords)] for a in self._divisors]
        return coords, values, list(_wall_degrees(self.fan, coords, values))

    @cached_property
    def _points(self) -> tuple[int, list[int], list[list[tuple]]]:
        """`_blow_up`'s fixed-point data, shared by `validate` and
        `export_table`."""
        return _blow_up(self)


def parse_toric_model(doc: dict) -> ToricModel:
    _require_keys(doc, {"kind", "label", "rays", "max_cones", "L", "sigma"}, {"H"})

    def int_list(key, v, shape="be a list of integers"):
        if not isinstance(v, list) or not all(map(_is_int, v)):
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
    eps = nef_threshold(model)
    points = model._points
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
