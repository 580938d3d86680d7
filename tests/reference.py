"""Independent reference implementations that tests compare the package
against.  Nothing here is imported by the package."""

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import comb, factorial, gcd, lcm, prod
from operator import mul, sub

from slopestab.models import IntersectionTable, MixedTable, _show_number
from slopestab.polynomials import IsolatingInterval, UniPoly, WitnessMismatch
from slopestab.toric import (
    Fan,
    ToricError,
    _adjugate,
    _apply,
    _intersect,
    _localized,
    check_fan,
)


# -- polynomial arithmetic on coefficient lists (constant term first, ints
# or Fractions): `UniPoly` has none, and the references build with these --


def poly_mul(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def poly_add(*terms):
    out = []
    for t in terms:
        out = [a + b for a, b in zip_longest(out, t, fillvalue=0)]
    return out


def poly_scale(p, s):
    return [s * c for c in p]


def poly_derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def poly_antiderivative(p):
    """The antiderivative that vanishes at 0."""
    return [0, *(Fraction(c) / (k + 1) for k, c in enumerate(p))]


def newton_fit(samples, degree):
    """Exact degree-`degree` fit through the first degree+1 samples, the
    remaining samples as witnesses: the contract of
    `polynomials.fit_polynomial`, by another route.

    Newton divided differences c_i over Fractions, then the Newton form
    expanded by Horner, p <- p * (x - x_i) + c_i, in integers over one common
    denominator; each witness is evaluated over Fractions.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples, got {len(samples)}")
    xs = [Fraction(x) for x, _ in samples]
    ys = [Fraction(y) for _, y in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in samples")
    nodes = xs[: degree + 1]
    # divided-difference table, in place
    coef = ys[: degree + 1]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    # p = sum_t acc[t] x^t / den, with x_i = num_i / xd
    xd = lcm(*(x.denominator for x in nodes))
    den = lcm(*(c.denominator for c in coef))
    acc = []
    for x, c in zip(reversed(nodes), reversed(coef)):
        num = x.numerator * (xd // x.denominator)
        acc = [xd * a - num * b for a, b in zip([0, *acc], [*acc, 0])]
        den *= xd
        acc[0] += c.numerator * (den // c.denominator)
    poly = UniPoly(Fraction(a, den) for a in acc)
    for x, y in zip(xs[degree + 1 :], ys[degree + 1 :]):
        predicted = sum(c * x**k for k, c in enumerate(poly.coeffs))
        if predicted != y:
            raise WitnessMismatch(
                f"witness sample at x={x}: fit predicts {predicted}, sample gives {y}")
    return poly


# -- Sturm-sequence root isolation: the counter that the Descartes one in
# `polynomials` replaced, over Fractions --


def _primitive(ints):
    g = gcd(*ints)
    return [c // g for c in ints]


def _pseudo_divide(a, b):
    """(q, r) with k*a = q*b + r for a positive integer k and deg r < deg b."""
    lead, scale = b[-1], abs(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    shift = len(r) - len(b)
    while shift >= 0 and r:
        f = r[-1] if lead > 0 else -r[-1]
        q = [c * scale for c in q]
        q[shift] += f
        r = [c * scale for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        shift = len(r) - len(b)
    return q, r


def sturm_sequence(ints):
    """Sturm sequence of the integer polynomial `ints` (constant term first)
    as integer coefficient lists, each entry the classical one times a
    positive factor that makes it primitive.  The last entry is gcd(p, p')
    up to a factor."""
    seq = [_primitive(ints)]
    nxt = _primitive([i * c for i, c in enumerate(seq[0])][1:])
    while nxt:
        seq.append(nxt)
        nxt = _primitive([-c for c in _pseudo_divide(seq[-2], seq[-1])[1]])
    return seq


def squarefree_sturm(p):
    """Sturm sequence of the square-free part p / gcd(p, p') of the UniPoly
    p; its first entry has the real roots of p, each once."""
    den = lcm(*(c.denominator for c in p.coeffs))
    seq = sturm_sequence([int(c * den) for c in p.coeffs])
    if len(seq[-1]) > 1:
        q, r = _pseudo_divide(seq[0], seq[-1])
        if r:
            raise AssertionError(f"gcd(p, p') does not divide p: remainder {r}")
        seq = sturm_sequence(q)
    return seq


def sign_at(ints, num, den):
    """The sign of the integer polynomial `ints` at num/den, for den > 0:
    the sign of sum_j ints[j] num^j den^(d - j)."""
    v, scale = 0, 1
    for c in reversed(ints):
        v, scale = v * num + c * scale, scale * den
    return (v > 0) - (v < 0)


def sturm_count(seq, x):
    """Sign variations of the Sturm sequence `seq` at x, zeros skipped: the
    distinct roots in (x, y] are sturm_count(x) - sturm_count(y)."""
    x = Fraction(x)
    signs = [s for s in (sign_at(q, x.numerator, x.denominator) for q in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_bisect(count, lo, hi, width=None, clear=()):
    """Cells (a, b] of the dyadic grid of (lo, hi] where `count` falls by
    exactly one, sorted: for each root counted, the first level's cell that
    holds no other, and with a width, is at most that wide, lies strictly
    inside (lo, hi) and, closed, holds no point of `clear`."""
    out = []
    stack = [(lo, hi, count(lo), count(hi))]
    while stack:
        a, b, ca, cb = stack.pop()
        if ca - cb == 1 and (width is None or (b - a <= width and lo < a and b < hi
                                               and not any(a <= r <= b for r in clear))):
            out.append((a, b))
        elif ca > cb:
            m = (a + b) / 2
            cm = count(m)
            stack.append((a, m, ca, cm))
            stack.append((m, b, cm, cb))
    out.sort()
    return out


def rational_root_in(ints, a, b):
    """The root of the primitive integer polynomial `ints` in (a, b], which
    must hold exactly one, if it is rational, else None.

    A rational root has a denominator at most lead = |ints[-1]|, and two such
    fractions lie at least 1/lead^2 apart: halving on the sign to a width
    below 1/lead^2 leaves the root as the fraction of denominator at most
    lead nearest the midpoint, if it is rational.  The halving runs on
    integers x/den < y/den.
    """
    s_b = sign_at(ints, b.numerator, b.denominator)
    if s_b == 0:
        return b
    lead = abs(ints[-1])
    den = lcm(a.denominator, b.denominator)
    x, y = int(a * den), int(b * den)
    while (y - x) * lead * lead >= den:
        x, y, den = 2 * x, 2 * y, 2 * den
        m = (x + y) // 2
        s = sign_at(ints, m, den)
        if s == 0:
            return Fraction(m, den)
        x, y = (x, m) if s == s_b else (m, y)
    r = Fraction(x + y, 2 * den).limit_denominator(lead)
    inside = Fraction(x, den) < r < Fraction(y, den)
    return r if inside and sign_at(ints, r.numerator, r.denominator) == 0 else None


def ref_isolate_roots(p, lo, hi, width):
    """The contract of `polynomials.isolate_roots`, by Sturm counts over
    Fractions: each rational root in (lo, hi] exactly, and each irrational
    one in the cell `sturm_bisect` gives it on the grid of (lo, hi], which
    keeps every rational root out of every closed cell."""
    lo, hi = Fraction(lo), Fraction(hi)
    seq = squarefree_sturm(p)
    cells = sturm_bisect(lambda x: sturm_count(seq, x), lo, hi)
    exact = [r for r in (rational_root_in(seq[0], a, b) for a, b in cells) if r is not None]

    def count(x):  # falls across the irrational roots only
        return sturm_count(seq, x) + bisect_right(exact, x)

    out = [IsolatingInterval(r, r) for r in exact]
    out.extend(IsolatingInterval(x, y) for x, y in sturm_bisect(count, lo, hi, width, exact))
    out.sort(key=lambda iv: iv.lo)
    return out


# -- tables by their rational entries: the package holds AE, KAE and
# MIX/KMIX as ints over one denominator, and the tests build and read them as
# Fractions through these --


def table_of(label, n, ae, kae, epsilon, mixed=None, kmixed=None):
    """The IntersectionTable with the rational entries AE and KAE, or the
    MixedTable when the maps MIX and KMIX are given too, over the lcm of the
    entries' denominators."""
    lists = [tuple(map(Fraction, ae)), tuple(map(Fraction, kae))]
    maps = [] if mixed is None else [{k: Fraction(v) for k, v in m.items()}
                                     for m in (mixed, kmixed)]
    den = lcm(*(x.denominator for xs in (*lists, *(m.values() for m in maps)) for x in xs))
    ae, kae = (tuple(x.numerator * (den // x.denominator) for x in xs) for xs in lists)
    maps = [{k: x.numerator * (den // x.denominator) for k, x in m.items()} for m in maps]
    return (MixedTable if maps else IntersectionTable)(label, n, den, ae, kae,
                                                       Fraction(epsilon), *maps)


def entries(table):
    """(AE, KAE) of a table as tuples of Fractions."""
    return tuple(Fraction(a, table.den) for a in table.ae), tuple(
        Fraction(a, table.den) for a in table.kae)


def mixed_entries(mixed):
    """(MIX, KMIX) of a mixed table as dicts of Fractions."""
    return tuple({k: Fraction(v, mixed.den) for k, v in m.items()}
                 for m in (mixed.mixed, mixed.kmixed))


# -- slope invariants by their definitions: the binomial expansion, then
# derivative, antiderivative, sum and product of coefficient lists, and a
# Fraction Horner in s for L + sH; the package builds each in closed integer
# form instead --


def ref_alpha(table):
    """(alpha0, alpha1, int_0^t alpha0, int_0^t (alpha1 + alpha0'/2), mu, Q)
    with Q = mu int_0^t alpha0 - int_0^t (alpha1 + alpha0'/2)."""
    n, (ae, kae) = table.n, entries(table)
    alpha0 = poly_scale([(-1) ** k * comb(n, k) * a for k, a in enumerate(ae)],
                        Fraction(1, factorial(n)))
    alpha1 = poly_scale([(-1) ** k * comb(n - 1, k) * a for k, a in enumerate(kae)],
                        Fraction(-1, 2 * factorial(n - 1)))
    i0 = poly_antiderivative(alpha0)
    i1 = poly_antiderivative(poly_add(alpha1, poly_scale(poly_derivative(alpha0), Fraction(1, 2))))
    mu = alpha1[0] / alpha0[0]
    q = poly_add(poly_scale(i0, mu), poly_scale(i1, -1))
    return (*map(UniPoly, (alpha0, alpha1, i0, i1)), mu, UniPoly(q))


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ref_specialize(mixed, s):
    """(AE, KAE) of L + sH: entry k of a degree-deg index map is
    sum_j C(deg-k, j) s^j index[(deg-k-j, j, k)], by Fraction Horner in s."""

    def by_horner(index, deg):
        return tuple(fraction_horner([comb(deg - k, j) * index[(deg - k - j, j, k)]
                                      for j in range(deg - k + 1)], Fraction(s))
                     for k in range(deg + 1))

    mix, kmix = mixed_entries(mixed)
    return by_horner(mix, mixed.n), by_horner(kmix, mixed.n - 1)


# -- the blow-up as a fan: the star subdivision, its walls and its
# localization, which `toric.export_table` reads off the parent fan instead --


class Wall(namedtuple("Wall", "rays opposite relation")):
    """Codimension-one face shared by two maximal cones: rays holds the n-1
    common ray indices, opposite the two non-shared ones (a, b), and
    relation the c_i, one per wall ray, of u_a + u_b = sum_i c_i u_i."""

    __slots__ = ()


class PerConeFan(Fan):
    """A fan built cone by cone, the reference for `Fan`'s wall walk: one
    Bareiss elimination per maximal cone, the generic direction solved in
    each cone (`generic_direction`), and each wall's relation solved from its
    first cone's adjugate, which gives the curve degrees (`curve_degree`)."""

    @cached_property
    def adjugates(self):
        """(det, adj) per maximal cone, adj None when det is 0."""
        return tuple(_adjugate([[self.rays[i][d] for i in cone] for d in range(self.dim)])
                     for cone in self.max_cones)

    @cached_property
    def dets(self):
        return tuple(det for det, _ in self.adjugates)

    @cached_property
    def generic(self):
        return generic_direction(self)

    @cached_property
    def walls(self):
        """The walls, each shared by exactly two maximal cones, with their
        relations: the coordinates x of u_b in the ray basis of the wall's
        first cone a give u_a + u_b = sum_i c_i u_i, with c_i = x_i, exactly
        when x_a = -1."""
        walls = []
        for facet, inc in self.facets:
            if len(inc) != 2:
                raise ToricError(f"wall {facet} with {len(inc)} incident cone(s)")
            (ca, ia), (_, ib) = inc
            det, adj = self.adjugates[ca]
            x = dict(zip(self.max_cones[ca], _apply(det, adj, self.rays[ib]))) if det else {}
            if x.get(ia) != -1:
                raise ToricError(f"wall data inconsistent at {facet}")
            walls.append(Wall(facet, (ia, ib), tuple(x[i] for i in facet)))
        return tuple(walls)


def walls_of(fan):
    """The reference walls of any fan."""
    if not isinstance(fan, PerConeFan):
        fan = PerConeFan(fan.rays, fan.max_cones)
    return fan.walls


def curve_degree(wall, a):
    """Degree of the divisor with coefficients a on the invariant curve of a
    wall: with the wall relation u_a + u_b = sum_i c_i u_i over the wall's
    rays, a_a + a_b - sum_i c_i a_i, for the support-function convention
    <x, u_rho> >= -a_rho."""
    ia, ib = wall.opposite
    return a[ia] + a[ib] - sum(map(mul, wall.relation, map(a.__getitem__, wall.rays)))


def generic_direction(fan, sigma=()):
    """The contract of `toric._generic_direction` on a `PerConeFan`, each
    candidate c solved in every cone by its adjugate."""
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


def localize(fan, divisors):
    """Fixed-point data at the generic direction, in `toric._localized`
    form: per maximal cone sigma the weight prod_i y_{sigma,i} and the value
    sum_{i in sigma} a_i y_{sigma,i} of each divisor."""
    _, coords = fan.generic
    return _localized([
        (prod(ys), tuple(sum(map(mul, map(a.__getitem__, cone), ys)) for a in divisors))
        for cone, ys in zip(fan.max_cones, coords)
    ], fan.dim)


def ref_validate(model):
    """The contract of `ToricModel.validate`, on the reference fan: its
    walls and curve degrees, and L^n localized on the parent fan."""
    fan = PerConeFan(model.fan.rays, model.fan.max_cones)
    errors = check_fan(fan)
    if not any(set(model.sigma) <= set(c) for c in fan.max_cones):
        errors.append(f"sigma {model.sigma} is not a face of any cone")
    if errors:
        return errors
    try:
        walls = fan.walls
    except ToricError as exc:
        return [str(exc)]
    l_nef = True
    for wall in walls:
        deg = curve_degree(wall, model.L)
        if deg < 0:
            l_nef = False
            errors.append(f"L not nef: degree {_show_number(deg)} on wall {wall.rays}")
        if model.H is not None:
            hdeg = curve_degree(wall, model.H)
            if hdeg <= 0:
                errors.append(f"H not ample: degree {_show_number(hdeg)} on wall {wall.rays}")
    if l_nef and _intersect(localize(fan, (model.L,)), (fan.dim,)) <= 0:
        errors.append("L not big: sections polytope is flat")
    return errors


def star_subdivide(fan, sigma):
    """Star subdivision at the smooth cone spanned by the rays in sigma.

    Returns the refined fan and the index of the barycentric ray.  A single
    ray is the identity blow-up: the fan is returned unchanged and the ray
    itself plays the role of the exceptional divisor.

    Each maximal cone tau containing sigma gives way to the cones tau_i,
    i in sigma: tau in its order without i, then the new ray.  The new fan
    inherits its (det, adj) from the parent's.  tau_i's matrix is M T P,
    where T (det 1) adds the other rays of sigma to column i and P moves
    that column, at position p, last.  So adj(tau_i) is adj(M) with row i
    subtracted from the rows of the other rays of sigma and moved last, and
    det and adj change sign when n - 1 - p is odd.  The other cones keep
    the parent's objects, and when the parent's walls have been computed,
    each wall between two such cones is the parent's Wall.  The fan is a
    `PerConeFan`, and so is the parent unless sigma is a single ray.
    """
    sigma = tuple(sorted(set(sigma)))
    if not sigma:
        raise ToricError("sigma is empty")
    if not any(set(sigma) <= set(c) for c in fan.max_cones):
        raise ToricError(f"sigma {sigma} is not a face of any maximal cone")
    if len(sigma) == 1:
        return fan, sigma[0]
    if not isinstance(fan, PerConeFan):
        fan = PerConeFan(fan.rays, fan.max_cones)
    new_ray = tuple(sum(fan.rays[i][d] for i in sigma) for d in range(fan.dim))
    new_idx = len(fan.rays)
    cones, adjugates, kept = [], [], set()
    for cone, pair in zip(fan.max_cones, fan.adjugates):
        if not set(sigma) <= set(cone):
            kept.add(len(cones))
            cones.append(cone)
            adjugates.append(pair)
            continue
        det, adj = pair
        for i in sigma:
            p = cone.index(i)
            cones.append(cone[:p] + cone[p + 1:] + (new_idx,))
            if adj is None:  # det 0, as is the new cone's
                adjugates.append(pair)
                continue
            rows = [list(map(sub, row, adj[p])) if j in sigma else row
                    for j, row in zip(cone, adj) if j != i] + [adj[p]]
            if (fan.dim - 1 - p) % 2:
                adjugates.append((-det, [[-x for x in row] for row in rows]))
            else:
                adjugates.append((det, rows))
    fan1 = PerConeFan(fan.rays + (new_ray,), tuple(cones))
    fan1.__dict__["adjugates"] = tuple(adjugates)
    if "walls" in fan.__dict__:
        # two kept cones meet in fan1 as they met in fan, in the same order
        old = {wall.rays: wall for wall in fan.walls}
        fan1.__dict__["walls"] = tuple(
            old[wall.rays] if all(ci in kept for ci, _ in inc) else wall
            for wall, (_, inc) in zip(PerConeFan.walls.func(fan1), fan1.facets)
        )
    return fan1, new_idx


def exceptional_setup(model):
    """Subdivided fan, exceptional ray index, and the pullback map."""
    fan1, e_idx = star_subdivide(model.fan, model.sigma)

    def pullback(div):
        if fan1 is model.fan:
            return div
        return div + (sum(div[i] for i in model.sigma),)

    return fan1, e_idx, pullback


def wall_nef_threshold(fan, pi_l, e_index):
    """sup{t >= 0 : pi*L - tE nef} on the subdivided fan, from the affine
    bound that each of its walls puts on t."""
    e_div = tuple(int(i == e_index) for i in range(len(fan.rays)))
    bounds = []
    for wall in walls_of(fan):
        dl = curve_degree(wall, pi_l)
        if dl < 0:
            raise ToricError(f"pi*L is not nef: degree {dl} on wall {wall.rays}")
        de = curve_degree(wall, e_div)
        if de > 0:
            bounds.append(Fraction(dl, de))
    if not bounds:
        raise ToricError("no wall constrains t: nef threshold unbounded")
    eps = min(bounds)
    if eps <= 0:
        raise ToricError("nef threshold is zero: center not permissible")
    return eps


def subdivided_localization(model):
    """(fan1, e_idx, pi*L, the localized (pi*L, E, K[, pi*H])) on the star
    subdivision fan1 built afresh, Bareiss on each of its cones."""
    fan1, e_idx, pullback = exceptional_setup(model)
    fan1 = Fan(fan1.rays, fan1.max_cones)
    pi_l = pullback(model.L)
    nrays = len(fan1.rays)
    divisors = [pi_l, tuple(int(i == e_idx) for i in range(nrays)), (-1,) * nrays]
    if model.H is not None:
        divisors.append(pullback(model.H))
    return fan1, e_idx, pi_l, localize(fan1, divisors)


def ref_export_table(model):
    """The contract of `toric.export_table`, on the subdivided fan: the
    parent's validation by `ref_validate`, then `wall_nef_threshold` and
    localization on the star subdivision."""
    errors = ref_validate(model)
    if errors:
        raise ToricError("; ".join(errors))
    fan1, e_idx, pi_l, points = subdivided_localization(model)
    eps = wall_nef_threshold(fan1, pi_l, e_idx)
    n = model.fan.dim

    def number(i, j, k, kappa):
        return Fraction(_intersect(points, (i, k, kappa, j)), points[0])

    ae = tuple(number(n - k, 0, k, 0) for k in range(n + 1))
    kae = tuple(number(n - 1 - k, 0, k, 1) for k in range(n))
    if model.H is None:
        return table_of(model.label, n, ae, kae, eps)
    mixed = {(i, j, n - i - j): number(i, j, n - i - j, 0)
             for i in range(n + 1) for j in range(n + 1 - i)}
    kmixed = {(i, j, n - 1 - i - j): number(i, j, n - 1 - i - j, 1)
              for i in range(n) for j in range(n - i)}
    return table_of(model.label, n, ae, kae, eps, mixed, kmixed)
