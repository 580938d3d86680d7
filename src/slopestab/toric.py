"""Combinatorial toric backend: fans, star subdivisions, nef thresholds,
intersection numbers, lattice polytopes with exact volumes, and export of
intersection tables.

Smooth complete fans only.  Blowing up the orbit closure of a smooth cone
is realized as the star subdivision inserting the barycentric ray; the
divisorial case (a single ray) is the identity blow-up.

Intersection numbers come from fixed-point localization: one exact sum over
the maximal cones (Atiyah-Bott / Berline-Vergne; Brion 1988 in polytope
form), summed in integers over one common denominator.  The polytopes,
their volumes and vertices are only a reference, for the tests and the
benchmark: the oracle enumerates lattice points without them.

All linear algebra goes through one integer kernel, `_adjugate`
(fraction-free Gauss-Jordan, Bareiss 1968).  Each fan keeps the (det, adj)
of its maximal cones, so cone determinants, the cone coordinates of the
generic direction and the wall relations behind curve degrees are integer
matrix-vector products; polytope vertices take one adjugate per n-subset
of facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod

from .models import IntersectionTable, MixedTable, ModelError


class ToricError(ValueError):
    """Inconsistent fan, divisor or model data."""


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
            if i != k:
                f = m[i][k]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = piv
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def _apply(det: int, adj, v) -> list:
    """The solution x = adj v / det of A x = v for nonzero det: ints when
    |det| = 1 and v is integral, Fractions otherwise."""
    xs = [sum(a * x for a, x in zip(row, v)) for row in adj]
    if det in (1, -1):
        return [det * x for x in xs]
    return [Fraction(x, det) for x in xs]


# ---------------------------------------------------------------------------
# fans and divisors

@dataclass(frozen=True)
class Fan:
    """Complete simplicial fan given by primitive rays and maximal cones."""

    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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

    # computed once per fan (a frozen dataclass may still fill its __dict__)

    @cached_property
    def adjugates(self) -> tuple[tuple[int, list[list[int]] | None], ...]:
        """(det, adj) per maximal cone of the matrix with its rays as columns."""
        return tuple(
            _adjugate([[self.rays[i][d] for i in cone] for d in range(self.dim)])
            for cone in self.max_cones
        )

    @cached_property
    def generic(self):
        """The generic direction c and its cone coordinates; see
        _generic_direction."""
        return _generic_direction(self)

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """The walls, each shared by exactly two maximal cones, with their
        relations.

        The relation u_a + u_b = sum_i c_i u_i over the wall's rays is read
        from the coordinates x of u_b in the ray basis of cone a: it holds,
        with c_i = x_i, exactly when x_a = -1.
        """
        out = []
        for facet, inc in sorted(_facet_incidence(self).items()):
            if len(inc) != 2:
                raise ToricError(f"wall {facet} with {len(inc)} incident cone(s)")
            (ca, ia), (_, ib) = inc
            det, adj = self.adjugates[ca]
            x = dict(zip(self.max_cones[ca], _apply(det, adj, self.rays[ib]))) if det else {}
            if x.get(ia) != -1:
                if not facet:
                    raise ToricError("wall data inconsistent in dimension one")
                raise ToricError(f"wall data inconsistent at {facet}")
            out.append(Wall(facet, (ia, ib), tuple(x[i] for i in facet)))
        return tuple(out)


@dataclass(frozen=True)
class Wall:
    """Codimension-one face shared by two maximal cones."""

    rays: tuple[int, ...]  # the n-1 common ray indices
    opposite: tuple[int, int]  # the two non-shared ray indices
    relation: tuple[int | Fraction, ...]  # c_i per wall ray: u_a + u_b = sum_i c_i u_i


@dataclass(frozen=True)
class ToricDivisor:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @cached_property
    def int_coeffs(self) -> tuple:
        """The coefficients, each an int when it is integral: integer sums
        skip the cost of Fraction arithmetic."""
        return tuple(a.numerator if a.denominator == 1 else a for a in self.coeffs)

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        return ToricDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        return ToricDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar) -> "ToricDivisor":
        r = Fraction(scalar)
        return ToricDivisor(tuple(r * c for c in self.coeffs))


def _facet_incidence(fan: Fan) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    inc: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ci, cone in enumerate(fan.max_cones):
        for i in cone:
            facet = tuple(sorted(set(cone) - {i}))
            inc.setdefault(facet, []).append((ci, i))
    return inc


def check_fan(fan: Fan) -> list[str]:
    """Smoothness (unimodular cones), completeness (wall accounting) and,
    for smooth cones, covering: a generic direction lies in exactly one
    maximal cone.  One message per failed check; empty when the fan is valid."""
    errors = [
        f"non-smooth cone {tuple(cone)}, det {det}"
        for cone, (det, _) in zip(fan.max_cones, fan.adjugates)
        if abs(det) != 1
    ]
    smooth = not errors
    for facet, inc in sorted(_facet_incidence(fan).items()):
        if len(inc) != 2:
            errors.append(f"wall {facet} with {len(inc)} incident cone(s), expected 2")
    if smooth:
        c, coords = fan.generic
        covering = sum(all(y > 0 for y in ys) for ys in coords)
        if covering != 1:
            errors.append(f"direction {c} lies in {covering} maximal cones, expected 1")
    return errors


def _generic_direction(fan: Fan):
    """A direction c with nonzero coordinates y_sigma in every maximal cone's
    ray basis, c = sum_{i in sigma} y_{sigma,i} u_i; returns c and the y_sigma,
    ints on unimodular cones.

    c = (1, k, ..., k^(n-1)) for the first k >= 2 that works.  On smooth
    cones each coordinate is a nonzero polynomial of degree <= n-1 in k, so
    at most n(n-1) values of k fail per cone.
    """
    n = fan.dim
    bound = n * (n - 1) * len(fan.max_cones)
    for k in range(2, bound + 3):
        c = tuple(k**d for d in range(n))
        coords = []
        for det, adj in fan.adjugates:
            ys = tuple(_apply(det, adj, c)) if det else (0,)  # flat: no coordinates
            if 0 in ys:
                break
            coords.append(ys)
        else:
            return c, coords
    raise RuntimeError(f"no generic direction among {bound + 1} candidates")


def _localize(fan: Fan, divisors) -> tuple[int, list[tuple[int, tuple]]]:
    """Fixed-point data at the generic direction, in integers: a common
    denominator D, the lcm of |prod_i y_{sigma,i}| over the maximal cones,
    and per cone sigma the weight D / prod_i y_{sigma,i} with the value
    sum_{i in sigma} a_i y_{sigma,i} of each divisor (a Fraction only when a
    coefficient a_i is not integral)."""
    _, coords = fan.generic
    weights = [prod(ys) for ys in coords]
    denom = lcm(*weights)
    coeffs = [d.int_coeffs for d in divisors]
    return denom, [
        (denom // w, tuple(sum(a[i] * y for i, y in zip(cone, ys)) for a in coeffs))
        for cone, ys, w in zip(fan.max_cones, coords, weights)
    ]


def _intersect(localized, exponents) -> Fraction:
    """D_1^e_1 ... D_m^e_m with sum e = n over the localized divisors, by
    fixed-point localization (Brion 1988): sum over maximal cones of the
    weight times the product of the divisor values, over the denominator."""
    denom, points = localized
    return Fraction(
        sum(w * prod(v**e for v, e in zip(values, exponents)) for w, values in points),
        denom,
    )


def star_subdivide(fan: Fan, sigma) -> tuple[Fan, int]:
    """Star subdivision at the smooth cone spanned by the rays in sigma.

    Returns the refined fan and the index of the barycentric ray.  A single
    ray is the identity blow-up: the fan is returned unchanged and the ray
    itself plays the role of the exceptional divisor.
    """
    sigma = tuple(sorted(set(sigma)))
    if not sigma:
        raise ToricError("sigma is empty")
    containing = [c for c in fan.max_cones if set(sigma) <= set(c)]
    if not containing:
        raise ToricError(f"sigma {sigma} is not a face of any maximal cone")
    if len(sigma) == 1:
        return fan, sigma[0]
    new_ray = tuple(sum(fan.rays[i][d] for i in sigma) for d in range(fan.dim))
    new_idx = len(fan.rays)
    cones = []
    for cone in fan.max_cones:
        if set(sigma) <= set(cone):
            for i in sigma:
                cones.append(tuple(sorted((set(cone) - {i}) | {new_idx})))
        else:
            cones.append(cone)
    return Fan(fan.rays + (new_ray,), tuple(cones)), new_idx


def curve_degree(fan: Fan, wall: Wall, divisor: ToricDivisor) -> int | Fraction:
    """Degree of a divisor on the invariant curve of a wall of the fan.

    With the wall relation u_a + u_b = sum_i c_i u_i over the wall's rays,
    the degree is a_a + a_b - sum_i c_i a_i for the support-function
    convention <x, u_rho> >= -a_rho; an int when the coefficients are.
    """
    ia, ib = wall.opposite
    a = divisor.int_coeffs
    return a[ia] + a[ib] - sum(c * a[i] for c, i in zip(wall.relation, wall.rays))


def nef_threshold(fan: Fan, pi_l: ToricDivisor, e_index: int) -> Fraction:
    """sup{ t >= 0 : pi*L - tE nef }, from per-wall affine bounds."""
    e_div = ToricDivisor(
        tuple(Fraction(int(i == e_index)) for i in range(len(fan.rays)))
    )
    bounds = []
    for wall in fan.walls:
        dl = curve_degree(fan, wall, pi_l)
        if dl < 0:
            raise ToricError(f"pi*L is not nef: degree {dl} on wall {wall.rays}")
        de = curve_degree(fan, wall, e_div)
        if de > 0:
            bounds.append(Fraction(dl, de))
    if not bounds:
        raise ToricError("no wall constrains t: nef threshold unbounded")
    eps = min(bounds)
    if eps <= 0:
        raise ToricError("nef threshold is zero: center not permissible")
    return eps


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


def _volume_hrep(ineqs, dim) -> Fraction:
    """Euclidean volume of {x : <x,u> >= -a} by the divergence-theorem
    recursion over facets; exact throughout."""
    if dim == 0:
        return Fraction(1) if all(a >= 0 for _, a in ineqs) else Fraction(0)
    if dim == 1:
        return _interval_volume(ineqs)
    seen = set()
    total = Fraction(0)
    for u, a in ineqs:
        if (u, a) in seen:
            continue
        seen.add((u, a))
        drop = max(range(dim), key=lambda l: abs(u[l]))
        if u[drop] == 0:
            continue
        reduced = _restrict(ineqs, (u, a), drop)
        if reduced is None:
            continue
        facet_vol = _volume_hrep(reduced, dim - 1)
        total += a * facet_vol / abs(u[drop])
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

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def volume(self) -> Fraction:
        return _volume_hrep(self.inequalities, self.dim)

    def facet_lattice_volume(self, facet_index: int) -> Fraction:
        """Facet volume in unimodular coordinates of its hyperplane lattice.

        Projecting out a coordinate where the primitive normal is nonzero is
        a lattice-volume-preserving chart up to the factor |u_j|.
        """
        u, a = self.inequalities[facet_index]
        g = 0
        for x in u:
            g = gcd(g, abs(x))
        if g != 1:
            raise ToricError(f"non-primitive facet normal {u}")
        if self.dim == 1:
            reduced = _restrict(self.inequalities, (u, a), 0)
            if reduced is None:
                return Fraction(0)
            return _volume_hrep(reduced, 0)
        drop = max(range(self.dim), key=lambda l: abs(u[l]))
        reduced = _restrict(self.inequalities, (u, a), drop)
        if reduced is None:
            return Fraction(0)
        return _volume_hrep(reduced, self.dim - 1) / abs(u[drop])

    def boundary_lattice_volume(self) -> Fraction:
        return sum(
            self.facet_lattice_volume(i) for i in range(len(self.inequalities))
        )


def polytope_of(fan: Fan, divisor: ToricDivisor) -> LatticePolytope:
    """Sections polytope {x : <x, u_rho> >= -a_rho for every ray}."""
    if len(divisor.coeffs) != len(fan.rays):
        raise ToricError("divisor coefficient count does not match the fan")
    # a smooth complete fan makes the polytope bounded
    errors = check_fan(fan)
    if errors:
        raise ToricError(f"polytope of an invalid fan: {errors[0]}")
    return LatticePolytope(list(zip(fan.rays, divisor.coeffs)))


# ---------------------------------------------------------------------------
# toric models and table export

@dataclass(frozen=True)
class ToricModel:
    """Combinatorial (X, L, Z): a fan, a nef and big divisor, an optional
    ample companion H, and the smooth cone sigma whose orbit closure is Z."""

    label: str
    fan: Fan
    L: ToricDivisor
    sigma: tuple[int, ...]
    H: ToricDivisor | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(sorted(set(self.sigma))))
        if len(self.L.coeffs) != len(self.fan.rays):
            raise ToricError("L coefficient count does not match the fan")
        if self.H is not None and len(self.H.coeffs) != len(self.fan.rays):
            raise ToricError("H coefficient count does not match the fan")
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
            deg = curve_degree(self.fan, wall, self.L)
            if deg < 0:
                l_nef = False
                errors.append(f"L not nef: degree {deg} on wall {wall.rays}")
            if self.H is not None:
                hdeg = curve_degree(self.fan, wall, self.H)
                if hdeg <= 0:
                    errors.append(f"H not ample: degree {hdeg} on wall {wall.rays}")
        # for nef L, L^n is n! times the volume of its sections polytope
        if l_nef and _intersect(_localize(self.fan, (self.L,)), (self.fan.dim,)) <= 0:
            errors.append("L not big: sections polytope is flat")
        return errors


def parse_toric_model(doc: dict) -> ToricModel:
    from .models import _require_keys  # shared strict-schema helper

    _require_keys(doc, {"kind", "label", "rays", "max_cones", "L", "sigma"}, {"H"})

    def int_vectors(key):
        v = doc[key]
        if not isinstance(v, list):
            raise ModelError(f"field {key!r} must be a list")
        out = []
        for row in v:
            if not isinstance(row, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in row
            ):
                raise ModelError(f"field {key!r} must hold integer vectors")
            out.append(tuple(row))
        return tuple(out)

    def int_list(key):
        v = doc[key]
        if not isinstance(v, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in v
        ):
            raise ModelError(f"field {key!r} must be a list of integers")
        return tuple(v)

    try:
        fan = Fan(int_vectors("rays"), int_vectors("max_cones"))
        model = ToricModel(
            label=str(doc["label"]),
            fan=fan,
            L=ToricDivisor(int_list("L")),
            sigma=int_list("sigma"),
            H=ToricDivisor(int_list("H")) if "H" in doc else None,
        )
    except ToricError as exc:
        raise ModelError(str(exc)) from exc
    return model


def _integral_coeffs(name: str, divisor: ToricDivisor) -> list[int]:
    """The coefficients as ints; a toric document holds integers only."""
    for i, c in enumerate(divisor.coeffs):
        if c.denominator != 1:
            raise ToricError(f"{name} coefficient {i} is {c}, not an integer")
    return [c.numerator for c in divisor.coeffs]


def serialize_toric_model(model: ToricModel) -> dict:
    doc = {
        "kind": "toric",
        "label": model.label,
        "rays": [list(r) for r in model.fan.rays],
        "max_cones": [list(c) for c in model.fan.max_cones],
        "L": _integral_coeffs("L", model.L),
        "sigma": list(model.sigma),
    }
    if model.H is not None:
        doc["H"] = _integral_coeffs("H", model.H)
    return doc


def _exceptional_setup(model: ToricModel):
    """Subdivided fan, exceptional ray index, and the pullback map."""
    fan1, e_idx = star_subdivide(model.fan, model.sigma)

    def pullback(div: ToricDivisor) -> ToricDivisor:
        if fan1 is model.fan:
            return div
        new_coeff = sum(div.coeffs[i] for i in model.sigma)
        return ToricDivisor(div.coeffs + (new_coeff,))

    return fan1, e_idx, pullback


def export_table(model: ToricModel):
    """IntersectionTable of (X, L, Z); a MixedTable when H is present.

    Every entry is an intersection number on the subdivided fan, by
    fixed-point localization: AE[k] = (pi*L)^(n-k).E^k,
    KAE[k] = K.(pi*L)^(n-1-k).E^k with K = -sum D_rho, and
    MIX[(i, j, k)] = (pi*L)^i.(pi*H)^j.E^k, KMIX likewise with K.
    """
    errors = model.validate()
    if errors:
        raise ToricError("; ".join(errors))
    n = model.fan.dim
    fan1, e_idx, pullback = _exceptional_setup(model)
    pi_l = pullback(model.L)
    eps = nef_threshold(fan1, pi_l, e_idx)
    nrays = len(fan1.rays)
    e_div = ToricDivisor(tuple(int(i == e_idx) for i in range(nrays)))
    canonical = ToricDivisor((-1,) * nrays)
    divisors = (pi_l, e_div, canonical)
    if model.H is not None:
        divisors += (pullback(model.H),)
    points = _localize(fan1, divisors)

    def number(i, j, k, kappa):
        # (pi*L)^i . (pi*H)^j . E^k . K^kappa
        return _intersect(points, (i, k, kappa, j))

    if model.H is None:
        ae = tuple(number(n - k, 0, k, 0) for k in range(n + 1))
        kae = tuple(number(n - 1 - k, 0, k, 1) for k in range(n))
        return IntersectionTable(model.label, n, ae, kae, eps)
    mixed = {
        (i, j, n - i - j): number(i, j, n - i - j, 0)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }
    kmixed = {
        (i, j, n - 1 - i - j): number(i, j, n - 1 - i - j, 1)
        for i in range(n)
        for j in range(n - i)
    }
    # the j = 0 slices are the table of L itself
    ae = tuple(mixed[(n - k, 0, k)] for k in range(n + 1))
    kae = tuple(kmixed[(n - 1 - k, 0, k)] for k in range(n))
    return MixedTable(model.label, n, ae, kae, eps, mixed, kmixed)
