"""Exact univariate polynomial arithmetic over the rationals.

Dense polynomials with Fraction coefficients (constant term first), exact
interpolation and definite integration, and Sturm-sequence real-root
isolation.  Everything here is pure and deterministic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**20)


class WitnessMismatch(ValueError):
    """Extra fit samples contradict the fitted polynomial (quasi-polynomial input)."""

    def __init__(self, x, predicted, actual):
        super().__init__(
            f"witness sample at x={x}: fit predicts {predicted}, sample gives {actual}"
        )
        self.x = x
        self.predicted = predicted
        self.actual = actual


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class UniPoly:
    """Dense univariate polynomial over Q.

    Coefficients are stored constant-term first with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable by convention and safe to share across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        r = Fraction(other)
        return UniPoly([c * r for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UniPoly":
        r = Fraction(scalar)
        return UniPoly([c / r for c in self.coeffs])

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(dn - dd + 1, 0)
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / lead
            quot[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return UniPoly(quot), UniPoly(rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "UniPoly":
        return UniPoly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self / self.coeffs[-1]

    def scale_input(self, r) -> "UniPoly":
        """The polynomial x -> p(r*x)."""
        r = Fraction(r)
        pw = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * pw)
            pw *= r
        return UniPoly(out)

    def deflate(self, root) -> "UniPoly":
        """Synthetic division by (x - root); root must be an exact root."""
        root = Fraction(root)
        out = []
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        if out and out[-1] != 0:
            raise ValueError(f"{root} is not a root")
        return UniPoly(list(reversed(out[:-1])))

    def squarefree(self) -> "UniPoly":
        """Square-free part: p / gcd(p, p')."""
        if self.degree <= 1:
            return self
        g = poly_gcd(self, self.derivative())
        q, r = divmod(self, g)
        if not r.is_zero:
            raise RuntimeError(f"gcd(p, p') does not divide p: remainder {r}")
        return q


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def integrate_definite(p: UniPoly, a, b) -> Fraction:
    """Exact definite integral of p over [a, b]."""
    f = p.antiderivative()
    return f(b) - f(a)


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """Unique polynomial of degree < len(points) through all points.

    Newton divided differences over Fractions; raises on duplicate abscissae.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in interpolation points")
    if not points:
        return UniPoly()
    # divided-difference table, in place
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = UniPoly()
    basis = UniPoly([1])
    for i, c in enumerate(coef):
        poly = poly + c * basis
        basis = basis * UniPoly([-xs[i], 1])
    return poly


def fit_polynomial(samples: Sequence[tuple], degree: int) -> UniPoly:
    """Exact degree-`degree` fit through the first degree+1 samples.

    Remaining samples act as verification witnesses; any mismatch raises
    WitnessMismatch (the signature of quasi-polynomial input data).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples, got {len(samples)}")
    xs = [Fraction(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in samples")
    poly = interpolate(samples[: degree + 1])
    for x, y in samples[degree + 1 :]:
        predicted = poly(x)
        if predicted != Fraction(y):
            raise WitnessMismatch(Fraction(x), predicted, Fraction(y))
    return poly


@dataclass(frozen=True)
class IsolatingInterval:
    """Interval (lo, hi] containing exactly one root; lo == hi marks an exact root."""

    lo: Fraction
    hi: Fraction
    sign_left: int
    sign_right: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        return f"({self.lo}, {self.hi}]"


def sturm_sequence(p: UniPoly) -> list[UniPoly]:
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def sign_variations(seq: Sequence[UniPoly], x) -> int:
    signs = [s for s in (_sign(q(x)) for q in seq) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return out


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p, each listed once, sorted."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    tail, lead = ints[0], ints[-1]
    q = UniPoly(coeffs)
    seen = set(roots)
    for pn in _divisors(tail):
        for qd in _divisors(lead):
            for s in (1, -1):
                r = Fraction(s * pn, qd)
                if r not in seen and q(r) == 0:
                    seen.add(r)
                    roots.append(r)
    return sorted(roots)


def isolate_roots(
    p: UniPoly, lo, hi, width: Fraction = DEFAULT_ISOLATION_WIDTH
) -> list[IsolatingInterval]:
    """Isolate all distinct real roots of the square-free part of p in (lo, hi].

    Exact rational roots are reported as degenerate intervals (lo == hi);
    remaining roots get disjoint Sturm-bisected intervals of width <= `width`
    whose endpoint signs differ.  Result is sorted left to right.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    q = p.squarefree()
    out: list[IsolatingInterval] = []
    exact: list[Fraction] = []
    for r in rational_roots(q):
        if lo < r <= hi:
            out.append(IsolatingInterval(r, r, 0, 0))
            exact.append(r)
        q = q.deflate(r)
    if q.degree >= 1:
        seq = sturm_sequence(q)

        def var(x):
            return sign_variations(seq, x)

        # endpoints of reported intervals must avoid the window boundary and
        # every exact root, so callers can sample signs at interval endpoints
        forbidden = set(exact) | {lo, hi}

        stack = [(lo, hi, var(lo), var(hi))]
        while stack:
            a, b, va, vb = stack.pop()
            count = va - vb
            if count == 0:
                continue
            inner = [r for r in exact if a < r < b]
            if count == 1 and b - a <= width and not inner:
                while a in forbidden or b in forbidden:
                    m = (a + b) / 2
                    vm = var(m)
                    if va - vm == 1:
                        b, vb = m, vm
                    else:
                        a, va = m, vm
                out.append(IsolatingInterval(a, b, _sign(q(a)), _sign(q(b))))
                continue
            m = inner[len(inner) // 2] if inner else (a + b) / 2
            vm = var(m)
            stack.append((a, m, va, vm))
            stack.append((m, b, vm, vb))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out
