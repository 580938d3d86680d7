"""Exact univariate polynomial arithmetic over the rationals.

Dense polynomials over Q (constant term first), exact fits through sample
points, and Sturm-sequence real-root isolation.  Each polynomial is held in
its integer form, integer coefficients over one common denominator: it is
combined and fitted in integers, evaluates by one integer Horner pass, and
builds its Fraction coefficients only when they are read; Sturm counts
and bisection run on integers too, over the dyadic grid
lo + i (hi - lo) / 2^k of their window, and build a Fraction only for a
result.  Everything here is pure and deterministic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .models import format_rational

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**20)


class WitnessMismatch(ValueError):
    """Extra fit samples contradict the fitted polynomial (quasi-polynomial input)."""


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _horner(ints: Sequence[int], num: int, den: int) -> int:
    """den^d * p(num/den) for the integer polynomial `ints` of degree d
    (constant term first): for den > 0, an integer of the sign of
    p(num/den)."""
    acc, scale = 0, 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return acc


class UniPoly:
    """Dense univariate polynomial over Q, held in integer form.

    The form (ints, den) is canonical: integer coefficients, constant term
    first, with trailing zeros trimmed, over one denominator den > 0 with
    gcd(den, *ints) == 1; the zero polynomial is ((), 1) and has degree -1.
    Arithmetic, evaluation and equality run on it.  The Fraction
    coefficients are built on first use of `coeffs` and kept; coefficients
    passed in as Fractions are kept as given.  Instances are immutable by
    convention and safe to share across threads.
    """

    __slots__ = ("integer_form", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        ints_only = all(type(c) is int for c in cs)
        if not ints_only:
            cs = [c if isinstance(c, Fraction) else Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        den = lcm(*(c.denominator for c in cs))
        self.integer_form = tuple(c.numerator * (den // c.denominator) for c in cs), den
        self._coeffs = None if ints_only else tuple(cs)

    @classmethod
    def _of(cls, ints, den: int) -> "UniPoly":
        """The polynomial sum_k ints[k] x^k / den, for den != 0, in canonical
        form."""
        ints = list(ints)
        while ints and ints[-1] == 0:
            ints.pop()
        g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
        p = object.__new__(cls)
        p.integer_form = tuple(c // g for c in ints), den // g
        p._coeffs = None
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            ints, den = self.integer_form
            self._coeffs = tuple(Fraction(c, den) for c in ints)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.integer_form[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.integer_form[0]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.degree else Fraction(0)

    def at(self, num: int, den: int) -> tuple[int, int]:
        """(a, b) with a / b == self(num/den) and b > 0, for den > 0, unreduced."""
        ints, d = self.integer_form
        return _horner(ints, num, den), d * den ** max(len(ints) - 1, 0)

    def __call__(self, x) -> Fraction:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return Fraction(*self.at(x.numerator, x.denominator))

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.integer_form == other.integer_form
        return NotImplemented

    def __hash__(self):
        return hash(self.integer_form)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        (a, da), (b, db) = self.integer_form, other.integer_form
        den = lcm(da, db)
        sa, sb = den // da, den // db
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [c * sa for c in a]
        for i, c in enumerate(b):
            out[i] += c * sb
        return UniPoly._of(out, den)

    def __neg__(self) -> "UniPoly":
        ints, den = self.integer_form
        return UniPoly._of([-c for c in ints], den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        a, da = self.integer_form
        if isinstance(other, UniPoly):
            b, db = other.integer_form
            if not (a and b):
                return UniPoly()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return UniPoly._of(out, da * db)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return UniPoly._of([c * other.numerator for c in a], da * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UniPoly":
        if not isinstance(scalar, (int, Fraction)):
            scalar = Fraction(scalar)
        if not scalar:
            raise ZeroDivisionError("polynomial division by zero")
        ints, den = self.integer_form
        return UniPoly._of([c * scalar.denominator for c in ints], den * scalar.numerator)

    def derivative(self) -> "UniPoly":
        ints, den = self.integer_form
        return UniPoly._of([i * c for i, c in enumerate(ints)][1:], den)

    def antiderivative(self) -> "UniPoly":
        ints, den = self.integer_form
        scale = lcm(*range(1, len(ints) + 1))
        return UniPoly._of([0, *(c * (scale // (i + 1)) for i, c in enumerate(ints))],
                           den * scale)


def fit_polynomial(samples: Sequence[tuple], degree: int) -> UniPoly:
    """Exact degree-`degree` fit through the first degree+1 samples, in
    integers; every x and y is an int or a Fraction.

    With the nodes x_i = u_i / xd and values y_i = v_i / yd over common
    denominators, the fit is Lagrange's in u = xd x: sum_i y_i N_i(u) / w_i,
    where N_i = N / (u - u_i) comes from N(u) = prod_j (u - u_j) by one
    synthetic division and w_i = N_i(u_i).  Its integer coefficients over
    yd lcm(w_i) give the result's integer form directly, the coefficient of
    x^k scaled by xd^k.  Remaining samples act as verification witnesses,
    checked by integer cross-multiplication; any mismatch raises
    WitnessMismatch (the signature of quasi-polynomial input data).  No
    Fraction is built when every x and y is an int.  Raises ValueError on
    duplicate abscissae.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples, got {len(samples)}")
    if len({x for x, _ in samples}) != len(samples):
        raise ValueError("duplicate abscissa in samples")
    nodes = samples[: degree + 1]
    xd = lcm(*(x.denominator for x, _ in nodes))
    yd = lcm(*(y.denominator for _, y in nodes))
    us = [x.numerator * (xd // x.denominator) for x, _ in nodes]
    full = [1]  # N(u), constant term first
    for u in us:
        full = [b - u * a for a, b in zip([*full, 0], [0, *full])]
    terms = []
    for u, (_, y) in zip(us, nodes):
        if y:
            quotient, q = [], 0  # N(u) / (u - u_i), top coefficient first
            for c in reversed(full[1:]):
                q = q * u + c
                quotient.append(q)
            quotient.reverse()
            terms.append((y.numerator * (yd // y.denominator), quotient,
                          _horner(quotient, u, 1)))
    w = lcm(*(wi for _, _, wi in terms))
    acc = [0] * (degree + 1)
    for v, quotient, wi in terms:
        scale = v * (w // wi)
        for k, c in enumerate(quotient):
            acc[k] += scale * c
    poly = UniPoly._of([c * xd**k for k, c in enumerate(acc)], yd * w)
    for x, y in samples[degree + 1 :]:
        value, scale = poly.at(x.numerator, x.denominator)
        if value * y.denominator != y.numerator * scale:
            raise WitnessMismatch(f"witness sample at x={x}: fit predicts "
                                  f"{Fraction(value, scale)}, sample gives {y}")
    return poly


@dataclass(frozen=True)
class IsolatingInterval:
    """Interval (lo, hi] holding exactly one root; lo == hi marks an exact
    rational root.

    An inexact interval's ends are neither a window bound nor an exact root,
    so the polynomial is nonzero at both and its root lies strictly inside.
    """

    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self):
        if self.is_exact:
            return format_rational(self.lo)
        return f"({format_rational(self.lo)}, {format_rational(self.hi)}]"


def _primitive(ints: Sequence[int]) -> list[int]:
    g = gcd(*ints)
    return [c // g for c in ints]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
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


def sturm_sequence(ints: Sequence[int]) -> list[list[int]]:
    """Sturm sequence of the integer polynomial `ints` (constant term first)
    as integer coefficient lists.

    Every entry is the classical one (p, p', minus the remainders) times a
    positive factor that makes it a primitive integer polynomial: the signs,
    and so the sign variations, are unchanged, and integer pseudo-remainders
    cost far less than remainders over Fractions.  The last entry is
    gcd(p, p') up to a factor.
    """
    seq = [_primitive(ints)]
    nxt = _primitive([i * c for i, c in enumerate(seq[0])][1:])
    while nxt:
        seq.append(nxt)
        nxt = _primitive([-c for c in _pseudo_divide(seq[-2], seq[-1])[1]])
    return seq


def sign_variations(seq: Sequence[Sequence[int]], num: int, den: int) -> int:
    """Sign changes of the Sturm sequence `seq` at num/den, for den > 0,
    zeros skipped."""
    changes, last = 0, 0
    for q in seq:
        s = _sign(_horner(q, num, den))
        if s:
            if s == -last:
                changes += 1
            last = s
    return changes


def _squarefree_sturm(p: UniPoly) -> list[list[int]]:
    """Sturm sequence of the square-free part p / gcd(p, p'), in integers;
    its first entry has the real roots of p, each once."""
    seq = sturm_sequence(p.integer_form[0])
    if len(seq[-1]) > 1:
        q, r = _pseudo_divide(seq[0], seq[-1])
        if r:
            raise RuntimeError(f"gcd(p, p') does not divide p: remainder {r}")
        seq = sturm_sequence(q)
    return seq


def _bisect(seq, lo: Fraction, hi: Fraction, v_lo: int, v_hi: int, width=None):
    """Cells that each hold one root and together hold every root in
    (lo, hi], yielded left to right; with a width, each also has
    width >= step/den and lo < a/den < (a + step)/den < hi.

    A cell is the integer triple (a, step, den), the interval
    (a/den, (a + step)/den] of the dyadic grid lo + i (hi - lo) / 2^k of
    (lo, hi]; its halves are (2a, step, 2den) and (2a + step, step, 2den).
    The count v(x) falls by one across each root to be isolated: it is v_lo
    and v_hi at the ends and sign_variations(seq, x) inside.
    """
    w = hi - lo
    base, step = lo.numerator * w.denominator, w.numerator * lo.denominator
    den = lo.denominator * w.denominator
    if width is not None:  # step / (den << k) <= width, as need <= have << k
        need, have = step * width.denominator, width.numerator * den
    stack = [(0, 0, v_lo, v_hi)]  # cell i of level k, with its end counts
    while stack:
        i, k, va, vb = stack.pop()
        if va - vb == 1 and (width is None or (need <= have << k and 0 < i < (1 << k) - 1)):
            yield (base << k) + i * step, step, den << k
        elif va > vb:
            i, k = 2 * i + 1, k + 1
            vm = sign_variations(seq, (base << k) + i * step, den << k)
            stack.append((i, k, vm, vb))  # the right half waits for the left
            stack.append((i - 1, k, va, vm))


def _root_in(ints: Sequence[int], a: int, step: int, den: int):
    """The root in the cell (a/den, (a + step)/den] if it is rational, else
    None; the cell must hold exactly one root of the square-free integer
    polynomial `ints`.

    A rational root of `ints` has a denominator dividing its leading
    coefficient `lead`, so it is a multiple of 1/lead.  Halving the cell on
    the sign alone, on the same grid, narrows it below 1/lead, where at most
    one multiple of 1/lead lies: the root, if it is rational.
    """
    sign_b = _sign(_horner(ints, a + step, den))
    if sign_b == 0:
        return Fraction(a + step, den)
    lead = abs(ints[-1])
    span = lead * step
    while span >= den:  # the cell is at least 1/lead wide
        a, den = 2 * a, 2 * den
        s = _sign(_horner(ints, a + step, den))
        if s == 0:
            return Fraction(a + step, den)
        if s != sign_b:
            a += step
    y = (a + step) * lead // den  # the last multiple of 1/lead <= the right end
    if y * den > a * lead and not _horner(ints, y, lead):
        return Fraction(y, lead)
    return None


def isolate_roots(
    p: UniPoly, lo, hi, width: Fraction = DEFAULT_ISOLATION_WIDTH
) -> list[IsolatingInterval]:
    """Isolate the distinct real roots of p in the window (lo, hi], left to
    right.

    One Sturm sequence, of the square-free part of p, serves the whole
    call.  `_root_in` tests each cell of a first bisection, one real root a
    cell, for a rational root, with about bits(lead) evaluations, lead the
    leading coefficient of the square-free part.  These are reported as
    degenerate intervals (lo == hi); they cut the window into segments, and
    bisection of each segment (a, b], counting only the roots strictly
    inside it, gives every other root an interval of width <= `width` whose
    ends are neither a segment end nor a root.  Of the segment ends, the
    Sturm sign variations V are evaluated at lo and hi only: at an exact
    root b, V(b) is V(hi) plus the number of first cells to the right of
    b's, one root each.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    seq = _squarefree_sturm(p)
    v_lo = sign_variations(seq, lo.numerator, lo.denominator)
    v_hi = sign_variations(seq, hi.numerator, hi.denominator)
    cells = list(_bisect(seq, lo, hi, v_lo, v_hi))
    out, a, v_a = [], lo, v_lo
    for n, cell in enumerate(cells, 1):
        b = _root_in(seq[0], *cell)
        if b is not None:  # the segment (a, b], then b
            v_b = v_hi + len(cells) - n
            out.extend(IsolatingInterval(Fraction(x, d), Fraction(x + s, d))
                       for x, s, d in _bisect(seq, a, b, v_a, v_b + 1, width))
            out.append(IsolatingInterval(b, b))
            a, v_a = b, v_b
    # the last segment; empty, with no evaluation, when hi is an exact root
    out.extend(IsolatingInterval(Fraction(x, d), Fraction(x + s, d))
               for x, s, d in _bisect(seq, a, hi, v_a, v_hi, width))
    return out


def rational_roots(p: UniPoly, lo=None, hi=None) -> list[Fraction]:
    """The rational roots of p in (lo, hi], each listed once, sorted: the
    exact intervals of `isolate_roots` on that window.

    Without a window, all of them: the window is then (-B, B] for the
    Cauchy bound B.  Like `isolate_roots`, raises ValueError for the zero
    polynomial and for an empty window (lo >= hi).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    if lo is None:
        ints, _ = p.integer_form
        bound = 1 + Fraction(max(abs(c) for c in ints[:-1]), abs(ints[-1]))
        lo, hi = -bound, bound
    return [iv.lo for iv in isolate_roots(p, lo, hi) if iv.is_exact]
