"""Exact univariate polynomial arithmetic over the rationals.

Dense polynomials with Fraction coefficients (constant term first), exact
fits through sample points, and Sturm-sequence real-root isolation.  Each
polynomial keeps its integer form, integer coefficients over one common
denominator, and evaluates by one integer Horner pass on it; Sturm counts
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
    """Dense univariate polynomial over Q.

    Coefficients are stored constant-term first with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Evaluation runs on the integer form, computed on first use and kept.
    Instances are immutable by convention and safe to share across threads.
    """

    __slots__ = ("coeffs", "_form")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._form = None

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(ints, den): den > 0 is the least common denominator of the
        coefficients and coeffs[i] == ints[i] / den."""
        if self._form is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            ints = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
            self._form = ints, den
        return self._form

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

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

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "UniPoly":
        return UniPoly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])


def fit_polynomial(samples: Sequence[tuple], degree: int) -> UniPoly:
    """Exact degree-`degree` fit through the first degree+1 samples.

    Newton divided differences c_i over Fractions, then the Newton form
    expanded by Horner, p <- p * (x - x_i) + c_i, in integers over one common
    denominator.  Remaining samples act as verification witnesses; any
    mismatch raises WitnessMismatch (the signature of quasi-polynomial input
    data).  Raises ValueError on duplicate abscissae.
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
        predicted = poly(x)
        if predicted != y:
            raise WitnessMismatch(
                f"witness sample at x={x}: fit predicts {predicted}, sample gives {y}")
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


def _grid(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(base, step, den) such that the point lo + i (hi - lo) / 2^k of the
    dyadic grid of (lo, hi] is ((base << k) + i step) / (den << k)."""
    w = hi - lo
    return (lo.numerator * w.denominator, w.numerator * lo.denominator,
            lo.denominator * w.denominator)


def _bisect(seq, lo: Fraction, hi: Fraction, v_lo: int, v_hi: int,
            width=None) -> list[tuple]:
    """Intervals (a, b] in (lo, hi], left to right, that each hold one root
    and together hold every root in (lo, hi]; with a width, each also has
    b - a <= width and lo < a < b < hi.

    The count v(x) falls by one across each root to be isolated: it is
    v_lo and v_hi at the ends and sign_variations(seq, x) inside.  Cells of
    the dyadic grid of (lo, hi] are split at their midpoints and walked as
    integer pairs (i, k); only a returned cell is made into Fractions.
    """
    base, step, den = _grid(lo, hi)
    if width is not None:  # (hi - lo) / 2^k <= width, as need <= have << k
        need, have = step * width.denominator, width.numerator * den
    out = []
    stack = [(0, 0, v_lo, v_hi)]  # cell i of level k, with its end counts
    while stack:
        i, k, va, vb = stack.pop()
        if va - vb == 1 and (width is None or (need <= have << k and 0 < i < (1 << k) - 1)):
            a = (base << k) + i * step
            out.append((Fraction(a, den << k), Fraction(a + step, den << k)))
        elif va > vb:
            i, k = 2 * i + 1, k + 1
            vm = sign_variations(seq, (base << k) + i * step, den << k)
            stack.append((i - 1, k, va, vm))
            stack.append((i, k, vm, vb))
    out.sort()
    return out


def _root_in(ints: Sequence[int], a: Fraction, b: Fraction):
    """The root in (a, b] if it is rational, else None; (a, b] must hold
    exactly one root of the square-free integer polynomial `ints`.

    A rational root of `ints` has a denominator dividing its leading
    coefficient `lead`, and two such rationals lie at least 1/lead^2 apart.
    Bisection on the sign alone narrows the open interval around the root
    below 1/(2 lead^2), so the closest rational with denominator <= lead to
    its midpoint is the root, if the root is rational.
    """
    sign_b = _sign(_horner(ints, b.numerator, b.denominator))
    if sign_b == 0:
        return b
    lead = abs(ints[-1])
    base, step, den = _grid(a, b)
    # level k of the grid, with (b - a) / 2^k < 1/(2 lead^2)
    k = (2 * lead * lead * step // den).bit_length()
    base, den = base << k, den << k
    i, j = 0, 1 << k
    while j - i > 1:
        mid = (i + j) // 2
        s = _sign(_horner(ints, base + mid * step, den))
        if s == 0:
            return Fraction(base + mid * step, den)
        if s == sign_b:
            j = mid
        else:
            i = mid
    left, right = Fraction(base + i * step, den), Fraction(base + j * step, den)
    r = ((left + right) / 2).limit_denominator(lead)
    if left < r < right and not _horner(ints, r.numerator, r.denominator):
        return r
    return None


def _sturm_window(p: UniPoly, lo: Fraction, hi: Fraction):
    """(seq, v_lo, v_hi, exact): the Sturm sequence of p's square-free part,
    its sign variations at lo and hi, and the rational roots of p in
    (lo, hi], sorted."""
    seq = _squarefree_sturm(p)
    v_lo = sign_variations(seq, lo.numerator, lo.denominator)
    v_hi = sign_variations(seq, hi.numerator, hi.denominator)
    found = (_root_in(seq[0], a, b) for a, b in _bisect(seq, lo, hi, v_lo, v_hi))
    return seq, v_lo, v_hi, [r for r in found if r is not None]


def rational_roots(p: UniPoly, lo=None, hi=None) -> list[Fraction]:
    """The rational roots of p in (lo, hi], each listed once, sorted.

    Without a window, all of them: the window is then (-B, B] for the
    Cauchy bound B.  The Sturm sequence of the square-free part isolates
    every real root in the window; each is then tested by `_root_in`, at a
    cost polynomial in the bit size of the coefficients.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    if lo is None:
        ints, _ = p.integer_form
        bound = 1 + Fraction(max(abs(c) for c in ints[:-1]), abs(ints[-1]))
        lo, hi = -bound, bound
    return _sturm_window(p, Fraction(lo), Fraction(hi))[3]


def isolate_roots(
    p: UniPoly, lo, hi, width: Fraction = DEFAULT_ISOLATION_WIDTH
) -> list[IsolatingInterval]:
    """Isolate the distinct real roots of p in the window (lo, hi].

    One Sturm sequence, of the square-free part of p, serves the whole
    call.  The rational roots are reported as degenerate intervals
    (lo == hi).  They cut the window into segments, and bisection of each
    segment (a, b], counting only the roots strictly inside it, gives every
    other root an interval of width <= `width` whose ends are neither a
    segment end nor a root: the count is V(a) at a, V(b) plus 1 if b is an
    exact root at b, and V(x) at each dyadic grid point in between, V being
    the Sturm sign variations.  V is computed once per segment end: at lo
    and hi for both the exact roots and the segments, and once at each
    interior exact root.  Result is sorted left to right.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    seq, v_lo, v_hi, exact = _sturm_window(p, lo, hi)
    out = [IsolatingInterval(r, r) for r in exact]
    a, v_a = lo, v_lo
    for b in exact:  # segments (a, b] ending at an exact root
        v_b = v_hi if b == hi else sign_variations(seq, b.numerator, b.denominator)
        out.extend(IsolatingInterval(x, y) for x, y in _bisect(seq, a, b, v_a, v_b + 1, width))
        a, v_a = b, v_b
    if a != hi:
        out.extend(IsolatingInterval(x, y) for x, y in _bisect(seq, a, hi, v_a, v_hi, width))
    out.sort(key=lambda iv: iv.lo)
    return out
