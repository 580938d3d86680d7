"""Exact univariate polynomials over the rationals.

Dense polynomials over Q (constant term first), exact fits through sample
points, and real-root isolation by Descartes' rule of signs.  Each
polynomial is held in its integer form, integer coefficients over one
common denominator: it is fitted in integers, evaluates by one integer
Horner pass, and builds its Fraction coefficients only when they are
read; isolation runs on integers too, over the dyadic grid
lo + i (hi - lo) / 2^k of its window, narrows each root's cell on that grid
once, by quadratic interval refinement, builds a Fraction only for a
result, and divides no root out.  Everything here is pure and
deterministic; no floats anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .models import format_rational

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**20)
_PRIME = 2**31 - 1  # the modulus of the square-free test
_QIR_START = 2  # a root's first secant step aims at a quarter of its bracket


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
    `UniPoly(coeffs)` scales rational coefficients to integers over their
    lcm, and the package builds the form directly with `_of`.  Evaluation
    and equality run on it; `coeffs` and `coeff` build Fractions when read.
    The type has no arithmetic: the package builds each polynomial in
    closed integer form.  Instances are immutable by convention and safe to
    share across threads.
    """

    __slots__ = ("integer_form",)

    def __new__(cls, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return cls._of([c.numerator * (den // c.denominator) for c in cs], den)

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
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        ints, den = self.integer_form
        return tuple(Fraction(c, den) for c in ints)

    @property
    def degree(self) -> int:
        return len(self.integer_form[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.integer_form[0]

    def coeff(self, k: int) -> Fraction:
        ints, den = self.integer_form
        return Fraction(ints[k], den) if 0 <= k < len(ints) else Fraction(0)

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


class IsolatingInterval(namedtuple("IsolatingInterval", "lo hi")):
    """Interval (lo, hi] of Fractions holding exactly one root; lo == hi
    marks an exact rational root.

    An inexact interval's ends are neither a window bound nor an exact root,
    so the polynomial is nonzero at both and its root lies strictly inside.
    """

    __slots__ = ()

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


def _pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with b[-1]^(deg a - deg b + 1) a = q b + r and deg r < deg b."""
    q, r = [], list(a)
    for shift in range(len(a) - len(b), -1, -1):
        f = r.pop()
        q = [b[-1] * c for c in q] + [f]
        r = [b[-1] * c for c in r]
        for i, c in enumerate(b[:-1], shift):
            r[i] -= f * c
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


def _coprime_mod(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether gcd(a, b) is a constant modulo _PRIME, which must not divide
    a's leading coefficient: Euclid's algorithm over GF(_PRIME)."""
    while True:
        a, b = [c % _PRIME for c in a], [c % _PRIME for c in b]
        while b and not b[-1]:
            b.pop()
        if len(b) < 2:
            return bool(b)
        a, b = b, _pseudo_divide(a, b)[1]


def _squarefree(ints: Sequence[int]) -> list[int]:
    """The primitive square-free part of the nonzero integer polynomial
    `ints`.  x^k is divided out first (Q(0) = 0 always), then put back once;
    the rest, q, is square-free when gcd(q, q') is constant modulo _PRIME,
    and only otherwise is that gcd taken exactly (primitive PRS)."""
    k = next(i for i, c in enumerate(ints) if c)
    q = _primitive(ints[k:])
    dq = [i * c for i, c in enumerate(q)][1:]
    if len(q) > 2 and not (q[-1] % _PRIME and _coprime_mod(q, dq)):
        a, b = q, dq
        while b:
            a, b = b, _primitive(_pseudo_divide(a, b)[1])
        q, r = _pseudo_divide(q, a)
        if r:
            raise RuntimeError(f"gcd(p, p') does not divide p: remainder {r}")
        q = _primitive(q)
    return [0, *q] if k else q


def sign_variations(coeffs: Sequence[int]) -> int:
    """Sign changes of the integer sequence `coeffs`, zeros skipped: for a
    polynomial's coefficients, Descartes' bound on its positive roots."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _shift(c: list[int], s: int = 1) -> list[int]:
    """c(x + s), in place: the Taylor shift; a shift by 0 returns c as it is."""
    if s:
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += s * c[j + 1]
    return c


def _window(ints: Sequence[int], lo: Fraction, hi: Fraction):
    """(c, base, step, den): the dyadic grid lo + i (hi - lo) / 2^k of (lo, hi],
    whose point i of level k is ((base << k) + i step) / (den << k), and
    c(u) = den^d ints((base + step u) / den) on it."""
    base, den = lo.numerator * hi.denominator, lo.denominator * hi.denominator
    step = hi.numerator * lo.denominator - base
    c = _shift([x * den ** (len(ints) - 1 - j) for j, x in enumerate(ints)], base)
    return [x * step**j for j, x in enumerate(c)], base, step, den


def _checked_window(p: UniPoly, lo, hi) -> tuple[Fraction, Fraction]:
    """(lo, hi) as Fractions; ValueError for the zero p or for lo >= hi."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo.numerator * hi.denominator >= hi.numerator * lo.denominator:  # no Fraction op
        raise ValueError("empty interval")
    return lo, hi


def _isolate(c: list[int]):
    """Cells (i, k, fa, fb), left to right, each holding one root of the
    square-free c(u) in (i/2^k, (i + 1)/2^k] and together all: its right
    end if fb == 0, else one inside.  fa and fb are 2^(kd) c at the cell's
    left and right end, for c of `_window` the values `_horner` gives at
    those grid points.

    Vincent-Collins-Akritas bisection: c(u) of a cell, reversed and shifted,
    has its Descartes count and, as constant term, its right-end value; its
    own constant term is its left-end value."""
    stack = [(0, 0, c)]  # cell i of level k, with its polynomial
    while stack:
        i, k, c = stack.pop()
        t = _shift(c[::-1])
        count = sign_variations(t) + (not t[0])
        if count == 1:
            yield i, k, c[0], t[0]
        elif count:
            left = [x << (len(c) - 1 - j) for j, x in enumerate(c)]
            stack.append((2 * i + 1, k + 1, _shift(left[:])))
            stack.append((2 * i, k + 1, left))


def _bracket(i: int, k: int, fa: int, fb: int) -> list:
    """The cell (i, k) of `_isolate` with its end values as a bracket of
    `_narrow`: grid points i and i + 1 of level k, no secant estimate yet."""
    return [i, i + 1, k, fa, fb, _QIR_START, None]


def _cells(ints: Sequence[int], lo: Fraction, hi: Fraction):
    """(frame, cells): the grid (base, step, den) of (lo, hi] from `_window`,
    and the cells of `_isolate` on it, left to right, but the exact one at
    hi, each as (i, k, its `_bracket`)."""
    c, *frame = _window(ints, lo, hi)
    return frame, [(i, k, _bracket(i, k, fa, fb)) for i, k, fa, fb in _isolate(c) if fb]


def _narrow(ints: Sequence[int], frame, br: list, level: int, span: int = 0):
    """Narrow br = [l, r, k, fl, fr, t, (m, g)] in place by quadratic
    interval refinement (Abbott 2014) on the grid `frame` of `_window`: the
    one root of `ints`, a simple one, lies in (l, r] of level k, where
    `_horner` gives fl and fr != 0, and (m, g) is the last step's secant
    estimate and tolerance, or None.  A coarser br first moves to `level`.
    It stops when br lies in one cell of `level`, or, given span = lead
    step, is narrower than 1/lead.

    A step bisects until its secant estimate lies within g of the last one;
    then, with g = (r - l) / 2^t, it evaluates the estimate's grid point m
    and m -+ g on the root's side.  If the root lies between them t doubles,
    else t halves and the step after bisects.  Every point lies strictly
    inside the bracket, so none twice; a zero is the root, returned.  With
    span, each point is clamped so that bisection could still finish in the
    evaluations left, bits(span (r - l) / (den 2^k)) + 1 on entry with one
    kept for the caller, and half of any to spare is kept back."""
    base, step, den = frame
    l, r, k, fl, fr, t, prev = br
    d = len(ints) - 1
    if k < level:
        e = level - k
        l, r, k, fl, fr = l << e, r << e, level, fl << e * d, fr << e * d
        prev = prev and (prev[0] << e, prev[1] << e)
    dk = den << k
    budget = ((r - l) * span // dk).bit_length() + 1
    pair = 0  # 1 and 2: the secant's estimate m, then m -+ g
    while ((r - l) * span >= dk) if span else l >> (k - level) != (r - 1) >> (k - level):
        if pair == 2:
            aim = m + g if l == m else m - g
        else:
            w = r - l
            m = l + (2 * w * fl // (fl - fr) + 1) // 2  # the secant's estimate
            pair = 1 if fl and prev and abs(m - prev[0]) <= prev[1] else 0
            g = max(w >> t, 1)
            aim, prev = m if pair else None, (m, g)
        room = r - l
        if span:
            room = ((dk << (budget - 2)) - 1) // span
            if 2 * room < r - l:  # only an odd bracket's midpoint, of level k + 1, is in reach
                l, r, k, fl, fr = 2 * l, 2 * r, k + 1, fl << d, fr << d
                dk, aim, m, g = 2 * dk, aim and 2 * aim, 2 * m, 2 * g
                prev = m, g
                room = ((dk << (budget - 2)) - 1) // span
            room = (2 * room + r - l + 3) // 4  # spend at most half the slack
        if aim is None:
            p = (l + r) >> 1
        else:
            p = min(max(aim, l + 1, r - room), r - 1, l + room)
        z = (p & -p).bit_length() - 1  # p is a point of level k - z, evaluated there
        v = _horner(ints, (base << k - z) + (p >> z) * step, den << k - z) << z * d
        budget -= 1
        if not v:
            return Fraction((base << k - z) + (p >> z) * step, den << k - z)
        if (v > 0) == (fr > 0):
            r, fr = p, v
        else:
            l, fl = p, v
        if pair:
            if r - l <= g:
                t, pair = 2 * t, 0
            elif l >= m + g or r <= m - g:  # the root is not within g of m: a miss
                t, pair, prev = max(t >> 1, 1), 0, None
            else:
                pair = 2 if pair == 1 and p == m else 0
    br[:] = l, r, k, fl, fr, t, prev
    return None


def _root_in(ints: Sequence[int], frame, br: list):
    """The root in the bracket br of `_narrow` if it is rational, else
    None; br must hold exactly one root of the integer polynomial `ints`, a
    simple one, and is left narrowed for `_refine`.

    A rational root of `ints` has a denominator dividing its leading
    coefficient `lead`, so it is a multiple of 1/lead.  `_narrow` narrows br
    below 1/lead, where at most one multiple of 1/lead lies: the root, if it
    is rational.  From a cell (i, k) of `_isolate` that takes at most
    bits(lead step / (den 2^k)) + 1 evaluations with the test, no more than
    bisection would.
    """
    base, step, den = frame
    lead = abs(ints[-1])
    root = _narrow(ints, frame, br, (lead * step // den).bit_length(), lead * step)
    if root is None:
        l, r, k = br[:3]
        y = (((base << k) + r * step) * lead - 1) // (den << k)  # the last multiple below r
        if y * (den << k) > ((base << k) + l * step) * lead and not _horner(ints, y, lead):
            return Fraction(y, lead)
    return root


def _refine(ints: Sequence[int], frame, cells, width: Fraction):
    """For each root (i, k, br) of `cells` on the grid `frame` of (lo, hi],
    simple and irrational, with its cell (i, k) of `_isolate` and its
    bracket br of `_narrow`: its cell at the first level where the cell is
    at most `width` wide, lies strictly inside and holds no other root.
    `_narrow` narrows br into one cell of the first level narrow enough,
    then of each next one until the cell qualifies; a root's cell of level
    j <= k is i >> (k - j), and no other root is in a cell of level j > k.
    So the output depends only on the grid and the roots in (lo, hi]."""
    base, step, den = frame
    need, have = step * width.denominator, width.numerator * den  # width <= need/have
    first = (-(-need // have) - 1).bit_length()  # the least j with need <= have << j
    for n, (i, k, br) in enumerate(cells):
        near = cells[max(n - 1, 0):n] + cells[n + 1:n + 2]
        j = first
        while True:
            _narrow(ints, frame, br, j)
            x = br[0] >> (br[2] - j)  # the cell of level j that holds the root
            if 0 < x < (1 << j) - 1 and all(j > k2 or i2 >> (k2 - j) != x
                                            for i2, k2, _ in near):
                break
            j += 1
        a = (base << j) + x * step
        yield IsolatingInterval(Fraction(a, den << j), Fraction(a + step, den << j))


def isolate_roots(
    p: UniPoly, lo, hi, width: Fraction = DEFAULT_ISOLATION_WIDTH
) -> list[IsolatingInterval]:
    """Isolate the distinct real roots of p in the window (lo, hi], left to
    right.

    One Descartes test of the window on p's own integer form counts its
    sign variations, plus one for a root at hi.  Below 2 the window is one
    cell: no root, an exact root at hi, or one simple root inside; from 2
    on, `_isolate` splits it into cells of one root of the square-free part
    of p, kept through the call.  `_root_in` narrows each cell and tests it
    for a rational root, a degenerate interval (lo == hi); these cut the
    window into segments, and `_refine` gives every other root an interval
    of width <= `width` on the grid of its segment, whose ends are neither
    a segment end nor a root.  A segment that is the whole window goes on
    from the brackets `_root_in` narrowed, so no grid point is evaluated
    twice; any other is isolated again on its own grid."""
    lo, hi = _checked_window(p, lo, hi)
    ints = p.integer_form[0]
    c, base, step, den = _window(ints, lo, hi)
    t = _shift(c[::-1])
    count = sign_variations(t) + (not t[0])
    if count < 2:
        cells = [(0, 0, c[0], t[0])] if count else []
    else:
        ints = _squarefree(ints)
        cells = _isolate(_window(ints, lo, hi)[0])
    frame = base, step, den
    out, a, roots = [], lo, []
    for i, k, fa, fb in cells:
        br = _bracket(i, k, fa, fb)
        b = _root_in(ints, frame, br) if fb else Fraction((base << k) + (i + 1) * step, den << k)
        if b is None:
            roots.append((i, k, br))
            continue
        if roots:  # the segment (a, b], then b
            grid = (frame, roots) if a is lo and b == hi else _cells(ints, a, b)
            out.extend(_refine(ints, *grid, width))
        out.append(IsolatingInterval(b, b))
        a, roots = b, []
    if roots:
        out.extend(_refine(ints, *((frame, roots) if a is lo else _cells(ints, a, hi)), width))
    return out


def rational_roots(p: UniPoly, lo=None, hi=None) -> list[Fraction]:
    """The rational roots of p in (lo, hi], each listed once, sorted: the
    exact intervals of `isolate_roots` on that window.

    Without a window, all of them: the window is then (-B, B] for the
    Cauchy bound B.  Like `isolate_roots`, whose `_checked_window` it
    goes through, raises ValueError for the zero polynomial and for an
    empty window (lo >= hi).
    """
    if lo is None and not p.is_zero:
        ints, _ = p.integer_form
        bound = 1 + Fraction(max(map(abs, ints[:-1]), default=0), abs(ints[-1]))
        lo, hi = -bound, bound
    return [iv.lo for iv in isolate_roots(p, lo, hi) if iv.is_exact]
