"""Slope invariants: alpha polynomials, mu, mu_c, the destabilization
numerator Q(c), exact destabilizing intervals, and ample-perturbation limits.

All quantities are exact rationals or rational polynomials; verdicts are
signs of exact evaluations, never approximations.  Every invariant is a
polynomial in the table entries AE and KAE, built in closed form from the
table's integers over its denominator: no Fraction arithmetic.  Both
verdicts, alpha0 > 0 on [0, epsilon) and the sign of Q on (0, epsilon],
take one `polynomials.isolate_roots` call each.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm

from .models import IntersectionTable, MixedTable, ModelError, _show_number, format_rational
from .polynomials import (
    DEFAULT_ISOLATION_WIDTH,
    IsolatingInterval,
    UniPoly,
    _sign,
    isolate_roots,
)


class PositivityError(ModelError):
    """alpha0 fails to be positive on [0, epsilon)."""


class AlphaPair(namedtuple("AlphaPair", "alpha0 alpha1 epsilon alpha0_integral "
                                        "numerator_integral mu")):
    """The volume-type polynomial alpha0(t) and canonical-pairing polynomial
    alpha1(t) of a table, valid for t in [0, epsilon], with what mu, mu_c and
    Q are made of: mu = alpha1(0) / alpha0(0), alpha0_integral =
    int_0^t alpha0 (the denominator of mu_c) and numerator_integral =
    int_0^t (alpha1 + alpha0'/2) (its numerator).  The four polynomials are
    UniPolys; epsilon and mu are Fractions."""

    __slots__ = ()


class SignInterval(namedtuple("SignInterval", "left right right_closed")):
    """A maximal sub-interval of (0, epsilon] on which Q is negative.

    Endpoints are isolating intervals; degenerate ones are exact rationals.
    The interval is open at roots and closed at epsilon when Q(epsilon) < 0,
    as the bool right_closed says.
    """

    __slots__ = ()

    def __str__(self):
        right = f"{self.right}]" if self.right_closed else f"{self.right})"
        return f"({self.left}, {right}"


_VERDICTS = {1: "positive", -1: "negative", 0: "zero"}


def _checked_c(c, epsilon: Fraction) -> Fraction:
    """c as a Fraction, for c in (0, epsilon]; ModelError otherwise."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    if not 0 < c <= epsilon:
        raise ModelError(f"c={c} outside (0, {_show_number(epsilon)}]")
    return c


class SlopeReport(namedtuple("SlopeReport", "epsilon mu Q destabilizing flat")):
    """The Fractions epsilon and mu, the UniPoly Q, the SignIntervals on
    which Q is negative, and whether Q is identically zero."""

    __slots__ = ()

    def verdict(self, c) -> str:
        c = _checked_c(c, self.epsilon)
        if self.flat:
            return "flat"
        return _VERDICTS[_sign(self.Q.at(c.numerator, c.denominator)[0])]


def alpha_polys(table: IntersectionTable) -> AlphaPair:
    """The AlphaPair of a table, each polynomial in closed form in the entries:

        alpha0 = sum_{k=0}^{n} (-1)^k C(n,k) AE[k] t^k / n!
        alpha1 = sum_{k=0}^{n-1} (-1)^(k+1) C(n-1,k) KAE[k] t^k / (2 (n-1)!)
        int_0^t alpha0 = sum_{j=1}^{n+1} (-1)^(j-1) C(n+1,j) AE[j-1] t^j / (n+1)!
        int_0^t (alpha1 + alpha0'/2)
            = sum_{j=1}^{n} (-1)^j C(n,j) (AE[j] + KAE[j-1]) t^j / (2 n!)
        mu = -n KAE[0] / (2 AE[0])

    each built in integer form from the table's integers over its
    denominator d.  Positivity of alpha0 on [0, epsilon) is verified, not
    assumed, by `isolate_roots` on (0, epsilon], whose one Descartes test
    settles an alpha0 with no root there.
    """
    n, d, ae, kae = table.n, table.den, table.ae, table.kae
    alpha0 = UniPoly._of([(-1) ** k * comb(n, k) * a for k, a in enumerate(ae)],
                         factorial(n) * d)
    if ae[0] <= 0:
        raise PositivityError(f"alpha0(0) = {_show_number(alpha0(0))} is not positive")
    for iv in isolate_roots(alpha0, 0, table.epsilon):
        # an exact root at epsilon itself is allowed (half-open positivity);
        # any non-exact interval holds an irrational root strictly below it
        if not (iv.is_exact and iv.lo == table.epsilon):
            raise PositivityError(
                f"alpha0 vanishes inside [0, {table.epsilon}): offending interval {iv}"
            )
    alpha1 = UniPoly._of([(-1) ** (k + 1) * comb(n - 1, k) * a for k, a in enumerate(kae)],
                         2 * factorial(n - 1) * d)
    alpha0_integral = UniPoly._of(
        [0, *((-1) ** j * comb(n + 1, j + 1) * a for j, a in enumerate(ae))],
        factorial(n + 1) * d)
    numerator_integral = UniPoly._of(
        [0, *((-1) ** j * comb(n, j) * (ae[j] + kae[j - 1]) for j in range(1, n + 1))],
        2 * factorial(n) * d)
    return AlphaPair(alpha0, alpha1, table.epsilon, alpha0_integral, numerator_integral,
                     Fraction(-n * kae[0], 2 * ae[0]))


def slope_mu(alpha: AlphaPair) -> Fraction:
    """mu = alpha1(0) / alpha0(0)."""
    return alpha.mu


def _scaled(ints, num: int, den: int, deg: int, scale: int) -> list[int]:
    """The integer polynomial in i of scale * den^deg * p(i num / den), for
    the integer polynomial p = ints of degree at most deg: coefficient k is
    scale * ints[k] * num^k * den^(deg - k)."""
    out, power = [], scale * den**deg
    for c in ints:
        out.append(c * power)
        power = power // den * num
    return out


def _mu_c_pairs(alpha: AlphaPair, num: int, den: int, count: int):
    """mu_c at each c = i num/den, i = 1..count, for den > 0 and every such c
    in (0, epsilon], as the reduced pair (p, q) with q > 0.

    With int_0^t (alpha1 + alpha0'/2) = A(t) / ad and int_0^t alpha0 =
    U(t) / ud in integer form, and deg the larger of their degrees,
    mu_c = p / q with p = ud den^deg A(i num/den) and
    q = ad den^deg U(i num/den): each an integer polynomial in i, scaled
    once, so a row takes two Horner passes in the small int i and one gcd.
    Neither degree bounds the other: with AE[n] = 0, U drops to degree n,
    and with AE[n - 1] = 0 too, below A.  The integral of alpha0 is positive
    on (0, epsilon], since alpha0 is, so q > 0 is an invariant; a q <= 0
    raises RuntimeError, a fault of this package, not of its input."""
    (a, ad), (u, ud) = alpha.numerator_integral.integer_form, alpha.alpha0_integral.integer_form
    deg = max(len(a), len(u)) - 1  # U holds AE[0] t: deg >= 1
    a = _scaled(a, num, den, deg, ud)[::-1]
    u = _scaled(u, num, den, deg, ad)[::-1]
    for i in range(1, count + 1):
        p = q = 0
        for x in a:
            p = p * i + x
        for x in u:
            q = q * i + x
        if q <= 0:
            raise RuntimeError(f"int_0^c alpha0 is not positive at c={i * num}/{den}")
        g = gcd(p, q)
        yield p // g, q // g


def mu_c(alpha: AlphaPair, c) -> Fraction:
    """The quotient slope: integral of (alpha1 + alpha0'/2) over [0, c]
    divided by the integral of alpha0, for c in (0, epsilon]; the Fraction
    of _mu_c_pairs' one reduced pair at c."""
    c = _checked_c(c, alpha.epsilon)
    (pair,) = _mu_c_pairs(alpha, c.numerator, c.denominator, 1)
    return Fraction(*pair)


def df_numerator(alpha: AlphaPair) -> UniPoly:
    """Q(c) = mu * int_0^c alpha0 - int_0^c (alpha1 + alpha0'/2).

    mu - mu_c equals Q(c) divided by the positive denominator int_0^c alpha0,
    so Q carries the full sign information.  One integer pass over the two
    integrals' integer forms, over their common denominator with mu's.
    """
    (a, da), (b, db) = alpha.alpha0_integral.integer_form, alpha.numerator_integral.integer_form
    da *= alpha.mu.denominator
    den = lcm(da, db)
    sa, sb = alpha.mu.numerator * (den // da), den // db
    return UniPoly._of([sa * x - sb * y for x, y in zip_longest(a, b, fillvalue=0)], den)


def stability_scan(
    alpha: AlphaPair, width: Fraction = DEFAULT_ISOLATION_WIDTH, q: UniPoly | None = None
) -> SlopeReport:
    """Full sign analysis of Q on (0, epsilon] with exact interval endpoints;
    q, when given, is the caller's df_numerator(alpha)."""
    q = df_numerator(alpha) if q is None else q
    mu = slope_mu(alpha)
    eps = alpha.epsilon
    if q.is_zero:
        return SlopeReport(eps, mu, q, (), True)
    roots = isolate_roots(q, 0, eps, width)
    # breakpoints bounding the sign-constant segments of (0, eps]
    points = [IsolatingInterval(Fraction(0), Fraction(0))]
    points.extend(roots)
    # eps, when not a root, ends the last gap, and Q has no root in that
    # gap: Q(eps) has the gap's sign, so a negative last gap is closed at eps
    eps_ends = not (roots and roots[-1].is_exact and roots[-1].lo == eps)
    if eps_ends:
        points.append(IsolatingInterval(eps, eps))
    destabilizing = []
    for left, right in zip(points, points[1:]):
        # Q's sign at the midpoint of the gap between the brackets, read off
        # its integer Horner value; adjacent brackets share a bisection
        # endpoint, which is never a root by the isolation contract, so
        # sampling there (a zero gap) is safe
        x, y = left.hi, right.lo
        if q.at(x.numerator * y.denominator + y.numerator * x.denominator,
                2 * x.denominator * y.denominator)[0] < 0:
            destabilizing.append(SignInterval(left, right, eps_ends and right is points[-1]))
    return SlopeReport(eps, mu, q, tuple(destabilizing), False)


def perturbation_limit(
    mixed: MixedTable, c, eps_list
) -> tuple[list[Fraction], Fraction]:
    """mu - mu_c of L + eps*H for each eps, and the exact eps = 0 value.

    The limit is the s = 0 specialization, which is the mixed table's own
    AE/KAE (MixedTable checks that its j = 0 slice agrees with them).
    Each eps must be positive: L + eps*H perturbs L towards the ample side.
    """
    for eps in eps_list:
        if eps <= 0:
            raise ModelError(f"eps must be positive, got {format_rational(Fraction(eps))}")
    c = Fraction(c)
    values = []
    for table in [*map(mixed.specialize, eps_list), mixed]:
        pair = alpha_polys(table)
        values.append(slope_mu(pair) - mu_c(pair, c))
    return values[:-1], values[-1]
