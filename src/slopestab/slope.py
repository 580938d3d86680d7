"""Slope invariants: alpha polynomials, mu, mu_c, the destabilization
numerator Q(c), exact destabilizing intervals, and ample-perturbation limits.

All quantities are exact rationals or rational polynomials; verdicts are
signs of exact evaluations, never approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial

from .models import IntersectionTable, MixedTable
from .polynomials import (
    DEFAULT_ISOLATION_WIDTH,
    IsolatingInterval,
    UniPoly,
    isolate_roots,
)


class PositivityError(ValueError):
    """alpha0 fails to be positive on [0, epsilon)."""


@dataclass(frozen=True)
class AlphaPair:
    """The volume-type polynomial alpha0(t) and canonical-pairing polynomial
    alpha1(t) of a table, valid for t in [0, epsilon]."""

    alpha0: UniPoly
    alpha1: UniPoly
    n: int
    epsilon: Fraction

    # computed once per pair (a frozen dataclass may still fill its __dict__)

    @cached_property
    def alpha0_integral(self) -> UniPoly:
        """int_0^t alpha0, the denominator of mu_c."""
        return self.alpha0.antiderivative()

    @cached_property
    def numerator_integral(self) -> UniPoly:
        """int_0^t (alpha1 + alpha0'/2), the numerator of mu_c."""
        return (self.alpha1 + self.alpha0.derivative() / 2).antiderivative()


@dataclass(frozen=True)
class SignInterval:
    """A maximal sub-interval of (0, epsilon] on which Q is negative.

    Endpoints are isolating intervals; degenerate ones are exact rationals.
    The interval is open at roots and closed at epsilon when Q(epsilon) < 0.
    """

    left: IsolatingInterval
    right: IsolatingInterval
    right_closed: bool

    def __str__(self):
        right = f"{self.right}]" if self.right_closed else f"{self.right})"
        return f"({self.left}, {right}"


@dataclass(frozen=True)
class SlopeReport:
    epsilon: Fraction
    mu: Fraction
    alpha0: UniPoly
    alpha1: UniPoly
    Q: UniPoly
    df_norm: UniPoly
    destabilizing: tuple[SignInterval, ...]
    flat: bool

    def verdict(self, c) -> str:
        c = Fraction(c)
        if not 0 < c <= self.epsilon:
            raise ValueError(f"c={c} outside (0, {self.epsilon}]")
        if self.flat:
            return "flat"
        v = self.Q(c)
        if v > 0:
            return "positive"
        if v < 0:
            return "negative"
        return "zero"


def alpha_polys(table: IntersectionTable) -> AlphaPair:
    """alpha0 and alpha1 by binomial expansion of the table entries.

    Positivity of alpha0 on [0, epsilon) is verified by exact root
    isolation, not assumed.
    """
    n = table.n
    alpha0 = UniPoly((-1) ** k * comb(n, k) * a for k, a in enumerate(table.ae))
    alpha0 = alpha0 / factorial(n)
    alpha1 = UniPoly((-1) ** k * comb(n - 1, k) * a for k, a in enumerate(table.kae))
    alpha1 = alpha1 / (-2 * factorial(n - 1))
    if alpha0(0) <= 0:
        raise PositivityError(f"alpha0(0) = {alpha0(0)} is not positive")
    for iv in isolate_roots(alpha0, 0, table.epsilon):
        # an exact root at epsilon itself is allowed (half-open positivity);
        # any non-exact interval holds an irrational root strictly below it
        if not (iv.is_exact and iv.lo == table.epsilon):
            raise PositivityError(
                f"alpha0 vanishes inside [0, {table.epsilon}): offending interval {iv}"
            )
    return AlphaPair(alpha0, alpha1, n, table.epsilon)


def slope_mu(alpha: AlphaPair) -> Fraction:
    """mu = alpha1(0) / alpha0(0)."""
    return alpha.alpha1(0) / alpha.alpha0(0)


def mu_c(alpha: AlphaPair, c) -> Fraction:
    """The quotient slope: integral of (alpha1 + alpha0'/2) over [0, c]
    divided by the integral of alpha0."""
    c = Fraction(c)
    if not 0 < c <= alpha.epsilon:
        raise ValueError(f"c={c} outside (0, {alpha.epsilon}]")
    return alpha.numerator_integral(c) / alpha.alpha0_integral(c)


def df_numerator(alpha: AlphaPair) -> tuple[UniPoly, UniPoly]:
    """Q(c) = mu * int_0^c alpha0 - int_0^c (alpha1 + alpha0'/2), together
    with the normalized invariant DF_norm(c) = Q(c) / alpha0(0).

    mu - mu_c equals Q(c) divided by the positive denominator int_0^c alpha0,
    so Q carries the full sign information.
    """
    mu = slope_mu(alpha)
    q = mu * alpha.alpha0_integral - alpha.numerator_integral
    return q, q / alpha.alpha0(0)


def stability_scan(
    alpha: AlphaPair, width: Fraction = DEFAULT_ISOLATION_WIDTH
) -> SlopeReport:
    """Full sign analysis of Q on (0, epsilon] with exact interval endpoints."""
    q, df_norm = df_numerator(alpha)
    mu = slope_mu(alpha)
    eps = alpha.epsilon
    if q.is_zero:
        return SlopeReport(eps, mu, alpha.alpha0, alpha.alpha1, q, df_norm, (), True)
    roots = isolate_roots(q, 0, eps, width)
    # breakpoints bounding the sign-constant segments of (0, eps]
    points = [IsolatingInterval(Fraction(0), Fraction(0))]
    points.extend(roots)
    if not (roots and roots[-1].is_exact and roots[-1].lo == eps):
        points.append(IsolatingInterval(eps, eps))
    destabilizing = []
    for left, right in zip(points, points[1:]):
        lo_bound, hi_bound = left.hi, right.lo
        if lo_bound < hi_bound:
            sample = (lo_bound + hi_bound) / 2
        else:
            # adjacent brackets share a bisection endpoint, which is never a
            # root by the isolation contract, so sampling there is safe
            sample = lo_bound
        if q(sample) < 0:
            right_closed = right.is_exact and right.lo == eps and q(eps) < 0
            destabilizing.append(SignInterval(left, right, right_closed))
    return SlopeReport(
        eps, mu, alpha.alpha0, alpha.alpha1, q, df_norm, tuple(destabilizing), False
    )


def perturbation_limit(
    mixed: MixedTable, c, eps_list
) -> tuple[list[Fraction], Fraction]:
    """mu - mu_c of L + eps*H for each eps, and the exact eps = 0 value.

    The limit is the s = 0 specialization, which is the mixed table's own
    AE/KAE (MixedTable checks that its j = 0 slice agrees with them).
    """
    c = Fraction(c)
    values = []
    for s in eps_list:
        pair = alpha_polys(mixed.specialize(s))
        values.append(slope_mu(pair) - mu_c(pair, c))
    pair = alpha_polys(mixed)
    limit = slope_mu(pair) - mu_c(pair, c)
    return values, limit
