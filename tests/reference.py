"""Independent reference implementations that tests compare the package
against.  Nothing here is imported by the package."""

from fractions import Fraction
from math import lcm

from slopestab.polynomials import UniPoly, WitnessMismatch


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
