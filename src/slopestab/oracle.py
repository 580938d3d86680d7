"""Independent per-instance verification via lattice-point enumeration.

For a toric model, section counts h0(mL) and filtration weights w_m are
computed by deliberately naive bounding-box enumeration, fitted exactly to
their asymptotic expansions, and the extracted invariant is compared against
the slope engine's prediction.  Nothing here reuses the intersection-number
machinery of the table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .polynomials import fit_polynomial
from .slope import alpha_polys, df_numerator, mu_c, slope_mu
from .toric import ToricError, ToricModel, export_table, polytope_of


@dataclass(frozen=True)
class WeightSample:
    m: int
    h0: int
    w: int


@dataclass(frozen=True)
class ExpansionFit:
    """Exact expansion coefficients, leading term first:
    h0(mL) = a[0] m^n + ... + a[n], w_m = b[0] m^(n+1) + ... + b[n+1]."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    df: Fraction
    samples: tuple[WeightSample, ...]


@dataclass(frozen=True)
class VerificationRecord:
    label: str
    c: Fraction
    df_oracle: Fraction
    df_predicted: Fraction
    sign_match: bool
    exact_match: bool
    samples: tuple[WeightSample, ...]


def _sigma_form(model: ToricModel):
    """The affine form whose value at a section monomial is its filtration
    level: l(x; m) = <x, u_sigma> + m * sum of L-coefficients over sigma."""
    u_sigma = tuple(
        sum(model.fan.rays[i][d] for i in model.sigma)
        for d in range(model.fan.dim)
    )
    offset = sum(model.L.coeffs[i] for i in model.sigma)
    return u_sigma, offset


def _lattice_points(model: ToricModel, m: int):
    """Integer points of m * P_L by bounding-box enumeration."""
    base = polytope_of(model.fan, model.L)
    verts = base.vertices
    if not verts:
        return
    dim = model.fan.dim
    ranges = []
    for d in range(dim):
        coords = [v[d] for v in verts]
        ranges.append(range(floor(m * min(coords)), ceil(m * max(coords)) + 1))
    rays = model.fan.rays
    coeffs = model.L.coeffs
    for pt in product(*ranges):
        if all(
            sum(x * u for x, u in zip(pt, ray)) >= -m * a
            for ray, a in zip(rays, coeffs)
        ):
            yield pt


def _levels(model: ToricModel, m: int) -> list:
    u_sigma, offset = _sigma_form(model)
    return [
        sum(x * u for x, u in zip(pt, u_sigma)) + m * offset
        for pt in _lattice_points(model, m)
    ]


def filtration_count(model: ToricModel, m: int, j: int) -> int:
    """h0 of sections vanishing to order >= j along Z: lattice points of
    m*P_L at filtration level >= j."""
    if m < 1:
        raise ValueError("m must be positive")
    if j < 0:
        raise ValueError("j must be nonnegative")
    return sum(1 for level in _levels(model, m) if level >= j)


def weight_total(model: ToricModel, c, m: int) -> int:
    """Total weight sum over sections, each capped at level c*m."""
    c = Fraction(c)
    cm = c * m
    if cm.denominator != 1:
        raise ValueError(f"c*m = {cm} is not integral")
    cm = int(cm)
    if cm < 1:
        raise ValueError("c*m must be at least 1")
    return int(sum(min(level, cm) for level in _levels(model, m)))


def default_m_list(n: int, c) -> list[int]:
    """Consecutive multiples of c's denominator, enough for fits plus witnesses."""
    d = Fraction(c).denominator
    return [d * i for i in range(1, n + 5)]


def fit_expansions(model: ToricModel, c, m_list=None) -> ExpansionFit:
    """Exact degree-n and degree-(n+1) fits of h0 and w with witness checks."""
    c = Fraction(c)
    n = model.fan.dim
    if m_list is None:
        m_list = default_m_list(n, c)
    if len(m_list) < n + 4:
        raise ValueError(f"need at least {n + 4} m-samples, got {len(m_list)}")
    samples = []
    for m in m_list:
        levels = _levels(model, m)
        cm = c * m
        if cm.denominator != 1:
            raise ValueError(f"m={m} does not make c*m integral")
        samples.append(
            WeightSample(m, len(levels), int(sum(min(lv, int(cm)) for lv in levels)))
        )
    h_poly = fit_polynomial([(s.m, s.h0) for s in samples], n)
    w_poly = fit_polynomial([(s.m, s.w) for s in samples], n + 1)
    a = tuple(h_poly.coeff(n - i) for i in range(n + 1))
    b = tuple(w_poly.coeff(n + 1 - i) for i in range(n + 2))
    df = (b[0] * a[1] - b[1] * a[0]) / a[0] ** 2
    return ExpansionFit(a, b, df, tuple(samples))


def verify_main_theorem(model: ToricModel, c, m_list=None) -> VerificationRecord:
    """Compare the enumeration-based invariant against the slope engine.

    sign_match is the literal content of the theorem; exact_match tracks the
    fixed normalization Q(c) / alpha0(0).
    """
    c = Fraction(c)
    table = export_table(model)
    if hasattr(table, "base_table"):
        table = table.base_table()
    if not 0 < c <= table.epsilon:
        raise ToricError(f"c={c} outside (0, {table.epsilon}]")
    pair = alpha_polys(table)
    _, df_norm = df_numerator(pair)
    predicted = df_norm(c)
    fit = fit_expansions(model, c, m_list)

    def sgn(x):
        return (x > 0) - (x < 0)

    # cross-check the prediction path: Q/denominator must reproduce mu - mu_c
    assert sgn(predicted) == sgn(slope_mu(pair) - mu_c(pair, c))
    return VerificationRecord(
        label=model.label,
        c=c,
        df_oracle=fit.df,
        df_predicted=predicted,
        sign_match=sgn(fit.df) == sgn(predicted),
        exact_match=fit.df == predicted,
        samples=fit.samples,
    )
