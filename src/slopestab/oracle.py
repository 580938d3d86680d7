"""Independent per-instance verification via lattice-point enumeration.

For a toric model, section counts h0(mL) and filtration weights w_m are
counted slice by slice: the first n-1 coordinates run over the integer
points of a bounding box, the range of the last one follows by floor
division from the facet inequalities, and the levels along each slice are
summed in closed form.  The counts are fitted exactly to their asymptotic
expansions, and the extracted invariant is compared against the slope
engine's prediction.  Nothing here reuses the intersection-number machinery
of the table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod
from operator import mul

from .polynomials import fit_polynomial
from .slope import alpha_polys, df_numerator, mu_c, slope_mu
from .toric import ToricError, ToricModel, export_table, polytope_of

# most prefixes (x_1, ..., x_{n-1}) one count may enumerate over its m-samples
_PREFIX_BUDGET = 2_000_000


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


def _box(verts, m: int, d: int) -> range:
    """Integer range of coordinate d over the bounding box of m * P_L."""
    coords = [v[d] for v in verts]
    return range(floor(m * min(coords)), ceil(m * max(coords)) + 1)


def _vertices(model: ToricModel, ms):
    """Vertices of P_L, once for all m-samples of a count; refuses, before
    anything is enumerated, a count whose prefix boxes hold more than
    _PREFIX_BUDGET points in total."""
    verts = polytope_of(model.fan, model.L).vertices
    if not verts:
        return verts
    total = 0
    for m in ms:
        total += prod(len(_box(verts, m, d)) for d in range(model.fan.dim - 1))
        if total > _PREFIX_BUDGET:
            raise ValueError(
                f"lattice-point budget exceeded at m={m}: {total} prefixes "
                f"to enumerate, limit {_PREFIX_BUDGET}"
            )
    return verts


def _slices(model: ToricModel, m: int, verts):
    """Lattice points of m * P_L, one slice per integer prefix
    (x_1, ..., x_{n-1}) of the bounding box.

    Yields (base, step, lo, hi) for each nonempty slice: its points have
    filtration levels base + step * t for t = lo..hi, with step >= 0 (t is
    x_n, or -x_n when u_sigma has a negative last coordinate).
    """
    if not verts:
        return
    n = model.fan.dim
    u_sigma, offset = _sigma_form(model)
    shift = m * offset
    if shift.denominator == 1:  # int arithmetic per slice, not Fraction
        shift = int(shift)
    # <x, u_rho> >= -m a_rho holds on integer x exactly when
    # <x, u_rho> >= ceil(-m a_rho)
    facets = [
        (ray[:-1], ray[-1], ceil(-m * a))
        for ray, a in zip(model.fan.rays, model.L.coeffs)
    ]
    last = _box(verts, m, n - 1)
    step = u_sigma[-1]
    for prefix in product(*(_box(verts, m, d) for d in range(n - 1))):
        lo, hi = last.start, last.stop - 1
        for u, u_last, bound in facets:
            slack = sum(map(mul, prefix, u)) - bound
            if u_last > 0:
                lo = max(lo, -(slack // u_last))
            elif u_last < 0:
                hi = min(hi, slack // -u_last)
            elif slack < 0:
                break
            if lo > hi:
                break
        else:
            base = sum(map(mul, prefix, u_sigma)) + shift
            if step < 0:
                yield base, -step, -hi, -lo
            else:
                yield base, step, lo, hi


def _capped_sum(base, step, lo, hi, cap):
    """Sum of min(base + step * t, cap) over t = lo..hi, step >= 0."""
    if step == 0:
        return (hi - lo + 1) * min(base, cap)
    # levels at most cap are those with t <= k
    k = min(hi, max(lo - 1, (cap - base) // step))
    below = k - lo + 1
    return below * base + step * ((lo + k) * below // 2) + (hi - k) * cap


def _count_at_least(base, step, lo, hi, j) -> int:
    """Number of t = lo..hi with base + step * t >= j, step >= 0."""
    if step == 0:
        return hi - lo + 1 if base >= j else 0
    first = max(lo, -((base - j) // step))
    return max(0, hi - first + 1)


def _sample(model: ToricModel, m: int, verts, cap: int) -> WeightSample:
    """h0(mL) and the weight total with levels capped at cap."""
    h0 = w = 0
    for base, step, lo, hi in _slices(model, m, verts):
        h0 += hi - lo + 1
        w += _capped_sum(base, step, lo, hi, cap)
    return WeightSample(m, h0, int(w))


def filtration_count(model: ToricModel, m: int, j: int) -> int:
    """h0 of sections vanishing to order >= j along Z: lattice points of
    m*P_L at filtration level >= j."""
    if m < 1:
        raise ValueError("m must be positive")
    if j < 0:
        raise ValueError("j must be nonnegative")
    verts = _vertices(model, (m,))
    return sum(_count_at_least(*s, j) for s in _slices(model, m, verts))


def weight_total(model: ToricModel, c, m: int) -> int:
    """Total weight sum over sections, each capped at level c*m."""
    c = Fraction(c)
    cm = c * m
    if cm.denominator != 1:
        raise ValueError(f"c*m = {cm} is not integral")
    cm = int(cm)
    if cm < 1:
        raise ValueError("c*m must be at least 1")
    verts = _vertices(model, (m,))
    return _sample(model, m, verts, cm).w


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
    verts = _vertices(model, m_list)
    samples = []
    for m in m_list:
        cm = c * m
        if cm.denominator != 1:
            raise ValueError(f"m={m} does not make c*m integral")
        samples.append(_sample(model, m, verts, int(cm)))
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
    table = export_table(model).base_table()
    if not 0 < c <= table.epsilon:
        raise ToricError(f"c={c} outside (0, {table.epsilon}]")
    pair = alpha_polys(table)
    _, df_norm = df_numerator(pair)
    predicted = df_norm(c)
    fit = fit_expansions(model, c, m_list)

    def sgn(x):
        return (x > 0) - (x < 0)

    # cross-check the prediction path: Q/denominator must reproduce mu - mu_c
    if sgn(predicted) != sgn(slope_mu(pair) - mu_c(pair, c)):
        raise RuntimeError(f"sign of Q at c={c} disagrees with mu - mu_c")
    return VerificationRecord(
        label=model.label,
        c=c,
        df_oracle=fit.df,
        df_predicted=predicted,
        sign_match=sgn(fit.df) == sgn(predicted),
        exact_match=fit.df == predicted,
        samples=fit.samples,
    )
