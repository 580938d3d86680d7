"""Independent per-instance verification via lattice-point enumeration.

For a toric model, section counts h0(mL) and filtration weights w_m are
counted slice by slice in nested integer ranges: Fourier-Motzkin
elimination of the facet inequalities, once per count, bounds each
coordinate x_k by the ones before it, so a prefix outside the polytope's
projection is never visited; the levels along each slice are summed in
closed form.  The counts are fitted exactly to their asymptotic expansions,
and the extracted invariant is compared against the slope engine's
prediction.  Nothing here reuses the machinery of the table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .polynomials import fit_polynomial
from .slope import alpha_polys, df_numerator, mu_c, slope_mu
from .toric import ToricError, ToricModel, export_table

# most prefixes (x_1, ..., x_{n-1}) one count may visit over its m-samples
_PREFIX_BUDGET = 2_000_000
# most rows one elimination step of _levels may keep
_ROW_LIMIT = 1_000


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


def _levels(model: ToricModel, ms):
    """Rows bounding each coordinate x_k, once for all m-samples of a count;
    None when m * P_L is empty for every m >= 1.

    Each facet <x, u_rho> >= -m a_rho is an integer row in (x, m), L scaled
    by the lcm of its denominators.  Fourier-Motzkin elimination of x_n, ...,
    x_2 makes each derived row primitive, keeps it once, and drops one combined
    from more than t + 1 facets after t eliminations (Chernikov's rule).
    Level k holds the rows with x_k != 0, as lowers and uppers
    (r_1..r_{k-1}, |r_k|, r_m).  Before any slice is enumerated, a count is
    refused that would visit more than _PREFIX_BUDGET prefixes
    (x_1, ..., x_{n-1}): the range lengths of x_{n-1} summed over (x_1..x_{n-2}).
    """
    n = model.fan.dim
    scale = lcm(*(a.denominator for a in model.L.coeffs))
    rows = {  # row -> bit set of the facets it is combined from
        (*(scale * x for x in ray), int(scale * a)): 1 << i
        for i, (ray, a) in enumerate(zip(model.fan.rays, model.L.coeffs))
    }
    levels = []
    for k in reversed(range(n)):
        pos = [(r, h) for r, h in rows.items() if r[k] > 0]
        neg = [(r, h) for r, h in rows.items() if r[k] < 0]
        if not (pos and neg):
            raise ToricError(f"sections polytope is unbounded along x_{k + 1}")
        levels.insert(0, ([(r[:k], r[k], r[-1]) for r, _ in pos],
                          [(r[:k], -r[k], r[-1]) for r, _ in neg]))
        rows = {r: h for r, h in rows.items() if not r[k]}
        for (p, hp), (q, hq) in product(pos, neg) if k else ():
            h = hp | hq
            if h.bit_count() > n - k + 1:
                continue
            row = tuple(p[k] * b - q[k] * a for a, b in zip(p, q))
            g = gcd(*row[:-1])
            if not g:  # r_m m >= 0: for every m >= 1, or for none
                if row[-1] < 0:
                    return None
                continue
            row = tuple(x // gcd(g, row[-1]) for x in row)
            if row not in rows or h.bit_count() < rows[row].bit_count():
                rows[row] = h
        if len(rows) > _ROW_LIMIT:
            raise ValueError(f"row limit exceeded eliminating x_{k + 1}: "
                             f"{len(rows)} rows, limit {_ROW_LIMIT}")
    total = 0
    for m in ms:
        for prefix in _prefixes(levels[:-2], m):
            lo, hi = _bounds(levels[-2], prefix, m) if n > 1 else (0, 0)
            total += max(0, hi - lo + 1)
            if total > _PREFIX_BUDGET:
                raise ValueError(f"lattice-point budget exceeded at m={m}: more "
                                 f"than {_PREFIX_BUDGET} prefixes to enumerate")
    return levels


def _bounds(level, prefix, m: int) -> tuple[int, int]:
    """Integer range lo..hi of the coordinate after prefix."""
    lowers, uppers = level
    lo = max(-((sum(map(mul, prefix, r)) + c * m) // d) for r, d, c in lowers)
    hi = min((sum(map(mul, prefix, r)) + c * m) // d for r, d, c in uppers)
    return lo, hi


def _prefixes(levels, m: int, prefix=()):
    """Integer points of m * P_L's projection onto levels, after prefix."""
    if not levels:
        yield prefix
        return
    lo, hi = _bounds(levels[0], prefix, m)
    for x in range(lo, hi + 1):
        yield from _prefixes(levels[1:], m, prefix + (x,))


def _slices(model: ToricModel, m: int, levels):
    """Lattice points of m * P_L, one slice per integer prefix
    (x_1, ..., x_{n-1}) of its projection.

    Yields (base, step, lo, hi) for each nonempty slice: its points have
    filtration levels base + step * t for t = lo..hi, with step >= 0 (t is
    x_n, or -x_n when u_sigma has a negative last coordinate).
    """
    u_sigma, offset = _sigma_form(model)
    shift = m * offset
    if shift.denominator == 1:  # int arithmetic per slice, not Fraction
        shift = int(shift)
    step = u_sigma[-1]
    for prefix in _prefixes(levels[:-1], m) if levels else ():
        lo, hi = _bounds(levels[-1], prefix, m)
        if lo <= hi:
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


def _sample(model: ToricModel, m: int, levels, cap: int) -> WeightSample:
    """h0(mL) and the weight total with levels capped at cap."""
    h0 = w = 0
    for base, step, lo, hi in _slices(model, m, levels):
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
    return sum(_count_at_least(*s, j) for s in _slices(model, m, _levels(model, (m,))))


def weight_total(model: ToricModel, c, m: int) -> int:
    """Total weight sum over sections, each capped at level c*m."""
    c = Fraction(c)
    cm = c * m
    if cm.denominator != 1:
        raise ValueError(f"c*m = {cm} is not integral")
    cm = int(cm)
    if cm < 1:
        raise ValueError("c*m must be at least 1")
    return _sample(model, m, _levels(model, (m,)), cm).w


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
    levels = _levels(model, m_list)
    samples = []
    for m in m_list:
        cm = c * m
        if cm.denominator != 1:
            raise ValueError(f"m={m} does not make c*m integral")
        samples.append(_sample(model, m, levels, int(cm)))
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
