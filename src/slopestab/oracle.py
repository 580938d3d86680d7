"""Independent per-instance verification via lattice-point enumeration.

For a toric model, section counts h0(mL) and filtration weights w_m are
counted slice by slice in nested integer ranges: Fourier-Motzkin
elimination of the facet inequalities, once per verification, bounds each
coordinate x_k by the ones before it, so a prefix outside the polytope's
projection is never visited; the levels along each slice are summed in
closed form.  One kernel steps every level: a bounding row's value is kept
as b + e * x along the coordinate x before it, so its dot product is taken
once per prefix.  Each m-sample is counted in one walk for every c that
needs it, with one capped weight total per c.  The counts are fitted
exactly to their asymptotic expansions, h0 once for all c, and the
extracted invariant is compared against the slope engine's prediction.
Nothing here reuses the machinery of the table path."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import gcd
from operator import floordiv, mul

from .polynomials import WitnessMismatch, _sign, fit_polynomial
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
    offset = sum(model.L[i] for i in model.sigma)
    return u_sigma, offset


def _levels(model: ToricModel):
    """Rows bounding each coordinate x_k, for every m; ToricError when a
    derived row shows m * P_L empty for every m >= 1.

    Each facet <x, u_rho> >= -m a_rho is an integer row (u_rho, a_rho) in
    (x, m).  Fourier-Motzkin elimination of x_n, ..., x_2 makes each derived
    row primitive, keeps it once, and drops one combined from more than t + 1
    facets after t eliminations (Chernikov's rule).
    Level k holds the rows with x_k != 0, as lowers and uppers
    (r_1..r_{k-1}, |r_k|, r_m).
    """
    n = model.fan.dim
    rows = {  # row -> bit set of the facets it is combined from
        (*ray, a): 1 << i for i, (ray, a) in enumerate(zip(model.fan.rays, model.L))
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
                    raise ToricError("sections polytope is empty: L is not big")
                continue
            row = tuple(x // gcd(g, row[-1]) for x in row)
            if row not in rows or h.bit_count() < rows[row].bit_count():
                rows[row] = h
        if len(rows) > _ROW_LIMIT:
            raise ValueError(f"row limit exceeded eliminating x_{k + 1}: "
                             f"{len(rows)} rows, limit {_ROW_LIMIT}")
    return levels


def _check_budget(levels, ms, counts: dict) -> None:
    """Refuse, before any slice is enumerated, a count that would visit more
    than _PREFIX_BUDGET prefixes (x_1, ..., x_{n-1}) over its m-samples ms.
    counts keeps each m's prefix count for the next m-list; an m not in it
    is counted only as far as the budget left."""
    total = 0
    for m in ms:
        if m not in counts:
            count = 0
            for _, _, x_count in _walk(levels, m):
                count += x_count
                if total + count > _PREFIX_BUDGET:
                    break
            counts[m] = count
        total += counts[m]
        if total > _PREFIX_BUDGET:
            raise ValueError(f"lattice-point budget exceeded at m={m}: more "
                             f"than {_PREFIX_BUDGET} prefixes to enumerate")


def _ranges(level, prefix, m: int, x_lo: int, count: int):
    """(lo, hi), the integer range of the coordinate that level bounds, at
    each x = x_lo, ..., x_lo + count - 1 of the coordinate before it, after
    prefix, the coordinates before x.

    A row's value is b + e * x, with b fixed by the prefix (e = 0 on the
    first level, where x is an absent x_0 = 0); its values step by e and are
    floor-divided by d in C.  A lower bound -((b + e x) // d) is
    (d - 1 - b - e x) // d.
    """
    ends = []
    for rows, lower in zip(level, (True, False)):
        bounds = []
        for r, d, c in rows:
            b = sum(map(mul, prefix, r)) + c * m
            e = r[-1] if len(r) > len(prefix) else 0
            if lower:
                b, e = d - 1 - b, -e
            v = b + e * x_lo
            bounds.append(map(floordiv, range(v, v + e * count, e), repeat(d)) if e
                          else repeat(v // d, count))
        ends.append(bounds[0] if len(bounds) == 1 else map(max if lower else min, *bounds))
    return zip(*ends)


def _walk(levels, m: int, xs=(), x_lo=0, count=1):
    """(prefix, x_lo, count) for each integer prefix (x_1, ..., x_{n-2}) of
    m * P_L's projection, with x_lo..x_lo + count - 1 the range of x_{n-1}
    after it; for n = 1, the one value 0 of an absent x_0.

    Every level but the last steps through _ranges: after
    xs = (x_0, ..., x_{k-1}), where x_0 = 0 stands for no coordinate, x_k
    runs over x_lo..x_lo + count - 1, and levels[0] bounds x_{k+1}.
    """
    if len(levels) == 1:
        yield xs[1:], x_lo, count
        return
    for x, (lo, hi) in enumerate(_ranges(levels[0], xs[1:], m, x_lo, count), x_lo):
        if lo <= hi:
            yield from _walk(levels[1:], m, (*xs, x), lo, hi - lo + 1)


def _sample(model: ToricModel, m: int, levels, caps) -> tuple[WeightSample, ...]:
    """h0(mL) and the weight totals with levels capped at each of caps, one
    WeightSample per cap, from one walk over the lattice points of m * P_L.

    At each prefix (x_1, ..., x_{n-2}) that _walk yields, the same kernel,
    _ranges, steps the last level through the range of x_{n-1}; the slice at
    x_{n-1} holds the points t = lo..hi with filtration levels
    base + step * t, where t is x_n, or -x_n when u_sigma has a negative
    last coordinate, so step >= 0.
    """
    h0, ws = 0, [0] * len(caps)
    u_sigma, offset = _sigma_form(model)
    level, step = levels[-1], u_sigma[-1]
    if step < 0:  # t = -x_n: the lower rows of t are the upper ones of x_n
        level, step = level[::-1], -step
    u_prev = u_sigma[-2] if len(levels) > 1 else 0
    for p, x_lo, count in _walk(levels, m):
        base = sum(map(mul, p, u_sigma)) + m * offset + u_prev * x_lo
        for lo, hi in _ranges(level, p, m, x_lo, count):
            if lo <= hi:
                points = hi - lo + 1
                h0 += points
                for j, cap in enumerate(caps):
                    # the levels at most cap are those with t <= k
                    k = (cap - base) // step if step else hi if base <= cap else lo - 1
                    if k >= hi:
                        ws[j] += points * base + step * ((lo + hi) * points // 2)
                    elif k < lo:
                        ws[j] += points * cap
                    else:
                        below = k - lo + 1
                        ws[j] += (below * base + step * ((lo + k) * below // 2)
                                  + (hi - k) * cap)
            base += u_prev
    return tuple(WeightSample(m, h0, w) for w in ws)


def default_m_list(n: int, c) -> list[int]:
    """Consecutive multiples of c's denominator, enough for fits plus witnesses."""
    d = Fraction(c).denominator
    return [d * i for i in range(1, n + 5)]


def fit_expansions(model: ToricModel, cs, m_list=None,
                   check_c=None) -> tuple[ExpansionFit, ...]:
    """Exact degree-n and degree-(n+1) fits of h0 and w with witness checks,
    one per c of cs, in order.

    Each c is checked in turn: check_c(c) first when given, then its sample
    count, the elimination (once, at the first c), the prefix budget over its
    own m-list and the integrality of c*m.  Only then is each distinct m of
    the m-lists walked, once, with the caps c*m of every c whose list holds
    it.  h0 does not depend on c: it is fitted once, over every m walked in
    increasing order, the m values past the first n + 1 as witnesses.  A fit
    witness that disagrees raises RuntimeError: the counts are polynomials
    in m, so it is a fault of the oracle, not of the input.  An L that is
    not big, so that h0 has no m^n term, raises ToricError.
    """
    n = model.fan.dim
    plans, counts, levels = [], {}, None
    by_m = {}  # m -> its distinct caps, as dict keys in order of first use
    for c in map(Fraction, cs):
        if check_c is not None:
            check_c(c)
        ms = default_m_list(n, c) if m_list is None else m_list
        if len(ms) < n + 4:
            raise ValueError(f"need at least {n + 4} m-samples, got {len(ms)}")
        if not plans:
            levels = _levels(model)
        _check_budget(levels, ms, counts)
        caps = []
        for m in ms:
            cap = c * m
            if cap.denominator != 1:
                raise ValueError(f"m={m} does not make c*m integral")
            caps.append(cap.numerator)
            by_m.setdefault(m, {})[cap.numerator] = None
        plans.append((ms, caps))
    samples = {  # m -> cap -> WeightSample
        m: dict(zip(caps, _sample(model, m, levels, tuple(caps))))
        for m, caps in by_m.items()
    }
    fits = []
    try:
        # every cap's sample of an m holds the same h0
        h_poly = fit_polynomial(
            [(m, next(iter(by_cap.values())).h0) for m, by_cap in sorted(samples.items())], n)
        if h_poly.degree < n:  # a[0] = 0 would divide df by zero
            raise ToricError(f"h0(mL) has no m^{n} term: L is not big")
        a = tuple(h_poly.coeff(n - i) for i in range(n + 1))
        for ms, caps in plans:
            own = tuple(samples[m][cap] for m, cap in zip(ms, caps))
            w_poly = fit_polynomial([(s.m, s.w) for s in own], n + 1)
            b = tuple(w_poly.coeff(n + 1 - i) for i in range(n + 2))
            df = (b[0] * a[1] - b[1] * a[0]) / a[0] ** 2
            fits.append(ExpansionFit(a, b, df, own))
    except WitnessMismatch as exc:  # the counts are polynomials in m
        raise RuntimeError(f"oracle counts are not polynomial in m: {exc}") from exc
    return tuple(fits)


def verify(model: ToricModel, cs, m_list=None) -> tuple[VerificationRecord, ...]:
    """Compare the enumeration-based invariant against the slope engine, one
    record per c of cs, in order.

    The table, alpha polynomials, Q and the elimination are computed once,
    and each m-sample is counted once for every c.  sign_match is the
    literal content of the theorem; exact_match tracks the fixed
    normalization Q(c) / alpha0(0).
    """
    cs = tuple(map(Fraction, cs))
    table = export_table(model)
    pair = alpha_polys(table)

    def check_c(c):  # before c's own samples
        if not 0 < c <= table.epsilon:
            raise ToricError(f"c={c} outside (0, {table.epsilon}]")

    fits = fit_expansions(model, cs, m_list, check_c)
    q, mu = df_numerator(pair), slope_mu(pair)
    records = []
    for c, fit in zip(cs, fits):
        predicted = q(c) / pair.alpha0(0)
        # cross-check the prediction path: Q/denominator must reproduce mu - mu_c
        if _sign(predicted) != _sign(mu - mu_c(pair, c)):
            raise RuntimeError(f"sign of Q at c={c} disagrees with mu - mu_c")
        records.append(VerificationRecord(
            label=model.label,
            c=c,
            df_oracle=fit.df,
            df_predicted=predicted,
            sign_match=_sign(fit.df) == _sign(predicted),
            exact_match=fit.df == predicted,
            samples=fit.samples,
        ))
    return tuple(records)


def verify_main_theorem(model: ToricModel, c, m_list=None) -> VerificationRecord:
    """verify for the single value c."""
    return verify(model, (c,), m_list)[0]
