"""Independent per-instance verification via lattice-point enumeration.

For a toric model, section counts h0(mL) and filtration weights w_m are
counted slice by slice in nested integer ranges: Fourier-Motzkin
elimination of the facet inequalities, once per verification, bounds each
coordinate x_k by the ones before it, so a prefix outside the polytope's
projection is never visited; the levels along each slice are summed in
closed form.  One kernel steps every level: a bounding row's value is kept
as b + e * x along the coordinate x before it, so its dot product is taken
once per prefix.  Each m-sample is walked once: the prefix budget's count
walk keeps its steps, up to a fixed number held per verification, and the
count reads them for every c that needs the sample, with one capped weight
total per c.  The default m-samples come in pairs m and -m: by
Ehrhart-Macdonald reciprocity, the value at -m of each count's polynomial
is read off the interior of m * P_L, which the same elimination bounds, so
the largest dilation walked is about half the sample count times c's
denominator.  The counts are fitted exactly to their asymptotic
expansions, h0 once for all c, and the extracted invariant, one Fraction of
the fits' integer forms, is compared against the slope engine's
prediction.  Nothing here reuses the machinery of the table path."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product, repeat
from math import gcd
from operator import floordiv, mul

from .polynomials import WitnessMismatch, _sign, fit_polynomial
from .slope import _checked_c, _mu_c_pairs, alpha_polys, df_numerator, slope_mu
from .toric import ToricError, ToricModel, export_table

# most prefixes (x_1, ..., x_{n-1}) one count may visit over its m-samples
_PREFIX_BUDGET = 2_000_000
# most rows one elimination step of _levels may keep
_ROW_LIMIT = 1_000
# most walk steps (prefix, x_lo, count) held for _sample over one verification
_HELD_STEPS = 2**17


class WeightSample(namedtuple("WeightSample", "m h0 w")):
    """The values at m of the h0 polynomial and of one capped weight
    polynomial, all ints.  m is negative for an interior sample: h0 and w
    are then read off the interior of |m| * P_L by reciprocity (see
    _sample), and are not counts."""

    __slots__ = ()


class ExpansionFit(namedtuple("ExpansionFit", "h0_poly w_poly df samples")):
    """The exact fits of one c: the UniPolys h0_poly, of degree n, and
    w_poly, of degree at most n + 1, in m; df a Fraction, samples the
    WeightSamples.  a and b, their expansion coefficients leading term first,
    h0(mL) = a[0] m^n + ... + a[n] and w_m = b[0] m^(n+1) + ... + b[n+1],
    are tuples of Fractions built when read."""

    __slots__ = ()

    @property
    def a(self) -> tuple[Fraction, ...]:
        return self.h0_poly.coeffs[::-1]

    @property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(map(self.w_poly.coeff, range(self.h0_poly.degree + 1, -1, -1)))


class VerificationRecord(namedtuple("VerificationRecord", "label c df_oracle df_predicted "
                                                          "sign_match exact_match samples")):
    """One oracle check at c: the label, the Fractions c, df_oracle and
    df_predicted, the bools sign_match and exact_match, and the
    WeightSamples it was fitted from."""

    __slots__ = ()


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
    """Rows bounding each coordinate x_k, for every m, of m * P_L and of its
    interior; ToricError when a derived row shows m * P_L, or its interior,
    empty for every m >= 1.

    Each facet <x, u_rho> >= -m a_rho is an integer row (u_rho, a_rho, -1) in
    (x, m, s): at s = 0 it bounds m * P_L, and at s = 1 its interior, whose
    lattice points are those with <x, u_rho> >= -m a_rho + 1.  Fourier-Motzkin
    elimination of x_n, ..., x_1 keeps m and s as parameters, so one
    elimination serves both walks.  It makes each derived row primitive, keeps
    it once, and drops one combined from more than t + 1 facets after t
    eliminations (Chernikov's rule).  A derived row r_m m + r_s s >= 0 with no
    x part decides, before any walk, that L is not big: r_m < 0 leaves
    m * P_L empty for every m >= 1, and r_m = 0 > r_s leaves its interior
    empty, so P_L is lower-dimensional.  Only the first, found before x_1 is
    eliminated, is refused as an empty sections polytope.
    Level k holds the rows with x_k != 0, as lowers and uppers
    ((r_m, r_s, 0, r_1, ..., r_{k-1}), |r_k|): the 0 is the coefficient of an
    absent x_0, so a walk's prefix (m, s, x_0, ..., x_{k-2}) gives a row's
    value at x_{k-1} = 0 in one dot product (see _walk).
    """
    n = model.fan.dim
    rows = {  # row -> bit set of the facets it is combined from
        (*ray, a, -1): 1 << i for i, (ray, a) in enumerate(zip(model.fan.rays, model.L))
    }
    levels = []
    for k in reversed(range(n)):
        pos = [(r, h) for r, h in rows.items() if r[k] > 0]
        neg = [(r, h) for r, h in rows.items() if r[k] < 0]
        if not (pos and neg):
            raise ToricError(f"sections polytope is unbounded along x_{k + 1}")
        levels.insert(0, ([((*r[-2:], 0, *r[:k]), r[k]) for r, _ in pos],
                          [((*r[-2:], 0, *r[:k]), -r[k]) for r, _ in neg]))
        rows = {r: h for r, h in rows.items() if not r[k]}
        for (p, hp), (q, hq) in product(pos, neg):
            h = hp | hq
            if h.bit_count() > n - k + 1:
                continue
            row = tuple(p[k] * b - q[k] * a for a, b in zip(p, q))
            g = gcd(*row[:-2])
            if not g:  # r_m m + r_s s >= 0
                if row[-2] < 0 and k:
                    raise ToricError("sections polytope is empty: L is not big")
                if row[-2:] < (0, 0):  # false at s = 1 for every large m
                    raise ToricError(f"h0(mL) has no m^{n} term: L is not big")
                continue
            g = gcd(g, row[-2], row[-1])
            row = tuple([x // g for x in row])
            if row not in rows or h.bit_count() < rows[row].bit_count():
                rows[row] = h
        if len(rows) > _ROW_LIMIT:
            raise ToricError(f"row limit exceeded eliminating x_{k + 1}: "
                             f"{len(rows)} rows, limit {_ROW_LIMIT}")
    return levels


def _check_budget(levels, ms, counts: dict, explicit: bool, held=None) -> None:
    """Refuse, before any slice is enumerated, an m-list ms with an m that
    repeats or, when the list is explicit, is not positive, and a count that
    would visit more than _PREFIX_BUDGET prefixes (x_1, ..., x_{n-1}) over
    its m-samples, the interior walks of negative m included.
    counts keeps each m's prefix count for the next m-list; an m not in it
    is counted only as far as the budget left.  Each m is checked as it is
    reached, so the budget stops a long list before it is read to the end.
    held, when given, keeps the steps of each m this call walks, the
    (prefix, x_lo, count) that _walk yields, for _sample to read instead of
    walking again, while all it holds stays within _HELD_STEPS; an m past
    that is not held, and _sample walks it afresh."""
    total, seen = 0, set()
    room = 0 if held is None else _HELD_STEPS - sum(map(len, held.values()))
    for m in ms:
        if explicit and m <= 0:
            raise ToricError(f"m={m} is not a positive m-sample")
        if m in seen:
            raise ToricError(f"m={m} is repeated in the m-list")
        seen.add(m)
        steps = None
        if m not in counts:
            count, steps = 0, [] if room > 0 else None
            for step in _walk(levels, _walk_of(m)):
                count += step[2]
                if total + count > _PREFIX_BUDGET:
                    break
                if steps is not None:
                    steps.append(step)
                    if len(steps) > room:
                        steps = None
            counts[m] = count
        total += counts[m]
        if total > _PREFIX_BUDGET:
            raise ToricError(f"lattice-point budget exceeded at m={m}: more "
                             f"than {_PREFIX_BUDGET} prefixes to enumerate")
        if steps is not None:
            held[m] = steps
            room -= len(steps)


def _ranges(level, prefix, x_lo: int, count: int):
    """(x, lo, hi), with lo..hi the integer range of the coordinate that
    level bounds, at each x = x_lo, ..., x_lo + count - 1 of the coordinate
    before it, after prefix: the walk's (m, s) and the coordinates before x.

    A row's value is b + e * x, with b fixed by the prefix; its values step
    by e and are floor-divided by d in C.  A lower bound -((b + e x) // d)
    is (d - 1 - b - e x) // d.  The range of x bounds the walk, so count may
    exceed sys.maxsize (the budget then stops the walk at its first slices).
    """
    ends = []
    for rows, lower in zip(level, (True, False)):
        bounds = []
        for r, d in rows:
            b = sum(map(mul, prefix, r))
            e = r[-1] if len(r) > len(prefix) else 0
            if lower:
                b, e = d - 1 - b, -e
            v = b + e * x_lo
            bounds.append(map(floordiv, range(v, v + e * count, e), repeat(d)) if e
                          else repeat(v // d))
        ends.append(bounds[0] if len(bounds) == 1 else map(max if lower else min, *bounds))
    return zip(range(x_lo, x_lo + count), *ends)


def _walk_of(m: int) -> tuple[int, int]:
    """(|m|, s), the walk of the m-sample m: over m * P_L when m > 0 (s = 0),
    over the interior of |m| * P_L when m < 0 (s = 1)."""
    return abs(m), int(m < 0)


def _walk(levels, xs, x_lo=0, count=1):
    """(prefix, x_lo, count) for each integer prefix (x_1, ..., x_{n-2}) of
    the projection of the polytope that levels bound at the walk xs = (m, s)
    of _walk_of, with x_lo..x_lo + count - 1 the range of x_{n-1} after it;
    for n = 1, the one value 0 of an absent x_0.  Each prefix is yielded as
    (m, s, x_0, x_1, ..., x_{n-2}), the form that _levels' rows take.

    Every level but the last steps through _ranges: after
    xs = (m, s, x_0, ..., x_{k-1}), where x_0 = 0 stands for no coordinate,
    x_k runs over x_lo..x_lo + count - 1, and levels[k] bounds x_{k+1}; so
    the walk's constant r_m m + r_s s enters each row's dot product, with no
    step of its own.  The walk keeps one stack of (prefix, _ranges iterator),
    so a step passes through no nested generator.
    """
    last = len(levels) - 1
    if not last:
        yield xs, x_lo, count
        return
    stack = [(xs, _ranges(levels[0], xs, x_lo, count))]
    while stack:
        prefix, ranges = stack[-1]
        for x, lo, hi in ranges:
            if lo <= hi:
                p = (*prefix, x)
                if len(stack) < last:
                    stack.append((p, _ranges(levels[len(stack)], p, lo, hi - lo + 1)))
                    break
                yield p, lo, hi - lo + 1
        else:
            stack.pop()


def _sample(model: ToricModel, m: int, levels, sigma_form, caps,
            steps=None) -> tuple[WeightSample, ...]:
    """H(m) and W(m), the values at m of the h0 polynomial and of the weight
    polynomial with levels capped at each of caps, one WeightSample per cap,
    from one walk; sigma_form is the model's `_sigma_form`.  steps, when
    given, are the steps of m's walk that _check_budget held, and are read
    instead of walking levels again.

    For m > 0 the walk is over m * P_L, and H(m) = h0(mL) and
    W(m) = w_m = sum of min(l_m(x), cap) over its lattice points x, where
    l_m is _sigma_form's level and cap = c m.  For m = -M < 0 the walk is
    over the N lattice points of int(M * P_L), and, by Ehrhart-Macdonald
    reciprocity, H(-M) = (-1)^n N and
    W(-M) = (-1)^(n+1) * sum of min(l_M(x), cM) over them, with cM = -cap.

    Proof.  Let P = P_L, of dimension n, and let Q be P or a polytope cut from
    it.  For a polynomial f on (x, m), S(m) = sum of f(x, m) over the lattice
    points of m Q is a polynomial on the m-samples (the fit witnesses check
    it), and S(-M) = (-1)^n * sum of f(-x, -M) over int(M Q): for f = 1 this
    is reciprocity (Macdonald, J. London Math. Soc. 1971; Beck-Robins,
    Computing the Continuous Discretely, Thm 4.1), and a monomial x^a m^j of
    degree |a| + j takes the sign (-1)^(|a| + j) under (x, m) -> (-x, -m),
    which is the weighted form of the same theorem.  f = 1 on P gives H.
    For W, min(l, cm) = cm - max(0, cm - l), and on m P the weight
    g(x, m) = cm - l_m(x), linear in (x, m), is positive only on m A, where
    A is the part of P with l_1 <= c; it is 0 on the cut.  So
    W(m) = cm H(m) - G(m), with G the sum of g over m A.  Since
    g(-x, -M) = -g(x, M),
    G(-M) = (-1)^(n+1) * sum of g(x, M) over int(M A), which is
    int(M P) and l_M < cM, that is, the sum of max(0, cM - l_M(x)) over
    int(M P).  Then W(-M) = -cM H(-M) - G(-M) is (-1)^n times the sum over
    int(M P) of max(0, cM - l_M(x)) - cM = -min(l_M(x), cM).  (An A with no
    interior lies in the cut l_1 = c, where g and max(0, cM - l_M) vanish.)

    At each prefix (m, s, x_0, ..., x_{n-2}) of the walk, the same
    kernel, _ranges, steps the last level through the range of x_{n-1}; the
    slice at
    x_{n-1} holds the points t = lo..hi with filtration levels
    base + step * t, where t is x_n, or -x_n when u_sigma has a negative
    last coordinate, so step >= 0.
    """
    h0, ws = 0, [0] * len(caps)
    if m < 0:  # the kernel caps at cM = -cap
        caps = [-cap for cap in caps]
    u_sigma, offset = sigma_form
    form = (offset, 0, 0, *u_sigma)  # the level's coefficients on a prefix
    level, step = levels[-1], u_sigma[-1]
    if step < 0:  # t = -x_n: the lower rows of t are the upper ones of x_n
        level, step = level[::-1], -step
    u_prev = u_sigma[-2] if len(levels) > 1 else 0
    for p, x_lo, count in _walk(levels, _walk_of(m)) if steps is None else steps:
        base = sum(map(mul, p, form)) + u_prev * x_lo
        for _, lo, hi in _ranges(level, p, x_lo, count):
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
    if m < 0:
        sign = (-1) ** model.fan.dim
        h0, ws = sign * h0, [-sign * w for w in ws]
    return tuple(WeightSample(m, h0, w) for w in ws)


def default_m_list(n: int, c) -> list[int]:
    """The first n + 3 of q, -q, 2q, -2q, ..., where q is c's denominator:
    with the known sample at m = 0, enough for the degree-(n+1) weight fit
    plus two witnesses.  A negative m is walked over the interior of
    |m| * P_L (see _sample), so the largest dilation walked is
    ceil((n + 3) / 2) q, not (n + 3) q."""
    q = Fraction(c).denominator
    return [s * q * i for i in range(1, n // 2 + 3) for s in (1, -1)][:n + 3]


def fit_expansions(model: ToricModel, cs, m_list=None,
                   check_c=None) -> tuple[ExpansionFit, ...]:
    """Exact degree-n and degree-(n+1) fits of h0 and w with witness checks,
    one per c of cs, in order.

    Each c is checked in turn: check_c(c) first when given, then the sample
    count of an explicit m_list (at least n + 4), the elimination (once, at
    the first c), its own m-list (an explicit one's m positive and distinct)
    and the prefix budget over it, and the integrality of c*m.  Only then is
    each distinct m of the m-lists sampled, once, with the caps c*m of every
    c whose list holds it, from the steps the budget's walk held for it, or
    from a walk of its own past _HELD_STEPS; an m's steps are dropped once
    it is sampled.  The default m-list takes half its samples at
    negative m, each the value H(m) and W(m) of the fitted polynomials that
    _sample reads off the interior of |m| * P_L by reciprocity.  The
    elimination refuses an empty or lower-dimensional P_L, whose interior is
    empty, before any walk.  m = 0 is never walked: by Ehrhart's theorem
    h0(0L) = 1 and w_0 = 0, so (0, 1) comes first in the h0 fit and (0, 0)
    first in each weight fit, and the default m-list walks n + 3 samples for
    fits of n + 4 points.  h0 does not depend on c: it is fitted once, over m = 0 and every
    m walked in increasing order, the points past the first n + 1 as
    witnesses.  A fit witness that disagrees raises RuntimeError: the counts
    are polynomials in m, so it is a fault of the oracle, not of the input.
    An L that is not big, so that h0 has no m^n term, raises ToricError;
    that is checked before the m = 0 point is added, which an empty m * P_L
    would contradict.
    df = (b[0] a[1] - b[1] a[0]) / a[0]^2 is one Fraction of the fits'
    integer forms, h over hd and w over wd, constant term first:
    (w[n+1] h[n-1] - w[n] h[n]) hd / (wd h[n]^2), a trimmed index read as 0.
    """
    n = model.fan.dim
    plans, counts, held, levels, form = [], {}, {}, None, None
    by_m = {}  # m -> its distinct caps, as dict keys in order of first use
    for c in map(Fraction, cs):
        if check_c is not None:
            check_c(c)
        ms = default_m_list(n, c) if m_list is None else m_list
        if m_list is not None and len(ms[:n + 4]) < n + 4:  # a range's len() fails past sys.maxsize
            raise ToricError(f"need at least {n + 4} m-samples, got {len(ms)}")
        if not plans:
            levels, form = _levels(model), _sigma_form(model)
        _check_budget(levels, ms, counts, m_list is not None, held)
        caps = []
        for m in ms:
            cap, rest = divmod(c.numerator * m, c.denominator)
            if rest:
                raise ToricError(f"m={m} does not make c*m integral")
            caps.append(cap)
            by_m.setdefault(m, {})[cap] = None
        plans.append((ms, caps))
    samples = {  # m -> cap -> WeightSample
        m: dict(zip(caps, _sample(model, m, levels, form, tuple(caps), held.pop(m, None))))
        for m, caps in by_m.items()
    }
    fits = []
    try:
        # every cap's sample of an m holds the same h0
        h0 = [(m, next(iter(by_cap.values())).h0) for m, by_cap in sorted(samples.items())]
        # an empty m * P_L (h0 == 0 at every m) has no m^n term either, and
        # would contradict h0(0L) = 1; a[0] = 0 would divide df by zero
        h_poly = fit_polynomial([(0, 1), *h0], n) if any(h for _, h in h0) else None
        if h_poly is None or h_poly.degree < n:
            raise ToricError(f"h0(mL) has no m^{n} term: L is not big")
        h, hd = h_poly.integer_form
        for ms, caps in plans:
            own = tuple(samples[m][cap] for m, cap in zip(ms, caps))
            w_poly = fit_polynomial([(0, 0), *((s.m, s.w) for s in own)], n + 1)
            w, wd = w_poly.integer_form
            w += (0,) * (n + 2 - len(w))
            df = Fraction((w[n + 1] * h[n - 1] - w[n] * h[n]) * hd, wd * h[n] ** 2)
            fits.append(ExpansionFit(h_poly, w_poly, df, own))
    except WitnessMismatch as exc:  # the counts are polynomials in m
        raise RuntimeError(f"oracle counts are not polynomial in m: {exc}") from exc
    return tuple(fits)


def verify(model: ToricModel, cs, m_list=None) -> tuple[VerificationRecord, ...]:
    """Compare the enumeration-based invariant against the slope engine, one
    record per c of cs, in order.

    The table, alpha polynomials, Q and the elimination are computed once,
    and each m-sample is walked once for every c.  sign_match is the
    literal content of the theorem; exact_match tracks the fixed
    normalization Q(c) / alpha0(0).  Both sides of the cross-check are
    integers: Q(c) = v / d from one Horner pass, d > 0, so df_predicted is
    one Fraction over alpha0's integer form, and sign(v) must be that of
    mu - mu_c, read off _mu_c_pairs' reduced pair; RuntimeError otherwise.
    A c not in (0, epsilon] is refused by slope._checked_c, as analyze and
    limit refuse it, before its own samples.
    """
    cs = tuple(map(Fraction, cs))
    table = export_table(model)
    pair = alpha_polys(table)
    fits = fit_expansions(model, cs, m_list, lambda c: _checked_c(c, table.epsilon))
    q, mu = df_numerator(pair), slope_mu(pair)
    alpha0, alpha0_den = pair.alpha0.integer_form  # alpha0(0) = alpha0[0] / alpha0_den > 0
    records = []
    for c, fit in zip(cs, fits):
        v, d = q.at(c.numerator, c.denominator)
        # cross-check the prediction path: Q/denominator must reproduce mu - mu_c
        ((p, r),) = _mu_c_pairs(pair, c.numerator, c.denominator, 1)
        if _sign(v) != _sign(mu.numerator * r - p * mu.denominator):
            raise RuntimeError(f"sign of Q at c={c} disagrees with mu - mu_c")
        predicted = Fraction(v * alpha0_den, d * alpha0[0])
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
