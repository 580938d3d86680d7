import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from reference import (
    fraction_horner,
    newton_fit,
    poly_add,
    poly_derivative,
    poly_mul,
    poly_scale,
    ref_isolate_roots,
    sign_at,
    squarefree_sturm,
    sturm_count,
    table_of,
)
from slopestab import cli, polynomials
from slopestab.polynomials import (
    DEFAULT_ISOLATION_WIDTH,
    IsolatingInterval,
    UniPoly,
    WitnessMismatch,
    fit_polynomial,
    isolate_roots,
    rational_roots,
)
from slopestab.slope import alpha_polys

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def poly(*coeffs):
    return UniPoly([F(c) for c in coeffs])


def product(*factors):
    """The UniPoly of a product of coefficient lists."""
    return UniPoly(poly_mul(*factors))


def divisor_roots(p):
    """Reference counter: every rational root of p by trial division, testing
    +-u/v for each divisor u of the scaled constant term and v of the scaled
    leading coefficient (the rational root theorem)."""

    def divisors(n):
        n = abs(n)
        return [d for i in range(1, isqrt(n) + 1) if n % i == 0 for d in (i, n // i)]

    coeffs = list(p.coeffs)
    roots = set()
    while coeffs and coeffs[0] == 0:
        roots.add(F(0))
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(roots)
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    q = UniPoly(coeffs)
    for u in divisors(ints[0]):
        for v in divisors(ints[-1]):
            for r in (F(u, v), F(-u, v)):
                if q(r) == 0:
                    roots.add(r)
    return sorted(roots)


def planted(rng):
    """A random integer polynomial and its planted rational roots: one or
    two with denominators up to 10^3, sometimes 0, sometimes a repeated one,
    and sometimes an irrational pair x^2 = k beside them."""
    roots = [F(rng.randint(-99, 99), rng.randint(1, 1000)) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        roots.append(F(0))
    factors = [[rng.choice((1, -1, 3))]]
    factors += [[-r.numerator, r.denominator] for r in roots]
    if rng.random() < 0.4:
        factors.append([-roots[0].numerator, roots[0].denominator])
    if rng.random() < 0.6:
        factors.append([-rng.choice((2, 3, 5, 7)), 0, 1])
    return product(*factors), sorted(set(roots))


MIXED_REPEATED = product([F(1, 4), -1, 1], [-2, 0, 1], [-3, 2], [-1, 0, 8])
MIXED_SQUARE_FREE = product([-1, 3], [-3, 0, 1], [-1, 0, 5])


class TestArithmetic:
    def test_trim_and_degree(self):
        assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert poly().degree == -1
        assert poly(0).is_zero

    def test_eval_horner(self):
        p = poly(1, -2, 3)  # 1 - 2t + 3t^2
        assert p(F(1, 2)) == F(3, 4)


class TestCanonicalForm:
    def test_constructor_matches_of(self):
        # UniPoly(fractions) is the polynomial _of gives for the integers
        # over any common denominator, scaled by any g != 0 of either sign,
        # in the one canonical form: trimmed, den > 0, gcd 1
        rng = random.Random(24)
        for _ in range(500):
            den = rng.randint(1, 10**rng.randint(1, 12))
            ints = [rng.choice((0, rng.randint(-10**15, 10**15))) for _ in range(rng.randint(0, 7))]
            fractions = [F(c, den) for c in ints]
            g = rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(1, 9))
            p, q = UniPoly(fractions), UniPoly._of([c * g for c in ints], den * g)
            assert p == q and hash(p) == hash(q)
            top, low = q.integer_form
            assert low > 0 and gcd(low, *top) == 1 and (not top or top[-1])
            assert p.coeffs == tuple(fractions[:len(top)])
            assert [p.coeff(k) for k in range(-1, len(ints) + 1)] == [0, *fractions, 0]


def integrate(antiderivative, a, b):
    return antiderivative(b) - antiderivative(a)


def integrands(pair):
    """alpha0 and alpha1 + alpha0'/2 of an AlphaPair, as UniPolys."""
    alpha0 = pair.alpha0.coeffs
    half = poly_scale(poly_derivative(alpha0), F(1, 2))
    return UniPoly(alpha0), UniPoly(poly_add(pair.alpha1.coeffs, half))


# the plane through a point: alpha0 = (1 - t^2)/2, alpha1 + alpha0'/2 = (3 - 2t)/2
T1 = table_of("t1", 2, (1, 0, -1), (-3, -1), 1)


class TestIntegration:
    """The integrals of alpha0 and of alpha1 + alpha0'/2 that `alpha_polys`
    builds in closed form."""

    def test_monomial_antiderivatives(self):
        pair = alpha_polys(T1)
        assert integrate(pair.alpha0_integral, 0, 1) == F(1, 3)
        assert pair.alpha0_integral == poly(0, F(1, 2), 0, F(-1, 6))
        assert pair.numerator_integral == poly(0, F(3, 2), F(-1, 2))

    def test_zero_polynomial(self):
        # AE = (1, 2), KAE = (-2): alpha1 = 1 and alpha0'/2 = -1 cancel
        pair = alpha_polys(table_of("t", 1, (1, 2), (-2,), F(1, 2)))
        assert pair.numerator_integral.is_zero
        assert integrate(pair.numerator_integral, F(-3, 7), 5) == 0

    def test_riemann_sum_oracle(self):
        # both integrands of T1 decrease on [0, 1/2]: lower/upper sums
        # bracket the exact value at every mesh refinement
        pair = alpha_polys(T1)
        a, b = F(0), F(1, 2)
        integrals = (pair.alpha0_integral, pair.numerator_integral)
        for p, integral, expected in zip(integrands(pair), integrals, (F(11, 48), F(5, 8))):
            exact = integrate(integral, a, b)
            for k in (4, 6, 8):
                n = 2**k
                h = (b - a) / n
                upper = sum(p(a + i * h) * h for i in range(n))
                lower = sum(p(a + (i + 1) * h) * h for i in range(n))
                assert lower < exact < upper
                assert upper - lower == (p(a) - p(b)) * h
            assert exact == expected

    @given(n=st.integers(1, 3),
           head=st.fractions(min_value=1, max_value=4, max_denominator=6),
           tail=st.lists(small_fractions, min_size=6, max_size=6),
           pts=st.lists(small_fractions, min_size=3, max_size=3))
    def test_additivity(self, n, head, tail, pts):
        # with AE[0] >= 1 and |AE[k]| <= 4, alpha0 stays positive on [0, 1/64]
        # for n <= 3; each integral vanishes at 0 and differentiates to its
        # integrand, so integrate() is the definite integral
        table = table_of("t", n, (head, *tail[:n]), tail[3:3 + n], F(1, 64))
        pair = alpha_polys(table)
        a, b, c = sorted(pts)
        integrals = (pair.alpha0_integral, pair.numerator_integral)
        for integrand, integral in zip(integrands(pair), integrals):
            assert integral(0) == 0
            assert UniPoly(poly_derivative(integral.coeffs)) == integrand
            total = integrate(integral, a, c)
            assert total == integrate(integral, a, b) + integrate(integral, b, c)


def _truncated_simplex_volume(t):
    """Triangulation oracle: unit 3-simplex minus its t-scaled corner copy."""

    def simplex_volume(vs):
        rows = [[v[i] - vs[0][i] for i in range(3)] for v in vs[1:]]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        return abs(det) / F(6)

    full = simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    corner = simplex_volume([(0, 0, 0), (t, 0, 0), (0, t, 0), (0, 0, t)])
    return full - corner


def lagrange_coeffs(points):
    """Reference: sum_i y_i prod_{j != i} (x - x_j) / (x_i - x_j), expanded
    over Fractions, constant term first."""
    out = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [F(1)], F(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([F(0), *basis], [*basis, F(0)])]
                scale /= xi - xj
        out = [o + scale * c for o, c in zip(out, basis)]
    return out


class TestInterpolation:
    def test_symmetric_quadratic(self):
        assert fit_polynomial([(0, 1), (1, 0), (-1, 0)], 2) == poly(1, 0, -1)

    def test_constant(self):
        assert fit_polynomial([(0, F(5, 7))], 0) == poly(F(5, 7))

    def test_truncated_simplex_volumes(self):
        nodes = [F(0), F(1, 2), F(1), F(1, 3)]
        pts = [(t, _truncated_simplex_volume(t)) for t in nodes]
        assert fit_polynomial(pts, len(pts) - 1) == poly(F(1, 6), 0, 0, F(-1, 6))

    def test_duplicate_abscissa(self):
        with pytest.raises(ValueError):
            fit_polynomial([(1, 2), (1, 3)], 1)

    @given(
        xs=st.lists(small_fractions, min_size=1, max_size=5, unique=True),
        data=st.data(),
    )
    def test_reproduces_points(self, xs, data):
        ys = [data.draw(small_fractions) for _ in xs]
        p = fit_polynomial(list(zip(xs, ys)), len(xs) - 1)
        assert p.degree < len(xs)
        for x, y in zip(xs, ys):
            assert p(x) == y


    def test_matches_lagrange_on_random_points(self):
        # derandomized: 240 point sets of 1..8 points; abscissae negative,
        # zero, integral or not; ordinates up to 30 digits
        rng = random.Random(2025)
        for _ in range(240):
            size = rng.randint(1, 8)
            xs = set()
            while len(xs) < size:
                xs.add(F(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 7, 12))))
            pts = [
                (x, F(rng.randint(-10**rng.randint(1, 30), 10**30), rng.randint(1, 50)))
                for x in sorted(xs, key=lambda _: rng.random())
            ]
            assert fit_polynomial(pts, len(pts) - 1) == UniPoly(lagrange_coeffs(pts))


class TestFitPolynomial:
    def test_triangle_counts(self):
        samples = [(m, F((m + 1) * (m + 2), 2)) for m in range(1, 6)]
        assert fit_polynomial(samples, 2) == poly(1, F(3, 2), F(1, 2))

    def test_constant_fit(self):
        assert fit_polynomial([(1, 7), (2, 7), (3, 7)], 0) == poly(7)

    def test_quasi_polynomial_rejected(self):
        samples = [(m, -(-m // 2)) for m in range(1, 7)]  # ceil(m/2)
        with pytest.raises(WitnessMismatch):
            fit_polynomial(samples, 1)


def fit_case(rng):
    """Samples and a degree 0..8 for fit_polynomial: distinct, unequally
    spaced nodes, all ints, all Fractions or mixed, and values of a random
    polynomial of that degree, plus 0..3 witnesses, one of them off the
    polynomial in two cases of five; one case in twenty has a repeated
    abscissa, too few samples or a negative degree."""
    degree, kind = rng.randint(0, 8), rng.choice(("int", "fraction", "mixed"))
    xs = set()
    while len(xs) < degree + 1 + rng.randint(0, 3):
        x = F(rng.randint(-60, 60), 1 if kind == "int" else rng.choice((1, 2, 3, 7, 12)))
        xs.add(int(x) if x.denominator == 1 and (kind == "int" or rng.random() < 0.5) else x)
    xs = sorted(xs, key=lambda _: rng.random())
    if kind == "int":
        coeffs = [rng.randint(-10**rng.randint(1, 20), 10**20) for _ in range(degree + 1)]
    else:
        coeffs = [F(rng.randint(-10**rng.randint(1, 20), 10**20), rng.randint(1, 99))
                  for _ in range(degree + 1)]
    samples = [(x, sum(c * x**k for k, c in enumerate(coeffs))) for x in xs]
    if len(samples) > degree + 1 and rng.random() < 0.4:
        i = rng.randrange(degree + 1, len(samples))
        samples[i] = (samples[i][0], samples[i][1] + rng.choice((1, -1, F(1, 3))))
    trap = rng.random()
    if trap < 0.02:
        samples.append((samples[rng.randrange(len(samples))][0], 0))
    elif trap < 0.035:
        samples = samples[:degree]
    elif trap < 0.05:
        degree = -1
    return samples, degree


def outcome(fit, samples, degree):
    try:
        return fit(samples, degree)
    except ValueError as exc:
        return type(exc), str(exc)


class TestFitAgainstReference:
    """The integer fit against the Newton-over-Fraction fit it replaced."""

    def test_random_cases(self):
        rng = random.Random(2026)
        kinds = set()
        for _ in range(2400):
            samples, degree = fit_case(rng)
            expected = outcome(newton_fit, samples, degree)
            assert outcome(fit_polynomial, samples, degree) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else UniPoly)
        assert kinds == {UniPoly, WitnessMismatch, ValueError}

    def test_int_samples_build_no_fraction(self, monkeypatch):
        # as the oracle calls it: m = 0, 2, ..., 10 and a degree-2 count
        class NoFraction(F):
            def __new__(cls, *args):
                raise AssertionError(f"Fraction{args} built")

        monkeypatch.setattr(polynomials, "Fraction", NoFraction)
        p = fit_polynomial([(m, (m + 1) * (m + 2) // 2) for m in range(0, 11, 2)], 2)
        monkeypatch.undo()
        assert p == poly(1, F(3, 2), F(1, 2))


class TestRationalRoots:
    def test_finds_all(self):
        p = product([0, 1], [-1, 2], [3, 1])  # roots 0, 1/2, -3
        assert rational_roots(p) == [F(-3), F(0), F(1, 2)]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_divisor_reference(self, seed):
        p, roots = planted(random.Random(seed))
        assert rational_roots(p) == divisor_roots(p) == roots

    @pytest.mark.parametrize("seed", range(40))
    def test_window_matches_reference(self, seed):
        rng = random.Random(seed)
        p, roots = planted(rng)
        r = rng.choice(roots)
        tiny = F(1, 10**9)
        windows = [
            (r, r + 1),  # a root at lo is left out
            (r - 1, r),  # a root at hi is kept
            (r - 1, r - tiny),  # just below the root
            (r + tiny, r + 1),  # just above it
            (min(roots) - tiny, max(roots)),
            (F(-1, 3), F(5, 7)),
        ]
        reference = divisor_roots(p)
        for lo, hi in windows:
            inside = [x for x in reference if lo < x <= hi]
            assert rational_roots(p, lo, hi) == inside
            exact = [iv.lo for iv in isolate_roots(p, lo, hi) if iv.is_exact]
            assert exact == inside

    def test_irrational_next_to_rational(self):
        # 577/408 and 99/70 are convergents of sqrt(2), within 2.2e-6 and 7.3e-5
        p = product([-2, 0, 1], [-577, 408], [-99, 70])
        assert rational_roots(p) == divisor_roots(p) == [F(577, 408), F(99, 70)]
        ivs = isolate_roots(p, 1, 2)
        assert [str(iv) for iv in ivs if iv.is_exact] == ["577/408", "99/70"]
        (irr,) = [iv for iv in ivs if not iv.is_exact]
        assert irr.lo ** 2 < 2 < irr.hi**2

    def test_candidate_outside_the_interval_is_refused(self):
        # near sqrt(2) the nearest integer is 1, a root, but outside (6/5, 2]
        p = product([-1, 1], [-2, 0, 1])
        assert rational_roots(p, F(6, 5), 2) == []
        assert rational_roots(p) == [F(1)]

    def test_close_denominators(self):
        p = product([-1, 1000], [-1, 999], [-998, 999])
        assert rational_roots(p) == [F(1, 1000), F(1, 999), F(998, 999)]

    def test_large_entries(self):
        # trial division would need about 10^12 steps on this constant term
        a, b = 10**24 + 7, 3 * 10**13 + 1
        p = product([-a, b], [-5, 0, 1])
        assert rational_roots(p) == [F(a, b)]
        assert rational_roots(product([a, 0, 0, 1], [1, 3])) == [F(-1, 3)]

    def test_no_real_roots(self):
        assert rational_roots(poly(1, 0, 1)) == []
        assert rational_roots(poly(7)) == []

    def test_empty_window_rejected(self):
        # the window is isolate_roots' window, and so are its refusals
        with pytest.raises(ValueError, match="empty interval"):
            rational_roots(poly(-1, 1), 1, 1)

    @pytest.mark.parametrize("window", [(), (0, 1)], ids=["no window", "window"])
    def test_zero_polynomial_rejected(self, window):
        with pytest.raises(ValueError, match="^cannot isolate roots of the zero polynomial$"):
            rational_roots(UniPoly(), *window)

    def test_constant_with_empty_window_rejected(self):
        # no root to list does not make the window valid
        with pytest.raises(ValueError, match="^empty interval$"):
            rational_roots(UniPoly([7]), 2, 0)


def squarefree(p):
    return polynomials._squarefree(p.integer_form[0])


def first_cells(p, lo, hi):
    """The square-free integer polynomial that `_root_in` searches, the grid
    (base, step, den) of (lo, hi], and the cells (i, k, fa, fb) of the first
    bisection of `isolate_roots` on it, with that polynomial's values at
    their ends."""
    ints = squarefree(p)
    c, *frame = polynomials._window(ints, F(lo), F(hi))
    return ints, frame, list(polynomials._isolate(c))


def whole_cell(ints, lo, hi):
    """The grid of (lo, hi] and the window as its one cell (0, 0, fa, fb)."""
    c, *frame = polynomials._window(ints, F(lo), F(hi))
    return frame, (0, 0, c[0], sum(c))


def window_count(ints, lo, hi):
    """The Descartes count of the integer polynomial `ints` on the open
    interval (lo, hi): the sign variations of its window polynomial on
    (0, 1), reversed and shifted by one."""
    c = polynomials._window(ints, F(lo), F(hi))[0]
    return polynomials.sign_variations(polynomials._shift(c[::-1]))


class TestRootIn:
    """`_root_in` narrows its cell (a/den, (a + step)/den] below 1/lead by
    quadratic interval refinement, then tests the one multiple of 1/lead
    left in it: at most bits(lead step / den) + 1 evaluations, as many as
    bisection could take (one a level, at its midpoint, and one for that
    multiple).  The values at the cell's ends are the caller's, so neither
    end is evaluated."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = polynomials._horner

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(polynomials, "_horner", counted)
        return seen

    @staticmethod
    def root_in(calls, ints, frame, cell):
        (base, step, den), (i, k, fa, fb) = frame, cell
        a, den = (base << k) + i * step, den << k
        calls.clear()
        r = polynomials._root_in(ints, frame, polynomials._bracket(*cell))
        assert len(calls) <= (abs(ints[-1]) * step // den).bit_length() + 1
        assert not {F(a, den), F(a + step, den)} & {F(*c[1:]) for c in calls}
        return r

    def test_evaluations_bounded_on_planted_roots(self, calls):
        # (den x - num)(m x^2 - k)(x^2 + x + 1) with den of 1 to 79 digits,
        # so leads of up to 80 digits; m x^2 = k has rational roots when km
        # is a square, irrational ones otherwise
        rng = random.Random(19)
        leads = set()
        for digits in range(1, 80):
            for _ in range(2):
                den = rng.randint(10 ** (digits - 1), 10**digits - 1)
                root = F(rng.randint(1, 2 * den), den)
                m, k = rng.randint(2, 9), rng.randint(1, 30)
                p = product([-root.numerator, root.denominator], [-k, 0, m], [1, 1, 1])
                planted = {root}
                if isqrt(k * m) ** 2 == k * m and k <= 4 * m:
                    planted.add(F(isqrt(k * m), m))
                ints, frame, cells = first_cells(p, 0, 2)
                base, step, den0 = frame
                leads.add(len(str(abs(ints[-1]))))
                found = set()
                for i, k, fa, fb in cells:
                    a, den = (base << k) + i * step, den0 << k
                    # a cell with its root at the right end is not searched
                    r = (self.root_in(calls, ints, frame, (i, k, fa, fb)) if fb
                         else F(a + step, den))
                    if r is not None:
                        assert F(a, den) < r <= F(a + step, den) and p(r) == 0
                        found.add(r)
                assert found == planted
        assert min(leads) <= 2 and max(leads) == 80

    def test_multiple_of_one_over_lead_that_is_not_a_root(self, calls):
        # (x^2 - 2)(3x - 1) on (1, 3/2], positive at 3/2: one step leaves
        # (5/4, 3/2), whose one multiple of 1/3, 4/3, is tested and refused
        ints = squarefree(product([-2, 0, 1], [-1, 3]))
        assert self.root_in(calls, ints, *whole_cell(ints, 1, F(3, 2))) is None
        assert [F(*c[1:]) for c in calls] == [F(5, 4), F(4, 3)]

    def test_grid_point_hits_the_root(self, calls):
        # the root 3/8 is a grid point of (0, 1], negative at 1: the first
        # step bisects, as no secant estimate is trusted yet, and the root
        # is found where a step evaluates it, on the grid (a denominator
        # 2^k, not lead); no multiple of 1/lead is tested after it
        ints = squarefree(product([-3, 8], [-7 * 10**30 - 1, 0, 10**30]))
        assert self.root_in(calls, ints, *whole_cell(ints, 0, 1)) == F(3, 8)
        assert F(*calls[0][1:]) == F(1, 2) and F(*calls[-1][1:]) == F(3, 8)
        assert calls[-1][2] & (calls[-1][2] - 1) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_denominators_of_hundreds_of_digits(self, seed):
        # compared with the planted root: ref_isolate_roots would halve to
        # width 1/lead^2 here, thousands of steps
        rng = random.Random(seed)
        den = rng.randint(10**99, 10**200 - 1)
        root = F(rng.randint(1, 2 * den), den)
        p = product([-root.numerator, root.denominator], [-3, 0, 1], [1, 1, 1])
        ivs = isolate_roots(p, 0, 2)
        assert [iv.lo for iv in ivs if iv.is_exact] == [root]
        (irr,) = [iv for iv in ivs if not iv.is_exact]
        assert irr.lo**2 < 3 < irr.hi**2


class TestIsolateRoots:
    def test_quadratic_with_irrational_root(self):
        # 9 - 6c - 5c^2 has its positive root at 3(sqrt(6) - 1)/5
        p = poly(9, -6, -5)
        ivs = isolate_roots(p, 0, 1)
        assert len(ivs) == 1
        (iv,) = ivs
        assert not iv.is_exact
        assert iv.hi - iv.lo <= DEFAULT_ISOLATION_WIDTH
        # bisection oracle: the sign of p flips across the interval
        assert p(iv.lo) > 0 > p(iv.hi)

    def test_root_outside_window(self):
        assert isolate_roots(poly(-2, 0, 1), 0, 1) == []

    def test_square_free_reduction(self):
        ivs = isolate_roots(poly(F(1, 4), -1, 1), 0, 1)  # (c - 1/2)^2
        assert len(ivs) == 1
        assert ivs[0].is_exact and ivs[0].lo == F(1, 2)

    def test_zero_polynomial_rejected(self):
        # a refusal, not a window count of 0
        with pytest.raises(ValueError, match="^cannot isolate roots of the zero polynomial$"):
            isolate_roots(UniPoly(), 0, 1)

    def test_descartes_bound_zero_polynomial_rejected(self, monkeypatch):
        # the refusal comes before the window's Descartes bound is taken:
        # the zero polynomial has no sign variations to count
        def counted(coeffs):
            raise AssertionError("Descartes bound taken on the zero polynomial")

        monkeypatch.setattr(polynomials, "sign_variations", counted)
        with pytest.raises(ValueError, match="^cannot isolate roots of the zero polynomial$"):
            isolate_roots(UniPoly(), 0, 1)
        # the bound is still taken on a nonzero polynomial
        with pytest.raises(AssertionError, match="^Descartes bound taken"):
            isolate_roots(poly(-1, 1), 0, 1)

    @pytest.mark.parametrize("lo, hi", [(2, 0), (1, 1), (F(1, 2), F(1, 3))])
    def test_empty_window_rejected(self, lo, hi):
        # a refusal, not a count on the reversed window
        with pytest.raises(ValueError, match="^empty interval$"):
            isolate_roots(poly(-1, 1), lo, hi)

    def test_endpoints_stay_clear_of_window_bounds(self):
        # root at 1 - 1/sqrt(2) ~ 0.2929 near nothing special; window (0, 1]
        p = poly(1, -4, 2)
        for iv in isolate_roots(p, 0, 1):
            assert 0 < iv.lo < iv.hi < 1

    def test_half_open_window(self):
        # root exactly at the upper endpoint is included, lower is not
        p = product([0, 1], [-1, 1])  # roots 0 and 1
        ivs = isolate_roots(p, 0, 1)
        assert [iv.lo for iv in ivs] == [F(1)]

    @pytest.mark.parametrize("p, lo, hi, width, expected", [
        # (x - 1/2)^2 (x^2 - 2)(2x - 3)(8x^2 - 1): not square-free, exact
        # roots at 1/2 and at hi, irrational ones at 1/sqrt(8) and sqrt(2)
        (MIXED_REPEATED, 0, F(3, 2), F(1, 2**20), [
            "(1482909/4194304, 46341/131072]", "1/2",
            "(5931639/4194304, 2965821/2097152]", "3/2"]),
        (MIXED_REPEATED, 0, F(3, 2), F(1, 64),
         ["(45/128, 93/256]", "1/2", "(45/32, 363/256]", "3/2"]),
        # (3x - 1)(x^2 - 3)(5x^2 - 1): square-free, a window of width 3
        (MIXED_SQUARE_FREE, -1, 2, F(1, 2**20), [
            "(-1875751/4194304, -468937/1048576]", "1/3",
            "(1875749/4194304, 234469/524288]",
            "(7264745/4194304, 1816187/1048576]"]),
        (MIXED_SQUARE_FREE, -1, 2, F(1, 64),
         ["(-115/256, -7/16]", "1/3", "(113/256, 29/64]", "(443/256, 223/128]"]),
    ])
    def test_exact_and_irrational_roots_pinned(self, p, lo, hi, width, expected):
        assert [str(iv) for iv in isolate_roots(p, lo, hi, width)] == expected

    @pytest.mark.parametrize("p, lo, hi, square_free", [
        (MIXED_SQUARE_FREE, -1, 2, True),
        # x^2 (x^3 - 3x + 1), as c^2 divides Q for a center of codimension 2:
        # x^k is divided out before the modular test
        (poly(0, 0, 1, -3, 0, 1), 0, 2, True),
        (MIXED_REPEATED, 0, F(3, 2), False),
    ])
    def test_exact_gcd_only_for_a_repeated_root(self, monkeypatch, p, lo, hi, square_free):
        # gcd(p, p') modulo 2^31 - 1 shows a square-free p square-free; only
        # a repeated root takes the exact pseudo-remainder sequence
        results = []
        real = polynomials._coprime_mod

        def recorded(a, b):
            results.append(real(a, b))
            return results[-1]

        monkeypatch.setattr(polynomials, "_coprime_mod", recorded)
        isolate_roots(p, lo, hi)
        assert results == [square_free]

    @pytest.mark.parametrize("p, lo, hi, calls", [
        (poly(-2, 0, 1), 0, 1, 0),  # no root in the window
        (product([-1, 2], [-1, 2]), 0, F(1, 2), 0),  # a double root at hi
        # a simple root beside a double one at 3, outside the window:
        # rational, then irrational
        (product([-1, 1], [-3, 1], [-3, 1]), 0, 2, 0),
        (product([-2, 0, 1], [-3, 1], [-3, 1]), 0, 2, 0),
        (product([-2, 0, 1], [-3, 1], [-3, 1]), 0, 4, 1),  # the double root inside
        (MIXED_SQUARE_FREE, -1, 2, 1),  # four simple roots
    ])
    def test_squarefree_only_for_a_count_of_two(self, monkeypatch, p, lo, hi, calls):
        # one Descartes test of the window on p itself: below a count of 2
        # the window is one cell, and only from 2 on is the square-free part
        # of p taken and bisected
        seen = []
        real = polynomials._squarefree

        def counted(ints):
            seen.append(ints)
            return real(ints)

        monkeypatch.setattr(polynomials, "_squarefree", counted)
        width = F(1, 2**30)
        assert isolate_roots(p, lo, hi, width) == ref_isolate_roots(p, lo, hi, width)
        assert len(seen) == calls

    @pytest.mark.parametrize("lo, hi", [(0, 2), (0, F(2, 3)), (F(1, 3), 2), (F(1, 2), F(3, 2))])
    def test_no_polynomial_division_past_the_square_free_part(self, monkeypatch, lo, hi):
        # (3x - 1)(3x - 2)(x^2 - 2)(x - 1/2)^2: its exact roots are not
        # divided out; the call keeps the one square-free part throughout
        p = product([-1, 3], [-2, 3], [-2, 0, 1], [-1, 2], [-1, 2])
        part = squarefree(p)

        def refused(*args):
            raise AssertionError("polynomial division")

        monkeypatch.setattr(polynomials, "_squarefree", lambda ints: part)
        monkeypatch.setattr(polynomials, "_pseudo_divide", refused)
        width = F(1, 2**30)
        ivs = isolate_roots(p, lo, hi, width)
        monkeypatch.undo()
        assert ivs == ref_isolate_roots(p, lo, hi, width)
        assert any(iv.is_exact for iv in ivs)

    def test_exact_roots_evaluated_once(self, monkeypatch):
        # (3x - 1)(3x - 2)(x^2 - 2) on (0, 2]: no grid point is 1/3 or 2/3;
        # `_root_in` evaluates each once, to find it, and `_refine` never
        # again: no cell of the window's grid ends at an exact root
        points = []
        real = polynomials._horner

        def recorded(ints, num, den):
            points.append(F(num, den))
            return real(ints, num, den)

        monkeypatch.setattr(polynomials, "_horner", recorded)
        p = product([-1, 3], [-2, 3], [-2, 0, 1])
        exact_1, exact_2, irr = isolate_roots(p, 0, 2, F(1, 2**30))
        assert points.count(F(1, 3)) == points.count(F(2, 3)) == 1
        assert [exact_1, exact_2] == [IsolatingInterval(r, r) for r in (F(1, 3), F(2, 3))]
        assert not irr.is_exact and irr.lo**2 < 2 < irr.hi**2

    def test_no_grid_point_evaluated_twice(self, monkeypatch):
        # irrational roots only, in every other case an exact root at hi, and
        # then exact roots strictly inside: every window has one grid, so each
        # cell is narrowed once, from `_root_in`'s rational-root test on to
        # `_refine`'s width, and never again at a point evaluated before
        points = []
        real = polynomials._horner

        def recorded(ints, num, den):
            points.append(F(num, den))
            return real(ints, num, den)

        monkeypatch.setattr(polynomials, "_horner", recorded)
        rng = random.Random(38)
        evaluated = irrational = 0
        for case in range(300):
            factors = []
            for _ in range(rng.randint(1, 3)):  # m x^2 - k, km not a square
                m = rng.randint(1, 9)
                factors.append([-rng.choice([x for x in range(1, 30 * m)
                                             if isqrt(x * m) ** 2 != x * m]), 0, m])
            lo = rng.choice([F(0), F(-rng.randint(1, 20), rng.randint(1, 5))])
            hi = F(rng.randint(1, 40), rng.randint(1, 7))
            if case % 2:
                factors.append([-hi.numerator, hi.denominator])
            points.clear()
            ivs = isolate_roots(product(*factors), lo, hi, F(1, 2 ** rng.choice([20, 64])))
            assert len(set(points)) == len(points)
            evaluated += len(points)
            irrational += sum(not iv.is_exact for iv in ivs)
        assert irrational >= 400 and evaluated >= 10 * irrational
        rng = random.Random(35)
        for _ in range(2000):
            p, _, _, width = exact_inside_case(rng)
            points.clear()
            isolate_roots(p, 0, 3, width)
            assert len(set(points)) == len(points)

    @given(
        coeffs=st.lists(small_fractions, min_size=2, max_size=5),
    )
    def test_intervals_cover_all_sign_changes(self, coeffs):
        p = UniPoly(coeffs)
        if p.is_zero:
            return
        ivs = isolate_roots(p, -8, 8)
        grid = [F(-8) + F(i, 4) for i in range(65)]
        for a, b in zip(grid, grid[1:]):
            if p(a) * p(b) < 0:
                assert any(iv.lo <= b and a <= iv.hi for iv in ivs)


# -- the Fraction kernel that the integer one replaced, kept as a reference --


def random_case(rng):
    """A polynomial with one or two planted rational roots (one in seven
    with a denominator of 50-60 digits), sometimes repeated, sometimes an
    irrational pair and sometimes a random quadratic factor, most roots in
    (0, 3/2]; a window with a non-dyadic end, and a width 2^-1..2^-64.

    Two in five cases get a factor (x - r)^2 -+ e as well, e = 10^-2..10^-14
    times 1..9: a cluster of two real roots r +- sqrt(e), rational when e is
    a square, or a complex pair r +- i sqrt(e) near the real axis.  Both push
    the Descartes count of the cells around r above 1.
    """
    factors = [[rng.choice((1, -1, 2, -3, 7))]]
    for i in range(rng.randint(1, 2)):
        if i == 0 and rng.random() < 1 / 7:
            den = rng.randint(10**49, 10**60)
        else:
            den = rng.randint(1, 1000)
        factor = [-rng.randint(-den // 2, 2 * den), den]
        factors.append(factor)
        if rng.random() < 0.25:
            factors.append(factor)
    if rng.random() < 0.6:  # a x^2 - b: irrational at +-sqrt(b/a) unless a square
        factors.append([-rng.randint(1, 90), 0, rng.randint(1, 40)])
    if rng.random() < 0.2:
        factors.append([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)])
    lo, hi = rng.choice([
        (0, F(2, 3)), (0, F(3, 2)), (F(-1, 3), F(5, 7)), (F(1, 7), F(4, 3)),
        (F(-5, 2), F(10, 3)),
    ])
    width = F(1, 2 ** rng.randint(1, 64))
    kind = rng.random()
    if kind < 0.4:
        r = F(rng.randint(-10, 45), 30)
        e = F(rng.randint(1, 9), 10 ** rng.randint(2, 14))
        factors.append([r * r + (e if kind < 0.2 else -e), -2 * r, 1])
    return product(*factors), lo, hi, width


def exact_inside_case(rng):
    """A polynomial m x^2 - k with irrational roots, sqrt(k/m) in (0, 3),
    times one or two linear factors whose rational roots lie strictly inside
    the window (0, 3], half of them within 1/den of sqrt(k/m); one case in
    twenty has a denominator of 5 to 100 digits, the rest have 1 to 4.  One
    case in ten has a random quadratic factor too.  Returns the polynomial,
    its planted rational roots, the largest denominator's digit count, and
    a width 2^-1..2^-12."""
    m = rng.randint(1, 9)
    k = rng.choice([x for x in range(1, 9 * m) if isqrt(x * m) ** 2 != x * m])
    factors, roots, most = [[-k, 0, m]], set(), 0
    if rng.random() < 0.1:
        factors.append([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)])
    for j in range(rng.randint(1, 2)):
        digits = rng.randint(5, 100) if j == 0 and rng.random() < 0.05 else rng.randint(1, 4)
        den = rng.randint(10 ** (digits - 1), 10**digits - 1)
        num = isqrt(k * den * den // m) + rng.randint(0, 1)  # next to sqrt(k/m)
        if rng.random() < 0.5 or not 0 < num < 3 * den:
            num = rng.randint(1, 3 * den - 1)
        factors.append([-num, den])
        roots.add(F(num, den))
        most = max(most, len(str(den)))
    return product(*factors), roots, most, F(1, 2 ** rng.randint(1, 12))


def deep_case(rng):
    """A rational root of a denominator of 100 to 200 digits times m x^2 - k
    with irrational roots, sometimes a random quadratic factor and a small
    rational root as well; a window from 0 or from elsewhere, holding the
    deep root, and a width of 2^-20, 2^-64 or 2^-200.  Returns the
    polynomial, the window, the width and the deep root."""
    lo, hi = rng.choice([(0, F(3, 2)), (0, F(5, 7)), (F(-1, 3), F(4, 3)), (F(1, 7), F(2))])
    digits = rng.randint(100, 200)
    den = rng.randint(10 ** (digits - 1), 10**digits - 1)
    root = lo + (hi - lo) * F(rng.randint(1, den - 1), den)
    m = rng.randint(1, 9)
    k = rng.choice([x for x in range(1, 9 * m) if isqrt(x * m) ** 2 != x * m])
    factors = [[-root.numerator, root.denominator], [-k, 0, m]]
    if rng.random() < 0.5:
        factors.append([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)])
    if rng.random() < 0.3:
        factors.append([-rng.randint(1, 20), rng.randint(1, 9)])
    return product(*factors), lo, hi, F(1, 2 ** rng.choice([20, 64, 200])), root


class TestIntegerKernel:
    """The integer Descartes kernel against the Sturm counter over Fractions
    of `reference`."""

    def test_exact_roots_inside_next_to_irrational_ones(self):
        # exact roots strictly inside the window, beside irrational ones
        # refined on the window's own grid, with the polynomial that the call
        # keeps throughout: no closed cell holds an exact root
        rng = random.Random(35)
        digits, irrational = set(), 0
        for _ in range(2000):
            p, roots, most, width = exact_inside_case(rng)
            ivs = isolate_roots(p, 0, 3, width)
            assert ivs == ref_isolate_roots(p, 0, 3, width)
            assert {iv.lo for iv in ivs if iv.is_exact} >= roots
            irrational += sum(not iv.is_exact for iv in ivs)
            digits.add(most)
        assert max(digits) >= 95 and len(digits) > 40 and irrational >= 2000

    def test_isolate_roots_matches_fraction_reference(self):
        rng = random.Random(13)
        deep = 0
        for _ in range(3000):
            p, lo, hi, width = random_case(rng)
            assert isolate_roots(p, lo, hi, width) == ref_isolate_roots(p, lo, hi, width)
            deep += window_count(p.integer_form[0], lo, hi) >= 2
        assert deep >= 600
        # rational roots of 100 to 200 digits, at widths down to 2^-200
        rng = random.Random(37)
        seen, digits = set(), set()
        for _ in range(120):
            p, lo, hi, width, root = deep_case(rng)
            ivs = isolate_roots(p, lo, hi, width)
            assert ivs == ref_isolate_roots(p, lo, hi, width)
            assert root in [iv.lo for iv in ivs if iv.is_exact]
            seen.add((width.denominator.bit_length() - 1, lo == 0))
            digits.add(len(str(root.denominator)))
        assert seen == {(w, z) for w in (20, 64, 200) for z in (True, False)}
        assert min(digits) >= 100 and max(digits) >= 199

    @pytest.mark.parametrize("p, lo, hi, width", [
        (MIXED_REPEATED, 0, F(3, 2), F(1, 2**20)),
        (MIXED_SQUARE_FREE, -1, 2, F(1, 64)),
        (product([-2, 0, 1], [-577, 408], [-99, 70]), 1, 2, F(1, 2**40)),
        (product([-2, 0, 3], [-2, 3]), 0, F(2, 3), F(1, 2**64)),  # root at hi
    ])
    def test_pinned_cases_match_reference(self, p, lo, hi, width):
        assert isolate_roots(p, lo, hi, width) == ref_isolate_roots(p, lo, hi, width)

    def test_sign_variations_matches_reference(self):
        # the Descartes count on an open interval bounds the Sturm count of
        # the square-free part, has its parity, and equals it when 0 or 1
        rng = random.Random(14)
        counts = set()
        for _ in range(600):
            p, lo, hi, _ = random_case(rng)
            seq = squarefree_sturm(p)
            for x, y in ((lo, hi), (lo, F(lo + hi) / 2), (F(lo + 2 * hi) / 3, hi)):
                y = F(y)
                at_y = sign_at(seq[0], y.numerator, y.denominator) == 0
                roots = sturm_count(seq, x) - sturm_count(seq, y) - at_y
                bound = window_count(seq[0], x, y)
                assert bound >= roots and (bound - roots) % 2 == 0
                assert bound == roots or bound >= 2
                counts.add(min(bound, 3))
        assert counts == {0, 1, 2, 3}

    def test_call_matches_fraction_horner(self):
        rng = random.Random(15)
        big = 10**55 + 9
        points = [F(0), F(1), F(-1), F(7), F(-12), F(3, 4), F(-5, 9),
                  F(1, big), F(-big + 2, big), F(big, 3)]
        for _ in range(200):
            p = UniPoly(
                F(rng.randint(-10**rng.randint(1, 30), 10**20), rng.randint(1, 10**25))
                for _ in range(rng.randint(0, 7))
            )
            for x in points:
                assert p(x) == fraction_horner(p.coeffs, x)
            ints, den = p.integer_form
            assert den > 0 and [F(c, den) for c in ints] == list(p.coeffs)

    def test_call_at_ints(self):
        p = poly(F(1, 3), -2, F(5, 7))
        for x in (0, 1, -1, 10**30, -(10**30)):
            assert p(x) == fraction_horner(p.coeffs, F(x))
        assert UniPoly()(F(2, 3)) == 0 and UniPoly().integer_form == ((), 1)

    @pytest.mark.parametrize("model, width, calls", [
        ("t1", None, 2), ("t3", None, 2), ("t3", "2^-40", 2),
    ])
    def test_descartes_test_count_pinned(self, monkeypatch, capsys, models_dir,
                                         model, width, calls):
        # one test on alpha0's (0, eps), then one a cell: Q of t1 has only
        # its rational root at eps, and Q of t3 one irrational root, refined
        # from the cell of the first pass, as every root is, never isolated
        # again; halving to --width takes no test
        seen = []
        real = polynomials.sign_variations

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(polynomials, "sign_variations", counted)
        argv = ["analyze", str(models_dir / f"{model}.json")]
        if width:
            argv += ["--width", width]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(seen) == calls
