"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
without -s they still appear for any failing criterion.
"""

import random
import time
from fractions import Fraction as F

import pytest

from reference import poly_mul
from slopestab.models import IntersectionTable
from slopestab.oracle import fit_expansions, verify_main_theorem
from slopestab.polynomials import UniPoly, isolate_roots
from slopestab.slope import alpha_polys, df_numerator, mu_c, slope_mu, stability_scan
from slopestab.toric import export_table

WIDTH = F(1, 2**20)

FIXTURE_CS = {
    "p2": [F(1, 3), F(1, 2), F(2, 3), F(1)],
    "p2_o2": [F(1, 2), F(1), F(3, 2), F(2)],
    "f1_ample": [F(1, 4), F(1, 2), F(3, 4), F(1)],
}

KNOWN_DF = {
    ("p2", F(1, 2)): F(1, 8),
    ("p2_o2", F(1)): F(1, 8),
    ("p2", F(1)): F(0),
    ("f1_ample", F(1)): F(-2, 27),
}


def emit(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def fits(load_model):
    out = {}
    for name, cs in FIXTURE_CS.items():
        for c, fit in zip(cs, fit_expansions(load_model(name), cs)):
            out[(name, c)] = fit
    return out


def test_criterion_1_main_theorem(load_model, fits):
    ok = True
    for name, cs in FIXTURE_CS.items():
        model = load_model(name)
        start = time.monotonic()
        for c in cs:
            rec = verify_main_theorem(model, c)
            ok = ok and rec.exact_match and rec.sign_match
            ok = ok and all(s.m <= 60 for s in rec.samples)
            if (name, c) in KNOWN_DF:
                ok = ok and rec.df_oracle == KNOWN_DF[(name, c)]
        ok = ok and time.monotonic() - start < 60
    emit(1, ok, "oracle df equals Q(c)/alpha0(0) exactly on all 12 fixture pairs")


def test_criterion_2_coefficient_identities(load_model, fits):
    ok = True
    for (name, c), fit in fits.items():
        pair = alpha_polys(export_table(load_model(name)))
        b0, b1 = pair.alpha0_integral(c), pair.numerator_integral(c)
        ok = ok and fit.b[0] == b0 and fit.b[1] == b1
    emit(2, ok, "b0 and b1 match the alpha integrals for every fixture/c pair")


def test_criterion_3_plane_semistable(load_model):
    report = stability_scan(alpha_polys(export_table(load_model("p2"))), WIDTH)
    ok = report.destabilizing == () and report.Q(1) == 0
    emit(3, ok, "T1 has no destabilizing interval on (0,1] and Q(1) = 0")


def test_criterion_4_instability_detected(load_model):
    report = stability_scan(alpha_polys(export_table(load_model("f1_ample"))), WIDTH)
    roots = isolate_roots(report.Q, 0, 1, WIDTH)
    ok = len(roots) == 1
    if ok:
        (iv,) = roots
        resolvent = UniPoly([F(-45), F(30), F(25)])  # vanishes at 3(sqrt(6)-1)/5
        ok = (
            not iv.is_exact
            and iv.hi - iv.lo <= WIDTH
            and resolvent(iv.lo) < 0 < resolvent(iv.hi)
            and len(report.destabilizing) == 1
            and report.destabilizing[0].left == iv
            and report.destabilizing[0].right.lo == 1
            and report.destabilizing[0].right_closed
        )
    emit(4, ok, "T3 destabilized exactly on (3(sqrt(6)-1)/5, 1], root width <= 2^-20")


def test_criterion_5_ehrhart_rr(load_model):
    ok = True
    for name in ("p2", "p2_o2", "p3", "f1_ample", "f1_bignef"):
        model = load_model(name)
        pair = alpha_polys(export_table(model))
        (fit,) = fit_expansions(model, [1])
        ok = ok and fit.a[0] == pair.alpha0(0) and fit.a[1] == pair.alpha1(0)
        if name == "p3":
            ok = ok and fit.a == (F(1, 6), F(1), F(11, 6), F(1))
            ok = ok and pair.alpha0(0) == F(1, 6) and pair.alpha1(0) == 1
    emit(5, ok, "a0 = alpha0(0) and a1 = alpha1(0) on 5 toric fixtures incl. P3")


def test_criterion_6_two_path_consistency(load_model, agrees_with_polytopes):
    ok = True
    for name in ("p2", "p2_o2", "p3", "f1_ample", "f1_bignef",
                 "p4_o2_codim2", "p1_cubed_point", "blp3_014"):
        ok = ok and agrees_with_polytopes(load_model(name))
    for s in (F(1, 4), F(1, 2), F(1)):
        ok = ok and agrees_with_polytopes(load_model("f1_bignef"), s)
    emit(6, ok, "localized tables match polytope volumes at n+3 nodes per model")


def test_criterion_7_scaling_law(load_model):
    base = export_table(load_model("p2"))
    report1 = stability_scan(alpha_polys(base), WIDTH)
    ok = True
    for d in (2, 3):
        scaled = IntersectionTable(f"T1 x{d}", 2, 1, (d * d, 0, -1), (-3 * d, -1), F(d))
        report_d = stability_scan(alpha_polys(scaled), WIDTH)
        ok = ok and report_d.epsilon == d * report1.epsilon
        for i in range(1, 9):
            c = F(i * d, 8)
            ok = ok and report_d.verdict(c) == report1.verdict(c / d)
    emit(7, ok, "scaling L by d in {2,3} scales epsilon and the verdict set by d")


def test_criterion_8_perturbation_limit(load_model):
    mx = export_table(load_model("f1_bignef"))
    c = F(1, 2)
    base_pair = alpha_polys(mx)
    ok = slope_mu(base_pair) == 3
    # symbolic s = 0 specialization reproduces the base table exactly
    ok = ok and mu_c(alpha_polys(mx.specialize(0)), c) == mu_c(base_pair, c)
    gaps = [
        abs(mu_c(alpha_polys(mx.specialize(s)), c) - mu_c(base_pair, c))
        for s in (F(1, 10), F(1, 100), F(1, 1000))
    ]
    ok = ok and gaps[0] > gaps[1] > gaps[2] > 0
    emit(8, ok, "mu_c(L + eps H) - mu_c(L) -> 0 monotonically, mu = 3 matches P2")


def test_criterion_9_root_isolation_soundness():
    rng = random.Random(0)
    primes = [2, 3, 5, 6, 7]
    ok = True
    for _ in range(100):
        roots = set()
        factors = [F(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 3)):
            r = F(rng.randint(-28, 28), 4)
            if r not in roots:
                roots.add(r)
                factors = poly_mul(factors, [-r, F(1)])
        if len(factors) <= 3 and rng.random() < 0.5:
            m = rng.choice(primes)  # x^2 - m has the irrational roots +-sqrt(m)
            factors = poly_mul(factors, [F(-m), 0, F(1)])
            roots.update({("sqrt", m), ("-sqrt", m)})
        found = isolate_roots(UniPoly(factors), -8, 8, WIDTH)
        expected = [
            r for r in roots
            if isinstance(r, F) and -8 < r <= 8 or isinstance(r, tuple)
        ]
        ok = ok and len(found) == len(expected)
        for r in expected:
            if isinstance(r, F):
                hits = [iv for iv in found if iv.is_exact and iv.lo == r]
            else:
                sign, m = (1, r[1]) if r[0] == "sqrt" else (-1, r[1])
                # independent bisection oracle for sign * sqrt(m)
                lo, hi = (F(0), F(8)) if sign > 0 else (F(-8), F(0))
                while hi - lo > WIDTH:
                    mid = (lo + hi) / 2
                    if sign * (mid * mid - m) < 0:
                        lo = mid
                    else:
                        hi = mid
                hits = [iv for iv in found if iv.lo <= hi and lo <= iv.hi]
            ok = ok and len(hits) == 1
    emit(9, ok, "isolate_roots matches the bisection oracle on 100 random polys")
