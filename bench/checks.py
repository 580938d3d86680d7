"""Output checks for every benchmark op, against a small exact reference.

Nothing here imports `slopestab`: the reference recomputes the slope
invariants of a table document with its own Fraction arithmetic, and the
destabilizing set is verified with its own Sturm root counting.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial

from corpus import fmt, specialize


def parse_q(text) -> Fraction:
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


# ---------------------------------------------------------------------------
# dense polynomials: lists of Fractions, constant term first

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _scale(p, r):
    return _trim([c * r for c in p])


def _ev(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _deriv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _integ(p):
    return _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)])


def _rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p[:-1])
    return p


def _quot(p, q):
    p, out = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q) and p:
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        out[shift] = f
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p[:-1])
    return _trim(out)


def _squarefree(p):
    a, b = p, _deriv(p)
    while b:
        a, b = b, _rem(a, b)
    return _quot(p, a)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Sturm:
    """Distinct-root counting for a nonzero square-free polynomial."""

    def __init__(self, p):
        seq = [p, _deriv(p)]
        while seq[-1]:
            seq.append(_scale(_rem(seq[-2], seq[-1]), -1))
        self.seq = seq[:-1]
        self.p = p

    def _var(self, x):
        signs = [s for s in (_sign(_ev(q, x)) for q in self.seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def count(self, a, b) -> int:
        """Roots in (a, b]; zero entries are dropped, so a root at a is
        not counted and a root at b is."""
        return self._var(a) - self._var(b)


# ---------------------------------------------------------------------------
# the reference: slope invariants of a table

class Reference:
    def __init__(self, n, ae, kae, eps, label=None):
        self.n, self.eps, self.label = n, Fraction(eps), label
        self.alpha0 = _trim(
            [comb(n, k) * (-1) ** k * Fraction(ae[k]) / factorial(n) for k in range(n + 1)]
        )
        self.alpha1 = _trim(
            [
                comb(n - 1, k) * (-1) ** k * Fraction(kae[k]) / (-2 * factorial(n - 1))
                for k in range(n)
            ]
        )
        self.mu = _ev(self.alpha1, 0) / _ev(self.alpha0, 0)
        self.A0 = _integ(self.alpha0)
        self.N = _integ(_add(self.alpha1, _scale(_deriv(self.alpha0), Fraction(1, 2))))
        self.Q = _add(_scale(self.A0, self.mu), _scale(self.N, -1))
        core = _squarefree(self.Q) if self.Q else []
        while core and core[0] == 0:  # Q(0) = 0: divide out the root at 0
            core = core[1:]
        self.sturm = Sturm(core) if core else None

    @classmethod
    def from_doc(cls, doc, s=None):
        """Table of a table/mixed-table document; with s, of L + sH."""
        n, eps = doc["n"], parse_q(doc["epsilon"])
        if s is None:
            return cls(n, [parse_q(x) for x in doc["AE"]],
                       [parse_q(x) for x in doc["KAE"]], eps, doc["label"])
        mix = {tuple(map(int, k.split(","))): parse_q(v) for k, v in doc["MIX"].items()}
        kmix = {tuple(map(int, k.split(","))): parse_q(v) for k, v in doc["KMIX"].items()}
        return cls(n, specialize(mix, n, s), specialize(kmix, n - 1, s), eps)

    def mu_c(self, c):
        return _ev(self.N, c) / _ev(self.A0, c)

    def q(self, c):
        return _ev(self.Q, c)

    def verdict(self, c):
        if not self.Q:
            return "flat"
        return {1: "positive", -1: "negative", 0: "zero"}[_sign(self.q(c))]

    def roots_inside(self, a, b) -> int:
        """Distinct roots of Q in the open interval (a, b), 0 < a < b."""
        return self.sturm.count(a, b) - (self.q(b) == 0)

    def _split(self, a, b):
        m, k = (a + b) / 2, 3
        while self.q(m) == 0:
            m, k = (a * (k - 1) + b) / k, k + 1
        return m

    def never_negative(self, a, b) -> bool:
        """Q >= 0 on the closed interval [a, b], 0 <= a <= b <= eps."""
        if self.q(a) < 0 or self.q(b) < 0:
            return False
        if not self.Q or a == b:
            return True
        inside = self.roots_inside(a, b)
        if inside == 0:
            return self.q((a + b) / 2) >= 0
        if inside == 1 and self.q(a) != 0 and self.q(b) != 0:
            # one sign change at most: each side takes its end's sign
            return True
        m = self._split(a, b)
        return self.never_negative(a, m) and self.never_negative(m, b)


# ---------------------------------------------------------------------------
# output parsers

def _poly(text):
    return [] if text == "0" else [Fraction(x) for x in text.split()]


def _kv(lines):
    out = []
    for line in lines:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed line {line!r}")
        out.append((key, value))
    return out


_ENDPOINT = r"(?:\((-?\d+(?:/\d+)?), (-?\d+(?:/\d+)?)\]|(-?\d+(?:/\d+)?))"
_INTERVAL = re.compile(rf"\({_ENDPOINT}, {_ENDPOINT}([)\]])")


def _endpoint(groups):
    lo, hi, exact = groups
    if exact is not None:
        return Fraction(exact), Fraction(exact)
    return Fraction(lo), Fraction(hi)


def parse_intervals(text):
    """'none' / 'flat ...' / '(L, R)' items joined by '; '."""
    if text == "none":
        return []
    if text.startswith("flat"):
        return None
    out = []
    for item in text.split("; "):
        m = _INTERVAL.fullmatch(item)
        if not m:
            raise ValueError(f"malformed interval {item!r}")
        out.append((_endpoint(m.groups()[0:3]), _endpoint(m.groups()[3:6]),
                    m.group(7) == "]"))
    return out


def _c_values(args):
    if "--c" not in args:
        return []
    return [Fraction(x) for x in args[args.index("--c") + 1].split(",") if x]


def _width(args):
    text = args[args.index("--width") + 1] if "--width" in args else "1/1048576"
    if text.startswith("2^"):
        return Fraction(1, 2 ** -int(text[2:]))
    return Fraction(text)


# ---------------------------------------------------------------------------
# per-command checks

def _check_intervals(ref: Reference, intervals, width):
    """The reported intervals are exactly the maximal segments of (0, eps]
    where Q < 0: each is negative throughout, Q >= 0 on every gap, and
    every non-exact endpoint isolates one root within `width`."""
    if intervals is None:
        return [] if not ref.Q else ["reported flat, Q is not zero"]
    if not ref.Q:
        return ["Q is identically zero but the output is not flat"]
    probs = []
    prev = (Fraction(0), Fraction(0))
    for i, (left, right, closed) in enumerate(intervals):
        for lo, hi in (left, right):
            if lo == hi:
                if lo not in (0, ref.eps) and ref.q(lo) != 0:
                    probs.append(f"interval {i}: exact endpoint {fmt(lo)} is not a root")
                continue
            if hi - lo > width:
                probs.append(f"interval {i}: endpoint ({fmt(lo)}, {fmt(hi)}] "
                             f"is wider than {fmt(width)}")
            if ref.q(lo) == 0 or ref.q(hi) == 0 or ref.sturm.count(lo, hi) != 1:
                probs.append(f"interval {i}: ({fmt(lo)}, {fmt(hi)}] does not isolate one root")
        # a touching root may separate two intervals that share its bracket
        if left != prev and not (prev[1] <= left[0] and ref.never_negative(prev[1], left[0])):
            probs.append(f"Q is negative before interval {i}: an interval is missing")
        a, b = left[1], right[0]
        if not a < b or ref.roots_inside(a, b) or ref.q((a + b) / 2) >= 0:
            probs.append(f"interval {i}: Q is not negative throughout")
        if closed != (right == (ref.eps, ref.eps) and ref.q(ref.eps) < 0):
            probs.append(f"interval {i}: wrong closing bracket")
        prev = right
    end = (ref.eps, ref.eps)
    if prev != end and not (prev[1] <= ref.eps and ref.never_negative(prev[1], ref.eps)):
        probs.append("Q is negative after the last interval: an interval is missing")
    return probs


def check_analyze(ref: Reference, args, out):
    lines = out.splitlines()
    try:
        kv = _kv(lines)
        head = dict(kv[:8])
        probs = []
        expect = {
            "n": str(ref.n),
            "epsilon": fmt(ref.eps),
            "mu": fmt(ref.mu),
        }
        if ref.label is not None:
            expect["label"] = ref.label
        for key, value in expect.items():
            if head.get(key) != value:
                probs.append(f"{key}: got {head.get(key)!r}, expected {value!r}")
        for key, poly in (("alpha0", ref.alpha0), ("alpha1", ref.alpha1), ("Q", ref.Q)):
            if _poly(head.get(key, "")) != poly:
                probs.append(f"{key} differs from the reference")
        probs += _check_intervals(ref, parse_intervals(head["destabilizing"]), _width(args))
        cs = _c_values(args)
        rest = kv[8:]
        if len(rest) != 3 * len(cs):
            return probs + [f"expected {len(cs)} c blocks"]
        for i, c in enumerate(cs):
            block = dict(rest[3 * i: 3 * i + 3])
            mu_c = ref.mu_c(c)
            verdict = ref.verdict(c)
            if block.get("c") != fmt(c) or block.get("mu_c") != fmt(mu_c):
                probs.append(f"c={fmt(c)}: c or mu_c differs from the reference")
            sign = {1: "positive", -1: "negative", 0: "zero"}[_sign(ref.mu - mu_c)]
            if block.get("verdict") != verdict or verdict not in (sign, "flat"):
                probs.append(f"c={fmt(c)}: verdict {block.get('verdict')!r}, expected {verdict!r}")
        return probs
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return [f"unparsable analyze output: {exc}"]


def check_scan(ref: Reference, args, out):
    steps = int(args[args.index("--steps") + 1]) if "--steps" in args else 20
    rows = ["c,mu,mu_c,Q_sign"]
    for i in range(1, steps + 1):
        c = Fraction(i) * ref.eps / steps
        sign = {1: "+", -1: "-", 0: "0"}[_sign(ref.q(c))]
        rows.append(f"{fmt(c)},{fmt(ref.mu)},{fmt(ref.mu_c(c))},{sign}")
    return [] if out == "\n".join(rows) + "\n" else ["scan rows differ from the reference"]


def check_limit(mixed_doc, args, out):
    (c,) = _c_values(args)
    eps_list = [Fraction(x) for x in args[args.index("--eps") + 1].split(",")]
    lines = []
    for s in eps_list + [Fraction(0)]:
        ref = Reference.from_doc(mixed_doc, s)
        lines.append(f"eps {fmt(s)}: {fmt(ref.mu - ref.mu_c(c))}")
    return [] if out == "\n".join(lines) + "\n" else ["limit values differ from the reference"]


def check_export(toric_doc, out, pn_point=None):
    try:
        table = json.loads(out)
    except ValueError as exc:
        return [f"export output is not JSON: {exc}"]
    n = len(toric_doc["rays"][0])
    probs = []
    kind = "mixed-table" if "H" in toric_doc else "table"
    if table.get("kind") != kind or table.get("n") != n:
        probs.append(f"expected a {kind} of dimension {n}")
    if table.get("label") != toric_doc["label"]:
        probs.append("label not carried over")
    try:
        ae = [parse_q(x) for x in table["AE"]]
        kae = [parse_q(x) for x in table["KAE"]]
        if len(ae) != n + 1 or len(kae) != n or ae[0] <= 0:
            probs.append("AE/KAE shape or positivity wrong")
        if kind == "mixed-table":
            mix = {tuple(map(int, k.split(","))): parse_q(v) for k, v in table["MIX"].items()}
            kmix = {tuple(map(int, k.split(","))): parse_q(v) for k, v in table["KMIX"].items()}
            if ae != [mix.get((n - k, 0, k)) for k in range(n + 1)] or kae != [
                kmix.get((n - 1 - k, 0, k)) for k in range(n)
            ]:
                probs.append("MIX/KMIX j=0 slice disagrees with AE/KAE")
    except (KeyError, ValueError, TypeError) as exc:
        return probs + [f"malformed table: {exc}"]
    if pn_point:
        # P^n with O(d) blown up at a point
        pn, d = pn_point
        sgn = (-1) ** (pn - 1)
        want_ae = [d**pn] + [0] * (pn - 1) + [sgn]
        want_kae = [-(pn + 1) * d ** (pn - 1)] + [0] * (pn - 2) + [(pn - 1) * sgn]
        if ae != want_ae or kae != want_kae or parse_q(table["epsilon"]) != d:
            probs.append("P^n point blow-up differs from its closed form")
    return probs


def check_verify(doc, args, out):
    cs = _c_values(args)
    lines = out.splitlines()
    if not lines or lines[0] != "label c df_oracle df_predicted sign_match exact_match":
        return ["missing verify header"]
    if len(lines) != len(cs) + 1:
        return [f"expected {len(cs)} verify lines"]
    probs = []
    for c, line in zip(cs, lines[1:]):
        fields = line.rsplit(" ", 5)
        if len(fields) != 6 or fields[0] != doc["label"] or fields[1] != fmt(c):
            probs.append(f"malformed verify line {line!r}")
        elif fields[4:] != ["True", "True"] or fields[2] != fields[3]:
            probs.append(f"oracle disagrees at c={fields[1]}: {line!r}")
    return probs


# ---------------------------------------------------------------------------
# corrupted outputs: each must be rejected, or the gate is vacuous

_FLIP = {"positive": "negative", "negative": "positive", "zero": "positive", "flat": "negative"}


def mutants(cmd, out):
    """(name, corrupted output) pairs for an output that passed its check."""
    lines = out.splitlines()
    found = []

    def edit(name, i, new):
        if i is not None and i < len(lines):
            found.append((name, "\n".join(lines[:i] + [new(lines[i])] + lines[i + 1:]) + "\n"))

    def first(prefix):
        return next((i for i, line in enumerate(lines) if line.startswith(prefix)), None)

    if cmd == "analyze":
        edit("flipped verdict", first("verdict: "), lambda line: "verdict: " + _FLIP[line[9:]])
        edit("dropped interval", first("destabilizing: ("),
             lambda line: "destabilizing: " + ("; ".join(line[15:].split("; ")[1:]) or "none"))
        edit("changed mu_c", first("mu_c: "), lambda line: f"mu_c: {fmt(Fraction(line[6:]) + 1)}")
    elif cmd == "scan":
        edit("flipped scan sign", 1, lambda row: row[:-1] + ("+" if row[-1] == "-" else "-"))
    elif cmd == "limit":
        edit("changed limit value", 0,
             lambda line: f"{line.split(': ')[0]}: {fmt(Fraction(line.split(': ')[1]) + 1)}")
    elif cmd == "verify":
        edit("flipped exact_match", 1, lambda line: line[: -len("True")] + "False")
    elif cmd == "export-table":
        doc = json.loads(out)
        doc["AE"][1] = fmt(parse_q(doc["AE"][1]) + 1)
        found.append(("changed AE entry", json.dumps(doc, indent=2) + "\n"))
    return found
