"""Seeded corpus generator for the benchmark workloads.

Nothing from `slopestab` is imported: the program under test only ever
sees the JSON documents written from here.  Each workload is stratified:
what sets an op's cost (dimension, entry size, model family, c) is fixed
per stratum, and the seed draws the rest, so corpora of different seeds
cost about the same.  An op is a dict with the CLI argv (its document
named by file) plus the facts its output check needs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

WORKLOADS = ("tables", "toric-export", "oracle-verify")


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _op(cmd, doc, *args, **check):
    return {"cmd": cmd, "doc": doc, "args": list(args), "check": check}


# ---------------------------------------------------------------------------
# tables: random intersection tables, positivity guaranteed by dominance

def _signed(rng, digits) -> int:
    v = rng.randrange(10 ** (digits - 1), 10**digits)
    return v if rng.random() < 0.5 else -v


def _dominance(ae_tail, n, eps) -> Fraction:
    """sum_{k>=1} C(n,k) eps^k |AE[k]|: AE[0] above this keeps
    alpha0(t) = sum_k C(n,k) (-t)^k AE[k] / n! positive on [0, eps]."""
    return sum(comb(n, k) * eps**k * abs(a) for k, a in enumerate(ae_tail, 1))


def specialize(mix, deg, s):
    """Entries k = 0..deg of L + sH from a degree-`deg` index map (i, j, k):
    sum_j C(deg-k, j) s^j mix[(deg-k-j, j, k)]."""
    return [
        sum(comb(deg - k, j) * s**j * mix[(deg - k - j, j, k)] for j in range(deg - k + 1))
        for k in range(deg + 1)
    ]


def _table_doc(rng, label, n, digits, eps):
    ae_tail = [_signed(rng, digits) for _ in range(n)]
    ae0 = int(_dominance(ae_tail, n, eps)) + rng.randrange(1, 10**digits)
    return {
        "kind": "table",
        "label": label,
        "n": n,
        "AE": [ae0] + ae_tail,
        "KAE": [_signed(rng, digits) for _ in range(n)],
        "epsilon": fmt(eps),
    }


def _mixed_doc(rng, label, n, digits, eps, s_values):
    mix = {
        (i, j, n - i - j): _signed(rng, digits)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }
    kmix = {
        (i, j, n - 1 - i - j): _signed(rng, digits)
        for i in range(n)
        for j in range(n - i)
    }
    # set MIX(n,0,0) = AE[0] above the dominance bound of every
    # specialization L + sH the op uses, and of s = 0
    need = 0
    for s in [Fraction(0)] + list(s_values):
        ae_s = specialize(mix, n, s)
        need = max(need, _dominance(ae_s[1:], n, eps) - (ae_s[0] - mix[(n, 0, 0)]))
    mix[(n, 0, 0)] = int(need) + rng.randrange(1, 10**digits)
    for s in [Fraction(0)] + list(s_values):
        ae_s = specialize(mix, n, s)
        if ae_s[0] <= _dominance(ae_s[1:], n, eps):
            raise AssertionError("dominance bound failed")  # generator bug
    return {
        "kind": "mixed-table",
        "label": label,
        "n": n,
        "AE": [mix[(n - k, 0, k)] for k in range(n + 1)],
        "KAE": [kmix[(n - 1 - k, 0, k)] for k in range(n)],
        "MIX": {f"{i},{j},{k}": v for (i, j, k), v in sorted(mix.items())},
        "KMIX": {f"{i},{j},{k}": v for (i, j, k), v in sorted(kmix.items())},
        "epsilon": fmt(eps),
    }


_EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
_WIDTHS = ("2^-20", "2^-64")
_SMALL_EPS = ("1/2,1/4", "1/3,1/9", "1/5,1/25")
_EPS_LISTS = ("1/10,1/100,1/1000", "1/7,1/49", "1/16,1/256")

# The bulk is drawn from the seed: many small-entry tables whose cost hardly
# varies with the draw.  The big-entry tail is fixed: the cost of
# rational_roots on a 3-5 digit table varies tenfold with how its scaled
# coefficients factor, so a seeded tail would make a corpus's cost a lottery.
# Its strata are sized so a pass takes a few seconds at the seed commit and
# so the tail's 15 heavy ops (>= 0.1 s) hold op_ms_p90 among them.
# (n, digits, table docs, mixed docs, eps lists of the mixed docs)
_BULK = [(n, 1, 4, 1, _SMALL_EPS) for n in range(2, 7)] + [(2, 2, 4, 1, _SMALL_EPS)]
_TAIL = [(2, 5, 2, 0, ()), (2, 4, 1, 0, ()), (3, 4, 2, 0, ()), (4, 3, 3, 0, ()),
         (5, 3, 2, 0, ()), (5, 4, 1, 0, ()), (6, 3, 3, 0, ()),
         (2, 2, 0, 2, _EPS_LISTS), (3, 1, 0, 1, _EPS_LISTS)]


def _c_list(rng, eps, k):
    fracs = sorted(rng.sample(range(1, 9), k))
    return ",".join(fmt(eps * f / 8) for f in fracs)


def _tables_stratum(docs, ops, stream, shape_stream, args_rng, prefix, stratum):
    """Docs and ops of one stratum.  Entries come from `stream`; epsilon,
    width, steps and eps lists, which set an op's cost, from `shape_stream`
    (the same generator when it is None)."""
    n, digits, n_tables, n_mixed, eps_lists = stratum
    for i in range(n_tables + n_mixed):
        name = f"{prefix}{n}-{digits}-{i}.json"
        rng = random.Random(f"{stream}-{name}")
        shape = random.Random(f"{shape_stream}-{name}") if shape_stream else rng
        eps = shape.choice(_EPSILONS)
        if i < n_tables:
            docs[name] = _table_doc(rng, name[:-5], n, digits, eps)
        else:
            eps_list = shape.choice(eps_lists)
            s_values = [Fraction(x) for x in eps_list.split(",")]
            docs[name] = _mixed_doc(rng, name[:-5], n, digits, eps, s_values)
            ops.append(_op("limit", name, "--c", _c_list(args_rng, eps, 1),
                           "--eps", eps_list))
        ops.append(_op("analyze", name, "--c", _c_list(args_rng, eps, 3),
                       "--width", shape.choice(_WIDTHS)))
        ops.append(_op("scan", name, "--steps", str(shape.choice((8, 16, 32)))))


def tables(seed: int):
    """Ops `analyze`, `scan` and `limit` on random table documents."""
    rng = random.Random(f"tables-{seed}")
    docs, ops = {}, []
    for stratum in _BULK:
        _tables_stratum(docs, ops, f"tables-{seed}", "tables-shape", rng, "t", stratum)
    for stratum in _TAIL:
        _tables_stratum(docs, ops, "tables-tail", None, rng, "big", stratum)
    return _with_canaries(docs, ops)


# ---------------------------------------------------------------------------
# toric families (fans written out by hand; no slopestab code)

def _toric_doc(label, rays, cones, L, sigma, H=None):
    doc = {
        "kind": "toric",
        "label": label,
        "rays": [list(r) for r in rays],
        "max_cones": [sorted(c) for c in cones],
        "L": list(L),
        "sigma": sorted(sigma),
    }
    if H is not None:
        doc["H"] = list(H)
    return doc


def projective_space(n, d, k, with_h=False):
    """P^n with O(d), blown up along a codimension-k coordinate subspace
    (k = n: a point)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = list(combinations(range(n + 1), n))
    return _toric_doc(
        f"P{n} O({d}) codim {k}", rays, cones, [0] * n + [d], range(k),
        [0] * n + [1] if with_h else None,
    )


def hirzebruch(a, p, q, sigma, with_h=False):
    """F_a with the ample divisor p*D_2 + q*D_3."""
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return _toric_doc(
        f"F{a} ({p},{q}) sigma {list(sigma)}", rays, cones, [0, 0, p, q], sigma,
        [0, 0, 1, 1] if with_h else None,
    )


def p1_power(n, d, k, with_h=False):
    """(P^1)^n with O(d,...,d), blown up along a codimension-k stratum."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays += [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    cones = [
        tuple(i if plus else i + n for i, plus in enumerate(choice))
        for choice in product((True, False), repeat=n)
    ]
    return _toric_doc(
        f"(P1)^{n} O({d}) codim {k}", rays, cones, [0] * n + [d] * n, range(k),
        [0] * n + [1] * n if with_h else None,
    )


def blown_up_p3(d, sigma, with_h=False):
    """Bl_pt P^3 with dH - E (ample for d >= 2)."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2, 4), (0, 2, 4), (0, 1, 4)]
    return _toric_doc(
        f"Bl P3 {d}H-E sigma {list(sigma)}", rays, cones, [0, 0, 0, d, -1], sigma,
        [0, 0, 0, 2, -1] if with_h else None,
    )


def _relabel(rng, doc):
    """The same model in coordinates changed by a random signed permutation:
    another input with the same exported table, polytope shape and
    bounding-box size, so a fixed heavy model costs the same for every seed."""
    n = len(doc["rays"][0])
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    doc["rays"] = [[signs[d] * ray[perm[d]] for d in range(n)] for ray in doc["rays"]]
    return doc


def _surface(rng, i, size, with_h):
    """The i-th small toric surface: i sets the family (P2, F_a, P1xP1) and
    whether the center is a point or a curve, which set its cost; the seed
    draws the rest.  With ample L every nef threshold here is at least 1,
    so any c in (0, 1] is admissible."""
    kind, point = i % 3, (i // 3) % 2 == 0
    if kind == 0:
        doc = projective_space(2, rng.randint(1, size), 2 if point else 1, with_h)
    elif kind == 1:
        sigma = rng.choice(([0, 1], [1, 2], [2, 3], [0, 3]) if point else ([2], [3]))
        doc = hirzebruch(rng.randint(0, 3), rng.randint(1, size), rng.randint(1, size),
                         sigma, with_h)
    else:
        doc = p1_power(2, rng.randint(1, size), 2 if point else 1, with_h)
    return _relabel(rng, doc)


def _name(docs, prefix, doc):
    name = f"{prefix}{len(docs)}.json"
    doc["label"] = f"{doc['label']} #{len(docs)}"
    docs[name] = doc
    return name


# the scaling axis of toric-export: the largest dimensions, and mixed tables
# (with H), which take n + 3 times the volume samples.  These 26 ops
# outweigh every surface op without H, so op_ms_p90 falls among them.
_EXPORT_HEAVY = (
    lambda: hirzebruch(1, 2, 1, [0, 1], with_h=True),
    lambda: p1_power(2, 1, 2, with_h=True),
    lambda: projective_space(5, 1, 5),
    lambda: projective_space(4, 1, 4),
    lambda: projective_space(4, 2, 2),
    lambda: projective_space(3, 1, 3, with_h=True),
    lambda: projective_space(3, 2, 2),
    lambda: p1_power(3, 1, 3),
    lambda: blown_up_p3(2, [0, 1, 3]),
    lambda: blown_up_p3(3, [0, 3]),
)


def _toric_ops(docs, ops, rng, doc):
    """export-table, analyze and (with H) limit of one toric model; the
    export's output is what the analyze and limit checks read."""
    n = len(doc["rays"][0])
    point = len(doc["sigma"]) == n and len(doc["rays"]) == n + 1
    name = _name(docs, "m", doc)
    export = len(ops)
    ops.append(_op("export-table", name, pn_point=[n, doc["L"][-1]] if point else None))
    ops.append(_op("analyze", name, "--c", _c_list(rng, Fraction(1), 2), export=export))
    if "H" in doc:
        ops.append(_op("limit", name, "--c", _c_list(rng, Fraction(1), 1),
                       "--eps", _EPS_LISTS[len(docs) % len(_EPS_LISTS)], export=export))


def toric_export(seed: int):
    """Ops `export-table`, `analyze` and `limit` on toric families."""
    rng = random.Random(f"toric-export-{seed}")
    docs, ops = {}, []
    for i in range(36):
        _toric_ops(docs, ops, rng, _surface(rng, i, 2, with_h=False))
    for make in _EXPORT_HEAVY:
        _toric_ops(docs, ops, rng, _relabel(rng, make()))
    return _with_canaries(docs, ops)


# ---------------------------------------------------------------------------
# oracle-verify: lattice enumeration on small toric models

# (model, c, --max-m): the scaling axis in dimension and dilation, and one
# three-c op; these outweigh every other op, so op_ms_p90 falls among them
_VERIFY_HEAVY = (
    (lambda: hirzebruch(1, 1, 1, [0, 1]), "1/4,1/2,3/4", None),
    (lambda: hirzebruch(2, 1, 1, [2, 3]), "1/4,1/2,3/4", None),
    (lambda: p1_power(2, 1, 2), "1/4,1/2,3/4", None),
    (lambda: projective_space(4, 1, 4), "1", None),
    (lambda: projective_space(4, 1, 2), "1", None),
    (lambda: projective_space(3, 1, 3), "1/3,2/3", 21),
    (lambda: projective_space(3, 1, 3), "1/2", None),
    (lambda: projective_space(3, 1, 2), "1/2", None),
    (lambda: projective_space(3, 2, 2), "1", None),
    (lambda: projective_space(3, 2, 3), "1", None),
    (lambda: p1_power(3, 1, 3), "1", None),
    (lambda: p1_power(3, 1, 3), "1/2", None),
    (lambda: p1_power(3, 1, 2), "1", None),
    (lambda: blown_up_p3(2, [0, 1, 3]), "1", None),
    (lambda: blown_up_p3(2, [0, 3]), "1", None),
    (lambda: blown_up_p3(2, [4]), "1", None),
    (lambda: blown_up_p3(2, [0, 4]), "1", None),
)


def oracle_verify(seed: int):
    """Ops `verify`: single-c ops bypass any per-(model, m) reuse; multi-c
    ops repeat m-samples across c (all of them when --max-m is given)."""
    rng = random.Random(f"oracle-verify-{seed}")
    docs, ops = {}, []

    def add(doc, c, max_m=None):
        name = _name(docs, "v", doc)
        ops.append(_op("verify", name, "--c", c, *(["--max-m", str(max_m)] if max_m else [])))

    # the box grows as (c's denominator * L's size)^2: keep both small
    for i in range(56):
        add(_surface(rng, i, 1, with_h=False), ("1/2", "1")[i % 2])
    for i in range(14):
        add(_surface(rng, i, 1, with_h=False), ("1/3", "2/3")[i % 2])
    for i in range(14):
        c = ("1/3,2/3", "1/2,1")[i % 2]
        den = max(Fraction(x).denominator for x in c.split(","))
        add(_surface(rng, i, 1, with_h=False), c, den * 6 if i // 2 % 2 else None)
    for make, c, max_m in _VERIFY_HEAVY:
        add(_relabel(rng, make()), c, max_m)
    return _with_canaries(docs, ops)


def _with_canaries(docs, ops):
    """Append one small op of every command on fixed inputs.  Each workload
    then calls into every layer, so no per-layer metric is a constant zero,
    while the layers a workload is about keep over 98% of its time."""
    rng = random.Random("canaries")
    _toric_ops(docs, ops, rng, projective_space(2, 1, 2, with_h=True))
    ops.append(_op("verify", _name(docs, "m", projective_space(2, 1, 2)), "--c", "1"))
    docs["canary-table.json"] = _table_doc(rng, "canary-table", 2, 1, Fraction(1))
    ops.append(_op("analyze", "canary-table.json", "--c", "1/2"))
    docs["canary-mixed.json"] = _mixed_doc(rng, "canary-mixed", 2, 1, Fraction(1),
                                           [Fraction(1, 2)])
    ops.append(_op("limit", "canary-mixed.json", "--c", "1/2", "--eps", "1/2"))
    return docs, ops


GENERATORS = {
    "tables": tables,
    "toric-export": toric_export,
    "oracle-verify": oracle_verify,
}
