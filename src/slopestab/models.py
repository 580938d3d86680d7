"""Intersection-table data model and model-file ingestion.

A model document is JSON with a top-level "kind" of "table", "mixed-table"
or "toric".  All rationals travel as integers or decimal-free "p/q" strings
so exactness survives any document toolchain; unknown fields are rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, gcd, lcm

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(-?\d+))?")
# int() refuses a decimal string of more digits than this (Python's default
# sys.get_int_max_str_digits()); longer literals are refused here by name
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS  # the least int of more digits
# a key longer than this is named in messages by its length, not echoed
_MAX_ECHO = 64


class ModelError(ValueError):
    """Refused input, the one refusal type: a malformed or invalid model, a bad
    flag value, or a resource limit.  The CLI exits 2 on it, 4 on any other."""


def parse_rational(value) -> tuple[int, int]:
    """Parse an exact rational from an int or a "p/q" string, as the pair
    (p, q) of its literal with q > 0, not reduced: "2/4" is (2, 4).  Table
    entries stay integers over one lcm of these q; the flags and epsilon,
    which need a Fraction, wrap the pair in one."""
    if isinstance(value, bool):
        raise ModelError(f"expected rational, got boolean {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        m = _RATIONAL_RE.fullmatch(value.strip())
        if not m:
            raise ModelError(f"malformed rational literal {value!r}")
        if len(value) > MAX_LITERAL_DIGITS:  # a shorter text has no part that long
            longest = max(len(part.lstrip("-")) for part in m.groups(""))
            if longest > MAX_LITERAL_DIGITS:
                raise ModelError(f"rational literal too long: a part of {longest} digits, "
                                 f"limit {MAX_LITERAL_DIGITS}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den <= 0:
            raise ModelError(f"non-positive denominator in {value!r}")
        return num, den
    raise ModelError(
        f"rationals must be integers or 'p/q' strings, got {type(value).__name__}"
    )


def _format_pair(num: int, den: int) -> str:
    """The "num/den" text of a reduced pair with den > 0, or "num" when
    den == 1; parse_rational reads it back.  A part of more than
    MAX_LITERAL_DIGITS digits, which parse_rational would refuse, is refused
    here."""
    if not -_LITERAL_BOUND < num < _LITERAL_BOUND or den >= _LITERAL_BOUND:
        raise ModelError(f"rational too long to write: a part of more than "
                         f"{MAX_LITERAL_DIGITS} digits")
    return str(num) if den == 1 else f"{num}/{den}"


def _format_ratio(num: int, den: int) -> str:
    """_format_pair of num/den, for den > 0, reduced by one gcd: how a
    table entry or a polynomial coefficient of an integer form prints."""
    return _format_pair(num // (g := gcd(num, den)), den // g)


def format_rational(x: Fraction) -> str:
    """The "p/q" text of x, or "p" when x is an integer: _format_pair of its
    numerator and denominator."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return _format_pair(x.numerator, x.denominator)


class IntersectionTable:
    """The finitely many intersection numbers that determine the slope invariants.

    The entries are held in one integer form over a denominator den > 0,
    which need not be the least: ae[k] / den is ((pi*L)^(n-k) . E^k) for
    k = 0..n and kae[k] / den is (K_X' . (pi*L)^(n-1-k) . E^k) for
    k = 0..n-1, ae and kae tuples of ints, together with the nef threshold
    epsilon, a Fraction.  Immutable by convention; two tables are equal when
    they are of one class and agree on label, n, epsilon and (den, ae, kae)
    reduced by one gcd, so one table over two denominators compares equal.
    """

    def __init__(self, label: str, n: int, den: int, ae: tuple[int, ...],
                 kae: tuple[int, ...], epsilon: Fraction):
        self.label, self.n, self.den = label, n, den
        self.ae, self.kae, self.epsilon = ae, kae, epsilon
        if self.den <= 0:
            raise ModelError(f"denominator must be positive, got {_show_number(self.den)}")
        if self.epsilon <= 0:
            raise ModelError(f"epsilon must be positive, got {format_rational(self.epsilon)}")
        if self.n < 1:
            raise ModelError(f"dimension must be positive, got {self.n}")
        if len(self.ae) != self.n + 1:
            raise ModelError(f"AE must have {self.n + 1} entries, got {len(self.ae)}")
        if len(self.kae) != self.n:
            raise ModelError(f"KAE must have {self.n} entries, got {len(self.kae)}")

    def _key(self):
        form = self.den, *self.ae, *self.kae  # flat: n fixes the lengths of AE and KAE
        g = gcd(*form)
        return self.label, self.n, self.epsilon, *(x // g for x in form)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class MixedTable(IntersectionTable):
    """Two-polarization table for L + sH perturbations.

    mixed[(i, j, k)] / den houses ((pi*L)^i . (pi*H)^j . E^k) over
    i+j+k = n and kmixed the analogous K_X' pairings over i+j+k = n-1, both
    maps of ints over the table's den.  The j = 0 slice is the table of L
    itself: its ints must equal AE and KAE.  Equality and hash ignore mixed
    and kmixed.
    """

    def __init__(self, label: str, n: int, den: int, ae: tuple[int, ...],
                 kae: tuple[int, ...], epsilon: Fraction,
                 mixed: dict[tuple[int, int, int], int],
                 kmixed: dict[tuple[int, int, int], int]):
        super().__init__(label, n, den, ae, kae, epsilon)
        self.mixed, self.kmixed = mixed, kmixed
        for deg, entries, name in (
            (self.n, self.mixed, "MIX"),
            (self.n - 1, self.kmixed, "KMIX"),
        ):
            expected = {
                (i, j, deg - i - j)
                for i in range(deg + 1)
                for j in range(deg + 1 - i)
            }
            if set(entries) != expected:
                raise ModelError(f"{name} must cover exactly the degree-{deg} index simplex")
        n = self.n
        errors = [
            f"MIX j=0 slice disagrees with AE at k={k}"
            for k in range(n + 1)
            if self.mixed[(n - k, 0, k)] != self.ae[k]
        ] + [
            f"KMIX j=0 slice disagrees with KAE at k={k}"
            for k in range(n)
            if self.kmixed[(n - 1 - k, 0, k)] != self.kae[k]
        ]
        if errors:
            raise ModelError("; ".join(errors))

    def specialize(self, s) -> IntersectionTable:
        """Single-polarization table of L + sH, exact in s: entry k of a
        degree-deg index map is sum_j C(deg-k, j) s^j index[(deg-k-j, j, k)].
        For s = p/q the table is over q^n den, and the integer of entry k,
        q^(n-deg+k) sum_j C(deg-k, j) p^j q^(deg-k-j) index[(deg-k-j, j, k)],
        is summed by Horner."""
        s = Fraction(s)
        p, q, n = s.numerator, s.denominator, self.n

        def entries(index, deg):
            for k in range(deg + 1):
                acc, scale = 0, q ** (n - deg + k)
                for j in range(deg - k, -1, -1):
                    acc = acc * p + comb(deg - k, j) * index[(deg - k - j, j, k)] * scale
                    scale *= q
                yield acc

        label = self.label if s == 0 else f"{self.label} [s={format_rational(s)}]"
        return IntersectionTable(label, n, q**n * self.den, tuple(entries(self.mixed, n)),
                                 tuple(entries(self.kmixed, n - 1)), self.epsilon)


def _require_keys(doc: dict, required: set[str], optional: set[str] = frozenset()):
    keys = set(doc)
    missing = required - keys
    if missing:
        raise ModelError(f"missing required field(s): {', '.join(sorted(missing))}")
    unknown = keys - required - optional
    if unknown:
        raise ModelError(f"unknown field(s): {', '.join(sorted(unknown))}")


def _is_int(x) -> bool:
    """Whether x is an int and not a bool, the one test of an integer
    field, coefficient or index."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_int(doc, key) -> int:
    v = doc[key]
    if not _is_int(v):
        raise ModelError(f"field {key!r} must be an integer")
    return v


def _parse_rational_list(doc, key) -> tuple[tuple[int, int], ...]:
    v = doc[key]
    if not isinstance(v, list):
        raise ModelError(f"field {key!r} must be a list")
    return tuple(parse_rational(x) for x in v)


def _show_key(raw: str) -> str:
    return repr(raw) if len(raw) <= _MAX_ECHO else f"of {len(raw)} characters"


def _show_number(x) -> str:
    """str(x) of an int or Fraction; past the MAX_LITERAL_DIGITS digits that
    str() writes, "a number of N digits", N those of its longer part."""
    a = max(abs(x.numerator), x.denominator)
    if a < _LITERAL_BOUND:
        return str(x)
    digits = (a.bit_length() - 1) * 3 // 10  # 10**digits <= a, as 3/10 < log10(2)
    while 10**digits <= a:
        digits += 1
    return f"a number of {digits} digits"


def _unique_keys(pairs) -> dict:
    """object_pairs_hook of the JSON decoder: a repeated key is refused, not
    overwritten by its last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ModelError(f"repeated key {_show_key(key)} in a JSON object")
        seen.add(key)
    return dict(pairs)


# one decoder for every document: json.loads with a hook would build a new
# decoder, and its scanner, per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_index_map(doc, key, degree) -> dict[tuple[int, int, int], tuple[int, int]]:
    v = doc[key]
    if not isinstance(v, dict):
        raise ModelError(f"field {key!r} must be an object")
    out = {}
    for raw, val in v.items():
        parts = raw.split(",")
        if len(parts) != 3:
            raise ModelError(f"{key} key {_show_key(raw)} is not of the form 'i,j,k'")
        if len(raw) > MAX_LITERAL_DIGITS:  # a shorter key has no index that long
            longest = max(len(p.strip().lstrip("+-")) for p in parts)
            if longest > MAX_LITERAL_DIGITS:  # too long for int(): refused without echoing it
                raise ModelError(f"{key} key too long: an index of {longest} digits, "
                                 f"limit {MAX_LITERAL_DIGITS}")
        try:
            idx = tuple(map(int, parts))
        except ValueError as exc:
            raise ModelError(f"{key} key {_show_key(raw)} is not integral") from exc
        if min(idx) < 0 or sum(idx) != degree:
            raise ModelError(f"{key} key {_show_key(raw)} outside the degree-{degree} "
                             "simplex")
        if idx in out:
            raise ModelError(f"{key} key {_show_key(raw)} repeats the index "
                             f"{','.join(map(str, idx))}")
        out[idx] = parse_rational(val)
    return out


def parse_model(data):
    """Parse a model document (bytes, str or already-decoded dict).

    Returns an IntersectionTable, MixedTable or ToricModel according to the
    document's "kind"; every rational is parsed exactly, and a table's
    entries are put over one lcm of their literals' denominators.  Text is
    decoded by one module-level JSON decoder, which refuses a repeated key;
    a leading byte-order mark is refused with json.loads's message.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(str(exc)) from exc
    if isinstance(data, str):
        if data.startswith("\ufeff"):  # json.loads's refusal: the decoder has none
            raise ModelError("malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                             "line 1 column 1 (char 0)")
        try:
            doc = _DECODER.decode(data)
        except ModelError:  # a repeated key, refused by _unique_keys
            raise
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
            raise ModelError(f"malformed JSON: {exc}") from exc
        except ValueError as exc:  # only int() raises others: a number past its digit limit
            raise ModelError(f"malformed JSON: a number of more than {MAX_LITERAL_DIGITS} "
                             "digits") from exc
    else:
        doc = data
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    kind = doc.get("kind")
    if kind in ("table", "mixed-table"):
        map_keys = ("MIX", "KMIX") if kind == "mixed-table" else ()
        _require_keys(doc, {"kind", "label", "n", "AE", "KAE", "epsilon", *map_keys})
        label = str(doc["label"])
        n = _parse_int(doc, "n")
        lists = (_parse_rational_list(doc, "AE"), _parse_rational_list(doc, "KAE"))
        maps = [_parse_index_map(doc, key, n - i) for i, key in enumerate(map_keys)]
        epsilon = Fraction(*parse_rational(doc["epsilon"]))
        den = lcm(*(q for pairs in (*lists, *(m.values() for m in maps)) for _, q in pairs))
        entries = [tuple(p * (den // q) for p, q in pairs) for pairs in lists]
        maps = [{k: p * (den // q) for k, (p, q) in m.items()} for m in maps]
        return (MixedTable if maps else IntersectionTable)(label, n, den, *entries, epsilon, *maps)
    if kind == "toric":
        from .toric import parse_toric_model

        return parse_toric_model(doc)
    raise ModelError(f"unknown model kind {kind!r}")


def serialize_model(table: IntersectionTable) -> dict:
    """Inverse of parse_model on tables and mixed tables (bit-exact rationals)."""
    doc = {
        "kind": "mixed-table" if isinstance(table, MixedTable) else "table",
        "label": table.label,
        "n": table.n,
        "AE": [_format_ratio(x, table.den) for x in table.ae],
        "KAE": [_format_ratio(x, table.den) for x in table.kae],
    }
    if isinstance(table, MixedTable):
        for key, entries in (("MIX", table.mixed), ("KMIX", table.kmixed)):
            doc[key] = {
                ",".join(map(str, k)): _format_ratio(v, table.den)
                for k, v in sorted(entries.items())
            }
    doc["epsilon"] = format_rational(table.epsilon)
    return doc


def validate(table) -> list[str]:
    """Hypothesis checks on a parsed table beyond its structure, one message
    per failed check; an empty list means valid."""
    if table.ae[0] <= 0:
        return [f"not big: top self-intersection {_format_ratio(table.ae[0], table.den)} <= 0"]
    return []
