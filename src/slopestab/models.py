"""Intersection-table data model and model-file ingestion.

A model document is JSON with a top-level "kind" of "table", "mixed-table"
or "toric".  All rationals travel as integers or decimal-free "p/q" strings
so exactness survives any document toolchain; unknown fields are rejected.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(-?\d+))?")
# int() refuses a decimal string of more digits than this (Python's default
# sys.get_int_max_str_digits()); longer literals are refused here by name
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS  # the least int of more digits
# a key longer than this is named in messages by its length, not echoed
_MAX_ECHO = 64


class ModelError(ValueError):
    """Malformed or invariant-violating model document."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a "p/q" string."""
    if isinstance(value, bool):
        raise ModelError(f"expected rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.fullmatch(value.strip())
        if not m:
            raise ModelError(f"malformed rational literal {value!r}")
        longest = max(len(part.lstrip("-")) for part in m.groups(""))
        if longest > MAX_LITERAL_DIGITS:
            raise ModelError(f"rational literal too long: a part of {longest} digits, "
                             f"limit {MAX_LITERAL_DIGITS}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den <= 0:
            raise ModelError(f"non-positive denominator in {value!r}")
        return Fraction(num, den)
    raise ModelError(
        f"rationals must be integers or 'p/q' strings, got {type(value).__name__}"
    )


def format_rational(x: Fraction) -> str:
    """The "p/q" text of x, or "p" when x is an integer; parse_rational
    reads it back."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not -_LITERAL_BOUND < x.numerator < _LITERAL_BOUND or x.denominator >= _LITERAL_BOUND:
        raise ModelError(f"rational too long to write: a part of more than "
                         f"{MAX_LITERAL_DIGITS} digits")
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class IntersectionTable:
    """The finitely many intersection numbers that determine the slope invariants.

    ae[k] houses ((pi*L)^(n-k) . E^k) for k = 0..n and kae[k] houses
    (K_X' . (pi*L)^(n-1-k) . E^k) for k = 0..n-1, together with the nef
    threshold epsilon.
    """

    label: str
    n: int
    ae: tuple[Fraction, ...]
    kae: tuple[Fraction, ...]
    epsilon: Fraction

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ModelError(f"epsilon must be positive, got {format_rational(self.epsilon)}")
        if self.n < 1:
            raise ModelError(f"dimension must be positive, got {self.n}")
        if len(self.ae) != self.n + 1:
            raise ModelError(f"AE must have {self.n + 1} entries, got {len(self.ae)}")
        if len(self.kae) != self.n:
            raise ModelError(f"KAE must have {self.n} entries, got {len(self.kae)}")


@dataclass(frozen=True)
class MixedTable(IntersectionTable):
    """Two-polarization table for L + sH perturbations.

    mixed[(i, j, k)] houses ((pi*L)^i . (pi*H)^j . E^k) over i+j+k = n and
    kmixed the analogous K_X' pairings over i+j+k = n-1.  The j = 0 slice
    is the table of L itself: it must agree with AE and KAE.
    """

    mixed: dict[tuple[int, int, int], Fraction] = field(compare=False)
    kmixed: dict[tuple[int, int, int], Fraction] = field(compare=False)

    def __post_init__(self):
        super().__post_init__()
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
        degree-deg index map is sum_j C(deg-k, j) s^j index[(deg-k-j, j, k)],
        summed by Horner in s."""
        s = Fraction(s)

        def entries(index, deg):
            for k in range(deg + 1):
                acc = 0
                for j in range(deg - k, -1, -1):
                    acc = acc * s + comb(deg - k, j) * index[(deg - k - j, j, k)]
                yield acc

        label = self.label if s == 0 else f"{self.label} [s={format_rational(s)}]"
        return IntersectionTable(label, self.n, tuple(entries(self.mixed, self.n)),
                                 tuple(entries(self.kmixed, self.n - 1)), self.epsilon)


def _require_keys(doc: dict, required: set[str], optional: set[str] = frozenset()):
    keys = set(doc)
    missing = required - keys
    if missing:
        raise ModelError(f"missing required field(s): {', '.join(sorted(missing))}")
    unknown = keys - required - optional
    if unknown:
        raise ModelError(f"unknown field(s): {', '.join(sorted(unknown))}")


def _parse_int(doc, key) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ModelError(f"field {key!r} must be an integer")
    return v


def _parse_rational_list(doc, key) -> tuple[Fraction, ...]:
    v = doc[key]
    if not isinstance(v, list):
        raise ModelError(f"field {key!r} must be a list")
    return tuple(parse_rational(x) for x in v)


def _show_key(raw: str) -> str:
    return repr(raw) if len(raw) <= _MAX_ECHO else f"of {len(raw)} characters"


def _unique_keys(pairs) -> dict:
    """object_pairs_hook for json.loads: a repeated key is refused, not
    overwritten by its last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ModelError(f"repeated key {_show_key(key)} in a JSON object")
        seen.add(key)
    return dict(pairs)


def _parse_index_map(doc, key, degree) -> dict[tuple[int, int, int], Fraction]:
    v = doc[key]
    if not isinstance(v, dict):
        raise ModelError(f"field {key!r} must be an object")
    out = {}
    for raw, val in v.items():
        shown = _show_key(raw)
        parts = raw.split(",")
        if len(parts) != 3:
            raise ModelError(f"{key} key {shown} is not of the form 'i,j,k'")
        longest = max(len(p.strip().lstrip("+-")) for p in parts)
        if longest > MAX_LITERAL_DIGITS:  # too long for int(): refused without echoing it
            raise ModelError(f"{key} key too long: an index of {longest} digits, "
                             f"limit {MAX_LITERAL_DIGITS}")
        try:
            idx = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ModelError(f"{key} key {shown} is not integral") from exc
        if min(idx) < 0 or sum(idx) != degree:
            raise ModelError(f"{key} key {shown} outside the degree-{degree} simplex")
        if idx in out:
            raise ModelError(f"{key} key {shown} repeats the index {','.join(map(str, idx))}")
        out[idx] = parse_rational(val)
    return out


def parse_model(data):
    """Parse a model document (bytes, str or already-decoded dict).

    Returns an IntersectionTable, MixedTable or ToricModel according to the
    document's "kind"; every rational is parsed exactly.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            doc = json.loads(data, object_pairs_hook=_unique_keys)
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
        entries = (_parse_rational_list(doc, "AE"), _parse_rational_list(doc, "KAE"))
        maps = [_parse_index_map(doc, key, n - i) for i, key in enumerate(map_keys)]
        epsilon = parse_rational(doc["epsilon"])
        return (MixedTable if maps else IntersectionTable)(label, n, *entries, epsilon, *maps)
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
        "AE": [format_rational(x) for x in table.ae],
        "KAE": [format_rational(x) for x in table.kae],
    }
    if isinstance(table, MixedTable):
        for key, entries in (("MIX", table.mixed), ("KMIX", table.kmixed)):
            doc[key] = {
                ",".join(map(str, k)): format_rational(v) for k, v in sorted(entries.items())
            }
    doc["epsilon"] = format_rational(table.epsilon)
    return doc


def validate(table) -> list[str]:
    """Hypothesis checks on a parsed table beyond its structure, one message
    per failed check; an empty list means valid."""
    if table.ae[0] <= 0:
        return [f"not big: top self-intersection {format_rational(table.ae[0])} <= 0"]
    return []
