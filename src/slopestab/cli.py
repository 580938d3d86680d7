"""Command-line surface: analyze models, scan c-grids to CSV, run oracle
verification, perturbation-limit studies, and toric table export.

Exit codes: 0 success, 2 refused input (a ModelError), 3 theorem-verification
failure, 4 internal fault (any other exception).  All machine-readable
output is exact-rational text, no floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import gcd

from . import oracle as oracle_mod
from .models import (
    IntersectionTable,
    MixedTable,
    ModelError,
    _format_pair,
    _format_ratio,
    format_rational,
    parse_model,
    parse_rational,
    serialize_model,
    validate,
)
from .polynomials import DEFAULT_ISOLATION_WIDTH, UniPoly
from .slope import (
    _mu_c_pairs,
    alpha_polys,
    df_numerator,
    mu_c,
    perturbation_limit,
    slope_mu,
    stability_scan,
)
from .toric import ToricModel, export_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4

# Input bounds: --width bounds the grid level that root refinement reaches,
# and with it the refinement passes and the digits of each printed interval
# end; a scan writes one row per step.
MAX_WIDTH_BITS = 4096
_MIN_WIDTH = Fraction(1, 2**MAX_WIDTH_BITS)
MAX_STEPS = 10000


def _parse_width(text: str) -> Fraction:
    m = re.fullmatch(r"2\^-(\d+)", text.strip())
    if m:
        digits = m.group(1).lstrip("0")
        if len(digits) > MAX_WIDTH_BITS:  # past the limit, and too long for int()
            raise ModelError(f"--width must be at least 2^-{MAX_WIDTH_BITS}, "
                             f"got an exponent of {len(digits)} digits")
        # an exponent past the limit is refused below: cap it before 2^N is built
        w = Fraction(1, 2 ** min(int(digits or 0), MAX_WIDTH_BITS + 1))
    else:
        try:
            w = Fraction(*parse_rational(text))
        except ModelError as exc:
            raise ModelError(f"bad --width value {text!r}: {exc}") from exc
    if w <= 0:
        raise ModelError("--width must be positive")
    if w < _MIN_WIDTH:
        raise ModelError(f"--width must be at least 2^-{MAX_WIDTH_BITS}, got {text}")
    return w


def _parse_rationals(text: str, flag: str) -> list[Fraction]:
    try:
        return [Fraction(*parse_rational(part)) for part in text.split(",") if part]
    except ModelError as exc:
        raise ModelError(f"bad {flag} value {text!r}: {exc}") from exc


def _check_steps(steps: int) -> int:
    if steps < 1:
        raise ModelError(f"--steps must be at least 1, got {steps}")
    if steps > MAX_STEPS:
        raise ModelError(f"--steps must be at most {MAX_STEPS}, got {steps}")
    return steps


# Each flag: its add_argument keywords, and the check that turns its parsed
# text into the value a command reads (None: argparse's value as it is).
FLAGS = {
    "--c": ({"help": "rational parameter(s), e.g. 1/2 or 1/3,1/2"},
            functools.partial(_parse_rationals, flag="--c")),
    "--steps": ({"type": int, "default": 20}, _check_steps),
    "--eps": ({"help": "comma-separated perturbation sizes, e.g. 1/10,1/100"},
              functools.partial(_parse_rationals, flag="--eps")),
    "--max-m": ({"type": int}, None),
    "--width": ({"default": f"1/{DEFAULT_ISOLATION_WIDTH.denominator}",
                 "help": "isolation width, e.g. 2^-20 or 1/1000000"}, _parse_width),
}


def _load_model(path: str):
    """The model in the file at path, opened as given: a trailing slash, an
    empty path or a doubled separator is not normalized away."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise ModelError(str(exc)) from exc
    return parse_model(data)


def _coerce_table(model) -> IntersectionTable:
    """The validated table of any model kind; a toric model is exported first."""
    table = export_table(model) if isinstance(model, ToricModel) else model
    errors = validate(table)
    if errors:
        raise ModelError("; ".join(errors))
    return table


def _poly_line(p: UniPoly) -> str:
    """p's coefficients, constant term first, each printed from p's integer
    form by _format_ratio; "0" for the zero polynomial."""
    ints, den = p.integer_form
    return " ".join(_format_ratio(c, den) for c in ints) if ints else "0"


def _emit(text: str, out_path):
    """Write text to the file at out_path, opened as given, or to stdout."""
    try:
        if out_path:  # encode first, so an unencodable label leaves the file as it was
            data = text.encode("utf-8")
            with open(out_path, "wb") as f:
                f.write(data)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise ModelError(f"cannot write output file: {exc}") from exc
    except ValueError as exc:  # a NUL byte in the path, or a label the output cannot encode
        raise ModelError(str(exc)) from exc


def cmd_analyze(args, model) -> tuple[str, int]:
    """The table's lines up to Q are formatted first, so a value too long
    to write is refused before stability_scan isolates Q's roots; Q is
    built once, here, and handed to the scan."""
    table = _coerce_table(model)
    pair = alpha_polys(table)
    q = df_numerator(pair)
    lines = [
        f"label: {table.label}",
        f"n: {table.n}",
        f"epsilon: {format_rational(pair.epsilon)}",
        f"alpha0: {_poly_line(pair.alpha0)}",
        f"alpha1: {_poly_line(pair.alpha1)}",
        f"mu: {format_rational(pair.mu)}",
        f"Q: {_poly_line(q)}",
    ]
    report = stability_scan(pair, args.width, q)
    intervals = "; ".join(map(str, report.destabilizing)) or "none"
    lines.append(f"destabilizing: {'flat (Q identically zero)' if report.flat else intervals}")
    for c in args.c or []:
        lines.append(f"c: {format_rational(c)}")
        lines.append(f"mu_c: {format_rational(mu_c(pair, c))}")
        lines.append(f"verdict: {report.verdict(c)}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_scan(args, model) -> tuple[str, int]:
    """One CSV row c, mu, mu_c, Q_sign at each c = i epsilon / steps,
    i = 1..steps, built from integer pairs: c reduced by one gcd, mu_c from
    one _mu_c_pairs kernel over the grid, and Q_sign, the sign of
    Q(c) = (mu - mu_c) int_0^c alpha0, as the sign of mu - mu_c, since the
    integral is positive."""
    table = _coerce_table(model)
    pair = alpha_polys(table)
    mu = slope_mu(pair)
    mu_num, mu_den = mu.numerator, mu.denominator
    mu_text = format_rational(mu)
    eps_num, den = table.epsilon.numerator, table.epsilon.denominator * args.steps
    rows = ["c,mu,mu_c,Q_sign"]
    for i, (p, q) in enumerate(_mu_c_pairs(pair, eps_num, den, args.steps), 1):
        num = i * eps_num
        g = gcd(num, den)
        num, c_den = num // g, den // g
        d = mu_num * q - mu_den * p  # the sign of mu - p/q
        sign = "+" if d > 0 else "-" if d < 0 else "0"
        rows.append(f"{_format_pair(num, c_den)},{mu_text},{_format_pair(p, q)},{sign}")
    return "\n".join(rows) + "\n", EXIT_OK


def cmd_verify(args, model) -> tuple[str, int]:
    if not isinstance(model, ToricModel):
        raise ModelError("oracle requires toric realization")
    if not args.c:
        raise ModelError("verify needs at least one --c value")
    lines = ["label c df_oracle df_predicted sign_match exact_match"]
    any_sign_fail = False
    for rec in oracle_mod.verify(model, args.c, args.max_m):
        any_sign_fail = any_sign_fail or not rec.sign_match
        lines.append(
            f"{rec.label} {format_rational(rec.c)} "
            f"{format_rational(rec.df_oracle)} {format_rational(rec.df_predicted)} "
            f"{rec.sign_match} {rec.exact_match}"
        )
    return "\n".join(lines) + "\n", EXIT_VERIFICATION if any_sign_fail else EXIT_OK


def cmd_limit(args, model) -> tuple[str, int]:
    mixed = _coerce_table(model)
    if not isinstance(mixed, MixedTable):
        raise ModelError("limit needs a mixed table or a toric model with H")
    if len(args.c or []) != 1:
        raise ModelError("limit needs exactly one --c value")
    eps_list = args.eps or []
    values, limit = perturbation_limit(mixed, args.c[0], eps_list)
    lines = []
    for eps, val in zip(eps_list, values):
        lines.append(f"eps {format_rational(eps)}: {format_rational(val)}")
    lines.append(f"eps 0: {format_rational(limit)}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_export_table(args, model) -> tuple[str, int]:
    if not isinstance(model, ToricModel):
        raise ModelError("export-table expects a toric model")
    return json.dumps(serialize_model(export_table(model)), indent=2) + "\n", EXIT_OK


# Each command, in help order: its function, which returns the output text
# and exit code, and its flags, in help order, which main checks in this
# order before it reads the model.
COMMANDS = {
    "analyze": (cmd_analyze, ("--c", "--width")),
    "scan": (cmd_scan, ("--steps",)),
    "verify": (cmd_verify, ("--c", "--max-m")),
    "limit": (cmd_limit, ("--c", "--eps")),
    "export-table": (cmd_export_table, ()),
}


@functools.cache  # built on first use, then shared: parsing leaves them as they are
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by its name."""
    parser = argparse.ArgumentParser(
        prog="slopestab",
        description="Exact slope-stability invariants along subschemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, flags) in COMMANDS.items():
        p = commands[name] = sub.add_parser(name)
        p.add_argument("model", help="model document (JSON)")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag][0])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(command=name)
    return parser, commands


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code.

    A line that starts with a command's name is parsed once, by that
    command's parser; a leftover string is refused as the top-level parser
    refuses it.  Any other line (no command, -h, an unknown command) goes
    through the top-level parser, which exits on it.
    """
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: %s" % " ".join(extras))
    try:
        func, flags = COMMANDS[args.command]
        values = vars(args)
        for flag in flags:
            dest, check = flag[2:].replace("-", "_"), FLAGS[flag][1]  # argparse's dest
            if check is not None and values[dest] is not None:
                values[dest] = check(values[dest])
        text, code = func(args, _load_model(args.model))
        _emit(text, args.out)
        return code
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a fault of slopestab, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
