"""Command-line surface: analyze models, scan c-grids to CSV, run oracle
verification, perturbation-limit studies, and toric table export.

Exit codes: 0 success, 2 parse/validation error, 3 theorem-verification
failure, 4 internal fault (a failed internal consistency check).  All
machine-readable output is exact-rational text, no floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

from . import oracle as oracle_mod
from .models import (
    IntersectionTable,
    MixedTable,
    ModelError,
    format_rational,
    parse_model,
    parse_rational,
    serialize_model,
    validate,
)
from .polynomials import DEFAULT_ISOLATION_WIDTH, UniPoly
from .slope import (
    PositivityError,
    alpha_polys,
    df_numerator,
    mu_c,
    perturbation_limit,
    slope_mu,
    stability_scan,
)
from .toric import ToricError, ToricModel, export_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4

# Input bounds: bisection to --width costs about quadratically in its bits,
# and a scan writes one row per step.
MAX_WIDTH_BITS = 4096
MAX_STEPS = 10000


class CliError(Exception):
    pass


def _parse_width(text: str) -> Fraction:
    m = re.fullmatch(r"2\^-(\d+)", text.strip())
    if m:
        digits = m.group(1).lstrip("0")
        if len(digits) > MAX_WIDTH_BITS:  # past the limit, and too long for int()
            raise CliError(f"--width must be at least 2^-{MAX_WIDTH_BITS}, "
                           f"got an exponent of {len(digits)} digits")
        # an exponent past the limit is refused below: cap it before 2^N is built
        w = Fraction(1, 2 ** min(int(digits or 0), MAX_WIDTH_BITS + 1))
    else:
        try:
            w = parse_rational(text)
        except ModelError as exc:
            raise CliError(f"bad --width value {text!r}: {exc}") from exc
    if w <= 0:
        raise CliError("--width must be positive")
    if w < Fraction(1, 2**MAX_WIDTH_BITS):
        raise CliError(f"--width must be at least 2^-{MAX_WIDTH_BITS}, got {text}")
    return w


def _parse_rationals(text: str, flag: str) -> list[Fraction]:
    try:
        return [parse_rational(part) for part in text.split(",") if part]
    except ModelError as exc:
        raise CliError(f"bad {flag} value {text!r}: {exc}") from exc


def _load_model(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read model file: {exc}") from exc
    return parse_model(data)


def _validated(table):
    errors = validate(table)
    if errors:
        raise ModelError("; ".join(errors))
    return table


def _coerce_table(model) -> IntersectionTable:
    """The validated table of any model kind; a toric model is exported first."""
    return _validated(export_table(model) if isinstance(model, ToricModel) else model)


def _poly_line(p: UniPoly) -> str:
    if p.is_zero:
        return "0"
    return " ".join(format_rational(c) for c in p.coeffs)


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    model = _load_model(args.model)
    table = _coerce_table(model)
    pair = alpha_polys(table)
    report = stability_scan(pair, width=_parse_width(args.width))
    lines = [
        f"label: {table.label}",
        f"n: {table.n}",
        f"epsilon: {format_rational(report.epsilon)}",
        f"alpha0: {_poly_line(report.alpha0)}",
        f"alpha1: {_poly_line(report.alpha1)}",
        f"mu: {format_rational(report.mu)}",
        f"Q: {_poly_line(report.Q)}",
    ]
    if report.flat:
        lines.append("destabilizing: flat (Q identically zero)")
    elif not report.destabilizing:
        lines.append("destabilizing: none")
    else:
        lines.append(
            "destabilizing: " + "; ".join(str(iv) for iv in report.destabilizing)
        )
    for c in args.c or []:
        lines.append(f"c: {format_rational(c)}")
        lines.append(f"mu_c: {format_rational(mu_c(pair, c))}")
        lines.append(f"verdict: {report.verdict(c)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.steps < 1:
        raise CliError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise CliError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    model = _load_model(args.model)
    table = _coerce_table(model)
    pair = alpha_polys(table)
    mu = slope_mu(pair)
    q, _ = df_numerator(pair)
    rows = ["c,mu,mu_c,Q_sign"]
    for i in range(1, args.steps + 1):
        c = Fraction(i) * table.epsilon / args.steps
        qc = q(c)
        sign = "+" if qc > 0 else "-" if qc < 0 else "0"
        rows.append(
            f"{format_rational(c)},{format_rational(mu)},"
            f"{format_rational(mu_c(pair, c))},{sign}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    if not isinstance(model, ToricModel):
        raise ModelError("oracle requires toric realization")
    if not args.c:
        raise CliError("verify needs at least one --c value")
    m_list = None
    if args.max_m is not None:
        d = lcm(*(c.denominator for c in args.c))
        m_list = range(d, args.max_m + 1, d)
    lines = ["label c df_oracle df_predicted sign_match exact_match"]
    any_sign_fail = False
    for c in args.c:
        rec = oracle_mod.verify_main_theorem(model, c, m_list)
        any_sign_fail = any_sign_fail or not rec.sign_match
        lines.append(
            f"{rec.label} {format_rational(rec.c)} "
            f"{format_rational(rec.df_oracle)} {format_rational(rec.df_predicted)} "
            f"{rec.sign_match} {rec.exact_match}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VERIFICATION if any_sign_fail else EXIT_OK


def cmd_limit(args) -> int:
    mixed = _coerce_table(_load_model(args.model))
    if not isinstance(mixed, MixedTable):
        raise ModelError("limit needs a mixed table or a toric model with H")
    if len(args.c or []) != 1:
        raise CliError("limit needs exactly one --c value")
    eps_list = args.eps or []
    values, limit = perturbation_limit(mixed, args.c[0], eps_list)
    lines = []
    for eps, val in zip(eps_list, values):
        lines.append(f"eps {format_rational(eps)}: {format_rational(val)}")
    lines.append(f"eps 0: {format_rational(limit)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_export_table(args) -> int:
    model = _load_model(args.model)
    if not isinstance(model, ToricModel):
        raise ModelError("export-table expects a toric model")
    table = export_table(model)
    _emit(json.dumps(serialize_model(table), indent=2) + "\n", args.out)
    return EXIT_OK


@functools.cache  # built on first use, then shared: parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopestab",
        description="Exact slope-stability invariants along subschemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        p.add_argument("model", help="model document (JSON)")
        if flags.get("c"):
            p.add_argument("--c", default=None,
                           help="rational parameter(s), e.g. 1/2 or 1/3,1/2")
        if flags.get("steps"):
            p.add_argument("--steps", type=int, default=20)
        if flags.get("eps"):
            p.add_argument(
                "--eps",
                default=None,
                help="comma-separated perturbation sizes, e.g. 1/10,1/100",
            )
        if flags.get("max_m"):
            p.add_argument("--max-m", type=int, default=None, dest="max_m")
        if flags.get("width"):
            p.add_argument(
                "--width",
                default=f"1/{DEFAULT_ISOLATION_WIDTH.denominator}",
                help="isolation width, e.g. 2^-20 or 1/1000000",
            )
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, c=True, width=True)
    add("scan", cmd_scan, steps=True)
    add("verify", cmd_verify, c=True, max_m=True)
    add("limit", cmd_limit, c=True, eps=True)
    add("export-table", cmd_export_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "c", None) is not None:
            args.c = _parse_rationals(args.c, "--c")
        if getattr(args, "eps", None) is not None:
            args.eps = _parse_rationals(args.eps, "--eps")
        return args.func(args)
    except (ModelError, ToricError, PositivityError, CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
