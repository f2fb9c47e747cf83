"""Command-line surface: tables, identity suites, zeros, expansions, solver.

Exit codes: 0 success, 1 a failed check (the record is still emitted), 2 an
error: bad input (ValueError, ZeroDivisionError), a failed write (a ValueError
too) or a numeric limit (qcore.LimitError) prints one ``error:`` line and exits
2, as argparse's usage errors do; an IntegrityError is a bug and keeps its
traceback.  Output is deterministic for a fixed configuration; rationals are
rendered as "num/den" strings and floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Tuple

from .qcore import LimitError, QContext
from .symlaurent import SymPoly, special_poly
from . import qpolys, qspecial, lidstone, guichard

SCHEMA_VERSION = 1


def _fmt(value):
    """JSON-safe rendering: Fractions as num/den strings, floats at full
    round-trip precision (17 significant digits suffice and the shortest
    representation is deterministic)."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.17g}")
    if isinstance(value, SymPoly):  # each coefficient nums[i]/den reduced by one gcd, with no Fraction built
        den = value.den
        return {"basis": "symmetric_laurent", "coeffs": [f"{n // (g := gcd(n, den))}/{den // g}" for n in value.nums]}
    if is_dataclass(value):
        return {f.name: _fmt(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def render_report(payload: dict, fmt: str) -> str:
    """Serialize a command payload as json, csv, or text."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(_fmt(payload))
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        rows = payload.get("rows")
        if rows is None:
            raise ValueError("this command has no tabular form; use --format json")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(payload["columns"])
        for row in rows:
            writer.writerow([_render_cell(c) for c in row])
        return buf.getvalue()
    if fmt == "text":
        return _text_dump(doc)
    raise ValueError(f"unknown format {fmt!r}")


def _render_cell(c):
    v = _fmt(c)
    if isinstance(v, (dict, list)):
        return json.dumps(v)
    return v


def _text_dump(doc, indent=0):
    out = []
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.append(_text_dump(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                out.append(_text_dump(v, indent + 1))
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{doc}")
    return "\n".join(p for p in out if p) + ("\n" if indent == 0 else "")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _nonnegative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _context(args) -> QContext:
    if (args.s is None) == (args.q is None):
        raise ValueError("one of --s or --q is required" if args.s is None else "give only one of --s or --q")
    return QContext(args.s) if args.q is None else QContext.from_q(args.q)


# -- subcommands ------------------------------------------------------------


_NUMBER_KIND = {
    "beta": "beta_q",
    "suslov-b": "suslov_Bq",
    "suslov-e": "suslov_Eq",
    "im": "im_Bq",
}


def _cmd_numbers(args) -> Tuple[dict, int]:
    ctx = _context(args)
    values = qpolys.build_numbers(ctx, _NUMBER_KIND[args.kind], args.order)
    return {
        "command": "numbers",
        "kind": args.kind,
        "s": ctx.s,
        "columns": ["n", "numerator", "denominator"],
        "rows": [(n, v.numerator, v.denominator) for n, v in enumerate(values)],
    }, 0


_FAMILY_KIND = {
    "suslov-b": "suslov_B",
    "beta": "new_beta",
    "suslov-e": "suslov_E",
    "tilde-e": "new_E",
}


def _cmd_polys(args) -> Tuple[dict, int]:
    ctx = _context(args)
    if args.family in _FAMILY_KIND:
        entries = qpolys.build_family(ctx, _FAMILY_KIND[args.family], args.order)
    else:
        entries = tuple(special_poly(ctx, args.family, n) for n in range(args.order + 1))
    return {
        "command": "polys",
        "family": args.family,
        "s": ctx.s,
        "columns": ["n", "poly"],
        "rows": [(n, json.dumps(_fmt(p))) for n, p in enumerate(entries)],
        "entries": list(entries),
    }, 0


def _cmd_lidstone_basis(args) -> Tuple[dict, int]:
    ctx = _context(args)
    basis = qpolys.lidstone_basis(ctx, args.kind, args.K)
    return {
        "command": "lidstone-basis",
        "kind": args.kind,
        "s": ctx.s,
        "columns": ["k", "poly"],
        "rows": [(k, json.dumps(_fmt(p))) for k, p in enumerate(basis)],
        "entries": list(basis),
    }, 0


def _cmd_identities(args) -> Tuple[dict, int]:
    ctx = _context(args)
    names = qpolys.registry_names() if args.all else [args.name]
    reports = [qpolys.check_identity(ctx, n, args.order) for n in names]
    ok = all(r.passed for r in reports)
    return {
        "command": "identities",
        "s": ctx.s,
        "order": args.order,
        "pass": ok,
        "results": [
            {
                "name": r.name,
                "pass": r.passed,
                "first_failure": r.first_failure,
                "note": r.note,
            }
            for r in reports
        ],
    }, 0 if ok else 1


def _cmd_zeros(args) -> Tuple[dict, int]:
    kind = {"sq-eta": "Sq_eta", "cq-eta": "Cq_eta", "sinq": "Sinq"}[args.kind]
    if not 0.0 < args.qfloat < 1.0:
        raise ValueError(f"--qfloat must lie in (0, 1), got {args.qfloat}")
    return {"command": "zeros", "q": args.qfloat, "report": qspecial.first_zero(kind, args.qfloat)}, 0


def _read_coeffs(path: str) -> list:
    """The coefficients in a JSON file holding one array of numbers or "num/den"
    strings; a file that cannot be read or holds anything else raises ValueError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise ValueError(f"expected a JSON array of coefficients, got {type(doc).__name__}")
        return [Fraction(str(c)) for c in doc]
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient file {path!r}: {exc}") from None


def _parse_fn(ctx: QContext, spec: str) -> lidstone.EntireFn:
    """Tiny input grammar: rho:n | mono:n | phi:n:a | stream:@file."""
    parts = spec.split(":")
    if parts[0] == "stream" and len(parts) == 2 and parts[1].startswith("@"):
        return lidstone.EntireFn.from_stream(_read_coeffs(parts[1][1:]))
    try:
        if parts[0] == "rho" and len(parts) == 2:
            return lidstone.EntireFn.from_poly(ctx, special_poly(ctx, "rho", int(parts[1])))
        if parts[0] == "mono" and len(parts) == 2:
            return lidstone.EntireFn.from_poly(ctx, special_poly(ctx, "monomial", int(parts[1])))
        if parts[0] == "phi" and len(parts) == 3:
            return lidstone.EntireFn.from_poly(
                ctx, special_poly(ctx, "phi", int(parts[1]), Fraction(parts[2]))
            )
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad function spec {spec!r}: {exc}") from None
    raise ValueError(f"bad function spec {spec!r}; use rho:n, mono:n, phi:n:a, or stream:@file")


def _cmd_expand(args) -> Tuple[dict, int]:
    ctx = _context(args)
    f = _parse_fn(ctx, args.fn)
    engine = lidstone.bernoulli_expansion if args.kind == "bernoulli" else lidstone.euler_expansion
    report = engine(ctx, f, args.K)
    res = report.residual
    return {
        "command": "expand",
        "kind": args.kind,
        "s": ctx.s,
        "K": report.K,
        "tau_estimate": report.tau_estimate,
        "cap": report.cap,
        "status": report.status,
        "exact": report.exact,
        "residual": "exact-zero" if (report.exact and res == 0) else res,
        "data_at_zero": list(report.data_at_zero),
        "data_at_eta": list(report.data_at_eta),
        "reconstruction": report.reconstruction,
        "columns": ["k", "data_at_0", "data_at_eta"],
        "rows": list(zip(range(report.K + 1), report.data_at_zero, report.data_at_eta)),
    }, 0


def _cmd_guichard(args) -> Tuple[dict, int]:
    p = args.p
    if p == 1 and args.preset == "alsalam-half":
        raise ValueError("p = 1 reduces alsalam-half to the classical case; use preset ones")
    if args.coeffs:
        f = _read_coeffs(args.coeffs)
    else:
        f = [Fraction(0), Fraction(1)]  # default demo: f(z) = z
    maker = guichard.DeltaSeq.ones if args.preset == "ones" else guichard.DeltaSeq.alsalam_half
    d = maker(p, len(f) + 2)
    g = guichard.solve_difference(f, d)
    bad = guichard.verify_solution(f, g, d)
    payload = {
        "command": "guichard",
        "preset": args.preset,
        "p": p,
        "f": list(f),
        "g": list(g),
        "verified": bad is None,
        "first_residual_index": bad,
    }
    if args.growth_order is not None:
        if p <= 1:
            raise ValueError("--growth-order needs p > 1 (the bound is stated for q = 1/p < 1)")
        if float(1 / p) == 1.0:  # the zero search runs at float q
            raise ValueError(f"--growth-order needs q = 1/p < 1 as a float, but at --p {p} q = 1/p rounds to 1.0")
        payload["growth"] = guichard.growth_bound_check(1 / p, args.growth_order)
    return payload, 0 if bad is None else 1


# -- parser -------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    :func:`main` call in the process; parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="qlidstone",
        description="Exact q-series polynomial tables, identity suites, zero "
                    "finding, two-point expansions, and the translation solver.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_ctx=True):
        if needs_ctx:
            p.add_argument("--s", type=_parse_rational, default=None,
                           help="base parameter s = q**(1/4), a rational in (0,1), e.g. 1/2")
            p.add_argument("--q", type=_parse_rational, default=None,
                           help="base q; accepted only when q is a perfect rational fourth power")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("numbers", help="number tables")
    p.add_argument("--kind", choices=sorted(_NUMBER_KIND), required=True)
    p.add_argument("--order", type=_nonnegative_int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_numbers)

    p = sub.add_parser("polys", help="polynomial family tables")
    p.add_argument("--family", choices=sorted(_FAMILY_KIND) + ["rho", "hermite", "monomial"],
                   required=True)
    p.add_argument("--order", type=_nonnegative_int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_polys)

    p = sub.add_parser("lidstone-basis", help="two-point interpolation bases")
    p.add_argument("--kind", choices=["A", "B", "M", "Mtilde"], required=True)
    p.add_argument("--K", type=_nonnegative_int, default=5)
    common(p)
    p.set_defaults(handler=_cmd_lidstone_basis)

    p = sub.add_parser("identities", help="exact identity suite")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--name")
    p.add_argument("--order", type=_nonnegative_int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_identities)

    p = sub.add_parser("zeros", help="smallest positive zeros")
    p.add_argument("--kind", choices=["sq-eta", "cq-eta", "sinq"], required=True)
    p.add_argument("--qfloat", type=float, required=True, help="base q as a float in (0,1)")
    common(p, needs_ctx=False)
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("expand", help="two-point expansion of a function")
    p.add_argument("--kind", choices=["bernoulli", "euler"], required=True)
    p.add_argument("--fn", required=True, help="rho:n | mono:n | phi:n:a | stream:@file")
    p.add_argument("--K", type=_nonnegative_int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("guichard", help="solve T g - g = f for a delta preset")
    p.add_argument("--preset", choices=["ones", "alsalam-half"], default="alsalam-half")
    p.add_argument("--p", type=_parse_rational, required=True)
    p.add_argument("--coeffs", default=None, help="JSON file with the coefficients of f")
    p.add_argument("--growth-order", type=_nonnegative_int, default=None,
                   help="also run the growth-bound statistic to this order")
    common(p, needs_ctx=False)
    p.set_defaults(handler=_cmd_guichard)

    return ap


def main(argv=None) -> int:
    """Run one command; returns its exit code, 0 or 1, or raises SystemExit(2) on an error."""
    args = build_parser().parse_args(argv)
    # Exact tables reach numerators far past CPython's int->str digit limit;
    # the arguments were parsed under that limit, the output is rendered without it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, code = args.handler(args)
        text = render_report(payload, args.format)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from None
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # the unwritten text would fail again at the interpreter's final flush; send it nowhere
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise ValueError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return code
    except (ValueError, ZeroDivisionError, LimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
