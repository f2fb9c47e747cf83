"""Command-line surface: tables, identity suites, zeros, expansions, solver.

Exit codes: 0 success, 1 identity-suite failure (a machine-readable failure
record is still emitted), 2 usage error.  Output is deterministic for a
fixed configuration; rationals are rendered as "num/den" strings and floats
with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from .qcore import QContext
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
    if isinstance(value, SymPoly):
        return {"basis": "symmetric_laurent", "coeffs": [_fmt(c) for c in value.coeffs]}
    if is_dataclass(value):
        return {k: _fmt(v) for k, v in asdict(value).items()}
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
    if getattr(args, "q", None) is not None:
        return QContext.from_q(args.q)
    if args.s is None:
        raise SystemExit2("one of --s or --q is required")
    return QContext(args.s)


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


_NUMBER_KIND = {
    "beta": "beta_q",
    "suslov-b": "suslov_Bq",
    "suslov-e": "suslov_Eq",
    "im": "im_Bq",
}


def _cmd_numbers(args) -> int:
    ctx = _context(args)
    table = qpolys.build_numbers(ctx, _NUMBER_KIND[args.kind], args.order)
    rows = [
        (n, v.numerator, v.denominator)
        for n, v in enumerate(table.values)
    ]
    payload = {
        "command": "numbers",
        "kind": args.kind,
        "s": ctx.s,
        "columns": ["n", "numerator", "denominator"],
        "rows": rows,
    }
    _emit(render_report(payload, args.format), args.output)
    return 0


_FAMILY_KIND = {
    "suslov-b": "suslov_B",
    "beta": "new_beta",
    "suslov-e": "suslov_E",
    "tilde-e": "new_E",
}


def _cmd_polys(args) -> int:
    ctx = _context(args)
    if args.family in _FAMILY_KIND:
        table = qpolys.build_family(ctx, _FAMILY_KIND[args.family], args.order)
        entries = table.entries
    else:
        entries = tuple(special_poly(ctx, args.family, n) for n in range(args.order + 1))
    rows = [(n, json.dumps(_fmt(p))) for n, p in enumerate(entries)]
    payload = {
        "command": "polys",
        "family": args.family,
        "s": ctx.s,
        "columns": ["n", "poly"],
        "rows": rows,
        "entries": list(entries),
    }
    _emit(render_report(payload, args.format), args.output)
    return 0


def _cmd_lidstone_basis(args) -> int:
    ctx = _context(args)
    basis = qpolys.lidstone_basis(ctx, args.kind, args.K)
    payload = {
        "command": "lidstone-basis",
        "kind": args.kind,
        "s": ctx.s,
        "columns": ["k", "poly"],
        "rows": [(k, json.dumps(_fmt(p))) for k, p in enumerate(basis)],
        "entries": list(basis),
    }
    _emit(render_report(payload, args.format), args.output)
    return 0


def _cmd_identities(args) -> int:
    ctx = _context(args)
    names = qpolys.registry_names() if args.all else [args.name]
    if not args.all and args.name not in qpolys.registry_names():
        raise SystemExit2(f"unknown identity {args.name!r}; known: {', '.join(qpolys.registry_names())}")
    reports = [qpolys.check_identity(ctx, n, args.order) for n in names]
    ok = all(r.passed for r in reports)
    payload = {
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
    }
    _emit(render_report(payload, args.format), args.output)
    return 0 if ok else 1


def _cmd_zeros(args) -> int:
    kind = {"sq-eta": "Sq_eta", "cq-eta": "Cq_eta", "sinq": "Sinq"}[args.kind]
    if not 0.0 < args.qfloat < 1.0:
        raise SystemExit2(f"--qfloat must lie in (0, 1), got {args.qfloat}")
    try:
        report = qspecial.smallest_positive_zero(kind, args.qfloat)
    except qspecial.ZeroSearchError as exc:
        raise SystemExit2(str(exc))
    payload = {"command": "zeros", "q": args.qfloat, "report": report}
    _emit(render_report(payload, args.format), args.output)
    return 0


def _parse_fn(ctx: QContext, spec: str) -> lidstone.EntireFn:
    """Tiny input grammar: rho:n | mono:n | phi:n:a | stream:@file."""
    parts = spec.split(":")
    try:
        if parts[0] == "rho" and len(parts) == 2:
            return lidstone.EntireFn.from_poly(ctx, special_poly(ctx, "rho", int(parts[1])))
        if parts[0] == "mono" and len(parts) == 2:
            return lidstone.EntireFn.from_poly(ctx, special_poly(ctx, "monomial", int(parts[1])))
        if parts[0] == "phi" and len(parts) == 3:
            return lidstone.EntireFn.from_poly(
                ctx, special_poly(ctx, "phi", int(parts[1]), Fraction(parts[2]))
            )
        if parts[0] == "stream" and len(parts) == 2 and parts[1].startswith("@"):
            with open(parts[1][1:]) as fh:
                coeffs = json.load(fh)
            return lidstone.EntireFn.from_stream([Fraction(str(c)) for c in coeffs])
    except (ValueError, OSError) as exc:
        raise SystemExit2(f"bad function spec {spec!r}: {exc}")
    raise SystemExit2(f"bad function spec {spec!r}; use rho:n, mono:n, phi:n:a, or stream:@file")


def _cmd_expand(args) -> int:
    ctx = _context(args)
    f = _parse_fn(ctx, args.fn)
    engine = lidstone.bernoulli_expansion if args.kind == "bernoulli" else lidstone.euler_expansion
    report = engine(ctx, f, args.K)
    res = report.residual
    payload = {
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
        "rows": [
            (k, report.data_at_zero[k] if k < len(report.data_at_zero) else "",
             report.data_at_eta[k] if k < len(report.data_at_eta) else "")
            for k in range(max(len(report.data_at_zero), len(report.data_at_eta)))
        ],
    }
    _emit(render_report(payload, args.format), args.output)
    return 0


def _cmd_guichard(args) -> int:
    p = args.p
    if p == 1 and args.preset == "alsalam-half":
        raise SystemExit2("p = 1 reduces alsalam-half to the classical case; use preset ones")
    if args.coeffs:
        with open(args.coeffs) as fh:
            f = [Fraction(str(c)) for c in json.load(fh)]
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
            raise SystemExit2("--growth-order needs p > 1 (the bound is stated for q = 1/p < 1)")
        payload["growth"] = guichard.growth_bound_check(1 / p, args.growth_order)
    _emit(render_report(payload, args.format), args.output)
    return 0 if bad is None else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SystemExit:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
