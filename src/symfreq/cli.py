"""Command-line front end.

One JSON document per invocation (or csv/text via --format), wrapped in a
stable envelope: {"command", ..., "precision", "payload", "warnings"}.
Rationals are "p/q" strings; balls are {"mid", "rad", "bits"} objects.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 unsupported modulus.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

import mpmath

from . import __version__
from . import frequencies
from .balls import PrecisionContext, RealBall, mpf_to_fraction
from .cyclotomic import scaled_exponents, verify_u_relation
from .linalg import S_SPACE, U_SPACE, form_from_json, form_to_json, rat_to_str
from .relations import UnsupportedModulus, phi_forward, phi_inverse, u_basis
from .solver import discover_relations, express_dependents, scan_range

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


class UsageError(ValueError):
    pass


def ball_to_json(b: RealBall) -> dict:
    """A ball as decimal strings that still enclose its value.

    The midpoint is printed to about b.prec bits; the printed radius covers
    the ball's radius plus that printing error, rounded up.
    """
    digits = max(2, int(b.prec * 0.30103) + 2)
    mid = mpmath.nstr(b.mid, digits)
    bound = mpf_to_fraction(b.rad) + abs(Fraction(mid) - mpf_to_fraction(b.mid))
    return {"mid": mid, "rad": decimal_up(bound, 4), "bits": b.prec}


def decimal_up(q: Fraction, sig: int) -> str:
    """The least decimal with sig significant digits that is >= q >= 0."""
    if q == 0:
        return "0.0"
    # q >= 2^(bits - 1), so this k makes n >= 10^sig; raise k until n has
    # exactly sig digits
    bits = q.numerator.bit_length() - q.denominator.bit_length()
    k = math.floor((bits - 1) * math.log10(2)) - sig
    n = math.ceil(q / Fraction(10) ** k)
    while n >= 10**sig:
        k += 1
        n = math.ceil(q / Fraction(10) ** k)
    s = str(n)
    return f"{s[0]}.{s[1:]}e{k + sig - 1}"


def _warn(warnings: list, message: str):
    warnings.append({"time": datetime.now(timezone.utc).isoformat(), "message": message})


# ----------------------------------------------------------------------
# Subcommands (each returns the payload for the envelope)


def cmd_freq(args, warnings) -> dict:
    ctx = PrecisionContext(args.prec)
    kind = args.kind
    lo, hi = frequencies.index_range(kind, args.m)
    if args.index is not None and not lo <= args.index <= hi:
        raise UsageError(f"index {args.index} out of range {lo}..{hi} for kind {kind} at m={args.m}")
    indices = [args.index] if args.index is not None else list(range(lo, hi + 1))
    values = []
    for i in indices:
        fv = frequencies.frequency_value(kind, args.m, i, ctx)
        values.append({"kind": kind, "index": i, "value": ball_to_json(fv.value)})
    return {"values": values}


def cmd_basis(args, warnings) -> dict:
    basis = u_basis(args.m)
    forms = list(basis.forms)
    if args.space == S_SPACE:
        forms = [phi_forward(f) for f in forms]
    return {
        "space": args.space,
        "count": len(forms),
        "relations": [form_to_json(f, provenance=basis.provenance) for f in forms],
    }


def cmd_verify(args, warnings) -> tuple[dict, bool]:
    try:
        with open(args.relations, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read relation file: {exc}") from exc
    objs = doc if isinstance(doc, list) else [doc]
    ctx = PrecisionContext(args.prec)
    results = []
    all_ok = True
    for i, obj in enumerate(objs):
        try:
            form = form_from_json(obj)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if form.m != args.m:
            raise UsageError(f"relation {i} has modulus {form.m}, expected {args.m}")
        entry: dict = {"index": i, "space": form.space}
        uform = phi_inverse(form) if form.space == S_SPACE else form
        if args.mode in ("exact", "both"):
            ok = verify_u_relation(args.m, uform)
            scale, exps = scaled_exponents(uform)
            entry["exact"] = {
                "pass": ok,
                "exponent_lcm": scale,
                "exponents": {str(k): e for k, e in sorted(exps.items())},
            }
            all_ok = all_ok and ok
        if args.mode in ("numeric", "both"):
            report = frequencies.residual_report(form, ctx)
            entry["numeric"] = {
                "pass": bool(report["supported"]),
                "residual": ball_to_json(report["residual"]),
            }
            all_ok = all_ok and report["supported"]
        results.append(entry)
    return {"mode": args.mode, "relations": results}, all_ok


def cmd_express(args, warnings) -> dict:
    table = express_dependents(args.m)
    if not table.trailing_ok:
        _warn(warnings, f"pivots at m={args.m} are not the leading columns")
    payload = table.to_json()
    payload["text"] = table.render_text()
    return payload


def cmd_discover(args, warnings) -> dict:
    report = discover_relations(args.m, args.prec, args.bound)
    for w in report.warnings:
        _warn(warnings, w)
    evidence = dict(report.evidence)
    if evidence.get("min_rejected_norm") == float("inf"):
        evidence["min_rejected_norm"] = None
    return {
        "bound": report.bound,
        "empirical_t": report.empirical_t,
        "count": len(report.basis.forms),
        "relations": [form_to_json(f, provenance="discovered") for f in report.basis.forms],
        "evidence": evidence,
    }


def cmd_scan(args, warnings) -> dict:
    rows = scan_range(args.range_from, args.range_to)
    return {"from": args.range_from, "to": args.range_to, "rows": [r.to_json() for r in rows]}


# ----------------------------------------------------------------------
# Rendering


def _flatten_for_csv(command: str, payload: dict) -> list[dict]:
    if command == "freq":
        return [
            {"kind": v["kind"], "index": v["index"], "mid": v["value"]["mid"], "rad": v["value"]["rad"]}
            for v in payload["values"]
        ]
    if command in ("basis", "discover"):
        rows = []
        for i, rel in enumerate(payload["relations"]):
            for idx, c in rel["coeffs"].items():
                rows.append({"relation": i, "space": rel["space"], "variable": idx, "coeff": c})
        return rows
    if command == "express":
        rows = []
        for row in payload["rows"]:
            for j, c in row["coeffs"].items():
                rows.append({"dependent": row["dependent"], "basis_index": j, "coeff": c})
        return rows
    if command == "scan":
        return payload["rows"]
    if command == "verify":
        out = []
        for rel in payload["relations"]:
            row = {"index": rel["index"], "space": rel["space"]}
            if "exact" in rel:
                row["exact_pass"] = rel["exact"]["pass"]
            if "numeric" in rel:
                row["numeric_pass"] = rel["numeric"]["pass"]
            out.append(row)
        return out
    return [payload]


def _render_text(command: str, payload: dict) -> str:
    if command == "express":
        return payload["text"]
    if command == "freq":
        lines = [
            f"{v['kind']}{v['index']}(m) = {v['value']['mid']} +/- {v['value']['rad']}"
            for v in payload["values"]
        ]
        return "\n".join(lines)
    if command in ("basis", "discover"):
        lines = []
        for rel in payload["relations"]:
            var = "X" if rel["space"] == S_SPACE else "Y"
            parts = []
            for idx in sorted(rel["coeffs"], key=int):
                c = Fraction(rel["coeffs"][idx])
                mag = abs(c)
                term = f"{var}{idx}" if mag == 1 else f"{rat_to_str(mag)}*{var}{idx}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                else:
                    parts.append(f"+ {term}" if c > 0 else f"- {term}")
            lines.append(" ".join(parts) if parts else "0")
        return "\n".join(lines)
    if command == "scan":
        lines = []
        for r in payload["rows"]:
            lines.append(
                f"m={r['m']:<3} case={r['case']:<16} t={r['t']:<3} formula={r['formula_value']:<3} "
                f"match={'yes' if r['match'] else ('no' if r['formula_applies'] else 'n/a')} "
                f"trailing={'ok' if r['trailing_basis_ok'] else 'VIOLATED'} ({r['method']})"
            )
        return "\n".join(lines)
    if command == "verify":
        lines = []
        for rel in payload["relations"]:
            bits = [f"relation {rel['index']}"]
            if "exact" in rel:
                bits.append(f"exact={'pass' if rel['exact']['pass'] else 'FAIL'}")
            if "numeric" in rel:
                bits.append(f"numeric={'pass' if rel['numeric']['pass'] else 'FAIL'}")
            lines.append("  ".join(bits))
        return "\n".join(lines)
    return json.dumps(payload, indent=2)


def _emit(args, envelope: dict, stream):
    if args.format == "json":
        json.dump(envelope, stream, indent=2)
        stream.write("\n")
    elif args.format == "csv":
        rows = _flatten_for_csv(envelope["command"], envelope["payload"])
        if rows:
            writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        stream.write(_render_text(envelope["command"], envelope["payload"]))
        stream.write("\n")


# ----------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfreq",
        description="Exact and certified-numeric relations among symmetric "
        "continued-fraction digit frequencies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_m=True):
        if need_m:
            p.add_argument("--m", type=int, required=True, help="modulus")
        p.add_argument("--prec", type=int, default=256, help="ball precision in bits")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("freq", help="evaluate H, S or U values")
    common(p)
    p.add_argument("--kind", choices=("H", "S", "U"), required=True)
    p.add_argument("--index", type=int, default=None, help="single index; omit for the full list")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("basis", help="constructed relation basis")
    common(p)
    p.add_argument("--space", choices=(U_SPACE, S_SPACE), default=U_SPACE)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="verify relations from a JSON file")
    common(p)
    p.add_argument("--relations", required=True, help="path to a relation JSON file")
    p.add_argument("--mode", choices=("exact", "numeric", "both"), default="both")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("express", help="dependent S-values over the trailing basis")
    common(p)
    p.set_defaults(func=cmd_express)

    p = sub.add_parser("discover", help="LLL-based certified relation discovery")
    common(p)
    p.add_argument("--bound", type=int, default=10**6, help="coefficient bound")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("scan", help="dimension and trailing-basis scan over a range")
    common(p, need_m=False)
    p.add_argument("--from", dest="range_from", type=int, required=True)
    p.add_argument("--to", dest="range_to", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None, stream=None) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    warnings: list = []
    envelope: dict = {"command": args.command}
    if hasattr(args, "m"):
        envelope["m"] = args.m
    if hasattr(args, "range_from"):
        envelope["from"] = args.range_from
        envelope["to"] = args.range_to
    if hasattr(args, "prec"):
        envelope["precision"] = args.prec

    code = EXIT_OK
    try:
        if args.command == "verify":
            payload, all_ok = cmd_verify(args, warnings)
            if not all_ok:
                code = EXIT_VERIFY_FAILED
        else:
            payload = args.func(args, warnings)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedModulus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    envelope["payload"] = payload
    envelope["warnings"] = warnings
    _emit(args, envelope, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
