"""Command line front end.

Every subcommand reads JSON documents named by repeatable ``-i`` flags,
writes one JSON document to ``-o`` (default stdout), and is fully
deterministic: the same inputs and flags produce byte-identical output.
``--json`` switches from indented to compact canonical form; both spell
the same document with sorted keys.

Exit codes: 0 on success, 1 when a computation reports a structured
error (the error document goes to stderr), 2 on malformed input or bad
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import jsonio, verify
from .cartier import cartier_op, hp_map, solve_hp
from .connection import dlog, pcurv
from .errors import PdiskError, SchemaError
from .field import FieldSpec
from .harmonic import cinv, cmap, solve_harmonic
from .hitchin import char_invariants, phitchin
from .matrix import MAX_RANK
from .series import VAR_DISK, VAR_TWIST

_PROG = "pdisk"


def _read_document(path: str) -> Any:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read input: {exc}", path) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}") from exc


def _inputs(args: argparse.Namespace, low: int, high: int) -> list[Any]:
    paths = args.input or []
    if not (low <= len(paths) <= high):
        want = str(low) if low == high else f"{low} or {high}"
        raise SchemaError(f"expected {want} input document(s), got {len(paths)}", "-i")
    return [_read_document(p) for p in paths]


def _emit(obj: Any, args: argparse.Namespace) -> None:
    text = jsonio.dumps_canonical(obj, compact=args.json) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_error(exc: PdiskError) -> None:
    doc = {"error": exc.payload()}
    sys.stderr.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- commands


def _warn_small_prime(p: int, rank: int) -> None:
    # characteristic data stays exact for p <= n, but the classical theory
    # assumes p does not divide n!; flag it without refusing
    if p <= rank:
        sys.stderr.write(
            f"warning: p = {p} <= rank = {rank}; "
            "division-free invariants remain exact but small-prime strata apply\n"
        )


def cmd_pcurv(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    conn = jsonio.connection_from_json(doc, fallback_p=args.p)
    return jsonio.fhiggs_to_json(pcurv(conn)), 0


def cmd_invariants(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    m = jsonio.matrix_from_json(doc, fallback_p=args.p)
    _warn_small_prime(m.field.p, m.rank)
    return jsonio.invariants_to_json(char_invariants(m)), 0


def cmd_phitchin(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    conn = jsonio.connection_from_json(doc, fallback_p=args.p)
    _warn_small_prime(conn.field.p, conn.rank)
    return jsonio.invariants_to_json(phitchin(conn)), 0


def cmd_cartier(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    form = jsonio.oneform_from_json(doc, fallback_p=args.p)
    if form.var != VAR_DISK:
        raise SchemaError('the descent operator expects a form in the disk variable "z"', "$.var")
    return jsonio.oneform_to_json(cartier_op(form)), 0


def cmd_hp(args) -> tuple[Any, int]:
    docs = _inputs(args, 1, 2)
    if len(docs) == 2:
        field, zeta = jsonio.scalar_from_json(docs[0], fallback_p=args.p)
        form = jsonio.oneform_from_json(docs[1], fallback_p=args.p)
        if field != form.field:
            raise SchemaError("scalar and form live over different fields", "$")
    else:
        form = jsonio.oneform_from_json(docs[0], fallback_p=args.p)
        zeta = 1
    if form.var != VAR_DISK:
        raise SchemaError('this map expects a form in the disk variable "z"', "$.var")
    return jsonio.oneform_to_json(hp_map(zeta, form)), 0


def cmd_solve_hp(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    form = jsonio.oneform_from_json(doc, fallback_p=args.p)
    if form.var != VAR_TWIST:
        raise SchemaError(
            'the section solves for a target in the descended variable "z\'"', "$.var"
        )
    return jsonio.oneform_to_json(solve_hp(form)), 0


def cmd_dlog(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    u = jsonio.series_from_json(doc, fallback_p=args.p)
    return jsonio.oneform_to_json(dlog(u)), 0


def cmd_descend(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    s = jsonio.series_from_json(doc, fallback_p=args.p)
    if s.var != "z":
        raise SchemaError('descent expects a series in the disk variable "z"', "$.var")
    return jsonio.series_to_json(s.descend_pth_power()), 0


def cmd_solve_harmonic(args) -> tuple[Any, int]:
    (doc,) = _inputs(args, 1, 1)
    conn = jsonio.connection_from_json(doc, fallback_p=args.p)
    return jsonio.package_to_json(solve_harmonic(conn)), 0


def _split_datum_and_matrix(docs: list[Any]) -> tuple[Any, Any]:
    """Pick out the harmonic-datum document; the other must carry "matrix"."""
    if isinstance(docs[0], dict) and "theta" in docs[0]:
        datum_doc, other_doc = docs[0], docs[1]
    elif isinstance(docs[1], dict) and "theta" in docs[1]:
        datum_doc, other_doc = docs[1], docs[0]
    else:
        raise SchemaError('neither input looks like a harmonic datum (no "theta" key)', "$")
    if not (isinstance(other_doc, dict) and "matrix" in other_doc):
        raise SchemaError('expected the second document to carry "matrix"', "$")
    return datum_doc, other_doc


def cmd_cmap(args) -> tuple[Any, int]:
    docs = _inputs(args, 2, 2)
    datum_doc, higgs_doc = _split_datum_and_matrix(docs)
    datum = jsonio.harmonic_from_json(datum_doc, fallback_p=args.p)
    higgs = jsonio.matrix_from_json(higgs_doc, fallback_p=args.p)
    return jsonio.connection_to_json(cmap(datum, higgs)), 0


def cmd_cinv(args) -> tuple[Any, int]:
    docs = _inputs(args, 2, 2)
    datum_doc, conn_doc = _split_datum_and_matrix(docs)
    datum = jsonio.harmonic_from_json(datum_doc, fallback_p=args.p)
    conn = jsonio.connection_from_json(conn_doc, fallback_p=args.p)
    return jsonio.package_to_json(cinv(conn, datum)), 0


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"expected a comma separated integer list for {flag}", flag) from exc
    if not values:
        raise SchemaError(f"empty value for {flag}", flag)
    return values


def cmd_verify(args) -> tuple[Any, int]:
    ps = _int_list(args.p if args.p is not None else "2,3,5", "--p")
    for p in ps:
        try:
            FieldSpec(p)
        except ValueError as exc:
            raise SchemaError(str(exc), "--p") from exc
        if p > verify.MAX_PRIME:
            raise SchemaError(f"prime {p} is above {verify.MAX_PRIME}, the suites' bound", "--p")
    ranks = _int_list(args.rank, "--rank")
    for n in ranks:
        if not 1 <= n <= MAX_RANK:
            raise SchemaError(f"rank {n} is outside 1..{MAX_RANK}", "--rank")
    suites = verify.SUITES if args.suite == "all" else (args.suite,)
    # the eigen frame needs n distinct residue roots in F_p, so n <= p
    if {"harmonic", "roundtrip"} & set(suites) and max(ranks) > min(ps):
        raise SchemaError(
            f"rank {max(ranks)} is above p = {min(ps)}; the harmonic and roundtrip "
            "suites need that many distinct residue roots in F_p",
            "--rank",
        )
    if args.trials < 1:
        raise SchemaError(f"trials must be at least 1, got {args.trials}", "--trials")
    prec, top = args.precision, jsonio.MAX_PRECISION
    if prec is not None:
        floor = max(verify.PRECISION_FLOORS[s](p) for s in suites for p in ps)
        if prec < floor:
            raise SchemaError(
                f"precision {prec} is below {floor}, "
                "the floor of the requested suites and primes",
                "--precision",
            )
        if prec > top:
            raise SchemaError(f"working precision {prec} is above {top}", "--precision")
    report = verify.run_suite(args.suite, ps, ranks, prec, args.trials, args.seed)
    return report, (0 if report["fail"] == 0 else 1)


# ---------------------------------------------------------------- parser


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-i", dest="input", action="append", metavar="FILE", help="input JSON document (repeatable, - for stdin)")
    sub.add_argument("-o", dest="output", metavar="FILE", help="output file (- or omitted for stdout)")
    sub.add_argument("--json", action="store_true", help="compact canonical output instead of indented")
    sub.add_argument("--p", type=int, metavar="P", help="fallback prime for documents without field keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Exact arithmetic for connections, their p-curvature, and the "
        "flat/Higgs correspondence on a truncated disk in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("pcurv", cmd_pcurv, "p-curvature of a connection"),
        ("invariants", cmd_invariants, "characteristic coefficients of a matrix"),
        ("phitchin", cmd_phitchin, "descended characteristic data of a connection"),
        ("cartier", cmd_cartier, "apply the one-form descent operator"),
        ("hp", cmd_hp, "evaluate the obstruction map on (scalar, form)"),
        ("solve-hp", cmd_solve_hp, "section of the obstruction map at a target"),
        ("dlog", cmd_dlog, "logarithmic derivative of a unit series"),
        ("descend", cmd_descend, "rewrite a series of p-th powers in the descended variable"),
        ("solve-harmonic", cmd_solve_harmonic, "full correspondence package for a connection"),
        ("cmap", cmd_cmap, "connection attached to a harmonic datum and a field"),
        ("cinv", cmd_cinv, "field attached to a connection through an inverse datum"),
    ]
    for name, func, descr in specs:
        s = sub.add_parser(name, help=descr, description=descr)
        _add_io_flags(s)
        s.set_defaults(func=func)

    v = sub.add_parser("verify", help="run seeded property suites", description="run seeded property suites")
    v.add_argument("--suite", default="all", choices=("all",) + verify.SUITES, help="which suite to run")
    v.add_argument("--p", metavar="LIST", help=f"comma separated primes up to {verify.MAX_PRIME} (default 2,3,5)")
    v.add_argument("--rank", default="1,2", metavar="LIST", help="comma separated ranks (default 1,2)")
    v.add_argument("--precision", type=int, default=None, help="working precision (default 3p+4 per prime)")
    v.add_argument("--trials", type=int, default=25, help="trials per property and grid cell")
    v.add_argument("--seed", type=int, default=0, help="seed for the deterministic stream")
    v.add_argument("-o", dest="output", metavar="FILE", help="output file (- or omitted for stdout)")
    v.add_argument("--json", action="store_true", help="compact canonical output instead of indented")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, code = args.func(args)
    except SchemaError as exc:
        _print_error(exc)
        return 2
    except PdiskError as exc:
        _print_error(exc)
        return 1
    _emit(obj, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
