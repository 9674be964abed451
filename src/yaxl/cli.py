"""Command-line front end.

Exit codes: 0 success, 1 a checked property is false, 2 bad input,
3 a theorem guarantee (``fnmap.guarantee``) was violated, also under
``python -O`` — should never happen.

Artifacts written by a command carry a provenance record: the SHA-256 of
the input file's bytes, the tool version, and the seed for randomized
commands.
For text formats it is a leading '#' comment (parsers skip those); for
JSON it is a "_provenance" key (parsers ignore extra keys).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from . import constructions, enumeration, fnmap, plonka, serialization, shelves, solutions, twists


def _emit(args, payload: str, seed=None) -> None:
    """Write an artifact to args.output (or stdout) with its provenance:
    the SHA-256 of the input file's bytes (of no bytes for a command
    that reads no file), the tool version, and the seed if one was drawn."""
    provenance = {"input_sha256": hashlib.sha256(getattr(args, "data", b"")).hexdigest(),
                  "tool": f"yaxl {__version__}"}
    if seed is not None:
        provenance["seed"] = seed
    if payload.startswith("{"):
        # every JSON writer dumps a non-empty object, so the payload ends
        # with the object's closing brace, and the record goes before it
        out = payload[:-1] + ', "_provenance": ' + json.dumps(provenance) + "}\n"
    else:
        out = "# " + json.dumps(provenance) + "\n" + payload
    if args.output:
        with open(args.output, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)


def _emit_as(args, kind: str, obj) -> None:
    """Write ``obj``, a ``kind`` ("magma" or "solution"), in args.format."""
    write = getattr(serialization, f"{kind}_to_{args.format}")
    _emit(args, write(obj))


def _print_report(args, report: dict) -> None:
    if getattr(args, "human", False):
        for k, v in report.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(report, default=str))


def _load(kind: str, text: str):
    """Read a ``kind`` ("magma" or "solution") in JSON or text format."""
    fmt = "json" if text.lstrip().startswith("{") else "text"
    return getattr(serialization, f"{kind}_from_{fmt}")(text)


# ---------------------------------------------------------------------------
# check


def _check_shelf(table) -> dict:
    report = {"left_shelf": shelves.is_left_shelf(table)}
    if not report["left_shelf"]:
        return report
    # the table is a left shelf, so it is a quasi rack iff its rows form a regular family
    family = fnmap.regular_family(table)
    q = None if family is None else shelves.QuasiRack(table, *family)
    # a rack is a quasi rack whose idempotents are all the identity
    rack = q is not None and all(z == tuple(range(q.n)) for z in q.L_zero)
    quasi_quandle = q is not None and shelves.is_quasi_quandle(q)
    report.update(rack=rack, quandle=rack and quasi_quandle, quasi_rack=q is not None)
    if q is None:
        return report
    report["quasi_quandle"] = quasi_quandle
    report.update(enumeration.quasi_rack_profile(q))
    if report["derived_is_solution"]:
        r = solutions.pair_map(shelves.derived_map(q))
        report["derived_quasi_bijective"] = fnmap.relative_inverse(r) is not None
    return report


def _check_solution(s) -> dict:
    try:
        flags = solutions.classify(s)  # decides the braid identity
    except ValueError:
        return {"solution": False}
    report = {
        "solution": True,
        "bijective": flags.bijective,
        "involutive": flags.involutive,
        "idempotent": flags.idempotent,
        "cubic": flags.cubic,
        "left_nondegenerate": flags.left_nd,
        "right_nondegenerate": flags.right_nd,
    }
    inv = solutions.quasi_bijective(s)
    report["quasi_bijective"] = inv is not None
    if inv is not None:
        report["relative_inverse_is_solution"] = solutions.is_solution(inv)
    d = solutions.quasi_left_nondeg(s)
    report["quasi_left_nondegenerate"] = d is not None
    report["quasi_right_nondegenerate"] = solutions.quasi_right_nondeg(s) is not None
    if d is not None:
        report["A"] = solutions.check_A(s, d)
        report["B"] = solutions.check_B(s, d)
        report["C"] = solutions.check_C(s, d)
    return report


def cmd_check(args) -> int:
    if args.kind == "shelf":
        report = _check_shelf(_load("magma", args.text))
        ok = report["left_shelf"]
    elif args.kind == "solution":
        report = _check_solution(_load("solution", args.text))
        ok = report["solution"]
    elif args.kind == "clifford":
        table = _load("magma", args.text)
        inverse = constructions.is_inverse_semigroup(table)
        ok = inverse and constructions.idempotents_commute(table)
        report = {"inverse_semigroup": inverse, "clifford": ok}
    elif args.kind == "weak-brace":
        add, mul = serialization.weak_brace_tables(args.text)
        report = constructions.weak_brace_validate(add, mul)
        if report["valid"]:
            report["dual"] = report["mul_inverse_semigroup"] and constructions.idempotents_commute(mul)
        ok = report["valid"]
    elif args.kind == "twist":
        t = serialization.twist_from_json(args.text)
        report = {
            "twist_family": True,
            "g_twist": twists.is_g_twist(t),
            "endomorphic_inverses": twists.phi_triple_is_endomorphic(t),
        }
        ok = report["g_twist"]
    elif args.kind == "plonka":
        report = plonka.sum_structure_check(serialization.plonka_from_json(args.text))
        ok = True
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    _print_report(args, report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# enumerate / table1


def cmd_enumerate(args) -> int:
    filters = sorted(set(args.filter or ()))
    tables = enumeration.enumerate_canonical(
        args.n, args.klass, filters, workers=args.workers, override=args.override
    )
    if args.stream:
        blocks = [serialization.magma_to_text(t) for t in tables]
        sys.stdout.write("\n".join(blocks))
        print(f"# count: {len(tables)}")
    else:
        _print_report(args, {"n": args.n, "class": args.klass,
                             "filters": filters, "count": len(tables)})
    return 0


def cmd_table1(args) -> int:
    ok = True
    header = ("n",) + enumeration.TABLE1_COLUMNS
    rows = []
    for n in (2, 3, 4):
        row = enumeration.table1_row(n, workers=args.workers)
        rows.append((n,) + row)
        if row != enumeration.TABLE1_EXPECTED[n]:
            ok = False
    if args.human:
        print("  ".join(f"{h:>6}" for h in header))
        for row in rows:
            print("  ".join(f"{v:>6}" for v in row))
    else:
        print(json.dumps({"columns": header, "rows": rows, "match": ok}))
    if not ok:
        print("MISMATCH against expected enumeration counts", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# derive / construct / decompose / twist / search


def cmd_derive(args) -> int:
    table = _load("magma", args.text)
    q = shelves.quasi_rack_structure(table)
    if q is None:
        print("input is not a quasi rack", file=sys.stderr)
        return 1
    _emit_as(args, "solution", shelves.derived_map(q))
    return 0


def cmd_construct(args) -> int:
    if args.what == "plonka-sum":
        p = serialization.plonka_from_json(args.text)
        table = plonka.checked_sum(p).table
    elif args.what == "clifford":
        sys_ = serialization.system_from_json(args.text)
        table = constructions.clifford_from_system(sys_).mul
    elif args.what in ("conjugation", "core", "deformed"):
        c = constructions.clifford_table(_load("magma", args.text))
        if args.what == "conjugation":
            table = constructions.conjugation_quasi_quandle(c)
        elif args.what == "core":
            table = constructions.core_quasi_quandle(c)
        else:
            if args.idempotent is None:
                raise ValueError("deformed construction requires --idempotent")
            table = constructions.deformed_quasi_rack(c, args.idempotent)
    elif args.what == "brace-solution":
        b = serialization.weak_brace_from_json(args.text)
        _emit_as(args, "solution", constructions.brace_solution(b))
        return 0
    else:
        raise ValueError(f"unknown construction {args.what!r}")
    _emit_as(args, "magma", table)
    return 0


def cmd_decompose(args) -> int:
    q = shelves.quasi_rack_structure(_load("magma", args.text))
    reason = "decomposition requires a quasi rack with (*) and (***)"
    try:  # decides (*) and (***), and checks that the sum of p is q relabeled
        p = None if q is None else plonka.decompose(q)
    except ValueError as e:
        p = None
        if not q.n:  # (*) and (***) hold vacuously: the reason is that q is empty
            reason = str(e)
    if p is None:
        print(reason, file=sys.stderr)
        return 1
    _emit(args, serialization.plonka_to_json(p))
    return 0


def cmd_twist(args) -> int:
    if args.extract:
        s = _load("solution", args.text)
        t = twists.twist_from_solution(s)
        _emit(args, serialization.twist_to_json(t))
        return 0
    t = serialization.twist_from_json(args.text)
    if not twists.is_g_twist(t):
        print("twist family is not a g-twist", file=sys.stderr)
        return 1
    _emit_as(args, "solution", twists.solution_from_twist(t))
    return 0


def cmd_search(args) -> int:
    fn = enumeration.search_question1 if args.question == 1 else enumeration.search_question2
    report = fn(args.n, seed=args.seed, samples=args.samples)
    if args.output:
        _emit(args, json.dumps(report), seed=report["seed"])
    else:
        _print_report(args, report)
    return 0


# ---------------------------------------------------------------------------


# The arguments of each command, read by both ways ``build_parser`` builds:
# name -> (help, handler, [(flags, add_argument keywords), ...]), in help order.
_FLAG = {"action": "store_true"}
_PATH, _OUTPUT, _HUMAN = ("path", {}), ("-o --output", {}), ("--human", _FLAG)
_FORMAT = ("--format", {"choices": ["text", "json"], "default": "text"})
_WORKERS = ("--workers", {"type": int, "default": 1})
_N = ("--n", {"type": int, "required": True})

COMMANDS = {
    "check": ("validate and classify a structure file", cmd_check, [
        ("kind", {"choices": ["shelf", "solution", "clifford", "weak-brace", "twist", "plonka"]}),
        _PATH, _HUMAN]),
    "enumerate": ("count or stream isomorphism classes", cmd_enumerate, [
        _N,
        ("--class", {"dest": "klass", "choices": enumeration.CLASSES, "required": True}),
        ("--filter", {"action": "append", "choices": enumeration.FILTERS}),
        ("--stream", _FLAG),
        _WORKERS,
        ("--override", {**_FLAG, "help": "bypass the size guard"}),
        _HUMAN,
    ]),
    "table1": ("reproduce the enumeration table for n = 2, 3, 4", cmd_table1, [_WORKERS, _HUMAN]),
    "derive": ("derived solution of a quasi rack", cmd_derive, [_PATH, _OUTPUT, _FORMAT]),
    "construct": ("build a structure from a description file", cmd_construct, [
        ("what", {"choices": ["plonka-sum", "clifford", "conjugation", "core", "deformed", "brace-solution"]}),
        _PATH, _OUTPUT, _FORMAT, ("--idempotent", {"type": int})]),
    "decompose": ("Plonka decomposition of a quasi rack", cmd_decompose, [_PATH, _OUTPUT]),
    "twist": ("solution of a g-twist (or extract one with --extract)", cmd_twist, [
        _PATH, _OUTPUT, _FORMAT, ("--extract", _FLAG)]),
    "search": ("counterexample search for the open questions", cmd_search, [
        ("--question", {"type": int, "choices": [1, 2], "required": True}),
        _N,
        ("--seed", {"type": int}),
        ("--samples", {"type": int, "default": 10000}),
        _OUTPUT,
    ]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    The usage line lists every command either way, so an argv that
    starts with ``command`` gets the same help, usage and errors from
    both parsers."""
    parser = argparse.ArgumentParser(prog="yaxl")
    parser.add_argument("--version", action="version", version=__version__)
    # None lets argparse list the commands it has; here it has one
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_, fn, specs = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, keywords in specs:
            p.add_argument(*flags.split(), **keywords)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command needs only its own parser; anything else (no
    # command, -h, --version, a misspelt name) gets every command's
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if "path" in args:
            # the input, read once; its text is UTF-8 with the line ends
            # kept and one leading byte-order mark dropped
            with open(args.path, "rb") as f:
                args.data = f.read()
            args.text = args.data.decode().removeprefix("\ufeff")
        return args.fn(args)
    except (OSError, ValueError) as e:  # so are UnicodeDecodeError and json.JSONDecodeError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error (theorem guarantee violated): {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
