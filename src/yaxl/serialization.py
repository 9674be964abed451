"""File formats.

Text formats: a magma is "n" on the first line followed by n rows of n
space-separated 0-based entries (row x is the translation L_x); a
solution is two such blocks (lambda then rho) separated by a blank
line, sharing one leading "n".  JSON formats mirror the in-memory
layout:

  magma      {"n": ..., "table": [[...]]}
  solution   {"n": ..., "lambda": [[...]], "rho": [[...]]}
  twist      {"shelf": <magma>, "phi": [[...], ...]}
  system     {"semilattice": {"m": ..., "meet": [[...]]},
              "groups": [<Cayley>, ...],
              "homs": [{"from": a, "to": b, "map": [...]}, ...]}
  weak brace {"n": ..., "add": [[...]], "mul": [[...]]}
  plonka     like system, with "fibers" of rack tables in place of "groups"

The weak brace "n" and the semilattice "m" may be left out; when given
they must be integers equal to the size of their tables.
Parsers raise ValueError with a line reference on malformed text, and
refuse any line after the last row that is neither blank nor a '#'
comment.
"""

from __future__ import annotations

import json

from .constructions import SemilatticeSystem, WeakBrace, make_weak_brace
from .shelves import Magma, validate_table
from .solutions import Solution
from .twists import TwistFamily, make_twist_family


def _content(text: str) -> tuple:
    """The lines that are not '#' comments, and the number of each in
    the text, then that of the line after the text (of a missing row)."""
    lines = text.splitlines()
    kept = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    return [lines[k] for k in kept], [k + 1 for k in kept] + [len(lines) + 1]


def _parse_rows(lines, numbers, n, start):
    rows = []
    for idx in range(start, start + n):
        try:
            row = tuple(int(v) for v in lines[idx].split())
        except (IndexError, ValueError):
            raise ValueError(f"line {numbers[idx]}: expected {n} integers")
        if len(row) != n:
            raise ValueError(f"line {numbers[idx]}: expected {n} entries, got {len(row)}")
        rows.append(row)
    return tuple(rows)


def _parse_end(lines, numbers, start) -> None:
    """Refuse a line at ``start`` or after that is neither blank nor a
    comment: the text holds one structure."""
    for idx in range(start, len(lines)):
        if lines[idx].strip():
            raise ValueError(f"line {numbers[idx]}: unexpected content after the last row")


def _parse_size(lines, numbers) -> int:
    try:
        n = int(lines[0])
    except (IndexError, ValueError):
        raise ValueError(f"line {numbers[0]}: expected the carrier size")
    if n < 0:
        raise ValueError(f"line {numbers[0]}: the carrier size is negative")
    return n


def json_object(text: str, *keys: str) -> dict:
    """Parse a JSON text whose top level must be an object holding every
    one of ``keys``."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value is not an object")
    for k in keys:
        if k not in data:
            raise ValueError(f"JSON object has no {k!r} key")
    return data


def _json_int(value, what: str) -> int:
    """A JSON number documented as an integer: reject floats and bools."""
    if type(value) is not int:
        raise ValueError(f"{what} is not an integer")
    return value


def _check_declared_size(data: dict, key: str, size: int) -> None:
    """A size key, when present, must be the integer ``size``."""
    if key in data and _json_int(data[key], f"size {key!r}") != size:
        raise ValueError(f"declared size {key!r} does not match the tables")


def magma_to_text(table: Magma) -> str:
    n = len(table)
    return "\n".join([str(n)] + [" ".join(map(str, row)) for row in table]) + "\n"


def magma_from_text(text: str) -> Magma:
    lines, numbers = _content(text)
    n = _parse_size(lines, numbers)
    table = _parse_rows(lines, numbers, n, 1)
    _parse_end(lines, numbers, 1 + n)
    return validate_table(table)


def magma_to_json(table: Magma) -> str:
    return json.dumps({"n": len(table), "table": table})


def magma_from_json(text: str) -> Magma:
    data = json_object(text, "n", "table")
    table = validate_table(data["table"])
    _check_declared_size(data, "n", len(table))
    return table


def solution_to_text(s: Solution) -> str:
    rows = [str(s.n)]
    rows += [" ".join(map(str, r)) for r in s.lam]
    rows.append("")
    rows += [" ".join(map(str, r)) for r in s.rho]
    return "\n".join(rows) + "\n"


def solution_from_text(text: str) -> Solution:
    lines, numbers = _content(text)
    n = _parse_size(lines, numbers)
    lam = _parse_rows(lines, numbers, n, 1)
    if n > 0 and (len(lines) <= 1 + n or lines[1 + n].strip()):
        raise ValueError(f"line {numbers[1 + n]}: expected a blank separator line")
    rho = _parse_rows(lines, numbers, n, 2 + n)
    _parse_end(lines, numbers, 2 + 2 * n if n else 1)  # no separator line without rows
    validate_table(lam), validate_table(rho)
    return Solution(lam=lam, rho=rho)


def solution_to_json(s: Solution) -> str:
    return json.dumps({"n": s.n, "lambda": s.lam, "rho": s.rho})


def solution_from_json(text: str) -> Solution:
    data = json_object(text, "n", "lambda", "rho")
    lam = validate_table(data["lambda"])
    rho = validate_table(data["rho"])
    if not len(lam) == len(rho) == _json_int(data["n"], "size 'n'"):
        raise ValueError("declared size does not match the tables")
    return Solution(lam=lam, rho=rho)


def twist_to_json(t: TwistFamily) -> str:
    return json.dumps({"shelf": t.table, "phi": t.phi})


def twist_from_json(text: str) -> TwistFamily:
    data = json_object(text, "shelf", "phi")
    return make_twist_family(data["shelf"], data["phi"])


def _system_to_json(sys: SemilatticeSystem, fiber_key: str) -> str:
    return json.dumps(
        {
            "semilattice": {"m": sys.points, "meet": sys.meet},
            fiber_key: sys.fibers,
            "homs": [{"from": a, "to": b, "map": f} for (a, b), f in sorted(sys.homs.items())],
        }
    )


def _system_from_json(text: str, fiber_key: str) -> SemilatticeSystem:
    data = json_object(text, "semilattice", fiber_key, "homs")
    try:
        meet = validate_table(data["semilattice"]["meet"])
        _check_declared_size(data["semilattice"], "m", len(meet))
        fibers = tuple(validate_table(f) for f in data[fiber_key])
        homs = {}
        for h in data["homs"]:
            a, b = _json_int(h["from"], "hom key 'from'"), _json_int(h["to"], "hom key 'to'")
            if (a, b) in homs:
                raise ValueError(f"phi[{(a, b)}] is given twice")
            homs[a, b] = tuple(h["map"])
    except (TypeError, KeyError):
        raise ValueError("system is not laid out as documented") from None
    return SemilatticeSystem(meet, fibers, homs)


def system_to_json(sys: SemilatticeSystem) -> str:
    return _system_to_json(sys, "groups")


def system_from_json(text: str) -> SemilatticeSystem:
    return _system_from_json(text, "groups")


def weak_brace_to_json(b: WeakBrace) -> str:
    return json.dumps({"n": b.n, "add": b.add, "mul": b.mul})


def weak_brace_tables(text: str) -> tuple:
    """The add and mul tables of a weak brace JSON text, shape-checked."""
    data = json_object(text, "add", "mul")
    add, mul = validate_table(data["add"]), validate_table(data["mul"])
    _check_declared_size(data, "n", len(add))
    return add, mul


def weak_brace_from_json(text: str) -> WeakBrace:
    return make_weak_brace(*weak_brace_tables(text))


def plonka_to_json(p: SemilatticeSystem) -> str:
    return _system_to_json(p, "fibers")


def plonka_from_json(text: str) -> SemilatticeSystem:
    return _system_from_json(text, "fibers")
