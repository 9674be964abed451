"""Workload inputs, the ops that run them and the checks on their outputs.

Every input is a pure function of the workload name, the size and the
seed.  The program sees only what an op hands it: CLI argument lists
(``enumerate`` and ``search``) or JSON texts that it parses with
``yaxl.serialization`` (``sweep``).  Expected outputs are pinned in
``expected.json`` next to this file; nothing expected is read from
``yaxl`` itself.

Ops reach yaxl only through the module objects in ``y`` (attribute
lookups at call time), so the tracer's patched bindings are the ones
that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Any, NamedTuple

EXPECTED_PATH = Path(__file__).with_name("expected.json")
WORKLOADS = ("enumerate", "search", "sweep")
SIZES = ("full", "smoke")

# Sampled searches run with ``--seed <seed mod SEARCH_SEEDS>``: their
# reports are pinned for exactly these program seeds.
SEARCH_SEEDS = 64
SEARCH_SAMPLES = 10000

# sweep mix per pass: (Plonka systems, twist families per n in 2..4,
# quasi racks, dual weak braces); None means every pinned structure.
SWEEP_MIX = {"full": (600, 1000, None, None), "smoke": (20, 10, 20, 5)}

# A pass must be short enough to repeat several times within one run, so
# ``enumerate --n 4 --class shelf`` (about 11 s) is left out, and the
# stream job runs at n = 3: at n = 4 it would repeat the quasi-rack search
# that ``table1`` already makes, for 1.7 s.
ENUMERATE_JOBS = {
    "full": {
        "table1": ["table1"],
        "shelf-3": ["enumerate", "--n", "3", "--class", "shelf"],
        "rack-5": ["enumerate", "--n", "5", "--class", "rack"],
        "quandle-5": ["enumerate", "--n", "5", "--class", "quandle"],
        "stream-quasi_rack-3": ["enumerate", "--n", "3", "--class", "quasi_rack", "--stream"],
    },
    "smoke": {
        "table1": ["table1"],
        "shelf-3": ["enumerate", "--n", "3", "--class", "shelf"],
        "rack-4": ["enumerate", "--n", "4", "--class", "rack"],
        "quandle-4": ["enumerate", "--n", "4", "--class", "quandle"],
        "stream-quasi_rack-3": ["enumerate", "--n", "3", "--class", "quasi_rack", "--stream"],
    },
}

# (question, n); n = 4 is the seeded, sampled path.  Q2 at n = 3 is left
# out: one exhaustive search takes about 36 s, longer than a whole run.
SEARCH_JOBS = {
    "full": [(1, 2), (1, 3), (2, 2), (1, 4), (2, 4)],
    "smoke": [(1, 2), (2, 2), (1, 4), (2, 4)],
}


class Op(NamedTuple):
    kind: str  # key of RUNNERS
    arg: Any  # argv list or JSON text
    expect: Any  # pinned output


def load_pins() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(y, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = y.cli.main(list(argv))
    return code, buf.getvalue()


def summarize_enumerate(code: int, out: str) -> dict:
    """The pinned view of one enumeration command's output."""
    if out.startswith("{"):
        report = json.loads(out)
        if "rows" in report:
            return {"code": code, "rows": report["rows"]}
        return {"code": code, "count": report["count"]}
    tables = sum(1 for block in out.split("\n\n") if block.strip() and not block.startswith("#"))
    return {"code": code, "tables": tables, "sha256": _sha256(out)}


def summarize_search(code: int, out: str) -> dict:
    """Counts plus a digest of the candidate list of one search report."""
    report = json.loads(out)
    checked = report.get("pairs_checked", report.get("solutions_meeting_hypotheses"))
    return {
        "code": code,
        "exhaustive": report["exhaustive"],
        "checked": checked,
        "candidates": len(report["candidates"]),
        "digest": _sha256(json.dumps(report["candidates"])),
    }


def _run_enumerate(y, argv):
    return summarize_enumerate(*run_cli(y, argv))


def _run_search(y, argv):
    return summarize_search(*run_cli(y, argv))


def _run_plonka(y, text):
    p = y.serialization.plonka_from_json(text)
    y.plonka.plonka_sum(p)
    report = y.plonka.sum_structure_check(p)
    return bool(
        report["quasi_rack"]
        and report["closed_forms"]
        and y.plonka.solution_as_strong_semilattice(p)
    )


def _run_twist(y, text):
    return y.twists.twist_theorem_roundtrip(y.serialization.twist_from_json(text))


def quasi_rack_verdict(y, text) -> str:
    """Derived map of a quasi rack: solution flags and quasi bijectivity."""
    q = y.shelves.quasi_rack_structure(y.serialization.magma_from_json(text))
    s = y.shelves.derived_map(q)
    if not y.solutions.is_solution(s):
        return "not_solution"
    flags = vars(y.solutions.classify(s))
    true = sorted(k for k, v in flags.items() if v)
    if y.solutions.quasi_bijective(s) is not None:
        true.append("quasi_bijective")
    return "solution:" + ",".join(true)


def _run_brace(y, text):
    c, s_mod, fn = y.constructions, y.solutions, y.fnmap
    b = y.serialization.weak_brace_from_json(text)
    s = c.brace_solution(b)
    if not (s_mod.is_solution(s) and s_mod.quasi_bijective(s) is not None):
        return False
    r = s_mod.pair_map(s)
    rop = s_mod.pair_map(c.brace_solution(c.opposite_brace(b)))
    return bool(
        fn.compose(fn.compose(r, rop), r) == r
        and fn.compose(fn.compose(rop, r), rop) == rop
        and fn.compose(r, rop) == fn.compose(rop, r)
        and c.lambda_rho_clifford_check(b)
        and c.brace_structure_shelf_check(b)
    )


# Op kinds that are a whole CLI command, each normally a process of its own.
COMMANDS = {"enumerate", "search"}

RUNNERS = {
    "enumerate": _run_enumerate,
    "search": _run_search,
    "plonka": _run_plonka,
    "twist": _run_twist,
    "quasi_rack": quasi_rack_verdict,
    "brace": _run_brace,
}


def run_op(y, op: Op):
    """The op's output, or the text of the exception it raised."""
    try:
        return RUNNERS[op.kind](y, op.arg)
    except Exception as e:  # a failed op is counted, never fatal
        return f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# inputs


def _rng(workload: str, size: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{size}:{seed}")


def enumerate_ops(seed: int, size: str, pins: dict) -> list:
    jobs = list(ENUMERATE_JOBS[size].items())
    _rng("enumerate", size, seed).shuffle(jobs)
    expect = pins["enumerate"]
    return [Op("enumerate", argv + ["--workers", "1"], expect[name]) for name, argv in jobs]


def search_ops(seed: int, size: str, pins: dict) -> list:
    program_seed = seed % SEARCH_SEEDS
    ops = []
    for q, n in SEARCH_JOBS[size]:
        argv = ["search", "--question", str(q), "--n", str(n)]
        if n >= 4:
            argv += ["--seed", str(program_seed), "--samples", str(SEARCH_SAMPLES)]
            expect = pins["search_sampled"][str(program_seed)][f"q{q}"]
        else:
            expect = pins["search"][f"q{q}-{n}"]
        ops.append(Op("search", argv, expect))
    _rng("search", size, seed).shuffle(ops)
    return ops


def _identity(table) -> list:
    return list(range(len(table)))


def plonka_population(pins: dict) -> list:
    """Every Plonka system of the acceptance sweep as (meet, fiber rack
    indices, homs keyed by (a, b)).

    One-point systems over every rack with <= 4 points; two-point chains
    over all pairs of such racks; three-point chains and V shapes over
    racks with <= 3 points.  Sorted by carrier size, so that contiguous
    slices hold systems of similar cost.
    """
    racks = pins["racks"]
    homs = {(i, j): maps for i, j, maps in pins["rack_homs"]}
    racks2 = range(len(racks))
    racks3 = [i for i in racks2 if len(racks[i]) <= 3]
    meet2 = [[0, 0], [0, 1]]
    meet3 = [[min(i, j) for j in range(3)] for i in range(3)]
    meet_v = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    out = [([[0]], (f,), {(0, 0): _identity(racks[f])}) for f in racks2]
    for top in racks2:
        for bot in racks2:
            for h in homs.get((top, bot), ()):
                ids = {(0, 0): _identity(racks[bot]), (1, 1): _identity(racks[top])}
                out.append((meet2, (bot, top), {**ids, (1, 0): h}))
    for f0 in racks3:
        for f1 in racks3:
            for f2 in racks3:
                base = {(i, i): _identity(racks[f]) for i, f in enumerate((f0, f1, f2))}
                for h21 in homs.get((f2, f1), ()):
                    for h10 in homs.get((f1, f0), ()):
                        h20 = [h10[v] for v in h21]
                        out.append((meet3, (f0, f1, f2), {**base, (2, 1): h21, (1, 0): h10, (2, 0): h20}))
                for h10 in homs.get((f1, f0), ()):
                    for h20 in homs.get((f2, f0), ()):
                        out.append((meet_v, (f0, f1, f2), {**base, (1, 0): h10, (2, 0): h20}))
    out.sort(key=lambda sys_: sum(len(racks[f]) for f in sys_[1]))
    return out


def _plonka_json(sys_, racks) -> str:
    meet, fibers, homs = sys_
    return json.dumps(
        {
            "semilattice": {"m": len(meet), "meet": meet},
            "fibers": [racks[f] for f in fibers],
            "homs": [{"from": a, "to": b, "map": m} for (a, b), m in sorted(homs.items())],
        }
    )


def _stratified(rng: random.Random, population: list, k: int) -> list:
    """One random member from each of k contiguous, near-equal slices."""
    n = len(population)
    return [population[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def sweep_ops(seed: int, size: str, pins: dict) -> list:
    n_plonka, twists_per_n, n_quasi, n_braces = SWEEP_MIX[size]
    rng = _rng("sweep", size, seed)
    racks = pins["racks"]
    ops = [
        Op("plonka", _plonka_json(s, racks), True)
        for s in _stratified(rng, plonka_population(pins), n_plonka)
    ]
    quasi = pins["quasi_racks"]
    for n in (2, 3, 4):
        pool = pins["twist_pools"][str(n)]
        for _ in range(twists_per_n):
            index, endos = pool[rng.randrange(len(pool))]
            phi = [rng.choice(endos) for _ in range(n)]
            text = json.dumps({"shelf": quasi[index]["table"], "phi": phi})
            ops.append(Op("twist", text, True))
    chosen = quasi if n_quasi is None else rng.sample(quasi, n_quasi)
    for entry in chosen:
        text = json.dumps({"n": len(entry["table"]), "table": entry["table"]})
        ops.append(Op("quasi_rack", text, entry["verdict"]))
    braces = pins["braces"]
    chosen = braces if n_braces is None else rng.sample(braces, n_braces)
    for b in chosen:
        ops.append(Op("brace", json.dumps({"n": len(b["add"]), **b}), True))
    rng.shuffle(ops)
    return ops


MAKE_OPS = {"enumerate": enumerate_ops, "search": search_ops, "sweep": sweep_ops}


def build_ops(workload: str, seed: int, size: str, pins: dict) -> list:
    return MAKE_OPS[workload](seed, size, pins)


def input_digest(ops: list) -> str:
    """SHA-256 of the op inputs in order: equal digests, equal runs."""
    return _sha256(json.dumps([[op.kind, op.arg] for op in ops]))
