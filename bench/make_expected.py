"""Regenerate ``expected.json``: the pinned inputs and outputs of the
benchmark.

    python3 bench/make_expected.py

Run it only when a change is meant to alter yaxl's outputs; the diff of
``expected.json`` then shows every output that moved.  It records:

- the input populations: racks and quasi racks with n <= 4, the
  homomorphisms between those racks, the completely regular
  endomorphisms of each quasi rack with 2 <= n <= 4, the 84 dual weak
  braces, and the size of the Plonka population built from them;
- the expected outputs: each quasi rack's derived-map verdict, every
  enumeration command of both sizes, and every search report (the
  sampled ones for each of the ``SEARCH_SEEDS`` program seeds).
"""

from __future__ import annotations

import itertools
import json
import sys

import run
import workloads


def rack_homs(a, b) -> list:
    na, nb = len(a), len(b)
    return [
        list(f)
        for f in itertools.product(range(nb), repeat=na)
        if all(f[a[x][y]] == b[f[x]][f[y]] for x in range(na) for y in range(na))
    ]


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    y = run.Yaxl()
    canonical = y.enumeration.enumerate_canonical
    racks = [[list(r) for r in t] for n in range(1, 5) for t in canonical(n, "rack")]
    homs = [
        [i, j, maps]
        for i, a in enumerate(racks)
        for j, b in enumerate(racks)
        if (maps := rack_homs(a, b))
    ]
    quasi = []
    for n in range(1, 5):
        for t in canonical(n, "quasi_rack"):
            text = json.dumps({"n": n, "table": t})
            verdict = workloads.quasi_rack_verdict(y, text)
            quasi.append({"table": [list(r) for r in t], "verdict": verdict})
    pools = {}
    for n in (2, 3, 4):
        pools[str(n)] = [
            [i, [list(f) for f in y.shelves.endomorphisms(q["table"])
                 if y.fnmap.is_completely_regular(f)]]
            for i, q in enumerate(quasi)
            if len(q["table"]) == n
        ]
    braces = [
        {"add": [list(r) for r in b.add], "mul": [list(r) for r in b.mul]}
        for b in y.constructions.dual_weak_brace_fixtures(max_size=5, max_skew_order=4)
    ]
    pins = {
        "racks": racks,
        "rack_homs": homs,
        "quasi_racks": quasi,
        "twist_pools": pools,
        "braces": braces,
    }
    pins["plonka_population"] = len(workloads.plonka_population(pins))

    enumerate_pins = {}
    for jobs in workloads.ENUMERATE_JOBS.values():
        for name, argv in jobs.items():
            out = workloads.run_cli(y, argv + ["--workers", "1"])
            enumerate_pins[name] = workloads.summarize_enumerate(*out)
    pins["enumerate"] = enumerate_pins

    search = {}
    for q, n in sorted({job for jobs in workloads.SEARCH_JOBS.values() for job in jobs}):
        if n < 4:
            argv = ["search", "--question", str(q), "--n", str(n)]
            search[f"q{q}-{n}"] = workloads.summarize_search(*workloads.run_cli(y, argv))
    pins["search"] = search
    sampled = {}
    for seed in range(workloads.SEARCH_SEEDS):
        sampled[str(seed)] = {}
        for q in (1, 2):
            argv = ["search", "--question", str(q), "--n", "4", "--seed", str(seed),
                    "--samples", str(workloads.SEARCH_SAMPLES)]
            sampled[str(seed)][f"q{q}"] = workloads.summarize_search(*workloads.run_cli(y, argv))
    pins["search_sampled"] = sampled

    workloads.EXPECTED_PATH.write_text(json.dumps(pins, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
