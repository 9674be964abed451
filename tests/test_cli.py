import argparse
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    INVERSE_NOT_A_SOLUTION,
    SSS_NOT_STAR,
    count_calls,
    dihedral_quandle,
    run_python,
    trivial_quandle,
    two_chain_clifford,
)
from yaxl import __version__, constructions, enumeration, plonka, shelves, solutions, twists
from yaxl.cli import _check_shelf, build_parser, main
from yaxl.constructions import SemilatticeSystem, cyclic_group, semilattice_sum, trivial_brace
from yaxl.enumeration import quasi_rack_profile
from yaxl.fnmap import identity
from yaxl.plonka import PlonkaSystem
from yaxl.serialization import (
    magma_from_text,
    magma_to_json,
    magma_to_text,
    plonka_from_json,
    plonka_to_json,
    solution_from_text,
    solution_to_json,
    solution_to_text,
    system_to_json,
    twist_to_json,
    weak_brace_to_json,
)
from yaxl.shelves import derived_map, quasi_rack_structure
from yaxl.solutions import quasi_bijective
from yaxl.twists import make_twist_family


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def test_check_shelf_ok(tmp_path, capsys):
    path = write(tmp_path, "q.txt", magma_to_text(dihedral_quandle(3)))
    assert main(["check", "shelf", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quandle"] and report["quasi_quandle"]
    assert report["derived_is_solution"]


def test_check_shelf_human_prints_one_line_per_flag(tmp_path, capsys):
    path = write(tmp_path, "q.txt", magma_to_text(SSS_NOT_STAR))
    assert main(["check", "shelf", path, "--human"]) == 0
    assert capsys.readouterr() == (
        "left_shelf: True\n"
        "rack: False\n"
        "quandle: False\n"
        "quasi_rack: True\n"
        "quasi_quandle: True\n"
        "star: False\n"
        "starstar: True\n"
        "starstarstar: True\n"
        "derived_is_solution: True\n"
        "derived_quasi_bijective: True\n",
        "",
    )


def _shelf_report(table):
    """check shelf's report, each flag read off its public predicate."""
    report = {"left_shelf": shelves.is_left_shelf(table)}
    if not report["left_shelf"]:
        return report
    report["rack"] = shelves.is_rack(table)
    report["quandle"] = shelves.is_quandle(table)
    q = quasi_rack_structure(table)
    report["quasi_rack"] = q is not None
    if q is None:
        return report
    report["quasi_quandle"] = shelves.is_quasi_quandle(q)
    report.update(quasi_rack_profile(q))
    if report["derived_is_solution"]:
        report["derived_quasi_bijective"] = quasi_bijective(derived_map(q)) is not None
    return report


def test_check_shelf_report_matches_the_public_predicates():
    # every table with n <= 3; items compared in order, as they are printed
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            t = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            assert list(_check_shelf(t).items()) == list(_shelf_report(t).items()), t


def test_check_shelf_decides_self_distributivity_once(tmp_path, monkeypatch, capsys):
    # every row is the map (1, 2, 2), which is not completely regular: a
    # left shelf that is not a quasi rack
    path = write(tmp_path, "s.txt", magma_to_text(((1, 2, 2),) * 3))
    calls = count_calls(monkeypatch, shelves.is_left_shelf, shelves.quasi_rack_structure)
    assert main(["check", "shelf", path]) == 0
    # the quasi-rack data is read off regular_family, without a second
    # self-distributivity check inside quasi_rack_structure
    assert calls == {"is_left_shelf": 1, "quasi_rack_structure": 0}
    report = json.loads(capsys.readouterr().out)
    assert report == {"left_shelf": True, "rack": False, "quandle": False, "quasi_rack": False}


def test_check_shelf_builds_the_derived_map_once(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "q.txt", magma_to_text(dihedral_quandle(3)))
    calls = count_calls(monkeypatch, shelves.derived_map, shelves.is_quasi_quandle,
                        solutions.from_pair_map, shelves.is_left_shelf)
    assert main(["check", "shelf", path]) == 0
    # the derived map, which copies nothing, is built once for
    # derived_is_solution and, as it is a solution here, once for
    # derived_quasi_bijective, whose relative inverse is not decoded;
    # quandle and quasi_quandle share one diagonal test (2, 2 and 1 calls
    # when each flag was decided apart); rack and quandle are read off the
    # idempotents, so self-distributivity is decided once
    assert calls == {"derived_map": 2, "is_quasi_quandle": 1, "from_pair_map": 0, "is_left_shelf": 1}
    report = json.loads(capsys.readouterr().out)
    assert report["quandle"] is True and report["derived_quasi_bijective"] is True


def test_check_shelf_failing_property(tmp_path):
    # a non-shelf table: exit code 1, not an error
    path = write(tmp_path, "bad.txt", magma_to_text(((1, 0), (1, 1))))
    assert main(["check", "shelf", path]) == 1


def test_check_bad_input(tmp_path, capsys):
    path = write(tmp_path, "garbage.txt", "not a table\n")
    assert main(["check", "shelf", path]) == 2
    assert main(["check", "shelf", str(tmp_path / "missing.txt")]) == 2


def test_check_solution(tmp_path, capsys):
    s = derived_map(quasi_rack_structure(dihedral_quandle(3)))
    path = write(tmp_path, "s.txt", solution_to_text(s))
    assert main(["check", "solution", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"] and report["quasi_bijective"]
    assert report["relative_inverse_is_solution"]
    assert report["A"] and report["B"] and report["C"]


def test_check_solution_decides_the_braid_identity_once(tmp_path, monkeypatch, capsys):
    s = derived_map(quasi_rack_structure(dihedral_quandle(3)))
    path = write(tmp_path, "s.txt", solution_to_text(s))
    calls = count_calls(monkeypatch, solutions.is_solution)
    assert main(["check", "solution", path]) == 0
    # once in classify and once for the relative inverse (3 before: the
    # report's own flag decided it first)
    assert calls == {"is_solution": 2}
    assert json.loads(capsys.readouterr().out)["relative_inverse_is_solution"] is True


def test_check_solution_whose_relative_inverse_is_not_a_solution(tmp_path, capsys):
    path = write(tmp_path, "r.txt", solution_to_text(INVERSE_NOT_A_SOLUTION))
    assert main(["check", "solution", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"] and report["quasi_bijective"]
    assert report["relative_inverse_is_solution"] is False
    assert report["quasi_left_nondegenerate"] and report["quasi_right_nondegenerate"]


def test_check_solution_without_relative_inverse(tmp_path, capsys):
    # r(x, y) = (0, x) has no relative inverse, so no flag for one
    path = write(tmp_path, "r.txt", "2\n0 0\n0 0\n\n0 1\n0 1\n")
    assert main(["check", "solution", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quasi_bijective"] is False
    assert "relative_inverse_is_solution" not in report


def test_check_clifford_and_weak_brace(tmp_path, capsys):
    c = two_chain_clifford()
    path = write(tmp_path, "c.txt", magma_to_text(c.mul))
    assert main(["check", "clifford", path]) == 0
    b = trivial_brace(c)
    path = write(tmp_path, "b.json", weak_brace_to_json(b))
    assert main(["check", "weak-brace", path]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["valid"] and report["dual"]
    # a non-brace pair exits 1
    bad = json.dumps({"add": [[0, 1], [1, 0]], "mul": [[1, 0], [0, 1]]})
    path = write(tmp_path, "bad.json", bad)
    assert main(["check", "weak-brace", path]) == 1


@pytest.mark.parametrize(
    "command, brace, expected",
    [
        # dual is mul_inverse_semigroup plus the centrality test (3 and 3 before)
        (["check", "weak-brace"], True, {"is_associative": 2, "semigroup_inverses": 2}),
        # clifford is inverse_semigroup plus the centrality test (2 and 2 before)
        (["check", "clifford"], False, {"is_associative": 1, "semigroup_inverses": 1}),
        # clifford_table searches the inverses once (1 and 2 before)
        (["construct", "conjugation"], False, {"is_associative": 1, "semigroup_inverses": 1}),
    ],
)
def test_each_table_is_decided_an_inverse_semigroup_once(tmp_path, monkeypatch, capsys, command, brace, expected):
    c = two_chain_clifford()
    text = weak_brace_to_json(trivial_brace(c)) if brace else magma_to_text(c.mul)
    path = write(tmp_path, "in.txt", text)
    calls = count_calls(monkeypatch, constructions.is_associative, constructions.semigroup_inverses)
    assert main(command + [path]) == 0
    assert calls == expected


def test_check_twist_and_plonka(tmp_path, capsys):
    fam = make_twist_family(dihedral_quandle(3), tuple(identity(3) for _ in range(3)))
    path = write(tmp_path, "t.json", twist_to_json(fam))
    assert main(["check", "twist", path]) == 0
    p = PlonkaSystem(
        ((0, 0), (0, 1)),
        (trivial_quandle(1), dihedral_quandle(3)),
        {(0, 0): (0,), (1, 1): (0, 1, 2), (1, 0): (0, 0, 0)},
    )
    path = write(tmp_path, "p.json", plonka_to_json(p))
    assert main(["check", "plonka", path]) == 0


def test_enumerate_count(capsys):
    assert main(["enumerate", "--n", "3", "--class", "rack"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 6


def test_enumerate_stream(capsys):
    assert main(["enumerate", "--n", "2", "--class", "quandle", "--stream"]) == 0
    out = capsys.readouterr().out
    assert "# count: 1" in out


def test_check_refuses_a_stream_of_tables(tmp_path, capsys):
    # an enumerate --stream file holds several tables, here the two racks
    # on 2 points after a blank line each; check reads one
    assert main(["enumerate", "--n", "2", "--class", "rack", "--stream"]) == 0
    path = write(tmp_path, "stream.txt", capsys.readouterr().out)
    assert main(["check", "shelf", path]) == 2
    assert capsys.readouterr().err == "error: line 5: unexpected content after the last row\n"


@pytest.mark.parametrize("command, text, message", [
    ("shelf", "# header\n2\n0 1\n0 x\n", "line 4: expected 2 integers"),
    ("shelf", "# a\n# b\n2\n0 1\n", "line 5: expected 2 integers"),
    ("shelf", "# a\n2\n0 1\n# b\n0 1 1\n", "line 5: expected 2 entries, got 3"),
    ("solution", "# a\n2\n0 1\n0 1\n# b\n0 0\n0 0\n", "line 6: expected a blank separator line"),
    ("solution", "# a\n2\n0 1\n0 1\n", "line 5: expected a blank separator line"),
    ("shelf", "# a\n2\n0 1\n0 1\n# b\n1 0\n", "line 6: unexpected content after the last row"),
    ("solution", "# a\n2\n0 1\n0 1\n\n# b\n0 0\n0 0\n1\n", "line 9: unexpected content after the last row"),
    ("shelf", "# a\n\n", "line 2: expected the carrier size"),
], ids=["bad-entry", "missing-row", "long-row", "bad-separator", "missing-separator",
        "after-a-magma", "after-a-solution", "no-size"])
def test_parse_errors_count_comment_lines(tmp_path, capsys, command, text, message):
    # the line numbers are those of the file, '#' comment lines included
    assert main(["check", command, write(tmp_path, "t.txt", text)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_stream_workers_agree(capsys):
    command = ["enumerate", "--n", "4", "--class", "quasi_rack", "--stream"]
    assert main(command + ["--workers", "1"]) == 0
    single = capsys.readouterr().out
    assert main(command + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == single
    assert single.endswith("# count: 325\n")


def test_enumerate_guard(capsys):
    for n in ("8", "0"):
        assert main(["enumerate", "--n", n, "--class", "rack"]) == 2
        _assert_one_line_error(capsys)


@pytest.mark.parametrize("command", [["enumerate", "--n", "3", "--class", "rack"], ["table1"]])
def test_workers_below_one_are_refused(capsys, command):
    for workers in ("0", "-2"):
        assert main(command + ["--workers", workers]) == 2
        _assert_one_line_error(capsys)


def test_table1(capsys):
    assert main(["table1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["match"] and len(report["rows"]) == 3


def test_table1_human(capsys):
    assert main(["table1", "--human"]) == 0
    assert capsys.readouterr() == (
        "     n       r      qr      ds  qr_star  qr_starstar  qr_starstarstar\n"
        "     2       2       5       4       4       4       3\n"
        "     3       6      31      20      17      19      13\n"
        "     4      19     325     169      90     151      91\n",
        "",
    )


def test_derive_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "q.txt", magma_to_text(dihedral_quandle(3)))
    out = str(tmp_path / "s.txt")
    assert main(["derive", path, "-o", out]) == 0
    content = open(out).read()
    assert content.startswith("# ")  # provenance header
    s = solution_from_text(content)
    assert s == derived_map(quasi_rack_structure(dihedral_quandle(3)))


def test_derive_rejects_non_quasi_rack(tmp_path):
    path = write(tmp_path, "t.txt", magma_to_text(((0, 0), (1, 0))))
    assert main(["derive", path]) in (1, 2)


def test_construct_clifford_and_conjugation(tmp_path, capsys):
    z2 = cyclic_group(2)
    sys_ = SemilatticeSystem(
        ((0, 0), (0, 1)), (z2, z2), {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)}
    )
    spath = write(tmp_path, "sys.json", system_to_json(sys_))
    cpath = str(tmp_path / "c.txt")
    assert main(["construct", "clifford", spath, "-o", cpath]) == 0
    mul = magma_from_text(open(cpath).read())
    assert mul == two_chain_clifford().mul
    qpath = str(tmp_path / "conj.txt")
    assert main(["construct", "conjugation", cpath, "-o", qpath]) == 0
    assert quasi_rack_structure(magma_from_text(open(qpath).read())) is not None


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_Z2 = cyclic_group(2)
_CHAIN = ((0, 0), (0, 1))
# a two-point chain of one-point fibers (under the key given first) whose
# gluing map 1 -> 0 has the "from" and "to" values given next
_TWO_CHAIN_HOMS = (
    '{"semilattice": {"m": 2, "meet": [[0, 0], [0, 1]]}, "%s": [[[0]], [[0]]], '
    '"homs": [{"from": 0, "to": 0, "map": [0]}, {"from": 1, "to": 1, "map": [0]}, '
    '{"from": %s, "to": %s, "map": [0]}]}'
)


@pytest.mark.parametrize(
    "sys_",
    [
        # image outside the bottom fiber
        SemilatticeSystem(_CHAIN, (_Z2, _Z2), {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 5)}),
        # map shorter than the top fiber
        SemilatticeSystem(_CHAIN, (_Z2, _Z2), {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0,)}),
        # a fiber that is a semilattice, not a group
        SemilatticeSystem(((0,),), (((0, 0), (0, 1)),), {(0, 0): (0, 1)}),
    ],
    ids=["map-out-of-range", "map-too-short", "fiber-not-a-group"],
)
def test_construct_clifford_rejects_bad_system(tmp_path, capsys, sys_):
    path = write(tmp_path, "sys.json", system_to_json(sys_))
    assert main(["construct", "clifford", path]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "command, content",
    [
        (["check", "shelf"], '{"n": 2, "table": [[0, "a"], [0, 1]]}'),
        (["check", "shelf"], '{"n": 2, "table": [[0, true], [0, 1]]}'),
        (["check", "solution"], "2\n0 1\n0 1\n"),  # cut off after the lambda block
        (["check", "shelf"], "-1\n"),
        (["check", "shelf"], '{"n": 1, "table": [5]}'),
        (["check", "twist"], '{"shelf": [[0, 1], [0, 1]], "phi": [[0, 5], [0, 1]]}'),
        (["check", "twist"], '{"shelf": [[0, 1], [0, 1]], "phi": [[0, -1], [0, 1]]}'),
        (["check", "twist"], '{"shelf": [[0, 1], [0, 1]], "phi": [[0, true], [0, 1]]}'),
        (["check", "twist"], '{"shelf": [[0, 1], [0, 1]], "phi": [[0, 1], [0]]}'),
        (["check", "twist"], '{"shelf": [[0, 1], [0, 1]], "phi": [[0, 1]]}'),
        (["check", "plonka"], '{"semilattice": {"m": 1, "meet": [[0]]}, "fibers": [[[0]]], '
                              '"homs": [{"from": 0, "to": 0, "map": 5}]}'),
        (["check", "twist"], "[1]"),
        (["check", "weak-brace"], "[1]"),
        (["twist"], "[1]"),
        (["construct", "brace-solution"], "[1]"),
        (["check", "weak-brace"], '{"add": [[0, 1], [1, 0]], "mul": [[0]]}'),
        (["check", "solution"], '{"n": 2, "lambda": [[0, 1], [0, 1]], "rho": [[0]]}'),
        (["check", "shelf"], '{"n": true, "table": [[0]]}'),
        (["check", "shelf"], '{"n": 1.0, "table": [[0]]}'),
        (["check", "solution"], '{"n": true, "lambda": [[0]], "rho": [[0]]}'),
        (["check", "plonka"], _TWO_CHAIN_HOMS % ("fibers", "true", "false")),
        (["check", "plonka"], _TWO_CHAIN_HOMS % ("fibers", "1", "0.0")),
        (["construct", "clifford"], _TWO_CHAIN_HOMS % ("groups", "true", "false")),
        (["check", "weak-brace"], '{"n": 5, "add": [[0]], "mul": [[0]]}'),
        (["check", "weak-brace"], '{"n": true, "add": [[0]], "mul": [[0]]}'),
        (["construct", "brace-solution"], '{"n": 1.0, "add": [[0]], "mul": [[0]]}'),
        (["check", "plonka"], '{"semilattice": {"m": 7, "meet": [[0]]}, "fibers": [[[0]]], '
                              '"homs": [{"from": 0, "to": 0, "map": [0]}]}'),
        (["construct", "clifford"], '{"semilattice": {"m": true, "meet": [[0]]}, '
                                    '"groups": [[[0]]], "homs": [{"from": 0, "to": 0, "map": [0]}]}'),
        (["check", "shelf"], "1\n0\n5 5 5\n"),
        (["check", "solution"], "1\n0\n\n0\nextra\n"),
    ],
    ids=[
        "string-entry",
        "bool-entry",
        "solution-cut-off",
        "negative-size",
        "row-not-a-list",
        "phi-out-of-range",
        "phi-negative",
        "phi-bool",
        "phi-short-map",
        "phi-too-few-maps",
        "hom-map-not-a-list",
        "twist-not-an-object",
        "weak-brace-not-an-object",
        "twist-command-not-an-object",
        "brace-solution-not-an-object",
        "brace-tables-differ-in-size",
        "rho-differs-in-size",
        "size-bool",
        "size-float",
        "solution-size-bool",
        "hom-keys-bool",
        "hom-key-float",
        "clifford-hom-keys-bool",
        "brace-size-mismatch",
        "brace-size-bool",
        "brace-solution-size-float",
        "semilattice-size-mismatch",
        "semilattice-size-bool",
        "shelf-trailing-row",
        "solution-trailing-row",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, content):
    path = write(tmp_path, "in.txt", content)
    assert main(command + [path]) == 2
    _assert_one_line_error(capsys)


_DEEP = '{"n": 1, "table": ' + "[" * 10**5 + "]" * 10**5 + "}"


@pytest.mark.parametrize("command", [["check", "shelf"], ["check", "plonka"]])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # json.loads gives up on the nesting with a RecursionError, which is
    # refused as bad input, not let out as a traceback
    assert main(command + [write(tmp_path, "deep.json", _DEEP)]) == 2
    assert capsys.readouterr() == ("", "error: JSON nesting is too deep\n")


@pytest.mark.parametrize("command, content", [
    # the twist's shelf is a table, not a magma object (whose keys were
    # read as its rows), and a row is a list, not a string of digits
    (["check", "twist"], '{"shelf": {"n": 2, "table": [[0, 1], [0, 1]]}, "phi": [[0, 1], [0, 1]]}'),
    (["check", "shelf"], '{"n": 2, "table": ["01", "01"]}'),
], ids=["magma-object-shelf", "string-rows"])
def test_a_table_is_a_list_of_rows(tmp_path, capsys, command, content):
    assert main(command + [write(tmp_path, "in.json", content)]) == 2
    assert capsys.readouterr() == ("", "error: operation table must be a list of rows\n")


def test_a_gluing_self_map_that_is_not_the_identity_is_named(tmp_path, capsys):
    # the two-point chain over the one-point rack and the 2-point trivial
    # quandle, whose map from the top point to itself is the swap
    content = ('{"semilattice": {"m": 2, "meet": [[0, 0], [0, 1]]}, "fibers": [[[0]], [[0, 1], [0, 1]]], '
               '"homs": [{"from": 0, "to": 0, "map": [0]}, {"from": 1, "to": 1, "map": [1, 0]}, '
               '{"from": 1, "to": 0, "map": [0, 0]}]}')
    assert main(["check", "plonka", write(tmp_path, "p.json", content)]) == 2
    assert capsys.readouterr() == ("", "error: phi[(1, 1)] must be the identity\n")


def test_provenance_hashes_the_input_files_bytes(tmp_path, capsys):
    # CRLF line ends are kept in the recorded hash, and the parsers read
    # the file as they read its LF copy
    crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
    crlf.write_bytes(b"2\r\n0 1\r\n0 1\r\n")
    lf.write_bytes(b"2\n0 1\n0 1\n")
    artifacts = []
    for path in (crlf, lf):
        assert main(["derive", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data.pop("_provenance")["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        artifacts.append(data)
    assert artifacts[0] == artifacts[1]


def _artifact_cases():
    """(argv without its input path, the input file's text, the writer's
    text, the seed recorded) for each command that writes a JSON artifact."""
    d3 = dihedral_quandle(3)
    q = quasi_rack_structure(d3)
    c = two_chain_clifford()
    p = PlonkaSystem(((0, 0), (0, 1)), (trivial_quandle(1), dihedral_quandle(3)),
                     {(0, 0): (0,), (1, 1): (0, 1, 2), (1, 0): (0, 0, 0)})
    s = derived_map(q)
    b = trivial_brace(c)
    sampled = ["search", "--question", "2", "--n", "4", "--seed", "5", "--samples", "20"]
    return {
        "derive": (["derive", "--format", "json"], magma_to_text(d3), solution_to_json(s), None),
        "construct-conjugation": (["construct", "conjugation", "--format", "json"], magma_to_text(c.mul),
                                  magma_to_json(constructions.conjugation_quasi_quandle(c)), None),
        "construct-plonka-sum": (["construct", "plonka-sum", "--format", "json"], plonka_to_json(p),
                                 magma_to_json(plonka.checked_sum(p).table), None),
        "construct-brace-solution": (["construct", "brace-solution", "--format", "json"], weak_brace_to_json(b),
                                     solution_to_json(constructions.brace_solution(b)), None),
        "decompose": (["decompose"], magma_to_text(d3), plonka_to_json(plonka.decompose(q)), None),
        "twist-extract": (["twist", "--extract"], solution_to_text(s),
                          twist_to_json(twists.twist_from_solution(s)), None),
        "search-exhaustive": (["search", "--question", "1", "--n", "2"], None,
                              json.dumps(enumeration.search_question1(2)), None),
        "search-sampled": (sampled, None, json.dumps(enumeration.search_question2(4, seed=5, samples=20)), 5),
    }


_ARTIFACT_CASES = _artifact_cases()


@pytest.mark.parametrize("case", list(_ARTIFACT_CASES))
def test_a_json_artifact_is_the_writers_text_with_provenance_last(tmp_path, case):
    argv, text, written, seed = _ARTIFACT_CASES[case]
    data = b"" if text is None else text.encode()
    provenance = {"input_sha256": hashlib.sha256(data).hexdigest(), "tool": f"yaxl {__version__}"}
    if seed is not None:
        provenance["seed"] = seed
    if text is not None:
        argv = argv + [write(tmp_path, "in.txt", text)]
    out = tmp_path / "out.json"
    assert main(argv + ["-o", str(out)]) == 0
    # every key of the writer's object in its order, then the record
    assert out.read_text() == json.dumps({**json.loads(written), "_provenance": provenance}) + "\n"


@pytest.mark.parametrize("command, key", [(["check", "plonka"], "fibers"),
                                          (["construct", "plonka-sum"], "fibers"),
                                          (["construct", "clifford"], "groups")],
                         ids=["check-plonka", "construct-plonka-sum", "construct-clifford"])
def test_an_empty_fiber_is_named(tmp_path, capsys, command, key):
    # the two-point chain over a one-point fiber and an empty one: a
    # Plonka sum of it would be the one-point table
    content = ('{"semilattice": {"m": 2, "meet": [[0, 0], [0, 1]]}, "%s": [[[0]], []], '
               '"homs": [{"from": 0, "to": 0, "map": [0]}, {"from": 1, "to": 1, "map": []}, '
               '{"from": 1, "to": 0, "map": []}]}' % key)
    assert main(command + [write(tmp_path, "p.json", content)]) == 2
    assert capsys.readouterr() == ("", "error: fiber 1 is empty\n")


def test_missing_gluing_map_is_named(tmp_path, capsys):
    content = '{"semilattice": {"m": 1, "meet": [[0]]}, "fibers": [[[0]]], "homs": []}'
    assert main(["check", "plonka", write(tmp_path, "p.json", content)]) == 2
    assert capsys.readouterr().err == "error: phi[(0, 0)] is missing\n"


# the two-point chain of one-point fibers, with its gluing maps listed
# in between the given ones
_CHAIN_PLONKA = (
    '{"semilattice": {"m": 2, "meet": [[0, 0], [0, 1]]}, "fibers": [[[0]], [[0]]], '
    '"homs": [%s{"from": 0, "to": 0, "map": [0]}, {"from": 1, "to": 1, "map": [0]}, '
    '{"from": 1, "to": 0, "map": [0]}%s]}'
)


@pytest.mark.parametrize("command", [["check", "plonka"], ["construct", "plonka-sum"]])
@pytest.mark.parametrize(
    "before, after, message",
    [
        ('{"from": 1, "to": 0, "map": [7]}, ', "", "phi[(1, 0)] is given twice"),
        ("", ', {"from": 9, "to": -3, "map": "zz"}', "phi[(9, -3)] is not a pair a >= b of the semilattice"),
    ],
    ids=["repeated-pair", "stray-pair"],
)
def test_gluing_maps_outside_the_required_pairs_are_refused(tmp_path, capsys, command, before, after, message):
    # the same system without the extra map is accepted; with it, neither
    # an overwritten nor an ignored map passes silently
    assert main(command + [write(tmp_path, "ok.json", _CHAIN_PLONKA % ("", ""))]) == 0
    capsys.readouterr()
    assert main(command + [write(tmp_path, "bad.json", _CHAIN_PLONKA % (before, after))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_ONE = ((0,),)  # the one-point group, a rack too
_TRIVIAL2 = ((0, 1), (0, 1))  # the 2-point trivial quandle
_CHAIN3 = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
_SYSTEM_REFUSALS = {
    # x * y = y: associative and idempotent, not commutative
    "meet table is not a semilattice": SemilatticeSystem(
        ((0, 1), (0, 1)), (_ONE, _ONE), {(0, 0): (0,), (1, 1): (0,)}),
    "need one fiber per semilattice point": SemilatticeSystem(((0,),), (_ONE, _ONE), {(0, 0): (0,)}),
    # the 3-chain glued by the identity from 2 to 1 and from 1 to 0, but
    # by the swap from 2 to 0
    "gluing homomorphisms do not compose": SemilatticeSystem(_CHAIN3, (_TRIVIAL2,) * 3, {
        (0, 0): (0, 1), (1, 1): (0, 1), (2, 2): (0, 1), (1, 0): (0, 1), (2, 1): (0, 1), (2, 0): (1, 0)}),
}


@pytest.mark.parametrize(
    "command, message",
    [(["check", "plonka"], m) for m in _SYSTEM_REFUSALS]
    + [(["construct", "plonka-sum"], m) for m in _SYSTEM_REFUSALS]
    # the trivial quandle is not a group, so the last system is refused
    # for its fibers before its gluing maps
    + [(["construct", "clifford"], m) for m in list(_SYSTEM_REFUSALS)[:2]],
)
def test_system_refusals_end_with_one_message(tmp_path, capsys, command, message):
    write_system = system_to_json if command[-1] == "clifford" else plonka_to_json
    path = write(tmp_path, "sys.json", write_system(_SYSTEM_REFUSALS[message]))
    assert main(command + [path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Every command that reads a JSON file, as the argument list before the path.
JSON_COMMANDS = [
    ["check", "shelf"],
    ["check", "solution"],
    ["check", "clifford"],
    ["check", "weak-brace"],
    ["check", "twist"],
    ["check", "plonka"],
    ["derive"],
    ["construct", "plonka-sum"],
    ["construct", "clifford"],
    ["construct", "conjugation"],
    ["construct", "core"],
    ["construct", "deformed", "--idempotent", "0"],
    ["construct", "brace-solution"],
    ["decompose"],
    ["twist"],
    ["twist", "--extract"],
]

# The top-level keys of each JSON format, and every key documented at any depth.
_FORMATS = (
    ("n", "table"),
    ("n", "lambda", "rho"),
    ("shelf", "phi"),
    ("semilattice", "groups", "homs"),
    ("semilattice", "fibers", "homs"),
    ("add", "mul"),
)
_KEYS = sorted({k for keys in _FORMATS for k in keys} | {"m", "meet", "from", "to", "map"})

# well-formed tables, so that inputs get past the shape checks into the
# structure checks
_tables = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n),
                       min_size=n, max_size=n)
)
_json_values = st.recursive(
    st.integers(-1, 4) | st.booleans() | st.text(max_size=2) | _tables,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=24,
)
_documents = _json_values | st.sampled_from(_FORMATS).flatmap(
    lambda keys: st.fixed_dictionaries({k: _tables | _json_values for k in keys})
)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(JSON_COMMANDS), value=_documents)
def test_json_commands_never_crash(tmp_path_factory, command, value):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(value))
    assert main(command + [str(path)]) in (0, 1, 2)


# Well-shaped inputs, built per format with the size taken from the
# tables, so that most of them get past the shape checks into the
# structure checks.
def _square(n):
    return st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _sized(build):
    return st.integers(1, 3).flatmap(build)


# Z1, Z2, the trivial quandle and the swap rack on two points
_FIBERS = ([[0]], [[0, 1], [1, 0]], [[0, 1], [0, 1]], [[1, 0], [1, 0]])


@st.composite
def _system(draw, fiber_key):
    meet = draw(st.sampled_from([[[0]], [[0, 0], [0, 1]], [[0, 1], [1, 1]]]))
    m = len(meet)
    fibers = [draw(st.sampled_from(_FIBERS) | st.integers(1, 2).flatmap(_square))
              for _ in range(m)]
    homs = []
    for a in range(m):
        for b in range(m):
            if meet[a][b] != b:
                continue  # a is not above b
            src, dst = len(fibers[a]), len(fibers[b])
            f = (list(range(src)) if a == b else
                 draw(st.lists(st.integers(0, dst - 1), min_size=src, max_size=src)))
            homs.append({"from": a, "to": b, "map": f})
    return {"semilattice": {"m": m, "meet": meet}, fiber_key: fibers, "homs": homs}


_MAGMA_COMMANDS = [
    ["check", "shelf"],
    ["check", "clifford"],
    ["derive"],
    ["construct", "conjugation"],
    ["construct", "core"],
    ["construct", "deformed", "--idempotent", "0"],
    ["decompose"],
]
# each JSON-reading command with inputs in the format it reads
_WELL_SHAPED = [
    (_MAGMA_COMMANDS, _sized(lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "table": _square(n)}))),
    ([["check", "solution"], ["twist", "--extract"]], _sized(lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "lambda": _square(n), "rho": _square(n)}))),
    ([["check", "twist"], ["twist"]], _sized(lambda n: st.fixed_dictionaries(
        {"shelf": _square(n), "phi": _square(n)}))),
    ([["check", "weak-brace"], ["construct", "brace-solution"]], _sized(
        lambda n: st.fixed_dictionaries({"add": _square(n), "mul": _square(n)}))),
    ([["construct", "clifford"]], _system("groups")),
    ([["check", "plonka"], ["construct", "plonka-sum"]], _system("fibers")),
]
_well_shaped = st.sampled_from(_WELL_SHAPED).flatmap(
    lambda case: st.tuples(st.sampled_from(case[0]), case[1]))


@settings(max_examples=300, deadline=None)
@given(case=_well_shaped)
def test_well_shaped_json_never_crashes(tmp_path_factory, case):
    command, value = case
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(value))
    assert main(command + [str(path)]) in (0, 1, 2)


def test_construct_deformed_needs_idempotent(tmp_path):
    path = write(tmp_path, "c.txt", magma_to_text(two_chain_clifford().mul))
    assert main(["construct", "deformed", path]) == 2
    assert main(["construct", "deformed", path, "--idempotent", "0"]) == 0
    assert main(["construct", "deformed", path, "--idempotent", "1"]) == 2


def test_construct_plonka_sum_and_decompose(tmp_path, capsys):
    p = PlonkaSystem(
        ((0, 0), (0, 1)),
        (trivial_quandle(1), dihedral_quandle(3)),
        {(0, 0): (0,), (1, 1): (0, 1, 2), (1, 0): (0, 0, 0)},
    )
    ppath = write(tmp_path, "p.json", plonka_to_json(p))
    tpath = str(tmp_path / "sum.txt")
    assert main(["construct", "plonka-sum", ppath, "-o", tpath]) == 0
    dpath = str(tmp_path / "dec.json")
    assert main(["decompose", tpath, "-o", dpath]) == 0
    back = plonka_from_json(open(dpath).read())
    assert back.points == 2
    data = json.loads(open(dpath).read())
    assert "_provenance" in data and "input_sha256" in data["_provenance"]


def test_decompose_has_no_size_cap(tmp_path):
    # nine points: past the carriers that canonical forms accept
    table = trivial_quandle(9)
    path = write(tmp_path, "t9.txt", magma_to_text(table))
    dpath = str(tmp_path / "dec.json")
    assert main(["decompose", path, "-o", dpath]) == 0
    assert semilattice_sum(plonka_from_json(open(dpath).read())) == table


def test_decompose_requires_conditions(tmp_path, capsys):
    # (*) fails for the first table and the second is not a left shelf,
    # so decompose refuses either with exit 1 and one line
    for table in (((0, 0, 2), (0, 1, 2), (0, 1, 2)), ((1, 1), (0, 0))):
        path = write(tmp_path, "q.txt", magma_to_text(table))
        assert main(["decompose", path]) == 1
        assert capsys.readouterr().err == "decomposition requires a quasi rack with (*) and (***)\n"


def test_decompose_decides_each_condition_once(tmp_path, monkeypatch):
    # the decomposition decides (*) and (***); the CLI does not decide
    # them again beforehand (2 and 2 calls when it did)
    calls = count_calls(monkeypatch, shelves.check_star, shelves.check_starstarstar)
    path = write(tmp_path, "d3.txt", magma_to_text(dihedral_quandle(3)))
    assert main(["decompose", path, "-o", str(tmp_path / "dec.json")]) == 0
    assert calls == {"check_star": 1, "check_starstarstar": 1}


def test_twist_apply_and_extract(tmp_path, capsys):
    fam = make_twist_family(dihedral_quandle(3), tuple(identity(3) for _ in range(3)))
    tpath = write(tmp_path, "t.json", twist_to_json(fam))
    spath = str(tmp_path / "s.txt")
    assert main(["twist", tpath, "-o", spath]) == 0
    s = solution_from_text(open(spath).read())
    xpath = str(tmp_path / "x.json")
    spath2 = write(tmp_path, "s2.txt", solution_to_text(s))
    assert main(["twist", "--extract", spath2, "-o", xpath]) == 0
    data = json.loads(open(xpath).read())
    assert data["phi"] == [list(r) for r in s.lam]


# quasi left non-degenerate with (A), (B), (C) but not solutions; the
# second one's structure magma is not a shelf
@pytest.mark.parametrize("lam, rho", [
    ([[0, 0], [0, 1]], [[0, 0], [0, 0]]),
    ([[0, 1], [0, 1]], [[0, 0], [1, 0]]),
])
def test_twist_extract_refuses_non_solutions(tmp_path, capsys, lam, rho):
    path = write(tmp_path, "s.json", json.dumps({"n": 2, "lambda": lam, "rho": rho}))
    assert main(["check", "solution", path]) == 1
    capsys.readouterr()
    assert main(["twist", "--extract", path, "-o", str(tmp_path / "t.json")]) == 2
    _assert_one_line_error(capsys)
    assert not (tmp_path / "t.json").exists()


def test_search_artifact(tmp_path, capsys):
    argv = ["search", "--question", "2", "--n", "4", "--seed", "5", "--samples", "20"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "q2.json"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    data = json.loads(text)
    assert data.pop("_provenance")["seed"] == 5
    assert data == json.loads(printed)
    assert printed == json.dumps(data) + "\n"


@pytest.mark.parametrize("question", ["1", "2"])
@pytest.mark.parametrize("artifact", [False, True], ids=["printed", "artifact"])
def test_an_exhaustive_search_records_no_seed(tmp_path, capsys, question, artifact):
    # a search at n <= 3 draws nothing: --seed changes no byte of the
    # report or of the artifact, and neither records a seed
    out = tmp_path / "r.json"
    argv = ["search", "--question", question, "--n", "2"] + (["-o", str(out)] if artifact else [])
    outputs = []
    for seed in ([], ["--seed", "5"]):
        assert main(argv + seed) == 0
        outputs.append(capsys.readouterr().out + (out.read_text() if artifact else ""))
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[1])
    assert data["seed"] is None and "seed" not in data.get("_provenance", {})


def test_search_commands(tmp_path, capsys):
    out = str(tmp_path / "q1.json")
    assert main(["search", "--question", "1", "--n", "2", "-o", out]) == 0
    report = json.loads(open(out).read())
    assert report["exhaustive"] and "open question" in report["status"]
    assert main(["search", "--question", "2", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert "open question" in report["status"]
    # sizes outside 1..SIZE_GUARD, and sampling without a seed or samples,
    # are usage errors
    for question in ("1", "2"):
        for bad in (["--n", "4"], ["--n", "0"], ["--n", "-2"], ["--n", "8", "--seed", "1"],
                    ["--n", "4", "--seed", "1", "--samples", "0"],
                    ["--n", "4", "--seed", "1", "--samples", "-5"]):
            assert main(["search", "--question", question] + bad) == 2, bad
            _assert_one_line_error(capsys)


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


@pytest.mark.parametrize("phi", ["[[0, 1]]", "[[0, 1], [0]]", "[[0, 5], [0, 1]]", "[[0]]",
                                 "[[0, 1], [0, 1], [0, 1]]", "3"])
@pytest.mark.parametrize("command", [["check", "twist"], ["twist"]])
def test_a_phi_that_is_not_n_maps_is_named(tmp_path, capsys, command, phi):
    # the message names phi, not the base shelf
    path = write(tmp_path, "t.json", '{"shelf": [[0, 1], [0, 1]], "phi": %s}' % phi)
    assert main(command + [path]) == 2
    assert capsys.readouterr().err == "error: phi must be 2 maps of the shelf's 2 points to themselves\n"


# per command: an argv giving every argument, and one giving only the required ones
_ARGV = {
    "check": (["check", "shelf", "q.txt", "--human"], ["check", "solution", "s.txt"]),
    "enumerate": (["enumerate", "--n", "3", "--class", "quasi_rack", "--filter", "star", "--filter",
                   "starstar", "--stream", "--workers", "2", "--override", "--human"],
                  ["enumerate", "--n", "3", "--class", "shelf"]),
    "table1": (["table1", "--workers", "2", "--human"], ["table1"]),
    "derive": (["derive", "q.txt", "-o", "s.json", "--format", "json"], ["derive", "q.txt"]),
    "construct": (["construct", "deformed", "c.txt", "-o", "q.txt", "--format", "json", "--idempotent", "1"],
                  ["construct", "core", "c.txt"]),
    "decompose": (["decompose", "q.txt", "-o", "p.json"], ["decompose", "q.txt"]),
    "twist": (["twist", "s.txt", "--output", "t.json", "--format", "text", "--extract"], ["twist", "t.json"]),
    "search": (["search", "--question", "2", "--n", "4", "--seed", "5", "--samples", "20", "-o", "r.json"],
               ["search", "--question", "1", "--n", "2"]),
}


def _subparsers(parser):
    """{name: parser} of the commands ``parser`` was built with."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", list(_ARGV))
def test_one_command_parser_matches_the_full_parser(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    full, one = build_parser(), build_parser(name)
    assert list(_subparsers(full)) == list(_ARGV) and list(_subparsers(one)) == [name]
    # the top-level usage heads the errors argparse reports after the command
    assert one.format_usage() == full.format_usage()
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    assert _subparsers(one)[name].format_usage() == _subparsers(full)[name].format_usage()
    for argv in _ARGV[name]:
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))


_USAGE = (
    "usage: yaxl [-h] [--version]\n"
    "            {check,enumerate,table1,derive,construct,decompose,twist,search}\n"
    "            ...\n"
)
_SEARCH_USAGE = (
    "usage: yaxl search [-h] --question {1,2} --n N [--seed SEED]\n"
    "                   [--samples SAMPLES] [-o OUTPUT]\n"
)


@pytest.mark.parametrize("argv, err", [
    ([], _USAGE + "yaxl: error: the following arguments are required: command\n"),
    (["bogus"], _USAGE + "yaxl: error: argument command: invalid choice: 'bogus' (choose from 'check', "
                         "'enumerate', 'table1', 'derive', 'construct', 'decompose', 'twist', 'search')\n"),
    (["table1", "extra"], _USAGE + "yaxl: error: unrecognized arguments: extra\n"),
    (["search", "--question", "3", "--n", "2"],
     _SEARCH_USAGE + "yaxl search: error: argument --question: invalid choice: 3 (choose from 1, 2)\n"),
    (["enumerate", "--n", "3"],
     "usage: yaxl enumerate [-h] --n N --class\n"
     "                      {shelf,rack,quandle,quasi_rack,quasi_quandle}\n"
     "                      [--filter {star,starstar,starstarstar,derived_is_solution}]\n"
     "                      [--stream] [--workers WORKERS] [--override] [--human]\n"
     "yaxl enumerate: error: the following arguments are required: --class\n"),
    (["search", "--question", "1", "--n", "x"],
     _SEARCH_USAGE + "yaxl search: error: argument --n: invalid int value: 'x'\n"),
], ids=["no-command", "unknown-command", "extra-argument", "question-3", "no-class", "n-not-an-int"])
def test_usage_errors_exit_2(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_only_the_invoked_command_parser_is_built(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["table1"]) == 0
    assert added == ["table1"]
    added.clear()
    with pytest.raises(SystemExit) as e:
        main(["-h"])
    assert e.value.code == 0 and added == list(_ARGV)


def test_main_reads_sys_argv(capsys):
    argv = ["search", "--question", "1", "--n", "2"]
    done = run_python("-m", "yaxl.cli", *argv)
    assert done.returncode == 0 and done.stderr == ""
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
