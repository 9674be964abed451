"""Every name a ``yaxl`` module imports at top level is used in it,
every private top-level function or class is read by some module, the
row-placement engine and the translation-identity checks have only
their two callers, a class's candidate rows have one builder, the sampled searches draw through one helper, a
brace's lambda and the conjugation x^- y x are each built in one place,
the command-line parsers are built in one place, JSON is parsed in one
place and files are opened only by the command line, every theorem
guarantee fails through ``fnmap.guarantee``, a 256-byte translation
table is built in one place, the records are NamedTuples, and the
command line starts without the process pool."""

import ast
from pathlib import Path

import pytest

from fixtures import run_python

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "yaxl").glob("*.py"))


def unused_imports(source: str) -> list:
    """Top-level imported names that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_gate_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["os", "b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(sources: list) -> list:
    """Private top-level functions and classes that no module reads by
    name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in defined if name not in used]


def test_the_gate_flags_an_unused_private_definition():
    first = "def _a(): pass\ndef _c(): pass\nclass _D: pass\ndef e(): _a()\n"
    second = "import m\nm._D\n"
    assert unused_private_definitions([first, second]) == ["_c"]
    assert unused_private_definitions(["def _f(): pass\n", "from m import _f\n"]) == ["_f"]


def test_no_unused_private_definitions():
    assert unused_private_definitions([path.read_text() for path in SRC]) == []


def placement_callers(sources: list, name: str) -> list:
    """The top-level definition (or ``<module>``) around each reference
    to ``name``, by name or as an attribute, in source order."""
    callers = []
    for source in sources:
        for node in ast.parse(source).body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Name) and sub.id == name) or (
                    isinstance(sub, ast.Attribute) and sub.attr == name
                ):
                    callers.append(getattr(node, "name", "<module>"))
    return callers


def test_the_gate_finds_every_placement_caller():
    source = "def _place(): pass\ndef a():\n    _place()\n    def b(): _place()\nf = m._place\n"
    callers = placement_callers([source, "class C:\n    g = _place\n"], "_place")
    assert callers == ["a", "a", "<module>", "C"]
    assert placement_callers([source, "def c(): m._f(_f)\n"], "_f") == ["c", "c"]


def test_place_has_two_callers():
    # the labeled search (which also yields the lambda families) and
    # the rho placement, which only the exhaustive stream of both
    # open-question searches runs and expands by orbits; a third
    # placement entry point or a second lambda walk fails here
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "_place") == ["_search_labeled", "_rho_placements"]
    assert placement_callers(sources, "_rho_placements") == ["_labeled_pairs"]
    assert placement_callers(sources, "_orbits") == ["_labeled_pairs"]
    assert placement_callers(sources, "_labeled_pairs") == ["search_question1", "abc_solutions"]


def test_candidate_rows_have_one_builder():
    # the labeled search, its worker split, the rho placement and the
    # sampled draws read one index of a class's candidate rows; a second
    # builder or a further reader fails here
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "_candidates") == [
        "_search_labeled",
        "enumerate_canonical",
        "_rho_placements",
        "_sampled",
        "_sampled",
    ]


def test_translation_identities_have_one_routine():
    # self-distributivity and the third braid component place through
    # one routine, and only it and the idempotent-centrality masks build
    # the translation masks; a second pair loop or mask builder fails here
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "_translation_checks") == ["_search_labeled", "_rho_placements"]
    assert placement_callers(sources, "_masks_of") == ["_compat_masks", "_translation_checks"]


def test_each_table_formula_has_one_builder():
    # a brace's lambda is built only for its solution, whose rho reads
    # it; x^- y x is built only by _conjugation, for the conjugation and
    # deformed quasi racks and the brace's expected structure magma; a
    # further caller of either fails here
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "brace_lambda") == ["brace_solution"]
    assert placement_callers(sources, "_conjugation") == [
        "conjugation_quasi_quandle",
        "deformed_quasi_rack",
        "brace_structure_shelf_check",
    ]


def test_one_builder_adds_every_parser_and_argument():
    # the full parser and each one-command parser read one argument
    # table; a second copy of a command's arguments fails here
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "add_parser") == ["build_parser"]
    assert placement_callers(sources, "add_argument") == ["build_parser", "build_parser"]


def test_json_is_parsed_in_one_place_and_files_are_opened_in_two():
    # every JSON input is parsed by json_object; the command line reads
    # its input once in main and writes every artifact through _emit
    sources = [path.read_text() for path in SRC]
    assert placement_callers(sources, "loads") == ["json_object"]
    assert placement_callers(sources, "open") == ["_emit", "main"]


def byte_table_builders(sources: dict) -> list:
    """(module, top-level definition) around each call ``x.ljust(256,
    ...)``, the padding of a row to a ``bytes.translate`` table."""
    return [
        (module, getattr(top, "name", "<module>"))
        for module, source in sources.items()
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ljust"
        and node.args[:1] and getattr(node.args[0], "value", None) == 256
    ]


def test_the_gate_finds_every_byte_table_builder():
    source = "def f(r):\n    return bytes(r).ljust(256, b'0')\nt = b'a'.ljust(256)\ns = 'x'.ljust(8)\n"
    assert byte_table_builders({"m": source, "n": "class C:\n    t = r.ljust(256, b'0')\n"}) == [
        ("m", "f"),
        ("m", "<module>"),
        ("n", "C"),
    ]


def test_translation_tables_have_one_builder():
    # shelves.is_left_shelf and the canonical search gather maps through
    # fnmap.byte_tables; a second padding of a row to 256 bytes fails here
    assert byte_table_builders({path.stem: path.read_text() for path in SRC}) == [("fnmap", "byte_tables")]


def dataclass_uses(sources: dict) -> list:
    """Sorted (module, class) for each class a ``dataclass`` decorator
    wraps, and (module, "import") for each import of ``dataclasses``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    d = d.func if isinstance(d, ast.Call) else d
                    if "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)):
                        found.append((module, node.name))
            elif (isinstance(node, ast.ImportFrom) and node.module == "dataclasses") or (
                isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            ):
                found.append((module, "import"))
    return sorted(found)


def test_the_gate_finds_every_dataclass():
    source = (
        "from dataclasses import dataclass\n@dataclass\nclass A: pass\n"
        "@dataclass(frozen=True)\nclass B: pass\nclass C(NamedTuple): pass\n"
    )
    other = "import dataclasses as d\n@d.dataclass(eq=False)\nclass D: pass\n@other\nclass E: pass\n"
    assert dataclass_uses({"m": source, "n": other}) == [
        ("m", "A"),
        ("m", "B"),
        ("m", "import"),
        ("n", "D"),
        ("n", "import"),
    ]


def test_records_are_named_tuples():
    # every record is a NamedTuple like fnmap's, except SolutionFlags,
    # which is read by vars(); a second record idiom fails here
    assert dataclass_uses({path.stem: path.read_text() for path in SRC}) == [
        ("solutions", "SolutionFlags"),
        ("solutions", "import"),
    ]


# the methods of random.Random that draw an index or a sample of their own
DRAWS = {"choice", "choices", "sample", "randrange", "randint", "shuffle"}


def own_draws(sources: list) -> list:
    """The line of each call ``x.m(...)`` or ``m(...)`` with m in ``DRAWS``."""
    return [
        node.lineno
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in DRAWS or getattr(node.func, "id", None) in DRAWS
        )
    ]


def test_the_gate_flags_every_own_draw():
    source = "rng.choice(s)\nrandom.shuffle(s)\nchoice(s)\nrng.getrandbits(3)\nchoice\nx.sample\n"
    assert own_draws([source]) == [1, 2, 3]


def test_sampled_searches_draw_through_one_helper():
    # every sampled search reads its stream off _sampled, whose one draw
    # loop is _choices, which inlines Random.choice's getrandbits loop;
    # a second stream implementation fails here
    sources = [path.read_text() for path in SRC]
    assert own_draws(sources) == []
    assert placement_callers(sources, "_choices") == ["_sampled"]
    assert placement_callers(sources, "_sampled") == ["search_question1", "search_question2"]


# the only definitions that may name AssertionError: the one that raises
# it for a failed guarantee, and the one that maps it to exit code 3
GUARANTEE_HOMES = {("fnmap", "guarantee"), ("cli", "main")}


def _is_message(node) -> bool:
    """A non-empty string literal or f-string."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value != ""
    return isinstance(node, ast.JoinedStr) and node.values != []


def guarantee_violations(sources: dict) -> list:
    """(module, line, kind) for each other way a module fails a theorem
    guarantee: an ``assert`` statement, ``AssertionError`` named outside
    ``GUARANTEE_HOMES``, or a ``guarantee`` call whose message is not a
    non-empty string or f-string.  ``sources`` maps module names to code."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            home = (module, getattr(top, "name", "<module>")) in GUARANTEE_HOMES
            for node in ast.walk(top):
                if isinstance(node, ast.Assert):
                    found.append((module, node.lineno, "assert"))
                elif isinstance(node, ast.Name) and node.id == "AssertionError" and not home:
                    found.append((module, node.lineno, "AssertionError"))
                elif isinstance(node, ast.Call) and "guarantee" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    what = node.args[1:2] + [k.value for k in node.keywords if k.arg == "what"]
                    if len(what) != 1 or not _is_message(what[0]):
                        found.append((module, node.lineno, "message"))
    return sorted(found)


def test_the_gate_flags_every_other_way_to_fail_a_guarantee():
    homes = {
        "fnmap": "def guarantee(holds, what):\n    if not holds:\n        raise AssertionError(what)\n",
        "cli": "def main():\n    try:\n        pass\n    except AssertionError:\n        pass\n",
    }
    assert guarantee_violations(homes) == []
    bad = (
        "def f(x):\n"
        "    assert x\n"
        "    raise AssertionError('x')\n"
        "    guarantee(x, 'ok')\n"
        "    m.guarantee(x, f'ok {x}')\n"
        "    guarantee(x, what='ok')\n"
        "    guarantee(x)\n"
        "    m.guarantee(x, '')\n"
        "    guarantee(x, f'')\n"
        "    guarantee(x, msg)\n"
        "    guarantee(x, 3)\n"
    )
    assert guarantee_violations({"m": bad, "cli": "def other():\n    AssertionError\n"}) == [
        ("cli", 2, "AssertionError"),
        ("m", 2, "assert"),
        ("m", 3, "AssertionError"),
        ("m", 7, "message"),
        ("m", 8, "message"),
        ("m", 9, "message"),
        ("m", 10, "message"),
        ("m", 11, "message"),
    ]


def test_every_guarantee_fails_through_fnmap_guarantee():
    assert guarantee_violations({path.stem: path.read_text() for path in SRC}) == []


def test_the_command_line_starts_without_the_process_pool():
    # the pool (and multiprocessing with it) is imported only by an
    # enumeration with more than one worker, not by every command
    done = run_python("-c", "import sys, yaxl.cli; print('concurrent.futures.process' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")
