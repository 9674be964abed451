"""Per-layer tracing from outside the package.

Each ``yaxl`` module is a layer.  ``Tracer.install`` wraps every public
function of every module, plus the private hot spots named in
``PRIVATE``, and rebinds *every* module attribute that holds one of
them, so a name imported with ``from .fnmap import compose`` is traced
in each module that imported it.  A wrapper records calls and self time
(its duration minus the time of traced calls made inside it).  For a
generator function each ``next()`` is one call, and yielded items are
counted.

``LAYER_METRICS`` turns the per-function records into the metrics the
benchmark reports.  All of them are totals for one pass of the workload.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

PRIVATE = {
    "enumeration": {"_search_labeled", "_quasi_families", "_passes_filters"},
    "solutions": {"_braid_holds", "_component_identities_hold", "_quasi_side"},
}


class FnStats:
    __slots__ = ("calls", "self_s", "accepted", "items", "bytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.accepted = 0
        self.items = 0
        self.bytes = 0


def _accepts(qualname: str):
    """What counts as an accepted call, for the ratio metrics."""
    if qualname == "shelves.canonical_form":
        return lambda args, result: result == args[0]
    if qualname == "solutions._braid_holds":
        return lambda args, result: result is True
    return None


class Tracer:
    """Records accumulate over every ``install``/``uninstall`` cycle."""

    def __init__(self, clock=perf_counter):
        self.stats: dict = {}
        self._clock = clock
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, qualname: str):
        st = self.stats.setdefault(qualname, FnStats())
        stack = self._stack
        clock = self._clock
        accept = _accepts(qualname)
        count_bytes = qualname.startswith("serialization.") and "_from_" in qualname

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        child = stack.pop()
                        if stack:
                            stack[-1] += dur
                        st.calls += 1
                        st.self_s += dur - child
                    st.items += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st.calls += 1
                st.self_s += dur - child
            if accept is not None and accept(args, result):
                st.accepted += 1
            if count_bytes and args and isinstance(args[0], str):
                st.bytes += len(args[0])
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the functions of ``modules``, a map from layer name
        (``fnmap``) to module."""
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, entry[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- reading the records ------------------------------------------------

    def _get(self, qualname: str) -> FnStats:
        return self.stats.get(qualname) or FnStats()

    def calls(self, *names) -> int:
        return sum(self._get(n).calls for n in names)

    def self_s(self, *names) -> float:
        return sum(self._get(n).self_s for n in names)

    def total(self, attr: str, layer: str, marker: str = ""):
        """Sum of ``attr`` over the layer's functions whose name holds ``marker``."""
        prefix = layer + "."
        return sum(
            getattr(s, attr) for q, s in self.stats.items()
            if q.startswith(prefix) and marker in q[len(prefix):]
        )

    def ratio(self, qualname: str) -> float:
        st = self._get(qualname)
        return st.accepted / st.calls if st.calls else 0.0


_CLASSIFY = (
    "enumeration.enumerate_canonical",
    "enumeration.enumerate_spec",
    "enumeration.cross_tabulate",
    "enumeration.table1_row",
    "enumeration._passes_filters",
)
_QUASI_SIDE = (
    "solutions._quasi_side",
    "solutions.quasi_left_nondeg",
    "solutions.quasi_right_nondeg",
    "solutions.quasi_nondeg",
)
_ABC = ("solutions.check_A", "solutions.check_B", "solutions.check_C")

# name -> (unit, value from a Tracer); each is summed over the traced
# passes and divided by their number.  Ratios are not divided.
LAYER_METRICS = {
    "enumeration.search.tables": ("count", lambda t: t._get("enumeration._search_labeled").items),
    "enumeration.search.self_s": ("s", lambda t: t.self_s("enumeration._search_labeled")),
    "enumeration.canonical.calls": ("count", lambda t: t.calls("shelves.canonical_form")),
    "enumeration.canonical.self_s": (
        "s", lambda t: t.self_s("shelves.canonical_form", "shelves.relabel")),
    "enumeration.canonical.accept_ratio": ("ratio", lambda t: t.ratio("shelves.canonical_form")),
    "enumeration.classify.self_s": ("s", lambda t: t.self_s(*_CLASSIFY)),
    "enumeration.families.calls": ("count", lambda t: t.calls("enumeration._quasi_families")),
    "enumeration.families.self_s": ("s", lambda t: t.self_s("enumeration._quasi_families")),
    "enumeration.searches.self_s": (
        "s", lambda t: t.self_s("enumeration.search_question1", "enumeration.search_question2")),
    "solutions.braid.calls": ("count", lambda t: t.calls("solutions._braid_holds")),
    "solutions.braid.self_s": ("s", lambda t: t.self_s("solutions._braid_holds")),
    "solutions.braid.accept_ratio": ("ratio", lambda t: t.ratio("solutions._braid_holds")),
    "solutions.component.calls": (
        "count", lambda t: t.calls("solutions._component_identities_hold")),
    "solutions.component.self_s": (
        "s", lambda t: t.self_s("solutions._component_identities_hold")),
    "solutions.quasi_bijective.calls": ("count", lambda t: t.calls("solutions.quasi_bijective")),
    "solutions.quasi_bijective.self_s": ("s", lambda t: t.self_s("solutions.quasi_bijective")),
    "solutions.quasi_side.self_s": ("s", lambda t: t.self_s(*_QUASI_SIDE)),
    "solutions.abc.self_s": ("s", lambda t: t.self_s(*_ABC)),
    "fnmap.compose.calls": ("count", lambda t: t.calls("fnmap.compose")),
    "fnmap.compose.self_s": ("s", lambda t: t.self_s("fnmap.compose")),
    "fnmap.relative_inverse.calls": ("count", lambda t: t.calls("fnmap.relative_inverse")),
    "fnmap.relative_inverse.self_s": (
        "s", lambda t: t.self_s("fnmap.relative_inverse", "fnmap.power")),
    "shelves.is_left_shelf.calls": ("count", lambda t: t.calls("shelves.is_left_shelf")),
    "shelves.is_left_shelf.self_s": ("s", lambda t: t.self_s("shelves.is_left_shelf")),
    "shelves.quasi_rack_structure.calls": (
        "count", lambda t: t.calls("shelves.quasi_rack_structure")),
    "shelves.quasi_rack_structure.self_s": (
        "s", lambda t: t.self_s("shelves.quasi_rack_structure")),
    "plonka.plonka_sum.calls": ("count", lambda t: t.calls("plonka.plonka_sum")),
    "plonka.validate.calls": ("count", lambda t: t.calls("plonka.validate_plonka")),
    "plonka.self_s": ("s", lambda t: t.total("self_s", "plonka")),
    "twists.make_family.calls": ("count", lambda t: t.calls("twists.make_twist_family")),
    "twists.self_s": ("s", lambda t: t.total("self_s", "twists")),
    "constructions.self_s": ("s", lambda t: t.total("self_s", "constructions")),
    "serialization.parse.calls": ("count", lambda t: t.total("calls", "serialization", "_from_")),
    "serialization.parse.bytes": ("B", lambda t: t.total("bytes", "serialization", "_from_")),
    "serialization.parse.self_s": ("s", lambda t: t.total("self_s", "serialization", "_from_")),
    "serialization.write.self_s": ("s", lambda t: t.total("self_s", "serialization", "_to_")),
    "cli.commands": ("count", lambda t: t.calls("cli.main")),
    "cli.self_s": ("s", lambda t: t.total("self_s", "cli")),
}


def layer_metrics(tracer: Tracer, passes: int, time_scale: float = 1.0) -> dict:
    """Per-pass values; times are multiplied by ``time_scale``."""
    out = {}
    for name, (unit, read) in LAYER_METRICS.items():
        value = read(tracer)
        if unit != "ratio":
            value /= passes
        if unit == "s":
            value *= time_scale
        out[name] = {"value": value, "unit": unit}
    return out
