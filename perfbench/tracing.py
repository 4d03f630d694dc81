"""Spans around the package's layers, recorded from outside the package.

A :class:`Tracer` used as a context manager replaces the public functions
of each layer module (and a few named private functions and methods) with
wrappers, under every module name that binds them, and puts the originals
back on exit.  Each wrapped call records a span: id, parent id, request id
(one request per top-level call, i.e. per CLI run), name, start and end in
nanoseconds.  A function that returns an iterator is timed only inside
the iterator's ``next`` calls, since that is where its work happens.
Self time is a span's duration minus that of its direct children.

Constraint tests are too many for spans: ``Problem.add_constraint`` is
wrapped to count the constraints built and to wrap each registered test
with a counter.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field

LAYERS = ("cli", "search", "tables", "typestructure", "morphisms", "arrowtype", "genrep")

# Per-cell helpers called inside inner loops: a span would cost more than
# the work it measures, so their time stays in their caller's self time.
LEAVES = {
    "tables.compose",
    "tables.triple_associative",
    "genrep.compose_arrows",
    "genrep.validate_arrow",
}

# Private functions and methods that the per-layer metrics name.
EXTRA = {
    "arrowtype": ("_closure_arcs", "ClassDatabase.insert", "ClassDatabase.load",
                  "ClassDatabase.save"),
}

# Span names that differ from the function name.
SHORT = {
    "_closure_arcs": "closure",
    "ClassDatabase.insert": "insert",
    "ClassDatabase.load": "load",
    "ClassDatabase.save": "save",
    "digraph_isomorphisms": "isomorphism",
    "enumerate_brute_force": "brute_force",
    "enumerate_associative_tables": "enumerate",
}

# Extra counts taken from a call's arguments and result.
TALLIES = {
    "arrowtype.insert": lambda args, result: {"new": int(result is True)},
    "genrep.derive_table": lambda args, result: {"cells": len(args[0]) ** 2},
}


@dataclass
class Stat:
    calls: int = 0
    returned: int = 0  # calls that returned without raising
    yields: int = 0  # items produced by the returned iterators
    self_ns: int = 0
    tallies: dict = field(default_factory=dict)


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_stat", "_it")

    def __init__(self, tracer, name, stat, it):
        self._tracer, self._name, self._stat, self._it = tracer, name, stat, it

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer._open()
        try:
            item = next(self._it)
        finally:
            self._tracer._close(self._name, self._stat)
        self._stat.yields += 1
        return item


class Tracer:
    """Wraps the layers of an imported ``sgpoidkit`` while active."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self.names: list = []
        self.spans = array("q")  # flat: sid, parent, request, name, start, end
        self.constraints_built = 0
        self.constraint_tests = 0
        self._stack: list = []  # [sid, start, child_ns] per open span
        self._next_sid = 0
        self._request = -1
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self) -> None:
        if not self._stack:
            self._request += 1
        sid = self._next_sid
        self._next_sid += 1
        self._stack.append([sid, time.perf_counter_ns(), 0])

    def _close(self, name_id: int, stat: Stat) -> None:
        end = time.perf_counter_ns()
        sid, start, child = self._stack.pop()
        duration = end - start
        stat.self_ns += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.spans.extend((sid, parent_id, self._request, name_id, start, end))

    def span_rows(self, named=True):
        """Spans as (sid, parent, request, name, start_ns, end_ns); the name
        is an index into ``names`` unless ``named``."""
        s = self.spans
        for i in range(0, len(s), 6):
            name = self.names[s[i + 3]] if named else s[i + 3]
            yield (s[i], s[i + 1], s[i + 2], name, s[i + 4], s[i + 5])

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = Stat()
        tally = TALLIES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return _TracedIterator(tracer, name_id, stat, func(*args, **kwargs))
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                tracer._open()
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(name_id, stat)
                stat.returned += 1
                if tally is not None:
                    for key, value in tally(args, result).items():
                        stat.tallies[key] = stat.tallies.get(key, 0) + value
                if hasattr(result, "__next__"):
                    return _TracedIterator(tracer, name_id, stat, result)
                return result

        return wrapper

    def _targets(self, package_modules):
        """(layer, qualified name, owner class or None, attribute, original)."""
        for layer in LAYERS:
            module = package_modules[f"sgpoidkit.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and f"{layer}.{attr}" not in LEAVES
                ):
                    yield layer, attr, None, attr, value
            for qualified in EXTRA.get(layer, ()):
                owner_name, _, attr = qualified.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    yield layer, qualified, owner, attr, vars(owner)[attr]
                else:
                    yield layer, qualified, None, attr, getattr(module, attr)

    def __enter__(self) -> "Tracer":
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "sgpoidkit" and module is not None
        }
        try:
            replacements = {}
            for layer, qualified, owner, attr, original in self._targets(modules):
                span = f"{layer}.{SHORT.get(qualified, qualified)}"
                if owner is not None:
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrapper(span, original.__func__))
                    else:
                        wrapped = self._wrapper(span, original)
                    self._patch(owner, attr, wrapped)
                else:
                    replacements[id(original)] = (original, self._wrapper(span, original))
            # Rebind each function under every module name that binds it.
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    hit = replacements.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attr, hit[1])
            problem = modules["sgpoidkit.search"].Problem
            self._patch(problem, "add_constraint", self._counting_add_constraint(
                vars(problem)["add_constraint"]))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counting_add_constraint(self, original):
        tracer = self

        @functools.wraps(original)
        def add_constraint(problem, watches, test):
            tracer.constraints_built += 1

            def counted(bound):
                tracer.constraint_tests += 1
                return test(bound)

            return original(problem, watches, counted)

        return add_constraint

    # -- results -----------------------------------------------------------

    def layer_self_seconds(self, layer: str) -> float:
        return sum(s.self_ns for n, s in self.stats.items() if n.startswith(layer + ".")) / 1e9

    def write(self, path, header: dict) -> None:
        """Spans and per-function totals as one JSON document."""
        functions = {
            name: {"calls": s.calls, "returned": s.returned, "yields": s.yields,
                   "self_s": s.self_ns / 1e9, **s.tallies}
            for name, s in sorted(self.stats.items()) if s.calls
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **header,
                "functions": functions,
                "constraints_built": self.constraints_built,
                "constraint_tests": self.constraint_tests,
                "names": self.names,
                "span_fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
                "spans": list(self.span_rows(named=False)),
            }, handle, separators=(",", ":"))
