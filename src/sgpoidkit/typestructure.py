"""Type structures: domain/codomain object assignments consistent with a
composition table.

A table over n arrows is typable with m objects when every arrow can be
given a (domain, codomain) pair of objects such that

1. pairs that do not compose have ``cod(a) != dom(b)``,
2. pairs that do compose have ``cod(a) == dom(b)`` (including ``aa``),
3. whenever ``ab = c``, ``dom(a) == dom(c)`` and ``cod(b) == cod(c)``.

Associativity and typability are independent: either can hold without the
other, and a table is a semigroupoid exactly when both hold.

Each rule compares two arrow ends (``dom a`` or ``cod a``).  Rules 2 and 3
only ask for equality, so the ends they force equal are merged into
classes before any search; a non-composable pair inside one class makes
the table untypable.  A typing over m objects is then a proper colouring
of the classes with m colours, two classes conflicting when rule 1 keeps
them apart, found by :func:`~sgpoidkit.search.solve_all`.  Relabeling the
objects of a typing gives a typing, so :func:`typing_orbits` lists one
per relabeling class, by first-appearance value precedence; the minimal
object count and the number of typings are read off those classes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DomainError
from .search import Problem, solve_all, solve_first
from .tables import NC, CompositionTable, is_associative


@dataclass(frozen=True)
class TypeStructure:
    """Per-arrow object assignments over objects 0..m-1."""

    m: int
    doms: tuple
    cods: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "doms", tuple(self.doms))
        object.__setattr__(self, "cods", tuple(self.cods))
        if type(self.m) is not int:
            raise DomainError(f"object count {self.m!r} is not an int")
        if len(self.doms) != len(self.cods):
            raise DomainError("doms and cods must have equal length")
        for obj in (*self.doms, *self.cods):
            if type(obj) is not int or not 0 <= obj < self.m:
                raise DomainError(f"object {obj!r} outside 0..{self.m - 1}")

    def to_json(self) -> dict:
        return {"m": self.m, "doms": list(self.doms), "cods": list(self.cods)}

    @classmethod
    def from_json(cls, data: dict) -> "TypeStructure":
        return cls(data["m"], tuple(data["doms"]), tuple(data["cods"]))


def satisfies_typing(table: CompositionTable, ts: TypeStructure) -> bool:
    """Direct re-check of the three typing rules (no search)."""
    n = table.n
    if len(ts.doms) != n:
        raise DomainError("type structure size does not match table")
    doms, cods = ts.doms, ts.cods
    for a in range(n):
        for b in range(n):
            ab = table.entries[a][b]
            if ab is NC:
                if cods[a] == doms[b]:
                    return False
            else:
                if cods[a] != doms[b]:
                    return False
                if doms[a] != doms[ab] or cods[b] != cods[ab]:
                    return False
    return True


def _typing_classes(table: CompositionTable) -> Optional[tuple]:
    """The arrow ends forced equal, merged, and the conflicts between them.

    End ``a`` is ``dom a`` and end ``n + a`` is ``cod a``.  Rules 2 and 3
    only equate ends, so a union-find merges them; rule 1 then asks two
    classes to differ.  Returns ``(classes, conflicts)``: the class of each
    end, numbered by first end, and the sorted pairs ``(i, j)``, ``i < j``,
    of classes that must differ.  None when rule 1 falls inside one class.
    """
    n = table.n
    parent = list(range(2 * n))

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(e: int, f: int) -> None:
        parent[find(e)] = find(f)

    nc = []
    for a, row in enumerate(table.entries):
        for b, ab in enumerate(row):
            if ab is NC:
                nc.append((n + a, b))
            else:
                union(n + a, b)
                union(a, ab)
                union(n + b, n + ab)
    number: dict = {}  # root -> class, numbered by first end
    classes = tuple(number.setdefault(find(e), len(number)) for e in range(2 * n))
    conflicts = set()
    for e, f in nc:
        i, j = classes[e], classes[f]
        if i == j:
            return None
        conflicts.add((min(i, j), max(i, j)))
    return classes, sorted(conflicts)


def _colouring_problem(reduced: tuple, m: int, orbits: bool) -> Problem:
    """Colour the classes of :func:`_typing_classes` with objects 0..m-1.

    With ``orbits``, first-appearance value precedence keeps one colouring
    per relabeling of the objects: class i takes at most 1 plus the
    largest value of classes 0..i-1."""
    classes, conflicts = reduced
    k = max(classes, default=-1) + 1
    problem = Problem()
    for i in range(k):
        problem.add_variable(i, range(min(m, i + 1) if orbits else m))
    for pair in conflicts:
        problem.add_relation(pair, operator.ne)
    if orbits:
        for i in range(2, k):
            problem.add_constraint((i,), _precedence(i))
    return problem


def _precedence(i: int):
    # solve_all binds variables in declaration order, so classes 0..i-1
    # are bound whenever class i is.
    def test(bound) -> bool:
        return bound[i] <= 1 + max(bound[:i])

    return test


def _solutions(
    table: CompositionTable, m: int, orbits: bool
) -> Iterator[TypeStructure]:
    if m < 1:
        raise DomainError("object count must be at least 1")
    reduced = _typing_classes(table)
    if reduced is None:
        return
    classes = reduced[0]
    n = table.n
    for solution in solve_all(_colouring_problem(reduced, m, orbits)):
        ends = [solution[i] for i in classes]
        yield TypeStructure(m, tuple(ends[:n]), tuple(ends[n:]))


def infer_types(table: CompositionTable, m: int) -> Iterator[TypeStructure]:
    """Stream all type structures over m objects satisfying the typing
    rules, in lexicographic order of (doms, cods)."""
    return _solutions(table, m, orbits=False)


def typing_orbits(table: CompositionTable, m: int) -> Iterator[TypeStructure]:
    """One type structure over m objects per relabeling class of the
    objects: the one whose objects first appear in order 0, 1, 2, ...
    along (doms, cods).  One that uses k objects stands for
    ``math.perm(m, k)`` labeled type structures."""
    return _solutions(table, m, orbits=True)


def minimal_objects(table: CompositionTable) -> Optional[int]:
    """Smallest m admitting a type structure, or None.

    It is at most max(1, number of classes), at most 2n: then every class
    has an object of its own."""
    reduced = _typing_classes(table)
    if reduced is None:
        return None
    m = 1
    while solve_first(_colouring_problem(reduced, m, orbits=True)) is None:
        m += 1
    return m


def is_semigroupoid(table: CompositionTable) -> bool:
    """Associative and typable."""
    return is_associative(table) and minimal_objects(table) is not None
