"""Partial composition tables with an absorbing not-composable value.

An abstract semigroupoid on arrows 0..n-1 is stored as an n-by-n table
whose (a, b) entry is the composite ``ab`` (composition written left to
right), or :data:`NC` when the pair does not compose.  NC may appear in
cells but never indexes a row or column; under :func:`compose` it absorbs,
which lets the generalized associativity condition be stated as plain
equality of the two bracketings:

* both ``ab`` and ``bc`` defined and ``(ab)c == a(bc)``, or
* ``ab`` undefined and ``a(bc)`` undefined, or
* ``bc`` undefined and ``(ab)c`` undefined, or
* both undefined.

All four cases collapse to ``compose(compose(a,b), c) == compose(a,
compose(b,c))`` once NC absorbs.

The JSON form of a table is ``{"n": 3, "entries": [[0, 1, null], ...]}``
with ``null`` encoding NC; ``-1`` is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

from .errors import DomainError
from .search import Problem, solve_all


class _Marker:
    """A cell value that is not an arrow index; there are two, compared by
    identity.  :data:`NC` marks an undefined composition; :data:`UNSET`
    marks a cell of a partial table left to the search, still to be
    decided, where an NC cell is decided to be non-composable.  Pickling
    and copying return the module-level marker itself."""

    def __init__(self, name: str, text: str) -> None:
        self._name = name
        self._text = text

    def __repr__(self) -> str:
        return self._text

    def __reduce__(self) -> str:
        return self._name


NC = _Marker("NC", "nc")
UNSET = _Marker("UNSET", "?")

ArrowValue = Union[int, _Marker]

# Most relabelings :func:`associative_table_orbits` breaks.  Each is a
# constraint that the search tests at many of its nodes, and a nearly
# filled grid has few nodes to save: on an 8-arrow grid that all 8!
# relabelings keep (the left-zero table with its diagonal unset), breaking
# them all took 4 s where the labeled count takes 3 ms, and breaking 720
# of them 0.07 s (Python 3.11, 2 CPUs).  720 = 6! keeps the whole group of
# every grid on up to 6 arrows.
SYMMETRY_LIMIT = 720


def _check_entry(value, n: int) -> None:
    if value is NC:
        return
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
        raise DomainError(f"entry {value!r} is not an arrow index below {n}")


def cell_from_json(value):
    """One cell of a table's JSON form: null is NC, -1 is refused, and any
    other value is kept for the table to check."""
    if value is None:
        return NC
    if value == -1:
        raise DomainError("-1 is not a valid entry; use null for non-composable")
    return value


def rows_from_json(data: dict, cell=cell_from_json) -> tuple:
    """The ``entries`` of a table's JSON form, a list of lists, as a tuple
    of rows with each value read by ``cell``.  A declared ``n`` must be
    the number of rows."""
    entries = data["entries"]
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise DomainError("entries must be a list of lists")
    if "n" in data and data["n"] != len(entries):
        raise DomainError("declared n does not match the number of rows")
    return tuple(tuple(map(cell, row)) for row in entries)


@dataclass(frozen=True)
class CompositionTable:
    """Square array of composites over arrow indices, with NC cells."""

    entries: tuple

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise DomainError("composition table must be square")
            for value in row:
                _check_entry(value, n)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_json(cls, data: dict) -> "CompositionTable":
        return cls(rows_from_json(data))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                [None if v is NC else v for v in row] for row in self.entries
            ],
        }


def compose(table: CompositionTable, a: ArrowValue, b: ArrowValue) -> ArrowValue:
    """Composite of ``a`` then ``b``; NC absorbs."""
    if a is NC or b is NC:
        return NC
    n = table.n
    for x in (a, b):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
            raise DomainError(f"arrow {x!r} outside 0..{n - 1}")
    return table.entries[a][b]


def pairs_composing_to(table: CompositionTable, target: ArrowValue) -> list:
    """All ordered pairs (a, b) with ab == target, in row-major order."""
    if target is not NC:
        _check_entry(target, table.n)
    entries = table.entries
    return [
        (a, b)
        for a in range(table.n)
        for b in range(table.n)
        if entries[a][b] == target
    ]


def triple_associative(table: CompositionTable, a: int, b: int, c: int) -> bool:
    """Generalized associativity for one triple; NC-absorbing equality
    covers the composable and non-composable cases uniformly."""
    ab = compose(table, a, b)
    bc = compose(table, b, c)
    return compose(table, ab, c) == compose(table, a, bc)


def first_nonassociative_triple(table: CompositionTable) -> Optional[tuple]:
    """Lexicographically first failing triple, or None if associative."""
    entries = table.entries
    n = table.n
    for a in range(n):
        row_a = entries[a]
        for b in range(n):
            ab = row_a[b]
            row_b = entries[b]
            for c in range(n):
                bc = row_b[c]
                left = NC if ab is NC else entries[ab][c]
                right = NC if bc is NC else row_a[bc]
                if left != right:
                    return (a, b, c)
    return None


def is_associative(table: CompositionTable) -> bool:
    """Conjunction of :func:`triple_associative` over all triples."""
    return first_nonassociative_triple(table) is None


def _triple_test(a: int, b: int, c: int, n: int):
    """Associativity of (a, b, c) as the module states it: the bracketings
    (ab)c and a(bc) are equal, NC absorbing.  Cell (i, j) is the variable
    ``i * n + j``, so int order is row-major order.  The test waits on
    (a, b), then on (b, c), then on whichever of (ab, c) and (a, bc) is
    unbound, the first of them if both are; it reads no other cell.  An
    unbound cell reads None."""
    kab = a * n + b
    kbc = b * n + c
    row_a = a * n

    def test(bound):
        ab = bound[kab]
        if ab is None:
            return kab
        bc = bound[kbc]
        if bc is None:
            return kbc
        left = NC if ab is NC else bound[ab * n + c]
        right = NC if bc is NC else bound[row_a + bc]
        if left is None:
            if right is None:
                return min(ab * n + c, row_a + bc)
            return ab * n + c
        if right is None:
            return row_a + bc
        return left == right

    return test


def _table_problem(n: int, allow_nc: bool, partial) -> tuple:
    """The search behind :func:`enumerate_associative_tables`: one variable
    per cell, the int ``i * n + j`` for cell (i, j), declared in row-major
    order, and one constraint per triple, with the grid of fixed and UNSET
    cells it was built from."""
    if n < 1:
        raise DomainError("table size must be at least 1")
    if partial is not None:
        grid = [list(row) for row in partial]
        if len(grid) != n or any(len(row) != n for row in grid):
            raise DomainError("partial table dimensions do not match n")
    else:
        grid = [[UNSET] * n for _ in range(n)]

    problem = Problem()
    searched = list(range(n)) + ([NC] if allow_nc else [])
    for i in range(n):
        for j in range(n):
            fixed = grid[i][j]
            if fixed is not UNSET:
                _check_entry(fixed, n)
            problem.add_variable(i * n + j, searched if fixed is UNSET else [fixed])
    for a in range(n):
        for b in range(n):
            for c in range(n):
                problem.add_constraint([a * n + b], _triple_test(a, b, c, n))
    return problem, grid


def enumerate_associative_tables(
    n: int,
    allow_nc: bool = False,
    partial: Optional[Sequence[Sequence]] = None,
) -> Iterator[CompositionTable]:
    """Stream every associative n-by-n table (labeled, not up to
    isomorphism), in lexicographic cell order.

    ``partial`` optionally pre-fills cells: a grid whose cells are arrow
    indices, NC, or UNSET for cells left to the search.  Searched cells
    range over arrows in ascending order, with NC last when ``allow_nc``.
    Fixed cells are taken as given, whatever ``allow_nc`` says.
    """
    problem, _ = _table_problem(n, allow_nc, partial)
    for solution in solve_all(problem):
        yield _solution_table(solution, n)


def _solution_table(solution: tuple, n: int) -> CompositionTable:
    return CompositionTable(tuple(solution[i : i + n] for i in range(0, n * n, n)))


def _symmetry_group(grid: Sequence[Sequence]) -> list:
    """The relabelings that map the grid onto itself, identity first, if
    there are at most SYMMETRY_LIMIT of them.  Otherwise the largest group
    of them that also fix each of the arrows 0..k, which come first.

    A relabeling ``sigma`` (arrow a gets the label ``sigma[a]``) keeps the
    grid when it is a strict bijective morphism from the grid to itself:
    it moves each fixed cell holding v onto one holding sigma(v), or NC if
    v is NC, and each UNSET cell onto an UNSET cell.  The morphism search
    lists them in lexicographic order."""
    from .morphisms import _morphism_solutions  # morphisms imports this module

    search = _morphism_solutions(grid, grid, strict=True, distinct=True)
    found = list(islice(search, SYMMETRY_LIMIT + 1))
    if len(found) <= SYMMETRY_LIMIT:
        return found
    last = found[-1]
    k = next(a for a, image in enumerate(last) if image != a)
    prefix = found[0][: k + 1]
    return [sigma for sigma in found if sigma[: k + 1] == prefix]


def _lex_leader(walk: tuple, rank: dict, image_rank: dict):
    """The test "the table is at most its sigma-image", comparing the cells
    of ``walk`` in order: each pair is a cell c and the cell whose sigma-
    image is c.  ``rank`` orders a cell's values (NC last), ``image_rank``
    ranks a value by its sigma-image.  It waits on the first unbound cell
    it reads and decides at the first cell that differs; a table equal to
    its image (sigma an automorphism) passes."""

    def test(bound):
        for cell, source in walk:
            x = bound[cell]
            if x is None:
                return cell
            y = bound[source]
            if y is None:
                return source
            left = rank[x]
            right = image_rank[y]
            if left != right:
                return left < right
        return True

    return test


def associative_table_orbits(
    n: int,
    allow_nc: bool = False,
    partial: Optional[Sequence[Sequence]] = None,
) -> Iterator[tuple]:
    """Stream pairs (T, k): one table T of each orbit of a group G of
    relabelings on the tables :func:`enumerate_associative_tables` yields,
    and the number k of tables in that orbit, in lexicographic cell order.

    G is every relabeling that maps the grid onto itself (all n! of them
    without ``partial``), so it maps the grid's completions onto its
    completions; past SYMMETRY_LIMIT relabelings it is the subgroup
    :func:`_symmetry_group` picks.  For each sigma in G other than the
    identity the search gets a lex-leader constraint: read in row-major
    order, the table is at most its sigma-image (Crawford, Ginsberg, Luks
    and Roy, "Symmetry-breaking predicates for search problems", KR 1996).
    The least table of each orbit is the only one that passes them all,
    and k = |G| / |Aut_G T|, where Aut_G T holds the sigma that map T onto
    itself.  Fixed cells equal their images by the choice of G, so only
    UNSET cells are compared.  Without ``partial`` and for n <= 6 the
    orbits are the isomorphism classes.
    """
    problem, grid = _table_problem(n, allow_nc, partial)
    group = _symmetry_group(grid)
    unset = [(i, j) for i in range(n) for j in range(n) if grid[i][j] is UNSET]
    rank = {v: v for v in range(n)}
    rank[NC] = n
    checks = []
    for sigma in group[1:]:
        inverse = [0] * n
        for a, image in enumerate(sigma):
            inverse[image] = a
        walk = tuple((i * n + j, inverse[i] * n + inverse[j]) for i, j in unset)
        image_rank = {v: sigma[v] for v in range(n)}
        image_rank[NC] = n
        problem.add_constraint([], _lex_leader(walk, rank, image_rank))
        checks.append((walk, image_rank))
    for solution in solve_all(problem):
        automorphisms = 1
        for walk, image_rank in checks:
            for cell, source in walk:
                if rank[solution[cell]] != image_rank[solution[source]]:
                    break
            else:
                automorphisms += 1
        yield _solution_table(solution, n), len(group) // automorphisms

