"""Concrete semigroupoids: typed total functions on finite state sets.

A transformation arrow is a triple (dom type, cod type, map); two arrows
compose exactly when the codomain type of the first equals the domain type
of the second, and the composite applies the maps left to right.  This
module generates such semigroupoids from generators, builds the full
transformation semigroupoid over a closed graph with chosen per-type
degrees, and finds transformation representations of abstract tables by
embedding them into full ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .arrowtype import (
    ArrowTypeGraph,
    arrow_type_of,
    canonical_form,
    is_transitively_closed,
)
from .errors import DomainError, ResourceLimitError
from .morphisms import ArrowMap, find_injective_morphisms
from .tables import NC, CompositionTable, is_associative, _NotComposable
from .typestructure import minimal_objects, typing_orbits

# Cost guard: composition-table cells of a full transformation target (T_5,
# 3125 arrows, has 9.8 M; T_6 would have 2.2 G).
FULL_TABLE_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class TransformationArrow:
    """Total function between the state sets of two types."""

    dom: int
    cod: int
    map: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        for value in self.map:
            if not isinstance(value, int) or value < 0:
                raise DomainError(f"state {value!r} is not a valid target state")

    def sort_key(self) -> tuple:
        return (self.dom, self.cod, self.map)

    def to_json(self) -> dict:
        return {"dom": self.dom, "cod": self.cod, "map": list(self.map)}

    @classmethod
    def from_json(cls, data: dict) -> "TransformationArrow":
        for key in ("dom", "cod"):
            if type(data[key]) is not int:
                raise DomainError(f"{key} {data[key]!r} is not an integer")
        if not isinstance(data["map"], list):
            raise DomainError("map must be a list of states")
        return cls(data["dom"], data["cod"], tuple(data["map"]))


def validate_arrow(arrow: TransformationArrow, degrees: Sequence[int]) -> None:
    if not 0 <= arrow.dom < len(degrees) or not 0 <= arrow.cod < len(degrees):
        raise DomainError(f"arrow types {arrow.dom}->{arrow.cod} outside the degree list")
    if len(arrow.map) != degrees[arrow.dom]:
        raise DomainError("map length does not match the degree of the domain type")
    for value in arrow.map:
        if value >= degrees[arrow.cod]:
            raise DomainError("map target outside the codomain state set")


def _checked_degrees(degrees) -> tuple:
    """The degrees as a tuple, each an int (not a bool) of at least 1;
    anything else raises :class:`DomainError`."""
    try:
        degrees = tuple(degrees)
    except TypeError:
        raise DomainError("degrees must be a list of integers") from None
    for d in degrees:
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise DomainError(f"degree {d!r} is not an integer of at least 1")
    return degrees


def compose_arrows(
    a: TransformationArrow, b: TransformationArrow
) -> Union[TransformationArrow, _NotComposable]:
    """a then b; NC when the types do not match."""
    if a.cod != b.dom:
        return NC
    try:
        mapped = tuple(b.map[x] for x in a.map)
    except IndexError as exc:
        raise DomainError("map entry outside the intermediate state set") from exc
    return TransformationArrow(a.dom, b.cod, mapped)


def derive_table(arrows: Sequence[TransformationArrow]) -> CompositionTable:
    """Composition table of a set of arrows closed under composition."""
    index = {arrow: i for i, arrow in enumerate(arrows)}
    rows = []
    for a in arrows:
        row = []
        for b in arrows:
            composite = compose_arrows(a, b)
            if composite is NC:
                row.append(NC)
            else:
                i = index.get(composite)
                if i is None:
                    raise DomainError("arrow set is not closed under composition")
                row.append(i)
        rows.append(tuple(row))
    return CompositionTable(tuple(rows))


@dataclass(frozen=True)
class ConcreteSemigroupoid:
    """Arrows closed under composition, with the derived table."""

    degrees: tuple
    arrows: tuple
    table: CompositionTable


def generate(
    generators: Iterable[TransformationArrow], degrees: Sequence[int]
) -> ConcreteSemigroupoid:
    """Close a generator set under composition.

    Two lookup tables drive the closure: generators grouped by domain type
    (for post-composition) and by codomain type (for pre-composition);
    starting from the generators, every new arrow is pre- and post-composed
    with the matching generators until nothing new appears.  Arrow equality
    is equality of the (dom, cod, map) triple.
    """
    degrees = _checked_degrees(degrees)
    gens = sorted(set(generators), key=TransformationArrow.sort_key)
    for g in gens:
        validate_arrow(g, degrees)
    by_dom: dict = {}
    by_cod: dict = {}
    for g in gens:
        by_dom.setdefault(g.dom, []).append(g)
        by_cod.setdefault(g.cod, []).append(g)
    found = set(gens)
    queue = list(gens)
    while queue:
        arrow = queue.pop()
        for g in by_dom.get(arrow.cod, ()):
            composite = compose_arrows(arrow, g)
            if composite not in found:
                found.add(composite)
                queue.append(composite)
        for g in by_cod.get(arrow.dom, ()):
            composite = compose_arrows(g, arrow)
            if composite not in found:
                found.add(composite)
                queue.append(composite)
    arrows = tuple(sorted(found, key=TransformationArrow.sort_key))
    return ConcreteSemigroupoid(degrees, arrows, derive_table(arrows))


@dataclass(frozen=True)
class FullTransformationSgpoid:
    """All total maps along every arc of a closed graph."""

    degrees: tuple
    graph: ArrowTypeGraph
    arrows: tuple
    table: CompositionTable


def full_transformation_arrows(
    degrees: Sequence[int], graph: ArrowTypeGraph
) -> tuple:
    """The arrows of :func:`full_transformation_sgpoid`, in the same order,
    without building the composition table; refused in the same cases."""
    degrees = _checked_degrees(degrees)
    if graph.m != len(degrees):
        raise DomainError("degree list length does not match the object count")
    if not is_transitively_closed(graph):
        raise DomainError("graph must be transitively closed")
    n = sum(degrees[c] ** degrees[d] for d, c in graph.arcs)
    if n * n > FULL_TABLE_CELL_LIMIT:
        raise ResourceLimitError(
            f"full transformation target has {n} arrows, {n * n} table cells "
            f"(limit {FULL_TABLE_CELL_LIMIT} cells)"
        )
    return tuple(
        TransformationArrow(d, c, mapping)
        for d, c in graph.sorted_arcs
        for mapping in itertools.product(range(degrees[c]), repeat=degrees[d])
    )


def _full_table(
    degrees: tuple, graph: ArrowTypeGraph, arrows: tuple
) -> CompositionTable:
    # Composition by index arithmetic; see full_transformation_sgpoid.
    offset = {}
    outgoing: dict = {}
    n = 0
    for d, c in graph.sorted_arcs:
        offset[(d, c)] = n
        outgoing.setdefault(d, []).append(c)
        n += degrees[c] ** degrees[d]
    # Columns with domain c are contiguous: pad them with NC on both sides.
    pads = {}
    for c, targets in outgoing.items():
        lo = offset[(c, targets[0])]
        hi = lo + sum(degrees[e] ** degrees[c] for e in targets)
        pads[c] = ((NC,) * lo, (NC,) * (n - hi))
    empty = (NC,) * n
    # Cells share these int objects instead of each holding a fresh one.
    index = list(range(n))
    rows = []
    for a in arrows:
        d, c, f = a.dom, a.cod, a.map
        if c not in pads:
            rows.append(empty)
            continue
        before, after = pads[c]
        row = list(before)
        for e in outgoing[c]:
            base = degrees[e]
            weights = [0] * degrees[c]
            place = 1
            for y in reversed(f):
                weights[y] += place
                place *= base
            # Expand one digit g[y] at a time, in product order of g.
            ranks = [offset[(d, e)]]
            for w in weights:
                steps = [v * w for v in range(base)]
                ranks = [r + s for r in ranks for s in steps]
            row.extend(map(index.__getitem__, ranks))
        row.extend(after)
        rows.append(tuple(row))
    return CompositionTable(tuple(rows))


def full_transformation_sgpoid(
    degrees: Sequence[int], graph: ArrowTypeGraph
) -> FullTransformationSgpoid:
    """Build the full transformation semigroupoid for per-type degrees d and
    a transitively closed graph: d[c]**d[d] arrows per arc (d, c).

    Arrows are listed arc by arc in ``graph.sorted_arcs`` order and, within
    arc (d, c), in ``itertools.product(range(deg[c]), repeat=deg[d])``
    order, so map f has index ``offset[(d, c)] + sum_x f[x] *
    deg[c]**(deg[d]-1-x)``.  The table is built from indices alone: (d, c,
    f) then (c, e, g) is (d, e, g∘f), whose index is ``offset[(d, e)] +
    sum_y g[y] * W_y`` with ``W_y = sum_{x: f[x]=y} deg[e]**(deg[d]-1-x)``.
    Pairs whose types do not meet are NC.  :func:`derive_table` on the same
    arrows gives the same table, one composite at a time.  Targets whose
    table would exceed FULL_TABLE_CELL_LIMIT cells are refused before
    anything is built.
    """
    arrows = full_transformation_arrows(degrees, graph)
    degrees = tuple(degrees)
    return FullTransformationSgpoid(
        degrees, graph, arrows, _full_table(degrees, graph, arrows)
    )


def embed(
    abstract: CompositionTable,
    target: FullTransformationSgpoid,
    strict: bool = False,
) -> Iterator[ArrowMap]:
    """Injective morphisms from an abstract table into the derived table of
    a full transformation semigroupoid.  The abstract table is expected to
    be a semigroupoid for strict embeddings to exist; this is not enforced,
    and permissive mode is meaningful without it."""
    return find_injective_morphisms(abstract, target.table, strict=strict)


def _degree_vectors(total: int, parts: int) -> Iterator[tuple]:
    # Positive integer vectors of a fixed length and sum, lexicographic.
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _degree_vectors(total - head, parts - 1):
            yield (head,) + tail


def _candidate_graphs(table: CompositionTable, m: int) -> list:
    # Canonical quotient graphs on exactly m objects of the table's typings;
    # relabeling a typing relabels its graph, so one typing per orbit will do.
    reps = {}
    for ts in typing_orbits(table, m):
        if len(set(ts.doms + ts.cods)) == m:
            rep = canonical_form(arrow_type_of(table, ts))
            reps[rep.sorted_arcs] = rep
    return list(reps.values())


def minimal_representation(
    abstract: CompositionTable, max_total: Optional[int] = None
) -> tuple:
    """Smallest-state strict transformation representation.

    Targets are tried by ascending total state count; within a total, by
    graph arc count, object count and sorted arcs, then lexicographic
    degree vector.  Candidate graphs are the canonical quotient graphs of
    the table's own typings, from the minimal object count upward.  No
    other closed graph can lower the minimum: a strict injective embedding
    into a target types the table by the ends of its image arrows, and
    that typing is valid.  Its quotient graph is closed, the table embeds
    in the target's sub-semigroupoid over that quotient, which has no more
    states, and the quotient, canonicalised, is among the candidates.
    Targets with fewer arrows than the table are skipped unbuilt.
    Termination: the regular action on arrows (one extra sink state per
    type) realizes the table with n + m states, so the search is capped
    there unless ``max_total`` narrows it.  The table with no arrows is
    refused: its one typing uses no object, so it yields no candidate.
    """
    if abstract.n == 0:
        raise DomainError("the table with no arrows has no minimal representation")
    if not is_associative(abstract):
        raise DomainError("table is not associative")
    m_least = minimal_objects(abstract)
    if m_least is None:
        raise DomainError("table has no consistent type structure")
    n = abstract.n
    cap = max_total if max_total is not None else n + m_least
    candidates: list = []
    for total in range(1, cap + 1):
        if m_least <= total <= max(2 * n, 1):
            candidates.extend(_candidate_graphs(abstract, total))
            candidates.sort(key=lambda g: (len(g.arcs), g.m, g.sorted_arcs))
        for graph in candidates:
            for degrees in _degree_vectors(total, graph.m):
                # Fewer arrows than the table admits no injective map.
                if sum(degrees[c] ** degrees[d] for d, c in graph.arcs) < n:
                    continue
                target = full_transformation_sgpoid(degrees, graph)
                amap = next(embed(abstract, target, strict=True), None)
                if amap is not None:
                    return graph, degrees, amap
    raise ResourceLimitError(
        f"no strict representation within {cap} total states"
    )
