"""Concrete semigroupoids: typed total functions on finite state sets.

A transformation arrow is a triple (dom type, cod type, map); two arrows
compose exactly when the codomain type of the first equals the domain type
of the second, and the composite applies the maps left to right.  This
module generates such semigroupoids by post-composing generators, builds
the full transformation semigroupoid over a closed graph with chosen
per-type degrees, and finds transformation representations of abstract
tables by embedding them into full ones.  A full target lists only its
arrows; its products are worked out from arrow indices one cell at a time,
the first time each is read, and its whole table is never built.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .arrowtype import (
    ArrowTypeGraph,
    arrow_type_of,
    canonical_form,
    is_transitively_closed,
)
from .errors import DomainError, ResourceLimitError
from .morphisms import ArrowMap, _morphism_solutions
from .tables import NC, CompositionTable, is_associative, _Marker
from .typestructure import minimal_objects, typing_orbits

# Cost guard: the composition-table cells of a full transformation target
# or a generated semigroupoid (T_5, 3125 arrows, has 9.8 M; T_6 would have
# 2.2 G).  It bounds the arrows either lists, 3162 at most.  No target
# table is built, so a target past it is refused before any arrow is made;
# a generated one is refused before its table is built.
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
        for value in data["map"]:
            if type(value) is not int:
                raise DomainError(f"state {value!r} is not an integer")
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
) -> Union[TransformationArrow, _Marker]:
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

    Every arrow of the closure is a word in the generators, and every word
    is its first letter post-composed with one generator at a time.  So,
    starting from the generators, each new arrow is post-composed with the
    generators whose domain type is its codomain type until nothing new
    appears.  Arrow equality is equality of the (dom, cod, map) triple.
    A closure whose table would have more than FULL_TABLE_CELL_LIMIT cells
    is refused with :class:`ResourceLimitError` once it grows past that
    size, before its table is built.
    """
    degrees = _checked_degrees(degrees)
    gens = sorted(set(generators), key=TransformationArrow.sort_key)
    for g in gens:
        validate_arrow(g, degrees)
    by_dom: dict = {}
    for g in gens:
        by_dom.setdefault(g.dom, []).append(g)
    found = set(gens)
    queue = list(gens)
    while queue:
        # Every arrow found is queued, so this sees each size reached.
        n = len(found)
        if n * n > FULL_TABLE_CELL_LIMIT:
            raise ResourceLimitError(
                f"generated semigroupoid reached {n} arrows, {n * n} table "
                f"cells (limit {FULL_TABLE_CELL_LIMIT} cells)"
            )
        arrow = queue.pop()
        for g in by_dom.get(arrow.cod, ()):
            composite = compose_arrows(arrow, g)
            if composite not in found:
                found.add(composite)
                queue.append(composite)
    arrows = tuple(sorted(found, key=TransformationArrow.sort_key))
    return ConcreteSemigroupoid(degrees, arrows, derive_table(arrows))


@dataclass(frozen=True)
class FullTransformationSgpoid:
    """All total maps along every arc of a closed graph.

    ``products`` is the composition grid that the embedding searches read:
    one row per arrow, whose cells are worked out by the index arithmetic
    of :func:`full_transformation_sgpoid` when first read, then kept.
    """

    degrees: tuple
    graph: ArrowTypeGraph
    arrows: tuple

    @cached_property
    def products(self) -> tuple:
        # The index of each arc's first arrow.
        offset = {}
        n = 0
        for d, c in self.graph.sorted_arcs:
            offset[(d, c)] = n
            n += self.degrees[c] ** self.degrees[d]
        return tuple(
            _ProductRow(self.arrows, self.degrees, offset, a) for a in self.arrows
        )


def full_transformation_arrows(
    degrees: Sequence[int], graph: ArrowTypeGraph
) -> tuple:
    """The arrows of :func:`full_transformation_sgpoid`, in the same order;
    refused in the same cases."""
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


def _composite_weights(f: tuple, width: int, base: int) -> list:
    # W_y for y < width: the index weight of g[y] in g∘f, for maps g into a
    # type of degree ``base``; see full_transformation_sgpoid.
    weights = [0] * width
    place = 1
    for y in reversed(f):
        weights[y] += place
        place *= base
    return weights


class _ProductRow(dict):
    """Row of a full target's composition grid for one arrow (d, c, f):
    cell j is worked out when first read, then kept.  The offset and the
    weights of f are computed once per codomain type of the arrows that f
    meets."""

    __slots__ = ("_arrows", "_degrees", "_offset", "_dom", "_cod", "_map", "_terms")

    def __init__(self, arrows, degrees, offset, arrow) -> None:
        super().__init__()
        self._arrows = arrows
        self._degrees = degrees
        self._offset = offset
        self._dom, self._cod, self._map = arrow.dom, arrow.cod, arrow.map
        self._terms: dict = {}

    def __missing__(self, j: int):
        b = self._arrows[j]
        if b.dom != self._cod:
            value = NC
        else:
            terms = self._terms.get(b.cod)
            if terms is None:
                e = b.cod
                weights = _composite_weights(
                    self._map, self._degrees[self._cod], self._degrees[e]
                )
                terms = self._terms[e] = (self._offset[(self._dom, e)], weights)
            value = terms[0] + sum(map(operator.mul, b.map, terms[1]))
        self[j] = value
        return value


def full_transformation_sgpoid(
    degrees: Sequence[int], graph: ArrowTypeGraph
) -> FullTransformationSgpoid:
    """The full transformation semigroupoid for per-type degrees d and a
    transitively closed graph: d[c]**d[d] arrows per arc (d, c).

    Arrows are listed arc by arc in ``graph.sorted_arcs`` order and, within
    arc (d, c), in ``itertools.product(range(deg[c]), repeat=deg[d])``
    order, so map f has index ``offset[(d, c)] + sum_x f[x] *
    deg[c]**(deg[d]-1-x)``.  Products come from indices alone: (d, c, f)
    then (c, e, g) is (d, e, g∘f), whose index is ``offset[(d, e)] +
    sum_y g[y] * W_y`` with ``W_y = sum_{x: f[x]=y} deg[e]**(deg[d]-1-x)``.
    Pairs whose types do not meet are NC.  :func:`derive_table` on the same
    arrows gives the same table, one composite at a time.  Only the arrows
    are built here; each product is computed when first read (see
    :class:`FullTransformationSgpoid`), and no whole table is ever built.
    Targets whose table would have more than FULL_TABLE_CELL_LIMIT cells
    are refused before any arrow is made.
    """
    arrows = full_transformation_arrows(degrees, graph)
    return FullTransformationSgpoid(tuple(degrees), graph, arrows)


def embed(
    abstract: CompositionTable,
    target: FullTransformationSgpoid,
    strict: bool = False,
) -> Iterator[ArrowMap]:
    """Injective morphisms from an abstract table into the composition
    table of a full transformation semigroupoid, in lexicographic order of
    their image vectors.  The search reads ``target.products``, so only the
    cells it tests are computed.  The abstract table is expected to be a
    semigroupoid for strict embeddings to exist; this is not enforced, and
    permissive mode is meaningful without it."""
    search = _morphism_solutions(abstract.entries, target.products, strict, True)
    return (ArrowMap(abstract.n, len(target.arrows), images) for images in search)


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
