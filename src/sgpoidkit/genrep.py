"""Concrete semigroupoids: typed total functions on finite state sets.

A transformation arrow is a plain (dom type, cod type, map) triple; two
arrows compose exactly when the codomain type of the first equals the
domain type of the second, and the product of (d, c, f) and (c, e, g) is
(d, e, g∘f).  This module generates such semigroupoids by post-composing
generators, builds the full transformation semigroupoid over a closed graph
with chosen per-type degrees, and finds transformation representations of
abstract tables by embedding them into full ones.  Arrows are checked where
they enter: by ``TransformationArrow.from_json``, :func:`validate_arrow`,
:func:`compose_arrows` and :func:`derive_table`.  A table cell is the index
of the composite triple, looked up in the grid's own arrow list.  A full
target lists only its arrows; its products are looked up one cell at a
time, the first time each is read, and its whole table is never built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .arrowtype import (
    ArrowTypeGraph,
    _arcs_of,
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
# 2.2 G).  It bounds the arrows either lists, 3162 at most.  A target's
# cells are only looked up as the search reads them, so a target past it
# is refused before any arrow is made; a generated one is refused before
# its table is built.
FULL_TABLE_CELL_LIMIT = 10**7


class TransformationArrow(NamedTuple):
    """Total function between the state sets of two types.  It is the
    tuple (dom, cod, map): it hashes, compares and sorts as that triple."""

    dom: int
    cod: int
    map: tuple

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


def _is_index(value, size: int) -> bool:
    # An int (not a bool) in range(size).
    return type(value) is int and 0 <= value < size


def validate_arrow(arrow: TransformationArrow, degrees: Sequence[int]) -> None:
    """Refuse, with :class:`DomainError`, an arrow whose types are not
    indices of ``degrees`` or whose map is not a tuple of ``degrees[dom]``
    ints in ``range(degrees[cod])``."""
    dom, cod, f = arrow
    if not (_is_index(dom, len(degrees)) and _is_index(cod, len(degrees))):
        raise DomainError(f"arrow types {dom!r}->{cod!r} outside the degree list")
    if type(f) is not tuple or len(f) != degrees[dom]:
        raise DomainError(f"map must be a tuple of {degrees[dom]} states")
    for value in f:
        if not _is_index(value, degrees[cod]):
            raise DomainError(f"state {value!r} outside the codomain state set")


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


def _check_states(arrows: Iterable[TransformationArrow]) -> None:
    # A negative state would index a map from its end, and a bool as 0 or 1.
    for arrow in arrows:
        if type(arrow.map) is not tuple:
            raise DomainError("map must be a tuple of states")
        for value in arrow.map:
            if type(value) is not int or value < 0:
                raise DomainError(f"state {value!r} is not a valid target state")


def compose_arrows(
    a: TransformationArrow, b: TransformationArrow
) -> Union[TransformationArrow, _Marker]:
    """a then b; NC when the types do not match."""
    _check_states((a, b))
    if a.cod != b.dom:
        return NC
    try:
        mapped = tuple(map(b.map.__getitem__, a.map))
    except IndexError as exc:
        raise DomainError("map entry outside the intermediate state set") from exc
    return TransformationArrow(a.dom, b.cod, mapped)


def derive_table(arrows: Sequence[TransformationArrow]) -> CompositionTable:
    """Composition table of a set of arrows closed under composition.

    Cell (a, b) is the index of the triple (dom a, cod b, b.map ∘ a.map),
    looked up as a plain tuple in the arrows' own index; no arrow is built
    per cell.  The maps are checked in one pass first."""
    _check_states(arrows)
    index = {arrow: i for i, arrow in enumerate(arrows)}
    try:
        rows = tuple(
            tuple([
                index[d, e, tuple(map(g.__getitem__, f))] if b == c else NC
                for b, e, g in arrows
            ])
            for d, c, f in arrows
        )
    except IndexError as exc:
        raise DomainError("map entry outside the intermediate state set") from exc
    except KeyError:
        raise DomainError("arrow set is not closed under composition") from None
    return CompositionTable(rows)


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
    generators = list(generators)
    for g in generators:
        validate_arrow(g, degrees)
    gens = sorted(set(generators))
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
    arrows = tuple(sorted(found))
    return ConcreteSemigroupoid(degrees, arrows, derive_table(arrows))


@dataclass(frozen=True)
class FullTransformationSgpoid:
    """All total maps along every arc of a closed graph.

    ``products`` is the composition grid that the embedding searches read:
    one row per arrow, whose cells are looked up by the cell rule of
    :func:`derive_table` when first read, then kept.
    """

    degrees: tuple
    graph: ArrowTypeGraph
    arrows: tuple

    @cached_property
    def products(self) -> tuple:
        index = {arrow: i for i, arrow in enumerate(self.arrows)}
        return tuple(_ProductRow(self.arrows, index, a) for a in self.arrows)


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


class _ProductRow(dict):
    """Row of a full target's composition grid for one arrow (d, c, f):
    cell j, for arrow (b, e, g), is NC unless b == c, else the index of
    (d, e, g∘f); it is looked up when first read, then kept."""

    __slots__ = ("_arrows", "_index", "_arrow")

    def __init__(self, arrows, index, arrow) -> None:
        super().__init__()
        self._arrows = arrows
        self._index = index
        self._arrow = arrow

    def __missing__(self, j: int):
        d, c, f = self._arrow
        b, e, g = self._arrows[j]
        value = self._index[d, e, tuple(map(g.__getitem__, f))] if b == c else NC
        self[j] = value
        return value


def full_transformation_sgpoid(
    degrees: Sequence[int], graph: ArrowTypeGraph
) -> FullTransformationSgpoid:
    """The full transformation semigroupoid for per-type degrees d and a
    transitively closed graph: d[c]**d[d] arrows per arc (d, c).

    Arrows are listed arc by arc in ``graph.sorted_arcs`` order and, within
    arc (d, c), in ``itertools.product(range(deg[c]), repeat=deg[d])``
    order.  Pairs whose types do not meet are NC.  Only the arrows are
    built here; each product is looked up by the cell rule of
    :func:`derive_table` when first read (see
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


def _candidate_graphs(table: CompositionTable, m: int) -> set:
    # Canonical codes of the m-object quotient graphs of the table's typings;
    # relabeling a typing relabels its graph, so one typing per orbit will do.
    return {
        canonical_form(arrow_type_of(table, ts))
        for ts in typing_orbits(table, m)
        if len(set(ts.doms + ts.cods)) == m
    }


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
            candidates.sort(key=lambda code: (len(code[1]), code))
        for m, codes in candidates:
            graph = ArrowTypeGraph(m, _arcs_of(m, codes))
            for degrees in _degree_vectors(total, m):
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
