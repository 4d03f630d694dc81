"""Morphism search between composition tables.

A morphism assigns every source arrow an image arrow in the target.  The
search substitutes image variables into the source's composition relation:
for every source pair with ``ab = d`` the images must satisfy
``phi(a)phi(b) = phi(d)`` in the target.  Two grades:

* permissive: only composable source pairs constrain the images, so pairs
  that do not compose in the source may become composable in the target;
* strict: non-composable pairs must stay non-composable, i.e. the map also
  reflects composition.  A bijective strict morphism is an isomorphism.

Morphisms are streamed in lexicographic order of their image vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import DomainError
from .search import Problem, solve_all
from .tables import NC, CompositionTable, compose
from .typestructure import TypeStructure


@dataclass(frozen=True)
class ArrowMap:
    """Total map from source arrows to target arrow indices."""

    source_n: int
    target_n: int
    images: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source_n:
            raise DomainError("image vector length does not match source size")
        for img in self.images:
            if not isinstance(img, int) or not 0 <= img < self.target_n:
                raise DomainError(f"image {img!r} outside 0..{self.target_n - 1}")

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source_n

    def inverse(self) -> "ArrowMap":
        """Inverse of a bijective map."""
        if self.source_n != self.target_n or not self.is_injective():
            raise DomainError("only bijective maps can be inverted")
        back = [0] * self.target_n
        for a, img in enumerate(self.images):
            back[img] = a
        return ArrowMap(self.target_n, self.source_n, tuple(back))


@dataclass
class CompositionRelation:
    """Fibers of the composition function: result value -> set of ordered
    pairs composing to it.  The fibers partition all n*n pairs; the NC fiber
    collects the non-composable ones."""

    fibers: dict


def composition_relation(table: CompositionTable) -> CompositionRelation:
    fibers: dict = {value: set() for value in range(table.n)}
    fibers[NC] = set()
    for a in range(table.n):
        for b in range(table.n):
            fibers[table.entries[a][b]].add((a, b))
    return CompositionRelation({k: frozenset(v) for k, v in fibers.items()})


def _pair_constraint(problem: Problem, target: Sequence, a, b, d) -> None:
    if not isinstance(d, int):
        # NC, or another marker such as UNSET: the images' cell holds it too.

        def test(bound) -> bool:
            if a in bound and b in bound:
                return target[bound[a]][bound[b]] is d
            return True

        problem.add_constraint((a, b), test)
    else:

        def test(bound) -> bool:
            if a in bound and b in bound:
                prod = target[bound[a]][bound[b]]
                if prod is NC:
                    return False
                if d in bound:
                    return prod == bound[d]
            return True

        problem.add_constraint((a, b, d), test)


def _morphism_solutions(
    source: Sequence, target: Sequence, strict: bool, distinct: bool
) -> Iterator[tuple]:
    """Image vectors, in lexicographic order, of the maps from the arrows
    of the grid ``source`` to those of the grid ``target`` that send each
    cell (a, b) holding d to a cell holding the image of d.  A cell that
    holds a marker instead of an arrow (NC, UNSET) is sent to a cell
    holding the same marker; NC cells only constrain when ``strict``.
    ``distinct`` asks for pairwise distinct images."""
    n = len(source)
    problem = Problem()
    images = list(range(len(target)))
    for a in range(n):
        problem.add_variable(a, images)
    if distinct:
        problem.add_all_different(range(n))
    for a in range(n):
        for b in range(n):
            d = source[a][b]
            if d is NC and not strict:
                continue
            _pair_constraint(problem, target, a, b, d)
    for solution in solve_all(problem):
        yield tuple(solution[a] for a in range(n))


def find_morphisms(
    S: CompositionTable,
    T: CompositionTable,
    bijective: bool = False,
    strict: bool = False,
) -> Iterator[ArrowMap]:
    """All morphisms from S to T; isomorphism candidates when bijective.

    The target is not required to be a semigroupoid: permissive maps can
    land in tables that fail associativity on the pairs that were
    non-composable in the source.
    """
    if bijective and S.n != T.n:
        return iter(())
    search = _morphism_solutions(S.entries, T.entries, strict, bijective)
    return (ArrowMap(S.n, T.n, images) for images in search)


def find_injective_morphisms(
    S: CompositionTable, T: CompositionTable, strict: bool = False
) -> Iterator[ArrowMap]:
    """Morphisms with pairwise distinct images; the target may be larger."""
    search = _morphism_solutions(S.entries, T.entries, strict, True)
    return (ArrowMap(S.n, T.n, images) for images in search)


def check_morphism(
    S: CompositionTable,
    T: CompositionTable,
    amap: ArrowMap,
    strict: bool = False,
) -> bool:
    """Verifier for search results: does ``amap`` satisfy the morphism
    contract?  Independent of the search path."""
    if amap.source_n != S.n or amap.target_n != T.n:
        raise DomainError("map dimensions do not match the tables")
    images = amap.images
    for a in range(S.n):
        for b in range(S.n):
            d = S.entries[a][b]
            prod = compose(T, images[a], images[b])
            if d is NC:
                if strict and prod is not NC:
                    return False
            else:
                if prod is NC or prod != images[d]:
                    return False
    return True


def induced_type_map(
    S: CompositionTable,
    T: CompositionTable,
    amap: ArrowMap,
    ts_S: TypeStructure,
    ts_T: TypeStructure,
) -> Optional[dict]:
    """Object map sending dom/cod of each arrow to dom/cod of its image.

    Returns the mapping restricted to the objects that occur in ``ts_S``,
    or None when no single object map is consistent with every arrow.
    """
    if amap.source_n != S.n or amap.target_n != T.n:
        raise DomainError("map dimensions do not match the tables")
    if len(ts_S.doms) != S.n or len(ts_T.doms) != T.n:
        raise DomainError("type structure sizes do not match the tables")
    mapping: dict = {}
    for a in range(S.n):
        img = amap.images[a]
        for src_obj, tgt_obj in (
            (ts_S.doms[a], ts_T.doms[img]),
            (ts_S.cods[a], ts_T.cods[img]),
        ):
            if mapping.setdefault(src_obj, tgt_obj) != tgt_obj:
                return None
    return mapping
