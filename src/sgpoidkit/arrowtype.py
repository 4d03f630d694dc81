"""Arrow-type graphs: transitively closed digraphs without parallel arcs.

Quotienting a typed semigroupoid onto its (domain, codomain) pairs yields a
digraph that is transitively closed, has at most one arc per ordered pair
and no isolated object.  This module enumerates the isomorphism classes of
such graphs by three independent methods (combinatorial brute force,
single-arc extension, single-arc extension followed by transitive closure)
and keeps each class in a database as its canonical code: the sorted codes
a * m + b of the arcs (a, b) of its lexicographically least relabeling on m
objects, found by a search that labels one object at a time, branches only
on tied rows and skips branches an automorphism maps onto explored ones.
One driver, :func:`extend_census`, runs every method as one loop over the
rows in ascending order and marks each row covered as it completes it: the
extension methods add one arc to every stored class of the row below,
close the result, and insert the children that pass a canonical-deletion
filter; brute force scans the row's uncovered cells.

Node sets are always derived from the arcs themselves, never from
positions, so an "isolated node" simply cannot be expressed; this avoids
isomorphism searches silently matching phantom vertices in all possible
ways.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional

from .errors import DomainError, ResourceLimitError, StaleDatabaseError, check_count
from .morphisms import ArrowMap, _morphism_solutions
# Unused here; perfbench/test_perfbench.py checks that its tracer rebinds
# solve_all in this module.
from .search import solve_all  # noqa: F401
from .tables import NC, CompositionTable
from .typestructure import TypeStructure

# Cost guards: scan nodes of one brute-force cell (row 7's largest cell
# takes 0.15 million, about 2 s), steps of work of one canonical-form
# search (4 million take 0.5 s on loops, 3 s on a path), transformation
# degree for functional digraphs.
BRUTE_FORCE_LIMIT = 5 * 10**5
CANONICAL_LIMIT = 4 * 10**6
FUNCTIONAL_DEGREE_LIMIT = 5

# The incremental method cannot reach the complete graph on three objects
# (nine arcs), so it is refused from there on.
INCREMENTAL_ARROW_LIMIT = 8


@dataclass(frozen=True)
class ArrowTypeGraph:
    """Digraph on objects 0..m-1; arcs form a set (no parallel arcs) and
    every object occurs on some arc."""

    m: int
    arcs: frozenset

    def __post_init__(self) -> None:
        arcs = frozenset((d, c) for d, c in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        if type(self.m) is not int:
            raise DomainError(f"object count {self.m!r} is not an int")
        for d, c in arcs:
            if not (type(d) is type(c) is int and 0 <= d < self.m and 0 <= c < self.m):
                raise DomainError(f"arc ({d!r}, {c!r}) outside int objects 0..{self.m - 1}")
        if len(_nodes(arcs)) != self.m:
            raise DomainError(
                "isolated objects are not representable; compact the graph"
            )

    @classmethod
    def from_arcs(cls, arcs: Iterable) -> "ArrowTypeGraph":
        """Build from raw arcs with arbitrary node labels, compacting the
        labels to 0..m-1 (relative label order preserved)."""
        arcset = {tuple(arc) for arc in arcs}
        nodes = sorted({x for arc in arcset for x in arc})
        index = {x: i for i, x in enumerate(nodes)}
        return cls(len(nodes), frozenset((index[d], index[c]) for d, c in arcset))

    @property
    def sorted_arcs(self) -> tuple:
        return tuple(sorted(self.arcs))

    def to_json(self) -> dict:
        return {"m": self.m, "arcs": [list(arc) for arc in self.sorted_arcs]}

    @classmethod
    def from_json(cls, data: dict) -> "ArrowTypeGraph":
        graph = cls.from_arcs(_arcs_from_json(data["arcs"]))
        if "m" in data and data["m"] != graph.m:
            raise DomainError("declared object count does not match the arcs")
        return graph


def _arcs_from_json(arcs) -> tuple:
    """Arcs read from JSON, a list of [dom, cod] integer pairs, as tuples."""
    if type(arcs) is not list:
        raise DomainError("arcs must be a list of [dom, cod] pairs")
    pairs = []
    for arc in arcs:
        if type(arc) is list and len(arc) == 2:
            d, c = arc
            if type(d) is int and type(c) is int:
                pairs.append((d, c))
                continue
        raise DomainError(f"arc {arc!r} is not a pair of integers")
    return tuple(pairs)


def _arcset(graph) -> frozenset:
    if isinstance(graph, ArrowTypeGraph):
        return graph.arcs
    if isinstance(graph, frozenset):
        return graph
    return frozenset(tuple(arc) for arc in graph)


def _arcs_of(m: int, codes: tuple) -> frozenset:
    """The arcs (a, b) of the codes a * m + b (see :func:`canonical_form`)."""
    return frozenset(divmod(code, m) for code in codes)


def _nodes(arcs) -> set:
    return {x for arc in arcs for x in arc}


def _degree_pairs(arcs) -> dict:
    out: dict = {}
    into: dict = {}
    for d, c in arcs:
        out[d] = out.get(d, 0) + 1
        into[c] = into.get(c, 0) + 1
    return {v: (out.get(v, 0), into.get(v, 0)) for v in _nodes(arcs)}


def is_transitively_closed(graph) -> bool:
    """True when every two-step path has its composite arc present."""
    arcs = _arcset(graph)
    out: dict = {}
    for d, c in arcs:
        out.setdefault(d, []).append(c)
    for d, c in arcs:
        for z in out.get(c, ()):
            if (d, z) not in arcs:
                return False
    return True


def _closure_arcs(arcs) -> set:
    # Every arc of the closure is a path in ``arcs``, and every path is
    # its first arc extended on the right by one given arc at a time.
    closed = set(arcs)
    out: dict = {}
    for d, c in closed:
        out.setdefault(d, []).append(c)
    queue = list(closed)
    while queue:
        d, c = queue.pop()
        for z in out.get(c, ()):
            if (d, z) not in closed:
                closed.add((d, z))
                queue.append((d, z))
    return closed


def transitive_closure(arcs) -> ArrowTypeGraph:
    """Smallest transitively closed superset of the given arcs (labels
    compacted to 0..m-1 when they are not already)."""
    return ArrowTypeGraph.from_arcs(_closure_arcs(_arcset(arcs)))


def _closed_extensions(arcs: frozenset, m: int, max_objects: int) -> Iterator[tuple]:
    """(arc, closure, p) for each arc that can be added to the closed arcs
    on objects 0..m-1 within max_objects objects, where p is the object
    count of the extension: between existing objects in row-major order
    (p = m), then (i, m) and (m, i) for each object i and the loop (m, m)
    on a fresh object m (p = m + 1), then the detached arc (m, m + 1)
    (p = m + 2).

    Since the arcs are closed, every new two-step path runs through the
    new arc (d, c), so the closure is the arcs plus ({d} | In(d)) x ({c} |
    Out(c)), taken in one pass.
    """
    sources = [[x] for x in range(m + 2)]
    targets = [[x] for x in range(m + 2)]
    for d, c in arcs:
        sources[c].append(d)
        targets[d].append(c)
    candidates = [((d, c), m) for d in range(m) for c in range(m) if (d, c) not in arcs]
    if m + 1 <= max_objects:
        for i in range(m):
            candidates += [((i, m), m + 1), ((m, i), m + 1)]
        candidates.append(((m, m), m + 1))
    if m + 2 <= max_objects:
        candidates.append(((m, m + 1), m + 2))
    for (d, c), p in candidates:
        yield (d, c), arcs.union([(w, z) for w in sources[d] for z in targets[c]]), p


def _extension_orbits(arcs: frozenset, m: int, max_objects: int) -> Iterator[tuple]:
    """The first of the :func:`_closed_extensions` in each orbit of the
    permutations of twin objects (see :func:`_twin_finder`).  Such a
    permutation is an automorphism of the arcs, and closure commutes with
    relabeling, so two arcs in one orbit give isomorphic extensions with
    the same arc and object counts.  An arc's orbit is fixed by the twin
    classes of its ends and by whether it is a loop; the fresh objects m and
    m + 1 are classes of their own."""
    twin = _twin_finder(arcs, m)
    least = [twin(v) for v in range(m)] + [m, m + 1]
    seen = set()
    for extension in _closed_extensions(arcs, m, max_objects):
        d, c = extension[0]
        key = (least[d], least[c], d == c)
        if key not in seen:
            seen.add(key)
            yield extension


def _parent_masks(arcs: frozenset, m: int) -> tuple:
    """What :func:`_canonical_deletion` reads of a closed parent on objects
    0..m-1, built once for all its children: its arcs, the out- and
    in-neighbour bitmasks of objects 0..m+1 (a child may add two fresh
    objects) and the key (out-degree, in-degree, has-loop) of each."""
    out = [0] * (m + 2)
    into = [0] * (m + 2)
    for d, c in arcs:
        out[d] |= 1 << c
        into[c] |= 1 << d
    ends = [_end_key(out, into, v) for v in range(m + 2)]
    return arcs, out, into, ends


def _end_key(out: list, into: list, v: int) -> tuple:
    o = out[v]
    return o.bit_count(), into[v].bit_count(), o >> v & 1


def _canonical_deletion(parent: tuple, arc: tuple, closed: frozenset) -> bool:
    """True when ``closed``, the closed child of a parent extended by
    ``arc``, is to be offered to the database: a cheap isomorph rejection
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    ``parent`` is the parent's :func:`_parent_masks`; the child's masks are
    the parent's with its new arcs added.

    An arc (d, c) of a closed arc set is removable when it is not the
    composite of two other arcs: no y outside {d, c} has (d, y) and (y, c)
    present (for a loop, no y != d has (d, y) and (y, d)).  Deleting a
    removable arc leaves the set closed.  The arc's key is (out-degree,
    in-degree, has-loop) of its tail, then the same three for its head; the
    key and removability are invariants of the pair (graph, arc).  A child
    that closure left at n + 1 arcs is accepted when no removable arc of it
    has a larger key than the added arc, which is removable itself.  A child
    whose closure added more arcs is accepted when it has no removable arc.
    Ties are let through; the database still deduplicates exactly.  Why no
    class is lost is argued at :func:`_extend_row`.
    """
    arcs, out, into, ends = parent
    single = len(closed) == len(arcs) + 1
    out = out.copy()
    into = into.copy()
    for d, c in (arc,) if single else closed - arcs:
        out[d] |= 1 << c
        into[c] |= 1 << d

    def removable(d: int, c: int) -> bool:
        return not out[d] & into[c] & ~(1 << d | 1 << c)

    if not single:
        return not any(removable(d, c) for d, c in closed)
    ends = ends.copy()
    for v in arc:
        ends[v] = _end_key(out, into, v)
    top = ends[arc[0]] + ends[arc[1]]
    return not any(
        ends[d] + ends[c] > top and removable(d, c) for d, c in closed
    )


def one_more_arrow(arcs, m: int, added_object: bool = False) -> list:
    """Arcs addable to a transitively closed arc set on objects 0..m-1 such
    that the result is still transitively closed.

    With ``added_object`` the object m-1 is fresh (no arc may touch it) and
    the new arc must touch it; candidates are tried as (i, m-1), (m-1, i)
    for each older object i, then the loop (m-1, m-1).  Otherwise
    candidates run in row-major order.  An ``m`` that is not an int (or is
    a bool), or leaves no fresh object, and arcs that are not pairs of
    int (not bool) objects among these raise :class:`DomainError`.  Since
    the arcs are closed, adding one arc leaves them closed exactly when its
    one-pass closure in :func:`_closed_extensions` adds nothing else.
    """
    check_count(m, "object count", int(added_object))
    arcs = frozenset(map(tuple, arcs))
    existing = m - added_object
    if not all(
        len(arc) == 2 and all(type(x) is int and 0 <= x < existing for x in arc)
        for arc in arcs
    ):
        raise DomainError(f"arcs must be pairs of int objects 0..{existing - 1}")
    return [
        arc
        for arc, closure, p in _closed_extensions(arcs, existing, m)
        if p == m and len(closure) == len(arcs) + 1
    ]


def digraph_isomorphisms(G, H) -> Iterator[dict]:
    """All node bijections sending arcs exactly onto arcs, in lexicographic
    order of the images of the sorted nodes.

    Each graph's sorted nodes become the indices of a grid whose cell
    (u, v) holds v for an arc and NC otherwise; the bijections are the
    strict bijective morphisms between the two grids.  Graphs are taken
    as arc sets (or :class:`ArrowTypeGraph`), so isolated nodes cannot
    occur; ArrowTypeGraph rejects them at construction.
    """
    g = _arcset(G)
    h = _arcset(H)
    g_nodes = sorted(_nodes(g))
    h_nodes = sorted(_nodes(h))
    if len(g_nodes) != len(h_nodes) or len(g) != len(h):
        return

    def grid(arcs, nodes) -> list:
        return [
            [j if (x, y) in arcs else NC for j, y in enumerate(nodes)] for x in nodes
        ]

    source, target = grid(g, g_nodes), grid(h, h_nodes)
    for images in _morphism_solutions(source, target, strict=True, distinct=True):
        yield {v: h_nodes[i] for v, i in zip(g_nodes, images)}


def _twin_finder(edges: Iterable, m: int):
    """A function naming the twin class of an object by its first member
    asked for.  Objects u and v are twins when swapping them maps the arcs
    onto themselves; twinship is an equivalence (conjugating one twin swap
    by another gives a third).  Twins with no arc between them have the same
    loop, heads and tails; twins joined both ways have them once each is
    added to its own heads and tails.  Conversely objects that share either
    key are twins, so an object is named after the first with its key."""
    out = [0] * m
    into = [0] * m
    loop = [0] * m
    for u, v in edges:
        if u == v:
            loop[u] = 1
        else:
            out[u] |= 1 << v
            into[v] |= 1 << u
    first: dict = {}

    def twin(v: int) -> int:
        u = first.get(v)
        if u is None:
            bit = 1 << v
            apart = (out[v], into[v], loop[v])
            joined = (out[v] | bit, into[v] | bit, loop[v])
            u = first[v] = first.get(apart, first.get(joined, v))
            if u == v:
                first[apart] = first[joined] = v
        return u

    return twin


def canonical_form(G) -> tuple:
    """Lexicographically least compact relabeling, as its code (m, codes):
    m is the object count and codes the sorted a * m + b of its arcs (a, b),
    so (0, ()) for no arcs.  Equal exactly for isomorphic inputs.

    The sorted arc list is row 0, then row 1, ..., row a holding the heads
    b of the arcs (a, b).  Read as the int with bit m - 1 - b set for each
    head b, the larger of two rows comes first in the lesser list, so the
    search labels objects in order and keeps the greatest row sequence.
    Objects are numbered by first appearance in the least list (otherwise a
    swap of two labels would shrink it), so the objects seen as heads sit
    in an ordered partition whose cells own consecutive labels, and unseen
    objects follow.  Label i goes to an object of the cell owning it, or,
    with no cell pending, to an unseen object with out-arcs.  That fixes its
    row, with its heads in each cell at the cell's lowest labels and its
    unseen heads as a new last cell.  Only the largest rows are branched
    on, and the chosen row splits each cell it touches, heads first.  Cells
    without out-arcs are passed, as their rows are empty in any order.  A
    branch whose rows fall below the best complete labeling's is cut.

    Of twin candidates (objects whose swap preserves the arcs) one is
    tried, and so is one of each orbit of the automorphisms that fix the
    labeled objects among those found when a complete labeling repeats the
    best rows (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    Such a repeat also shows that the branch mirrors the explored one where
    the two paths part, so the search returns straight to that level.
    CANONICAL_LIMIT bounds the work: objects scanned, out-arcs read,
    labelings stored and automorphism images taken.
    """
    arcs = _arcset(G)
    index = {x: i for i, x in enumerate(_nodes(arcs))}
    m = len(index)
    edges = [(index[d], index[c]) for d, c in arcs]
    top = m - 1
    heads: list = [[] for _ in range(m)]
    loop = [0] * m
    degree = [0] * m  # out-arcs, loop included
    for d, c in edges:
        degree[d] += 1
        if d == c:
            loop[d] = 1
        else:
            heads[d].append(c)
    limit = CANONICAL_LIMIT
    # The ordered partition: lab[p] is the object with label p, pos its
    # inverse.  A cell is named by its end label e and holds the labels
    # start[e]..e-1; cell[x] names the cell of object x.  The unseen objects
    # hold the labels from start[unseen] on.
    unseen = m + 1
    lab = list(range(m))
    pos = lab[:]
    cell = [unseen] * m
    start = [0] * (m + 2)
    taken = [0] * (m + 2)  # heads of one row counted per cell, then reset
    trail: list = []  # (cell, its start, end of the part split off), to undo
    rows = [0] * m  # row ints of the current branch, by label
    path = [0] * m  # object labeled at each level
    best_rows, best_lab, best_pos, best_path = [], [], [], []  # the best leaf's
    automorphisms: list = []
    twin = None  # a _twin_finder, once two candidates tie
    nodes = work = 0
    resume = m + 1  # returned when no level is to be jumped back to

    def descend(depth: int, i: int, equal: bool, x: int, c: int):
        # Give x (unless -1) of cell c label i at level depth, then go on
        # while a level has one candidate; equal: the rows so far are the
        # best leaf's.  Returns None after pushing the frame of a level with
        # several, or the level to resume at (resume: the parent's own loop).
        nonlocal nodes, work, twin
        while True:
            if x < 0:
                nodes += 1
                if work > limit:
                    raise ResourceLimitError(
                        f"canonical form search of {len(edges)} arcs on {m} objects exceeded "
                        f"{limit} steps of work ({work} steps in {nodes} search nodes)"
                    )
                while i < m:
                    x = lab[i]
                    c = cell[x]
                    if c == i + 1:  # x alone in its cell
                        work += 1
                        candidates = None
                        if degree[x]:
                            break
                        if equal and best_rows[i]:
                            return resume
                        rows[i] = 0
                        i += 1
                        continue
                    end = m if c == unseen else c
                    work += end - i
                    candidates = [y for y in lab[i:end] if degree[y]]
                    if candidates:
                        x = candidates[0]
                        break
                    # Rows i..end-1 are empty in any order.
                    if equal and any(best_rows[i:end]):
                        return resume
                    rows[i:end] = [0] * (end - i)
                    i = end
                else:
                    work += m
                    if not equal:
                        best_rows[:], best_lab[:], best_pos[:] = rows, lab, pos
                        best_path[:] = path[:depth]
                        return resume
                    g = [best_lab[pos[y]] for y in range(m)]
                    automorphisms.append((g, sum([1 << y for y in range(m) if g[y] != y])))
                    return next(l for l, y in enumerate(path) if y != best_path[l])
                if candidates and len(candidates) > 1:
                    # Each candidate takes label i and the rest of its cell
                    # the labels after it; the largest rows tie.
                    start[c] = i + 1
                    high = -1
                    for x in candidates:
                        row = loop[x] << (top - i)
                        for h in heads[x]:
                            d = cell[h]
                            row |= 1 << (top - start[d] - taken[d])
                            taken[d] += 1
                        for h in heads[x]:
                            taken[cell[h]] = 0
                        work += degree[x]
                        if row > high:
                            high = row
                            tied = [x]
                        elif row == high:
                            tied.append(x)
                    start[c] = i
                    if len(tied) > 1:
                        # One of each twin class: twins are swapped by an
                        # automorphism fixing the rest.
                        if twin is None:
                            twin = _twin_finder(edges, m)
                            work += len(edges)
                        classes: dict = {}
                        for x in tied:
                            classes.setdefault(twin(x), x)
                        work += len(tied)
                        tied = list(classes.values())
                    x = tied[0]
                    if len(tied) > 1:
                        # depth, label, cell, candidates left, explored, equal,
                        # trail length to undo to, then three for skippable
                        frames.append(
                            [depth, i, c, iter(tied), [], equal, len(trail), set(), [], 0]
                        )
                        return None
            # x takes label i; the rest of its cell follows.
            p = pos[x]
            y = lab[i]
            lab[p], pos[y], lab[i], pos[x] = y, p, x, i
            if c != i + 1:
                cell[x] = i + 1
                start[i + 1], start[c] = i, i + 1
                trail.append((c, i, i + 1))
            row = loop[x] << (top - i)
            touched = []
            for h in heads[x]:
                d = cell[h]
                k = taken[d]
                if not k:
                    touched.append(d)
                taken[d] = k + 1
                q = start[d] + k
                row |= 1 << (top - q)
                p = pos[h]
                y = lab[q]
                lab[p], pos[y], lab[q], pos[h] = y, p, h, q
            for d in touched:
                s = start[d]
                new = s + taken[d]
                taken[d] = 0
                if new != d:
                    for q in range(s, new):
                        cell[lab[q]] = new
                    start[new], start[d] = s, new
                    trail.append((d, s, new))
            work += degree[x]
            if equal:
                if row < best_rows[i]:
                    return resume
                equal = row == best_rows[i]
            rows[i] = row
            path[depth] = x
            depth += 1
            i += 1
            x = -1

    def skippable(frame: list, x: int) -> bool:
        # True when an automorphism fixing the labeled objects maps x onto
        # an explored candidate.  After its first seven fields the frame
        # keeps the orbit of its explored candidates under the stored
        # automorphisms that fix its path, those automorphisms, and how many
        # of the stored ones it has checked.
        nonlocal work
        depth, explored, orbit, fixing, checked = frame[0], frame[4], *frame[7:]
        todo = [y for y in explored if y not in orbit]
        if checked < len(automorphisms):
            labeled = sum([1 << y for y in path[:depth]])
            fresh = [g for g, moved in automorphisms[checked:] if not moved & labeled]
            work += depth + len(automorphisms) - checked
            frame[9] = len(automorphisms)
            if fresh:
                fixing += fresh
                todo += orbit
        orbit.update(todo)
        while todo:
            y = todo.pop()
            work += len(fixing)
            for g in fixing:
                if g[y] not in orbit:
                    orbit.add(g[y])
                    todo.append(g[y])
        return x in orbit

    # One frame per level with several candidates, so the search depth is
    # not bounded by the interpreter's recursion limit.
    frames: list = []
    back = descend(0, 0, False, -1, 0)
    while frames:
        frame = frames[-1]
        depth, i, c, tied, explored, equal, mark = frame[:7]
        if back is not None:
            # A branch of this level has ended.
            while len(trail) > mark:
                d, s, new = trail.pop()
                for q in range(s, new):
                    cell[lab[q]] = d
                start[d] = s
            if back < depth:
                frames.pop()
                continue
            # The branch just explored leaves the best rows with this prefix.
            frame[5] = equal = True
        for x in tied:
            if not (explored and automorphisms and skippable(frame, x)):
                break
        else:
            frames.pop()
            back = resume
            continue
        explored.append(x)
        work += 1
        back = descend(depth, i, equal, x, c)

    return m, tuple(sorted([best_pos[d] * m + best_pos[c] for d, c in edges]))


class GraphSignature(NamedTuple):
    """Isomorphism invariant: cheap to compute, but coarse, since
    non-isomorphic graphs can share it.  :class:`ClassDatabase` keys on
    :func:`canonical_form` instead."""

    node_count: int
    arc_count: int
    degree_profile: tuple
    path_profile: tuple


def _matmul(a: list, b: list, m: int) -> list:
    result = [[0] * m for _ in range(m)]
    for i in range(m):
        row_a = a[i]
        row_r = result[i]
        for k in range(m):
            coef = row_a[k]
            if coef:
                row_b = b[k]
                for j in range(m):
                    row_r[j] += coef * row_b[j]
    return result


def signature(G) -> GraphSignature:
    """Degree profile plus entry-value frequencies of adjacency powers
    2..min(m, 4) (path counts of short lengths)."""
    graph = G if isinstance(G, ArrowTypeGraph) else ArrowTypeGraph.from_arcs(_arcset(G))
    m = graph.m
    degree_profile = tuple(sorted(_degree_pairs(graph.arcs).values())) if m else ()
    adjacency = [[0] * m for _ in range(m)]
    for d, c in graph.arcs:
        adjacency[d][c] = 1
    profiles = []
    power = adjacency
    for _ in range(2, min(m, 4) + 1):
        power = _matmul(power, adjacency, m)
        counts = Counter(value for row in power for value in row)
        profiles.append(tuple(sorted(counts.items())))
    return GraphSignature(m, len(graph.arcs), degree_profile, tuple(profiles))


class ClassDatabase:
    """Store of pairwise non-isomorphic graph representatives.

    Index: (node count, arc count) -> the set of canonical codes (see
    :func:`canonical_form`).  Isomorphic graphs have equal codes and
    non-isomorphic ones different codes, so inserting a graph is one
    :func:`canonical_form` call and a set lookup.  For a fixed m, a * m + b
    orders arcs as (a, b) does, so codes sort as the arc lists they encode.

    Coverage: for each arc count k, the largest object count p such that
    every class with k arcs and at most p objects is stored.  A census run
    marks the rows it enumerated, up to its object bound.  :meth:`load`
    infers whole rows only: a row k <= ``complete_arrows`` is covered on
    all objects when it stores a class on 2k objects.  That class is k
    detached arcs, and each method stores it only when it enumerates row k
    on all 2k objects, which leaves the row complete: closure and the
    incremental method reach it only through a detached arc on two fresh
    objects, brute force only in the cell (k, 2k).  A row stored up to a
    smaller bound is not inferred, because its largest node count does not
    show that bound: earlier versions let a closure run extend stored
    classes past its own object bound, into rows it left incomplete.
    Earlier versions also let the incremental method build rows past
    INCREMENTAL_ARROW_LIMIT, which store that class but miss the complete
    graph on three objects (nine arcs) and every class it leads to.  So a
    row k > INCREMENTAL_ARROW_LIMIT is inferred only when that graph is
    stored too: every complete row 9 holds it, and those builds never do.
    No class with k arcs has fewer than ceil(sqrt(k)) objects, so every
    row is covered up to ceil(sqrt(k)) - 1 without any stored class.
    """

    def __init__(self) -> None:
        self._buckets: dict = {}
        # Largest arc count n such that rows 0..n have each been enumerated
        # up to the object bound of the run that touched them.
        self.complete_arrows: int = -1
        self._coverage: dict = {}  # arc count -> object count

    def coverage(self, n_arcs: int) -> int:
        """Largest p such that every class with n_arcs arcs and at most p
        objects is stored."""
        return max(self._coverage.get(n_arcs, -1), math.isqrt(n_arcs - 1))

    def mark_covered(self, n_arcs: int, max_objects: int) -> None:
        """Record that every class with n_arcs arcs and at most max_objects
        objects is stored, and that rows 0..n_arcs have been enumerated."""
        self._coverage[n_arcs] = max(
            self.coverage(n_arcs), min(max_objects, 2 * n_arcs)
        )
        self.complete_arrows = max(self.complete_arrows, n_arcs)

    def first_uncovered(self, max_arrows: int, max_objects: int) -> int:
        """Least arc count k <= max_arrows whose classes on at most
        max_objects objects are not all stored, or max_arrows + 1."""
        for k in range(1, max_arrows + 1):
            if self.coverage(k) < min(max_objects, 2 * k):
                return k
        return max_arrows + 1

    def insert(self, graph) -> bool:
        """Record the class of ``graph`` (an :class:`ArrowTypeGraph` or an
        arc set); True when it was new."""
        m, codes = canonical_form(graph)
        bucket = self._buckets.setdefault((m, len(codes)), set())
        if codes in bucket:
            return False
        bucket.add(codes)
        return True

    def count(self, n_arcs: int, m: int) -> int:
        return len(self._buckets.get((m, n_arcs), ()))

    def total(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def _codes(self, n_arcs: Optional[int] = None, m: Optional[int] = None) -> list:
        """(m, codes) of the stored classes, by node count, arc count and codes."""
        return [
            (bm, codes)
            for bm, bn in sorted(self._buckets)
            if (n_arcs is None or bn == n_arcs) and (m is None or bm == m)
            for codes in sorted(self._buckets[bm, bn])
        ]

    def classes(
        self, n_arcs: Optional[int] = None, m: Optional[int] = None
    ) -> List[ArrowTypeGraph]:
        """Stored representatives, by node count, arc count and sorted arcs."""
        return [ArrowTypeGraph(bm, _arcs_of(bm, c)) for bm, c in self._codes(n_arcs, m)]

    def save(self, path) -> None:
        """One JSON file per (node count, arc count) bucket plus a meta
        file; canonical arc lists are sorted, so saves are byte-stable.

        The files are written into a temporary directory inside the
        database directory, so on the same file system even when that is a
        mount point, then renamed into place one at a time, buckets by
        ascending node count and meta.json last.  A rename replaces a file
        whole, so a save that fails part-way leaves each file either old or
        new, and the database readable: a new bucket holds every class of
        the old one, and the old meta.json limits the inferred coverage to
        the rows it named.  Files in the directory that are not the
        database's stay."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".saving-", dir=directory))
        names: list = []

        def write(name: str, text: str) -> None:
            (staging / name).write_text(text)
            names.append(name)

        try:
            for (m, n), bucket in sorted(self._buckets.items()):
                write(f"nodes{m:02d}_arcs{n:03d}.json", _bucket_text(m, n, bucket))
            meta = {"complete_arrows": self.complete_arrows}
            write("meta.json", json.dumps(meta, indent=1, sort_keys=True) + "\n")
            for name in names:
                os.replace(staging / name, directory / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    @classmethod
    def load(cls, path) -> "ClassDatabase":
        """Read a directory written by :meth:`save` and infer its coverage
        (see the class docstring).  Each class goes through :meth:`insert`,
        so an edited file whose arcs are not in canonical form cannot count
        one class twice; a class whose arcs are not transitively closed is
        refused with :class:`DomainError`."""
        directory = Path(path)
        database = cls()
        for bucket_file in sorted(directory.glob("nodes*_arcs*.json")):
            payload = json.loads(bucket_file.read_text())
            classes = payload.get("classes") if isinstance(payload, dict) else None
            if not isinstance(classes, list):
                raise DomainError(f"{bucket_file}: classes must be a list of arc lists")
            for arcs in classes:
                arcs = _arcs_from_json(arcs)
                if not is_transitively_closed(arcs):
                    raise DomainError(
                        f"{bucket_file}: arcs {[list(arc) for arc in arcs]} "
                        "are not transitively closed"
                    )
                database.insert(arcs)
        meta_file = directory / "meta.json"
        if meta_file.exists():
            meta = json.loads(meta_file.read_text())
            if not isinstance(meta, dict):
                raise DomainError(f"{meta_file}: the top level must be a JSON object")
            complete = meta.get("complete_arrows", -1)
            if type(complete) is not int:
                raise DomainError(f"{meta_file}: complete_arrows must be an integer")
            database.complete_arrows = complete
        complete_k3 = database.count(9, 3)  # the only 9-arc class on 3 objects
        for m, n in database._buckets:
            if m == 2 * n and 1 <= n <= database.complete_arrows:
                if n <= INCREMENTAL_ARROW_LIMIT or complete_k3:
                    database._coverage[n] = m
        return database


def _bucket_text(m: int, n: int, bucket: set) -> str:
    """The file of a bucket: the bytes that json.dumps(indent=1,
    sort_keys=True) gives for {"node_count": m, "arc_count": n, "classes":
    the decoded classes in sorted order} and a newline, formatted directly,
    since any indent sends json to its pure-Python encoder."""
    arcs = ["   [\n    %d,\n    %d\n   ]" % divmod(code, m) for code in range(m * m)]
    classes = ",\n".join(
        ["  [\n" + ",\n".join([arcs[c] for c in codes]) + "\n  ]" if codes else "  []"
         for codes in sorted(bucket)]
    )
    return '{\n "arc_count": %d,\n "classes": [\n%s\n ],\n "node_count": %d\n}\n' % (
        n, classes, m
    )


def enumerate_brute_force(n_arrows: int, m_objects: int) -> List[ArrowTypeGraph]:
    """All classes with exactly n arcs and exactly m non-isolated objects,
    by scanning arc sets directly.

    The scan picks n of the m*m arc slots in row-major order, so every arc
    list it builds is sorted.  It builds only lists whose objects are
    numbered 0, 1, 2, ... in order of first appearance.  The lemma behind
    :func:`canonical_form` says the lexicographically least labeling of a
    graph is numbered that way, so every class is still met, while most of
    its other labelings are never built (the weakest form of orderly
    generation; Read, "Every one a winner", Ann. Discrete Math. 2, 1978).
    A slot's endpoints may therefore use at most the next unused label, and
    once a slot's domain is past that label, so is every later slot's, and
    the loop ends.

    Prefixes are also pruned when they can no longer use all m labels, or
    when a two-step path through the new arc needs a composite arc whose
    slot was passed over.  A complete list is kept when it is transitively
    closed, which the bitmasks of chosen arcs show: each arc's head has no
    successor its tail lacks.  A closed list that swapping two labels
    makes smaller is not a least labeling, so it is dropped, and the rest
    are deduplicated by canonical form.  Guarded by the number of scan
    nodes, BRUTE_FORCE_LIMIT.
    """
    check_count(n_arrows, "arc count")
    check_count(m_objects, "object count")
    m = m_objects
    limit = BRUTE_FORCE_LIMIT
    slots = [(d, c) for d in range(m) for c in range(m)]
    database = ClassDatabase()
    chosen: list = []
    out = [0] * m  # bit c of out[d], and bit d of into[c], for a chosen (d, c)
    into = [0] * m
    nodes = 0
    closed = 0

    def scan(start: int, used: int) -> None:
        # used: labels 0..used-1 appear in the chosen prefix.
        nonlocal nodes, closed
        remaining = n_arrows - len(chosen)
        if remaining == 0:
            if used == m and not any(out[c] & ~out[d] for d, c in chosen):
                closed += 1
                if not _swap_shrinks(chosen, m):
                    database.insert(frozenset(chosen))
            return
        for i in range(start, len(slots) - remaining + 1):
            d, c = slots[i]
            if d > used:
                break
            if d == used:
                # d is new: c may be d itself or the label after it.
                if c > used + 1:
                    continue
                now = used + 1 + (c > used)
            elif c > used:
                continue
            else:
                now = used + (c == used)
            if m - now > 2 * (remaining - 1):
                continue
            d_bit = 1 << d
            c_bit = 1 << c
            out[d] |= c_bit
            into[c] |= d_bit
            # A two-step path through (d, c) whose composite slot lies
            # before (d, c) and was skipped can never be closed.
            if not (out[c] & ~out[d] & (c_bit - 1) or into[d] & ~into[c] & (d_bit - 1)):
                nodes += 1
                if nodes > limit:
                    raise ResourceLimitError(
                        f"brute force at {n_arrows} arcs on {m} objects exceeded "
                        f"{limit} scan nodes after {closed} closed arc sets "
                        f"({database.total()} classes), at prefix {chosen + [(d, c)]}"
                    )
                chosen.append((d, c))
                scan(i + 1, now)
                chosen.pop()
            out[d] ^= c_bit
            into[c] ^= d_bit

    scan(0, 0)
    return database.classes(n_arrows, m_objects)


def _swap_shrinks(arcs: list, m: int) -> bool:
    """True when swapping two labels makes the sorted arc list ``arcs``
    lexicographically smaller, so that it is not a canonical form."""
    for a in range(m):
        for b in range(a + 1, m):
            swap = list(range(m))
            swap[a], swap[b] = b, a
            if sorted([(swap[d], swap[c]) for d, c in arcs]) < arcs:
                return True
    return False


def _extend_row(database: ClassDatabase, n: int, max_arrows: int, max_objects: int) -> None:
    """Insert the closed one-arc extensions of every stored class with n
    arcs on at most max_objects objects, keeping those with at most
    max_arrows arcs that lie past their row's coverage: a child with k
    arcs on p objects is skipped when p <= database.coverage(k) at the
    start of the step, as it is stored.

    Each class is extended by one arc per orbit of its twin permutations
    (:func:`_extension_orbits`).  Closure commutes with relabeling, so an
    automorphism sigma of the class sends the closed extension by arc e
    onto the closed extension by sigma(e): the other arcs of an orbit give
    isomorphic children with the same arc and object counts.  Of the
    children left, one is inserted only when its new arc is a canonical
    deletion (:func:`_canonical_deletion`), which rejects most isomorphic
    copies before any canonical form is computed.

    No class is lost when every row is stored in full, up to max_objects
    objects, by the time it is extended.  Let C be a closed graph on at
    most max_objects objects with at most max_arrows arcs, past its row's
    coverage.  Let C have a removable arc, and e* one with the largest key.
    C - e* is closed, with one arc fewer and no more objects, so its class
    is stored when its row is extended.  An isomorphism from C - e* onto the
    stored form, followed by the twin permutation that takes the image of
    e* to its orbit's representative e', is an isomorphism from C onto the
    child by e' that takes e* to e'.  So e' is removable with the largest
    key in its child, and that child is accepted.  Let C have no removable
    arc.  Rebuilding C arc by arc, closing after each arc, stays inside C,
    so within both bounds, and ends in a step from a closed proper
    subgraph, a stored class, to C.  That step adds more than one arc,
    since C minus any one arc is not closed, and the child of the
    representative arc is isomorphic to C, so it has no removable arc and
    is accepted.
    """
    # Every child has more than n arcs.
    cover = {k: database.coverage(k) for k in range(n + 1, max_arrows + 1)}
    for m, codes in database._codes(n_arcs=n):
        if m > max_objects:
            continue
        arcs = _arcs_of(m, codes)
        parent = _parent_masks(arcs, m)
        for arc, closed, p in _extension_orbits(arcs, m, max_objects):
            k = len(closed)
            if k <= max_arrows and p > cover[k] and _canonical_deletion(parent, arc, closed):
                database.insert(closed)


def enumerate_by_closure(
    database: ClassDatabase,
    max_arrows: int,
    max_objects: Optional[int] = None,
) -> ClassDatabase:
    """:func:`extend_census` by the closure method; returns the database."""
    extend_census(database, "closure", max_arrows, max_objects)
    return database


def extend_census(
    database: ClassDatabase,
    method: str,
    max_arrows: int,
    max_objects: Optional[int] = None,
) -> bool:
    """Make the database cover every class with 1..max_arrows arcs on at
    most max_objects objects (all objects by default), by the "closure",
    "incremental" or "brute" method.  False when the database already
    covered the request and nothing ran.

    One loop over the rows n, in ascending order, completes row n and marks
    it covered.  Row n is complete once every row below it has been
    extended, since every child has more arcs than its parent (see
    :func:`_extend_row`).  Closure extends row n - 1 by one arc and takes
    the transitive closure, keeping children up to max_arrows arcs.  Closing
    can add several arcs at once, which jumps the gaps the purely additive
    method cannot cross, so a class of an uncovered row may come from any
    row below it: closure starts at row 1 and extends each stored class
    once.  Stored classes on more than max_objects objects are not
    extended, so no class beyond the bound is stored.

    The incremental method extends row n - 1 and keeps only the children
    with n arcs, its one-arc extensions.  Classes in which every arc is
    forced by a two-step path (the complete graph on three or more objects
    is the smallest, at nine arcs) are not reachable this way, so rows past
    INCREMENTAL_ARROW_LIMIT are refused.  Below that every class has a
    removable arc, whose deletion leaves a class of the covered row n - 1,
    so the argument at :func:`_extend_row` shows the method exhaustive; the
    cross-method tests confirm it through row 8.  Brute force scans the
    cells of row n past its coverage.  These two start at the first row
    the database does not cover.
    """
    if method not in ("closure", "incremental", "brute"):
        raise DomainError(f"unknown census method {method!r}")
    check_count(max_arrows, "arc count")
    if max_objects is None:
        max_objects = 2 * max_arrows
    check_count(max_objects, "object count")
    if method == "incremental" and max_arrows > INCREMENTAL_ARROW_LIMIT:
        raise DomainError(
            f"the incremental method misses classes from "
            f"{INCREMENTAL_ARROW_LIMIT + 1} arcs on (the complete graph on "
            f"three objects); asked for {max_arrows}"
        )
    start = database.first_uncovered(max_arrows, max_objects)
    if start > max_arrows:
        return False
    if not database.count(0, 0):
        database.insert(frozenset())  # the only 0-arc class
    for n in range(1 if method == "closure" else start, max_arrows + 1):
        if method == "brute":
            for m in range(database.coverage(n) + 1, min(2 * n, max_objects) + 1):
                for graph in enumerate_brute_force(n, m):
                    database.insert(graph)
        else:
            keep = max_arrows if method == "closure" else n
            _extend_row(database, n - 1, keep, max_objects)
        database.mark_covered(n, max_objects)
    return True


def count_table(
    database: ClassDatabase, max_arrows: int, max_objects: int
) -> List[List[int]]:
    """Counts matrix: rows are arc counts 1..max_arrows, columns object
    counts 1..max_objects.  Refused unless the database covers them."""
    k = database.first_uncovered(max_arrows, max_objects)
    if k <= max_arrows:
        raise StaleDatabaseError(
            f"database covers {k} arcs up to {database.coverage(k)} objects, "
            f"need {min(max_objects, 2 * k)}"
        )
    return [
        [database.count(n, m) for m in range(1, max_objects + 1)]
        for n in range(1, max_arrows + 1)
    ]


def functional_digraph_count(degree: int) -> int:
    """Isomorphism classes of the digraphs {(x, f(x))} over all
    transformations f of ``degree`` points; fixed points become loops and
    parallel arcs cannot arise since each x has one out-arc."""
    check_count(degree, "degree")
    if degree > FUNCTIONAL_DEGREE_LIMIT:
        raise ResourceLimitError(
            f"functional digraph census limited to degree {FUNCTIONAL_DEGREE_LIMIT}"
        )
    database = ClassDatabase()
    for f in itertools.product(range(degree), repeat=degree):
        database.insert({(x, fx) for x, fx in enumerate(f)})
    return database.total()


def arrow_type_of(table: CompositionTable, ts: TypeStructure) -> ArrowTypeGraph:
    """Quotient graph of a typed table: one node per used object, one arc
    per occurring (dom, cod) pair, objects renumbered compactly."""
    if len(ts.doms) != table.n:
        raise DomainError("type structure size does not match table")
    arcs = {(ts.doms[a], ts.cods[a]) for a in range(table.n)}
    return ArrowTypeGraph.from_arcs(arcs)


def graph_composition_table(graph: ArrowTypeGraph) -> CompositionTable:
    """The graph read as a semigroupoid: arcs are arrows in sorted order,
    (x,y)(y,z) = (x,z), anything else NC.  Requires transitive closure."""
    arcs = graph.sorted_arcs
    index = {arc: i for i, arc in enumerate(arcs)}
    rows = []
    for d1, c1 in arcs:
        row = []
        for d2, c2 in arcs:
            if c1 != d2:
                row.append(NC)
            else:
                composite = index.get((d1, c2))
                if composite is None:
                    raise DomainError("graph is not transitively closed")
                row.append(composite)
        rows.append(tuple(row))
    return CompositionTable(tuple(rows))


def type_quotient_map(
    table: CompositionTable, ts: TypeStructure
) -> tuple:
    """Graph, its composition table, and the arrow map sending each arrow
    of ``table`` to its arc.  The map is a strict homomorphism whenever the
    type structure is valid for the table."""
    graph = arrow_type_of(table, ts)
    # arrow_type_of numbers the used objects in sorted order; so does this.
    relabel = {obj: i for i, obj in enumerate(sorted({*ts.doms, *ts.cods}))}
    index = {arc: i for i, arc in enumerate(graph.sorted_arcs)}
    images = tuple(index[(relabel[d], relabel[c])] for d, c in zip(ts.doms, ts.cods))
    amap = ArrowMap(table.n, len(graph.arcs), images)
    return graph, graph_composition_table(graph), amap
