"""Arrow-type graphs: transitively closed digraphs without parallel arcs.

Quotienting a typed semigroupoid onto its (domain, codomain) pairs yields a
digraph that is transitively closed, has at most one arc per ordered pair
and no isolated object.  This module enumerates the isomorphism classes of
such graphs by three independent methods (combinatorial brute force,
single-arc extension, single-arc extension followed by transitive closure)
and keeps class representatives in a database keyed by canonical form:
the lexicographically least relabeling, found by a search that branches
only on tied arcs and skips branches an automorphism maps onto explored
ones.

Node sets are always derived from the arcs themselves, never from
positions, so an "isolated node" simply cannot be expressed; this avoids
isomorphism searches silently matching phantom vertices in all possible
ways.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional

from .errors import DomainError, ResourceLimitError, StaleDatabaseError
from .morphisms import ArrowMap
from .search import Problem, solve_all
from .tables import NC, CompositionTable
from .typestructure import TypeStructure

# Cost guards: arc-set candidates scanned by brute force, search steps when
# canonicalizing, transformation degree for functional digraphs.
BRUTE_FORCE_LIMIT = 10**8
CANONICAL_LIMIT = 10**7
FUNCTIONAL_DEGREE_LIMIT = 5


@dataclass(frozen=True)
class ArrowTypeGraph:
    """Digraph on objects 0..m-1; arcs form a set (no parallel arcs) and
    every object occurs on some arc."""

    m: int
    arcs: frozenset

    def __post_init__(self) -> None:
        arcs = frozenset((int(d), int(c)) for d, c in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        used = set()
        for d, c in arcs:
            if not (0 <= d < self.m and 0 <= c < self.m):
                raise DomainError(f"arc ({d}, {c}) outside objects 0..{self.m - 1}")
            used.add(d)
            used.add(c)
        if len(used) != self.m:
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
        graph = cls.from_arcs(tuple(map(tuple, data["arcs"])))
        if "m" in data and data["m"] != graph.m:
            raise DomainError("declared object count does not match the arcs")
        return graph


def _arcset(graph) -> frozenset:
    if isinstance(graph, ArrowTypeGraph):
        return graph.arcs
    if isinstance(graph, frozenset):
        return graph
    return frozenset(tuple(arc) for arc in graph)


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
    closed = set(arcs)
    queue = deque(closed)
    out: dict = {}
    into: dict = {}
    for d, c in closed:
        out.setdefault(d, set()).add(c)
        into.setdefault(c, set()).add(d)
    while queue:
        d, c = queue.popleft()
        for z in list(out.get(c, ())):
            if (d, z) not in closed:
                closed.add((d, z))
                out.setdefault(d, set()).add(z)
                into.setdefault(z, set()).add(d)
                queue.append((d, z))
        for w in list(into.get(d, ())):
            if (w, c) not in closed:
                closed.add((w, c))
                out.setdefault(w, set()).add(c)
                into.setdefault(c, set()).add(w)
                queue.append((w, c))
    return closed


def transitive_closure(arcs) -> ArrowTypeGraph:
    """Smallest transitively closed superset of the given arcs (labels
    compacted to 0..m-1 when they are not already)."""
    return ArrowTypeGraph.from_arcs(_closure_arcs(_arcset(arcs)))


def _stays_closed(arcs: set, arc: tuple) -> bool:
    # arcs is assumed closed; only compositions through the new arc matter.
    extended = set(arcs)
    extended.add(arc)
    d, c = arc
    for y, z in extended:
        if y == c and (d, z) not in extended:
            return False
    for w, x in extended:
        if x == d and (w, c) not in extended:
            return False
    return True


def one_more_arrow(arcs, m: int, added_object: bool = False) -> list:
    """Arcs addable to a transitively closed arc set over objects 0..m-1
    such that the result is still transitively closed without recomputing a
    closure.

    With ``added_object`` the object m-1 is fresh and the new arc must touch
    it; candidates are tried as (i, m-1), (m-1, i) for each older object i,
    then the loop (m-1, m-1).  Otherwise candidates run in row-major order.
    """
    arcset = set(map(tuple, arcs))
    if added_object:
        new = m - 1
        candidates = []
        for i in range(new):
            candidates.append((i, new))
            candidates.append((new, i))
        candidates.append((new, new))
    else:
        candidates = [(d, c) for d in range(m) for c in range(m)]
    return [
        cand
        for cand in candidates
        if cand not in arcset and _stays_closed(arcset, cand)
    ]


def digraph_isomorphisms(G, H) -> Iterator[dict]:
    """All node bijections sending arcs exactly onto arcs.

    Candidate images are pre-filtered by equal (out-degree, in-degree)
    pairs.  Graphs are taken as arc sets (or :class:`ArrowTypeGraph`), so
    isolated nodes cannot occur; ArrowTypeGraph rejects them at
    construction.
    """
    g = _arcset(G)
    h = _arcset(H)
    g_nodes = sorted(_nodes(g))
    h_nodes = sorted(_nodes(h))
    if len(g_nodes) != len(h_nodes) or len(g) != len(h):
        return
    g_deg = _degree_pairs(g)
    h_deg = _degree_pairs(h)
    by_degree: dict = {}
    for v in h_nodes:
        by_degree.setdefault(h_deg[v], []).append(v)

    problem = Problem()
    for v in g_nodes:
        problem.add_variable(v, by_degree.get(g_deg[v], []))
    problem.add_all_different(g_nodes)
    for x, y in sorted(g):

        def arc_test(bound, x=x, y=y):
            if x in bound and y in bound:
                return (bound[x], bound[y]) in h
            return True

        problem.add_constraint((x, y), arc_test)
    for solution in solve_all(problem):
        yield {v: solution[v] for v in g_nodes}


def _twin_classes(edges: list, m: int) -> list:
    """Least member of each object's twin class.  Objects u and v are twins
    when swapping them maps the arcs onto themselves; twinship is an
    equivalence (conjugating one twin swap by another gives a third), so
    comparing with each class's least member is enough."""
    out = [0] * m
    into = [0] * m
    for u, v in edges:
        out[u] |= 1 << v
        into[v] |= 1 << u
    least = list(range(m))
    for v in range(m):
        for u in range(v):
            if least[u] != u:
                continue
            rest = ~((1 << u) | (1 << v))
            if (
                out[u] & rest == out[v] & rest
                and into[u] & rest == into[v] & rest
                and (out[u] >> u & 1) == (out[v] >> v & 1)
                and (out[u] >> v & 1) == (out[v] >> u & 1)
            ):
                least[v] = u
                break
    return least


def canonical_form(G) -> ArrowTypeGraph:
    """Lexicographically least compact relabeling; equal exactly for
    isomorphic inputs.

    In a lexicographically minimal labeling the objects are numbered
    0, 1, 2, ... in order of first appearance in the sorted arc list
    (otherwise swapping the offending pair of labels would shrink the
    list).  The search therefore builds the output one arc at a time,
    handing the next free labels to endpoints as they first occur.  With
    fresh endpoints read as the next free labels, every remaining arc's
    image is a lower bound of its final image, and the arc that comes next
    attains its bound; so the next output arc is the least bound, and only
    the arcs tied for it are branched on.  A branch whose output prefix
    exceeds the best complete output is cut, comparing one element per
    level.

    Tied arcs that an automorphism fixing the labeled objects maps onto an
    arc already branched on lead to the same outputs and are skipped
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).  Two kinds
    of automorphism are used: permutations of unlabeled twin objects
    (objects whose swap preserves the arcs), and the automorphisms found
    when a complete labeling repeats the best output.  Such a repeat also
    shows that the current branch mirrors the explored branch where the two
    paths part, so the search returns straight to that level.
    """
    arcs = _arcset(G)
    if not arcs:
        return ArrowTypeGraph(0, frozenset())
    index = {x: i for i, x in enumerate(_nodes(arcs))}
    m = len(index)
    edges = [(index[d], index[c]) for d, c in arcs]
    n = len(edges)
    limit = CANONICAL_LIMIT
    label = [-1] * m
    order: list = []  # objects in labeling order
    path: list = [None] * n  # arc chosen at each level
    out = [0] * n  # image a * m + b of the chosen arc at each level
    best: list = []  # output, labels and path of the least complete output
    automorphisms: list = []
    twins: list = []
    steps = 0
    resume = n + 1  # returned when no level is to be jumped back to

    def twin_key(arc) -> tuple:
        # Equal for two arcs exactly when permuting unlabeled twins maps one
        # onto the other.
        u, v = arc
        return (
            u if label[u] >= 0 else m + twins[u],
            v if label[v] >= 0 else m + twins[v],
            u == v,
        )

    def skippable(arc, explored) -> bool:
        # True when an automorphism fixing the labeled objects maps arc onto
        # an explored one.
        if not twins:
            twins.extend(_twin_classes(edges, m))
        key = twin_key(arc)
        if any(twin_key(e) == key for e in explored):
            return True
        fixing = [g for g in automorphisms if all(g[x] == x for x in order)]
        if not fixing:
            return False
        orbit = set(explored)
        todo = list(explored)
        while todo:
            u, v = todo.pop()
            for g in fixing:
                image = (g[u], g[v])
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        return arc in orbit

    def open_level(depth: int, remaining: list, equal: bool):
        # equal: the output so far equals the best output's prefix.  Pushes
        # the level's frame and returns None, or returns the level to
        # resume at when the level ends at once (resume for its parent's
        # own loop).
        nonlocal steps
        steps += 1
        if steps > limit:
            raise ResourceLimitError(
                f"canonical form search exceeded {limit} steps"
            )
        if depth == n:
            if not equal:
                best[:] = [out[:], label[:], path[:]]
                return resume
            inverse = [0] * m
            for x, i in enumerate(best[1]):
                inverse[i] = x
            automorphisms.append([inverse[i] for i in label])
            level = 0
            while path[level] == best[2][level]:
                level += 1
            return level
        free = len(order)
        low = -1
        tied: list = []
        for arc in remaining:
            u, v = arc
            a = label[u]
            b = label[v]
            if a < 0:
                a = free
                if b < 0:
                    b = free if u == v else free + 1
            elif b < 0:
                b = free
            code = a * m + b
            if code < low or low < 0:
                low = code
                tied = [arc]
            elif code == low:
                tied.append(arc)
        if equal:
            target = best[0][depth]
            if low > target:
                return resume
            equal = low == target
        out[depth] = low
        # depth, remaining, tied arcs left to try, explored, free, equal
        frames.append([depth, remaining, iter(tied), [], free, equal])
        return None

    # One frame per open level of the search, so its depth (one level per
    # arc) is not bounded by the interpreter's recursion limit.
    frames: list = []
    back = open_level(0, edges, False)
    while frames:
        frame = frames[-1]
        depth, remaining, tied, explored, free, equal = frame
        if back is not None:
            # A branch of this level has ended.
            while len(order) > free:
                label[order.pop()] = -1
            if back < depth:
                frames.pop()
                continue
            # The branch just explored leaves the best output with this prefix.
            frame[5] = equal = True
        for arc in tied:
            if not (explored and skippable(arc, explored)):
                break
        else:
            frames.pop()
            back = resume
            continue
        explored.append(arc)
        path[depth] = arc
        for x in arc:
            if label[x] < 0:
                label[x] = len(order)
                order.append(x)
        back = open_level(depth + 1, [e for e in remaining if e is not arc], equal)

    return ArrowTypeGraph(m, frozenset(divmod(code, m) for code in best[0]))


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

    Index: (node count, arc count) -> sorted arcs of a canonical form ->
    that canonical form.  Isomorphic graphs have equal canonical forms and
    non-isomorphic ones different forms, so inserting a graph is one
    :func:`canonical_form` call and a dict lookup, and the stored
    representatives are the canonical forms themselves.
    """

    def __init__(self) -> None:
        self._buckets: dict = {}
        # Largest arc count n such that classes with 0..n arcs are all present.
        self.complete_arrows: int = -1

    def insert(self, graph) -> bool:
        """Record the class of ``graph`` (an :class:`ArrowTypeGraph` or an
        arc set); True when it was new."""
        rep = canonical_form(graph)
        key = rep.sorted_arcs
        bucket = self._buckets.setdefault((rep.m, len(key)), {})
        if key in bucket:
            return False
        bucket[key] = rep
        return True

    def count(self, n_arcs: int, m: int) -> int:
        return len(self._buckets.get((m, n_arcs), ()))

    def total(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def classes(
        self, n_arcs: Optional[int] = None, m: Optional[int] = None
    ) -> List[ArrowTypeGraph]:
        """Stored representatives, ordered by node count, arc count and
        sorted arcs."""
        found = []
        for (bm, bn) in sorted(self._buckets):
            if n_arcs is not None and bn != n_arcs:
                continue
            if m is not None and bm != m:
                continue
            bucket = self._buckets[(bm, bn)]
            found.extend(bucket[key] for key in sorted(bucket))
        return found

    def arc_range(self) -> tuple:
        if not self._buckets:
            return (0, -1)
        ns = [n for (_, n) in self._buckets]
        return (min(ns), max(ns))

    def save(self, path) -> None:
        """One JSON file per (node count, arc count) bucket plus a meta
        file; canonical arc lists are sorted, so saves are byte-stable."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for (m, n), bucket in sorted(self._buckets.items()):
            payload = {
                "node_count": m,
                "arc_count": n,
                "classes": [[list(arc) for arc in key] for key in sorted(bucket)],
            }
            name = f"nodes{m:02d}_arcs{n:03d}.json"
            (directory / name).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
        meta = {"complete_arrows": self.complete_arrows}
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "ClassDatabase":
        """Read a directory written by :meth:`save`.  Each class goes through
        :meth:`insert`, so an edited file whose arcs are not in canonical
        form cannot count one class twice."""
        directory = Path(path)
        database = cls()
        for bucket_file in sorted(directory.glob("nodes*_arcs*.json")):
            payload = json.loads(bucket_file.read_text())
            for arcs in payload["classes"]:
                if arcs:
                    database.insert(ArrowTypeGraph.from_arcs(tuple(map(tuple, arcs))))
                else:
                    database.insert(ArrowTypeGraph(0, frozenset()))
        meta_file = directory / "meta.json"
        if meta_file.exists():
            meta = json.loads(meta_file.read_text())
            database.complete_arrows = meta.get("complete_arrows", -1)
        return database


def seed(database: ClassDatabase) -> ClassDatabase:
    """Ensure the empty graph class is present (the only 0-arc class)."""
    database.insert(ArrowTypeGraph(0, frozenset()))
    database.complete_arrows = max(database.complete_arrows, 0)
    return database


def enumerate_brute_force(n_arrows: int, m_objects: int) -> List[ArrowTypeGraph]:
    """All classes with exactly n arcs and exactly m non-isolated objects,
    by scanning arc subsets directly.

    The scan walks n-subsets of the m*m arc slots in lexicographic order,
    pruning prefixes that can no longer cover all m objects, then filters by
    transitive closure and deduplicates.  Guarded by the number of subsets,
    comb(m*m, n).
    """
    if n_arrows < 1 or m_objects < 1:
        raise DomainError("arc and object counts must be positive")
    total = math.comb(m_objects * m_objects, n_arrows)
    if total > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"brute force would scan {total} arc sets (limit {BRUTE_FORCE_LIMIT})"
        )
    if m_objects > 2 * n_arrows:
        return []
    m = m_objects
    slots = [(d, c) for d in range(m) for c in range(m)]
    masks = [(1 << d) | (1 << c) for d, c in slots]
    full = (1 << m) - 1
    database = ClassDatabase()
    chosen: list = []
    n_slots = len(slots)

    def scan(start: int, covered: int) -> None:
        remaining = n_arrows - len(chosen)
        if remaining == 0:
            if covered == full:
                arcs = frozenset(chosen)
                if is_transitively_closed(arcs):
                    database.insert(arcs)
            return
        for i in range(start, n_slots):
            if n_slots - i < remaining:
                break
            covered2 = covered | masks[i]
            if m - _popcount(covered2) > 2 * (remaining - 1):
                continue
            chosen.append(slots[i])
            scan(i + 1, covered2)
            chosen.pop()

    scan(0, 0)
    return database.classes(n_arrows, m_objects)


def _popcount(x: int) -> int:
    return bin(x).count("1")


def enumerate_incremental(database: ClassDatabase, target_arrows: int) -> ClassDatabase:
    """Extend a database complete through target_arrows-1 with every class
    reachable by one new arc: between existing objects, touching one fresh
    object, or as a detached arc on two fresh objects.

    Classes in which every arc is forced by a two-step path (the complete
    graph on three or more objects is the smallest, at nine arcs) are not
    reachable this way; below that threshold the method is exhaustive,
    which the cross-method tests confirm at desk scale.
    """
    seed(database)
    if database.complete_arrows < target_arrows - 1:
        raise StaleDatabaseError(
            f"database complete through {database.complete_arrows}, "
            f"need {target_arrows - 1}"
        )
    for graph in list(database.classes(n_arcs=target_arrows - 1)):
        arcs, m = graph.arcs, graph.m
        for arc in one_more_arrow(arcs, m, added_object=False):
            database.insert(ArrowTypeGraph(m, arcs | {arc}))
        for arc in one_more_arrow(arcs, m + 1, added_object=True):
            database.insert(ArrowTypeGraph(m + 1, arcs | {arc}))
        database.insert(ArrowTypeGraph(m + 2, arcs | {(m, m + 1)}))
    database.complete_arrows = max(database.complete_arrows, target_arrows)
    return database


def _closed_extensions(graph: ArrowTypeGraph, max_objects: int) -> Iterator[tuple]:
    """(arc, closure) for each arc that can be added to the closed ``graph``
    within max_objects objects: between its objects in row-major order,
    then (i, m) and (m, i) for each object i and the loop (m, m) on a fresh
    object m, then the detached arc (m, m + 1).

    Since ``graph`` is closed, every new two-step path runs through the new
    arc (d, c), so the closure is the arcs plus ({d} | In(d)) x ({c} |
    Out(c)), taken in one pass.
    """
    arcs, m = graph.arcs, graph.m
    sources = [[x] for x in range(m + 2)]
    targets = [[x] for x in range(m + 2)]
    for d, c in arcs:
        sources[c].append(d)
        targets[d].append(c)
    candidates = [(d, c) for d in range(m) for c in range(m) if (d, c) not in arcs]
    if m + 1 <= max_objects:
        for i in range(m):
            candidates += [(i, m), (m, i)]
        candidates.append((m, m))
    if m + 2 <= max_objects:
        candidates.append((m, m + 1))
    for d, c in candidates:
        yield (d, c), arcs.union([(w, z) for w in sources[d] for z in targets[c]])


def enumerate_by_closure(
    database: ClassDatabase,
    max_arrows: int,
    max_objects: Optional[int] = None,
) -> ClassDatabase:
    """Grow the database to every class with at most max_arrows arcs by
    adding one arc to a stored class and taking the transitive closure.

    Closing can add several arcs at once, which jumps the gaps the purely
    additive method cannot cross.  Any closed graph is rebuilt arc by arc
    this way: intermediate closures stay inside the final graph, so the
    limits are never exceeded along the way.
    """
    if max_objects is None:
        max_objects = 2 * max_arrows
    seed(database)
    frontier = deque(database.classes())
    while frontier:
        graph = frontier.popleft()
        if len(graph.arcs) >= max_arrows:
            continue
        for (d, c), closed in _closed_extensions(graph, max_objects):
            if len(closed) <= max_arrows and database.insert(closed):
                frontier.append(ArrowTypeGraph(max(graph.m, d + 1, c + 1), closed))
    database.complete_arrows = max(database.complete_arrows, max_arrows)
    return database


def count_table(
    database: ClassDatabase, max_arrows: int, max_objects: int
) -> List[List[int]]:
    """Counts matrix: rows are arc counts 1..max_arrows, columns object
    counts 1..max_objects."""
    if database.complete_arrows < max_arrows:
        raise StaleDatabaseError(
            f"database complete through {database.complete_arrows}, "
            f"need {max_arrows}"
        )
    return [
        [database.count(n, m) for m in range(1, max_objects + 1)]
        for n in range(1, max_arrows + 1)
    ]


def functional_digraph_count(degree: int) -> int:
    """Isomorphism classes of the digraphs {(x, f(x))} over all
    transformations f of ``degree`` points; fixed points become loops and
    parallel arcs cannot arise since each x has one out-arc."""
    if degree < 1:
        raise DomainError("degree must be positive")
    if degree > FUNCTIONAL_DEGREE_LIMIT:
        raise ResourceLimitError(
            f"functional digraph census limited to degree {FUNCTIONAL_DEGREE_LIMIT}"
        )
    database = ClassDatabase()
    for f in itertools.product(range(degree), repeat=degree):
        arcs = {(x, fx) for x, fx in enumerate(f)}
        database.insert(ArrowTypeGraph.from_arcs(arcs))
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
    if len(ts.doms) != table.n:
        raise DomainError("type structure size does not match table")
    used = sorted(
        {ts.doms[a] for a in range(table.n)} | {ts.cods[a] for a in range(table.n)}
    )
    relabel = {obj: i for i, obj in enumerate(used)}
    arcs = {
        (relabel[ts.doms[a]], relabel[ts.cods[a]]) for a in range(table.n)
    }
    graph = ArrowTypeGraph(len(used), frozenset(arcs))
    graph_table = graph_composition_table(graph)
    index = {arc: i for i, arc in enumerate(graph.sorted_arcs)}
    images = tuple(
        index[(relabel[ts.doms[a]], relabel[ts.cods[a]])] for a in range(table.n)
    )
    return graph, graph_table, ArrowMap(table.n, len(graph.arcs), images)
