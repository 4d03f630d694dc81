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
import os
import shutil
import tempfile
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional

from .errors import DomainError, ResourceLimitError, StaleDatabaseError
from .morphisms import ArrowMap, _morphism_solutions
# Unused here; perfbench/test_perfbench.py checks that its tracer rebinds
# solve_all in this module.
from .search import solve_all  # noqa: F401
from .tables import NC, CompositionTable
from .typestructure import TypeStructure

# Cost guards: scan nodes of one brute-force cell (row 7's largest cell
# takes 0.15 million, about 2 s), arcs read by one canonical-form search
# (10 million take about 3 s), transformation degree for functional
# digraphs.
BRUTE_FORCE_LIMIT = 5 * 10**5
CANONICAL_LIMIT = 10**7
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
    permutations of twin objects (see :func:`_twin_classes`).  Such a
    permutation is an automorphism of the arcs, and closure commutes with
    relabeling, so two arcs in one orbit give isomorphic extensions with
    the same arc and object counts.  An arc's orbit is fixed by the twin
    classes of its ends and by whether it is a loop; the fresh objects m and
    m + 1 are classes of their own."""
    least = _twin_classes(list(arcs), m) + [m, m + 1]
    seen = set()
    for extension in _closed_extensions(arcs, m, max_objects):
        d, c = extension[0]
        key = (least[d], least[c], d == c)
        if key not in seen:
            seen.add(key)
            yield extension


def one_more_arrow(arcs, m: int, added_object: bool = False) -> list:
    """Arcs addable to a transitively closed arc set on objects 0..m-1 such
    that the result is still transitively closed.

    With ``added_object`` the object m-1 is fresh (no arc may touch it) and
    the new arc must touch it; candidates are tried as (i, m-1), (m-1, i)
    for each older object i, then the loop (m-1, m-1).  Otherwise
    candidates run in row-major order.  Arcs off these objects raise
    :class:`DomainError`.  Since the arcs are closed, adding one arc leaves
    them closed exactly when its one-pass closure in
    :func:`_closed_extensions` adds nothing else.
    """
    arcs = frozenset(map(tuple, arcs))
    existing = m - added_object
    if not all(0 <= x < existing for arc in arcs for x in arc):
        raise DomainError(f"arcs must lie on objects 0..{existing - 1}")
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
    nodes = 0
    reads = 0  # arcs scanned by the search nodes, the work the limit bounds
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
        nonlocal nodes, reads
        nodes += 1
        reads += len(remaining)
        if reads > limit:
            raise ResourceLimitError(
                f"canonical form search of {n} arcs exceeded {limit} arc reads "
                f"({reads} reads in {nodes} search nodes)"
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
    classes past its own object bound, into rows it left incomplete.  No
    class with k arcs has fewer than ceil(sqrt(k)) objects, so every row
    is covered up to ceil(sqrt(k)) - 1 without any stored class.
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

    def covers(self, max_arrows: int, max_objects: int) -> bool:
        """True when every class with 1..max_arrows arcs and at most
        max_objects objects is stored."""
        return self.first_uncovered(max_arrows, max_objects) > max_arrows

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

        def write(name: str, payload: dict) -> None:
            (staging / name).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
            names.append(name)

        try:
            for (m, n), bucket in sorted(self._buckets.items()):
                write(
                    f"nodes{m:02d}_arcs{n:03d}.json",
                    {
                        "node_count": m,
                        "arc_count": n,
                        "classes": [[list(arc) for arc in key] for key in sorted(bucket)],
                    },
                )
            write("meta.json", {"complete_arrows": self.complete_arrows})
            for name in names:
                os.replace(staging / name, directory / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    @classmethod
    def load(cls, path) -> "ClassDatabase":
        """Read a directory written by :meth:`save` and infer its coverage
        (see the class docstring).  Each class goes through :meth:`insert`,
        so an edited file whose arcs are not in canonical form cannot count
        one class twice."""
        directory = Path(path)
        database = cls()
        for bucket_file in sorted(directory.glob("nodes*_arcs*.json")):
            payload = json.loads(bucket_file.read_text())
            classes = payload.get("classes") if isinstance(payload, dict) else None
            if not isinstance(classes, list):
                raise DomainError(f"{bucket_file}: classes must be a list of arc lists")
            for arcs in classes:
                arcs = _arcs_from_json(arcs)
                if arcs:
                    database.insert(ArrowTypeGraph.from_arcs(arcs))
                else:
                    database.insert(ArrowTypeGraph(0, frozenset()))
        meta_file = directory / "meta.json"
        if meta_file.exists():
            meta = json.loads(meta_file.read_text())
            if not isinstance(meta, dict):
                raise DomainError(f"{meta_file}: the top level must be a JSON object")
            complete = meta.get("complete_arrows", -1)
            if type(complete) is not int:
                raise DomainError(f"{meta_file}: complete_arrows must be an integer")
            database.complete_arrows = complete
        for m, n in database._buckets:
            if m == 2 * n and 1 <= n <= database.complete_arrows:
                database._coverage[n] = m
        return database


def seed(database: ClassDatabase) -> ClassDatabase:
    """Ensure the empty graph class is present (the only 0-arc class)."""
    if not database.count(0, 0):
        database.insert(ArrowTypeGraph(0, frozenset()))
    database.complete_arrows = max(database.complete_arrows, 0)
    return database


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
    slot was passed over.  Complete lists are filtered by transitive
    closure; a closed list that swapping two labels makes smaller is not a
    least labeling, so it is dropped, and the rest are deduplicated by
    canonical form.  Guarded by the number of scan nodes,
    BRUTE_FORCE_LIMIT.
    """
    if n_arrows < 1 or m_objects < 1:
        raise DomainError("arc and object counts must be positive")
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
            if used == m:
                arcs = frozenset(chosen)
                if is_transitively_closed(arcs):
                    closed += 1
                    if not _swap_shrinks(chosen, m):
                        database.insert(arcs)
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


def _check_incremental_target(target_arrows: int) -> None:
    if target_arrows > INCREMENTAL_ARROW_LIMIT:
        raise DomainError(
            f"the incremental method misses classes from "
            f"{INCREMENTAL_ARROW_LIMIT + 1} arcs on (the complete graph on "
            f"three objects); asked for {target_arrows}"
        )


def enumerate_incremental(
    database: ClassDatabase, target_arrows: int, max_objects: Optional[int] = None
) -> ClassDatabase:
    """Extend a database that covers rows 1..target_arrows-1 up to
    max_objects objects (all objects by default) with every class on at
    most max_objects objects reachable by one new arc: between existing
    objects, touching one fresh object, or as a detached arc on two fresh
    objects.  Classes the row already covers are not inserted again.

    Classes in which every arc is forced by a two-step path (the complete
    graph on three or more objects is the smallest, at nine arcs) are not
    reachable this way, so targets past INCREMENTAL_ARROW_LIMIT are
    refused; below that threshold the method is exhaustive, which the
    cross-method tests confirm through row 7.

    Each stored class is extended by one arc per orbit of its twin
    permutations (:func:`_extension_orbits`).  An automorphism sigma of the
    class sends the extension by arc e onto the extension by sigma(e), so
    the other arcs of an orbit give only isomorphic copies of a child
    already offered, with the same arc and object counts.
    """
    _check_incremental_target(target_arrows)
    if max_objects is None:
        max_objects = 2 * target_arrows
    seed(database)
    if not database.covers(target_arrows - 1, max_objects):
        raise StaleDatabaseError(
            f"database does not cover {target_arrows - 1} arcs on up to "
            f"{max_objects} objects"
        )
    covered = database.coverage(target_arrows)
    for graph in database.classes(n_arcs=target_arrows - 1):
        for _, closure, p in _extension_orbits(graph.arcs, graph.m, max_objects):
            if covered < p <= max_objects and len(closure) == target_arrows:
                database.insert(ArrowTypeGraph(p, closure))
    database.mark_covered(target_arrows, max_objects)
    return database


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

    Stored classes on more than max_objects objects are not extended, so
    no class beyond the bound is stored.  A closure the database already
    covers is not inserted: it is stored, and so it was in the frontier
    from the start.

    Each class is extended by one arc per orbit of its twin permutations
    (:func:`_extension_orbits`).  Closure commutes with relabeling, so an
    automorphism sigma of the class sends the closed extension by arc e
    onto the closed extension by sigma(e): the other arcs of an orbit give
    isomorphic children with the same arc and object counts, which the
    database would find stored already.  The database and the frontier
    order are therefore unchanged.
    """
    if max_objects is None:
        max_objects = 2 * max_arrows
    seed(database)
    cover = [-1] + [database.coverage(k) for k in range(1, max_arrows + 1)]
    frontier = deque(database.classes())
    while frontier:
        graph = frontier.popleft()
        if len(graph.arcs) >= max_arrows or graph.m > max_objects:
            continue
        for _, closed, p in _extension_orbits(graph.arcs, graph.m, max_objects):
            k = len(closed)
            if k <= max_arrows and p > cover[k] and database.insert(closed):
                frontier.append(ArrowTypeGraph(p, closed))
    for k in range(1, max_arrows + 1):
        database.mark_covered(k, max_objects)
    return database


def extend_census(
    database: ClassDatabase,
    method: str,
    max_arrows: int,
    max_objects: Optional[int] = None,
) -> bool:
    """Make the database cover every class with 1..max_arrows arcs on at
    most max_objects objects (all objects by default), by the "closure",
    "incremental" or "brute" method.  The incremental and brute-force
    methods start from the first row the database does not cover, and
    brute force scans only the cells past each row's coverage.  False when
    the database already covered the request and nothing ran."""
    if method not in ("closure", "incremental", "brute"):
        raise DomainError(f"unknown census method {method!r}")
    if max_objects is None:
        max_objects = 2 * max_arrows
    if max_arrows < 1 or max_objects < 1:
        raise DomainError("arc and object counts must be positive")
    if method == "incremental":
        _check_incremental_target(max_arrows)  # before any row is built
    start = database.first_uncovered(max_arrows, max_objects)
    if start > max_arrows:
        return False
    if method == "closure":
        enumerate_by_closure(database, max_arrows, max_objects)
    elif method == "incremental":
        for n in range(start, max_arrows + 1):
            enumerate_incremental(database, n, max_objects)
    else:
        seed(database)
        for n in range(start, max_arrows + 1):
            for m in range(database.coverage(n) + 1, min(2 * n, max_objects) + 1):
                for graph in enumerate_brute_force(n, m):
                    database.insert(graph)
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
    graph = arrow_type_of(table, ts)
    # arrow_type_of numbers the used objects in sorted order; so does this.
    relabel = {obj: i for i, obj in enumerate(sorted({*ts.doms, *ts.cods}))}
    index = {arc: i for i, arc in enumerate(graph.sorted_arcs)}
    images = tuple(index[(relabel[d], relabel[c])] for d, c in zip(ts.doms, ts.cods))
    amap = ArrowMap(table.n, len(graph.arcs), images)
    return graph, graph_composition_table(graph), amap
