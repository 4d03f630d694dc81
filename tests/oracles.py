"""Independent brute-force oracles.

Everything here works on raw Python data (tuples, with None standing for a
non-composable pair) and re-derives results by exhaustive generation and
filtering, deliberately sharing no code with the package under test.
"""

import itertools

# Arcs read by one canonical_form_by_arcs search before it raises
# RuntimeError.
ARC_READ_LIMIT = 10**7


def grid_associative(entries):
    """Four-case associativity on a raw grid (None = non-composable)."""
    n = len(entries)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab = entries[a][b]
                bc = entries[b][c]
                left = None if ab is None else entries[ab][c]
                right = None if bc is None else entries[a][bc]
                if left != right:
                    return False
    return True


def brute_force_tables(n, allow_nc=False):
    """All associative n-by-n grids by Cartesian product plus filter."""
    values = list(range(n)) + ([None] if allow_nc else [])
    found = []
    for cells in itertools.product(values, repeat=n * n):
        entries = tuple(tuple(cells[i * n + j] for j in range(n)) for i in range(n))
        if grid_associative(entries):
            found.append(entries)
    return found


def grid_typing_ok(entries, doms, cods):
    n = len(entries)
    for a in range(n):
        for b in range(n):
            ab = entries[a][b]
            if ab is None:
                if cods[a] == doms[b]:
                    return False
            else:
                if cods[a] != doms[b]:
                    return False
                if doms[a] != doms[ab] or cods[b] != cods[ab]:
                    return False
    return True


def brute_force_typings(entries, m):
    """All (doms, cods) pairs over m objects satisfying the typing rules."""
    n = len(entries)
    found = []
    for assignment in itertools.product(range(m), repeat=2 * n):
        doms = assignment[:n]
        cods = assignment[n:]
        if grid_typing_ok(entries, doms, cods):
            found.append((doms, cods))
    return found


def first_appearance_labelings(size):
    """Every labeling of ``size`` positions whose labels first appear in
    order 0, 1, 2, ...: one per set partition of the positions."""
    labelings = [()]
    for _ in range(size):
        labelings = [
            s + (v,) for s in labelings for v in range(max(s, default=-1) + 2)
        ]
    return labelings


def typing_patterns(entries):
    """The typings up to relabeling of the objects: each first-appearance
    labeling of the 2n ends (doms, then cods) that passes the typing
    rules.  A rule only compares two ends, so every relabeling of a
    pattern is a typing too."""
    n = len(entries)
    return [
        p for p in first_appearance_labelings(2 * n)
        if grid_typing_ok(entries, p[:n], p[n:])
    ]


def grid_compose(entries, a, b):
    if a is None or b is None:
        return None
    return entries[a][b]


def grid_morphism_ok(source, target, images, strict):
    n = len(source)
    for a in range(n):
        for b in range(n):
            d = source[a][b]
            prod = grid_compose(target, images[a], images[b])
            if d is None:
                if strict and prod is not None:
                    return False
            else:
                if prod is None or prod != images[d]:
                    return False
    return True


def brute_force_morphisms(source, target, bijective=False, strict=False):
    """All image vectors by scanning the full function space."""
    n = len(source)
    t = len(target)
    found = []
    for images in itertools.product(range(t), repeat=n):
        if bijective and (n != t or len(set(images)) != n):
            continue
        if grid_morphism_ok(source, target, images, strict):
            found.append(images)
    return found


def table_canonical(entries):
    """Least relabeling of a grid over all arrow permutations (None last)."""
    n = len(entries)
    best = None
    for perm in itertools.permutations(range(n)):
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        key = tuple(
            tuple(
                n if entries[inverse[i]][inverse[j]] is None
                else perm[entries[inverse[i]][inverse[j]]]
                for j in range(n)
            )
            for i in range(n)
        )
        if best is None or key < best:
            best = key
    return best


def digraph_canonical(arcs):
    """Least compact relabeling of an arc set over all node permutations."""
    nodes = sorted({x for arc in arcs for x in arc})
    best = None
    for perm in itertools.permutations(range(len(nodes))):
        relabel = {node: perm[i] for i, node in enumerate(nodes)}
        key = tuple(sorted((relabel[d], relabel[c]) for d, c in arcs))
        if best is None or key < best:
            best = key
    return best


def canonical_form_by_arcs(G) -> tuple:
    """The arc-at-a-time search that ``sgpoidkit.arrowtype.canonical_form``
    used before it labeled one object at a time, kept as the reference its
    output must equal: the same (m, codes) on every input.

    Lexicographically least compact relabeling, as its code (m, codes):
    m is the object count and codes the sorted a * m + b of its arcs (a, b),
    so (0, ()) for no arcs.  Equal exactly for isomorphic inputs.

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
    arcs = G.arcs if hasattr(G, "arcs") else frozenset(tuple(arc) for arc in G)
    index = {x: i for i, x in enumerate({x for arc in arcs for x in arc})}
    m = len(index)
    edges = [(index[d], index[c]) for d, c in arcs]
    n = len(edges)
    limit = ARC_READ_LIMIT
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
            raise RuntimeError(
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

    return m, tuple(best[0])


def _twin_classes(edges, m):
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


def brute_force_digraph_isomorphisms(g, h):
    """Every node bijection sending the arcs of g exactly onto those of h,
    by scanning the permutations of h's sorted nodes in order."""
    g_nodes = sorted({x for arc in g for x in arc})
    h_nodes = sorted({x for arc in h for x in arc})
    if len(g_nodes) != len(h_nodes):
        return []
    found = []
    for perm in itertools.permutations(h_nodes):
        relabel = dict(zip(g_nodes, perm))
        if {(relabel[d], relabel[c]) for d, c in g} == set(h):
            found.append(relabel)
    return found


def arcs_transitively_closed(arcs):
    for d, c in arcs:
        for y, z in arcs:
            if y == c and (d, z) not in arcs:
                return False
    return True


def arc_closure_by_pairs(arcs):
    """Fixpoint of adding the composite (d, z) of every two arcs (d, c),
    (c, z): the smallest transitively closed superset of ``arcs``."""
    found = set(arcs)
    while True:
        fresh = {(d, z) for d, c in found for y, z in found if y == c} - found
        if not fresh:
            return found
        found |= fresh


def brute_force_graph_classes(n_arcs, m):
    """Canonical forms of all transitively closed arc sets with exactly
    n_arcs arcs covering exactly m nodes."""
    slots = [(d, c) for d in range(m) for c in range(m)]
    classes = set()
    for subset in itertools.combinations(slots, n_arcs):
        arcs = frozenset(subset)
        if {x for arc in arcs for x in arc} != set(range(m)):
            continue
        if not arcs_transitively_closed(arcs):
            continue
        classes.add(digraph_canonical(arcs))
    return classes


def transformation_canonical(f):
    """Least conjugate of a transformation tuple over all relabelings."""
    degree = len(f)
    best = None
    for perm in itertools.permutations(range(degree)):
        inverse = [0] * degree
        for i, p in enumerate(perm):
            inverse[p] = i
        key = tuple(perm[f[inverse[x]]] for x in range(degree))
        if best is None or key < best:
            best = key
    return best


def functional_digraph_classes(degree):
    """Count of transformation digraph classes via conjugacy canonical
    forms (the digraph of f determines f, so digraph isomorphism classes
    coincide with conjugacy classes)."""
    return len(
        {
            transformation_canonical(f)
            for f in itertools.product(range(degree), repeat=degree)
        }
    )


def closure_by_pairs(arrows):
    """Fixpoint of composing all pairs of typed maps (dom, cod, map)."""
    found = set(arrows)
    while True:
        fresh = set()
        for a in found:
            for b in found:
                if a[1] == b[0]:
                    composite = (a[0], b[1], tuple(b[2][x] for x in a[2]))
                    if composite not in found:
                        fresh.add(composite)
        if not fresh:
            return found
        found |= fresh


def composition_grid(arrows):
    """Grid of a list of typed maps (dom, cod, map) closed under
    composition: cell (i, j) is the position of arrow i then arrow j,
    composed map by map, or None when the types do not meet."""
    position = {arrow: i for i, arrow in enumerate(arrows)}
    return tuple(
        tuple(
            position[d, e, tuple(g[x] for x in f)] if c == b else None
            for b, e, g in arrows
        )
        for d, c, f in arrows
    )
