"""Independent brute-force oracles.

Everything here works on raw Python data (tuples, with None standing for a
non-composable pair) and re-derives results by exhaustive generation and
filtering, deliberately sharing no code with the package under test.
"""

import itertools


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
