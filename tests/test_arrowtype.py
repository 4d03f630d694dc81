import functools
import hashlib
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sgpoidkit import (
    ArrowTypeGraph,
    ClassDatabase,
    DomainError,
    ResourceLimitError,
    StaleDatabaseError,
    arrow_type_of,
    canonical_form,
    check_morphism,
    count_table,
    digraph_isomorphisms,
    enumerate_brute_force,
    enumerate_by_closure,
    enumerate_incremental,
    extend_census,
    functional_digraph_count,
    graph_composition_table,
    infer_types,
    is_transitively_closed,
    one_more_arrow,
    signature,
    transitive_closure,
    type_quotient_map,
)
from sgpoidkit.arrowtype import (
    _arcs_of,
    _canonical_deletion,
    _closed_extensions,
    _closure_arcs,
    _extension_orbits,
    _parent_masks,
    seed,
)

from .oracles import (
    arc_closure_by_pairs,
    arcs_transitively_closed,
    brute_force_digraph_isomorphisms,
    brute_force_graph_classes,
    canonical_form_by_arcs,
    digraph_canonical,
    functional_digraph_classes,
)

arc_sets = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5
)


def test_is_transitively_closed():
    assert is_transitively_closed({(0, 1), (1, 2), (0, 2)})
    assert not is_transitively_closed({(0, 1), (1, 2)})
    assert is_transitively_closed({(0, 0)})


def test_transitive_closure_examples():
    assert transitive_closure({(0, 1), (1, 2)}).arcs == {(0, 1), (1, 2), (0, 2)}
    assert transitive_closure({(0, 1), (1, 0)}).arcs == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }
    already = {(0, 0), (0, 1), (1, 1)}
    assert transitive_closure(already).arcs == frozenset(already)


@settings(max_examples=100, deadline=None)
@given(arc_sets)
def test_transitive_closure_is_idempotent_and_extensive(arcs):
    closed = transitive_closure(arcs)
    compacted = ArrowTypeGraph.from_arcs(arcs) if arcs else None
    if compacted is not None:
        assert compacted.arcs <= closed.arcs
    assert transitive_closure(closed.arcs).arcs == closed.arcs
    assert is_transitively_closed(closed)


@settings(max_examples=60, deadline=None)
@given(arc_sets, arc_sets)
def test_transitive_closure_is_monotone(small, extra):
    # Compare on raw label sets to avoid compaction mismatches.
    assert _closure_arcs(small) <= _closure_arcs(small | extra)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
def test_closure_arcs_is_the_pairwise_fixpoint(arcs):
    assert _closure_arcs(arcs) == arc_closure_by_pairs(arcs)


def test_one_more_arrow_with_fresh_object():
    assert one_more_arrow([(0, 0), (1, 1)], 3, added_object=True) == [
        (0, 2), (2, 0), (1, 2), (2, 1), (2, 2),
    ]
    assert one_more_arrow([(0, 1), (1, 1)], 3, added_object=True) == [
        (0, 2), (2, 1), (2, 2),
    ]


def test_one_more_arrow_without_fresh_object():
    assert one_more_arrow(set(), 1) == [(0, 0)]
    assert one_more_arrow({(0, 0), (0, 1), (1, 1)}, 2) == [(1, 0)]


def test_one_more_arrow_is_complete():
    arcs = {(0, 0), (1, 1)}
    returned = set(one_more_arrow(arcs, 2))
    for candidate in itertools.product(range(2), repeat=2):
        if candidate in arcs:
            continue
        extended = arcs | {candidate}
        assert (candidate in returned) == arcs_transitively_closed(extended)


def test_one_more_arrow_refuses_arcs_off_its_objects():
    with pytest.raises(DomainError):
        one_more_arrow({(0, 2)}, 2)
    with pytest.raises(DomainError):
        one_more_arrow({(0, 2)}, 3, added_object=True)  # object 2 is the fresh one
    with pytest.raises(DomainError):
        one_more_arrow({(-1, 0)}, 2)
    # Ends are ints, not bools: (True, 0) is not read as the arc (1, 0).
    for arc in ((0, 0.5), ("0", "0"), (True, 0)):
        with pytest.raises(DomainError):
            one_more_arrow({arc}, 2)
    # So is the object count: True is not read as 1.
    for m in (1.5, "2", True):
        with pytest.raises(DomainError):
            one_more_arrow({(0, 0)}, m)
    with pytest.raises(DomainError):
        one_more_arrow(set(), 0, added_object=True)  # no object to be the fresh one


def test_digraph_isomorphisms_loop_relabeling():
    assert list(digraph_isomorphisms([(0, 0)], [(9, 9)])) == [{0: 9}]


def test_digraph_isomorphisms_path_closure():
    g = transitive_closure({(0, 1), (1, 2)}).arcs
    h = {(2, 1), (1, 0), (2, 0)}
    found = list(digraph_isomorphisms(g, h))
    brute = [
        dict(zip(sorted({x for a in g for x in a}), perm))
        for perm in itertools.permutations(sorted({x for a in h for x in a}))
        if {(dict(zip(sorted({x for a in g for x in a}), perm))[d],
             dict(zip(sorted({x for a in g for x in a}), perm))[c])
            for d, c in g} == set(h)
    ]
    assert len(found) == len(brute) == 1


def test_digraph_isomorphisms_degree_mismatch():
    assert list(digraph_isomorphisms([(0, 0)], [(0, 1)])) == []


def test_automorphisms_contain_identity():
    for arcs in ({(0, 0)}, {(0, 1), (1, 2), (0, 2)}, {(0, 0), (1, 1)}):
        nodes = sorted({x for a in arcs for x in a})
        identity = {v: v for v in nodes}
        assert identity in list(digraph_isomorphisms(arcs, arcs))


def _decoded(code):
    """The sorted arcs (a, b) of a canonical code (m, codes a * m + b)."""
    m, codes = code
    return tuple(divmod(c, m) for c in codes)


def test_canonical_form_examples():
    assert _decoded(canonical_form({(9, 9)})) == ((0, 0),)
    assert _decoded(canonical_form({(1, 0)})) == ((0, 1),)
    left = canonical_form({(0, 0), (1, 1), (0, 1)})
    right = canonical_form({(1, 1), (0, 0), (1, 0)})
    assert left == right


def test_canonical_form_returns_codes():
    assert canonical_form({(9, 9)}) == (1, (0,))
    assert canonical_form({(1, 0)}) == (2, (1,))
    assert canonical_form(set()) == (0, ())
    # On every census class up to 5 arcs under seeded relabelings, the codes
    # strictly increase and decode to the least relabeling over all
    # permutations (checked up to 8 objects, 0.1 s each; the 4 classes on 9
    # and 10 objects would take about 15 s, so they are held to their
    # stored form, itself the canonical form of another labeling).
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    rng = random.Random(22)
    checked = 0
    for graph in database.classes()[1:]:
        expected = digraph_canonical(graph.arcs) if graph.m <= 8 else graph.sorted_arcs
        for _ in range(3):
            labels = list(range(10, 10 + graph.m))
            rng.shuffle(labels)
            m, codes = canonical_form({(labels[d], labels[c]) for d, c in graph.arcs})
            assert m == graph.m
            assert all(a < b for a, b in zip(codes, codes[1:])), codes
            assert _decoded((m, codes)) == expected, graph
            checked += 1
    assert checked == 3 * 318


def _compact(arcs):
    nodes = sorted({x for a in arcs for x in a})
    index = {x: i for i, x in enumerate(nodes)}
    return frozenset((index[d], index[c]) for d, c in arcs)


def _all_compact_arc_sets(max_arcs, max_nodes):
    slots = [(d, c) for d in range(max_nodes) for c in range(max_nodes)]
    for size in range(1, max_arcs + 1):
        for subset in itertools.combinations(slots, size):
            arcs = frozenset(subset)
            if _compact(arcs) == arcs:
                yield arcs


def test_canonical_form_matches_full_permutation_oracle():
    for arcs in _all_compact_arc_sets(3, 3):
        assert _decoded(canonical_form(arcs)) == digraph_canonical(arcs)


def test_canonical_form_matches_oracle_on_labeled_closed_graphs():
    # Every labeled closed graph on up to 3 objects.
    checked = 0
    for m in (1, 2, 3):
        slots = [(d, c) for d in range(m) for c in range(m)]
        for size in range(1, len(slots) + 1):
            for subset in itertools.combinations(slots, size):
                arcs = frozenset(subset)
                if {x for a in arcs for x in a} != set(range(m)):
                    continue
                if arcs_transitively_closed(arcs):
                    assert _decoded(canonical_form(arcs)) == digraph_canonical(arcs)
                    checked += 1
    # Labeled transitive relations (OEIS A006905: 1, 2, 13, 171) with no
    # isolated point, by inclusion-exclusion: 1, 13 - 4 + 1, 171 - 39 + 6 - 1.
    assert checked == 1 + 10 + 137


def test_canonical_form_matches_oracle_on_relabeled_census_classes():
    database = ClassDatabase()
    enumerate_by_closure(database, 6, 6)
    rng = random.Random(2)
    classes = database.classes()
    for graph in classes[1:]:
        labels = list(range(10, 10 + graph.m))
        rng.shuffle(labels)
        relabeled = {(labels[d], labels[c]) for d, c in graph.arcs}
        expected = digraph_canonical(graph.arcs)
        assert graph.sorted_arcs == expected
        assert _decoded(canonical_form(relabeled)) == expected


def test_canonical_form_equals_arc_search_on_census_classes():
    # Every class with at most 8 arcs, under a seeded relabeling, gives its
    # stored code, as does the arc-at-a-time search it replaced.
    database = ClassDatabase()
    enumerate_by_closure(database, 8)
    codes = database._codes()
    assert len(codes) == 1 + 2 + 7 + 21 + 70 + 218 + 721 + 2360 + 7952
    for k, (m, code) in enumerate(codes):
        arcs = _scrambled(_arcs_of(m, code), k)
        assert canonical_form(arcs) == canonical_form_by_arcs(arcs) == (m, code)


def test_canonical_form_matches_oracle_on_random_digraphs():
    # Seeded digraphs on at most 6 of the labels 0..9, loops and 2-cycles
    # allowed, so most are not transitively closed.
    rng = random.Random(25)
    for _ in range(4000):
        m = rng.randint(1, 6)
        labels = rng.sample(range(10), m)
        density = rng.random()
        arcs = {
            (labels[d], labels[c])
            for d in range(m)
            for c in range(m)
            if rng.random() < density
        }
        assert _decoded(canonical_form(arcs)) == digraph_canonical(arcs)


def _scrambled(arcs, seed):
    nodes = sorted({x for a in arcs for x in a})
    labels = list(range(len(nodes)))
    random.Random(seed).shuffle(labels)
    relabel = dict(zip(nodes, labels))
    return {(relabel[d], relabel[c]) for d, c in arcs}


STAR6_PLUS_ARC = tuple((0, i) for i in range(1, 7)) + ((7, 8),)


@pytest.mark.parametrize(
    "canonical",
    [
        tuple((i, i) for i in range(10)),  # 10 loops
        tuple((0, i) for i in range(1, 10)),  # star with 9 leaves
        tuple((d, c) for d in range(7) for c in range(7)),  # K7 with loops
        tuple((2 * i, 2 * i + 1) for i in range(7)),  # 7 disjoint arcs
        STAR6_PLUS_ARC,
    ],
    ids=["10-loops", "9-leaf-star", "K7", "7-disjoint-arcs", "star6-plus-arc"],
)
def test_canonical_form_symmetric_worst_cases(canonical, monkeypatch):
    # Each was factorial for a search without automorphism pruning (10
    # loops took about 30 s); now each takes at most 2,000 steps of work
    # (7 disjoint arcs take the most, 629).
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", 2000)
    for seed in range(3):
        assert _decoded(canonical_form(_scrambled(canonical, seed))) == canonical


def test_canonical_form_depth_is_not_bounded_by_recursion():
    # The search has one level per object it labels; 1,000 loops used to
    # raise RecursionError.
    loops = [(x, x) for x in range(1000)]
    random.Random(0).shuffle(loops)
    assert _decoded(canonical_form(loops)) == tuple((i, i) for i in range(1000))


def test_canonical_form_step_guard(monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", 3)
    with pytest.raises(ResourceLimitError):
        canonical_form(STAR6_PLUS_ARC)


def _chain(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@pytest.mark.parametrize(
    "canonical, work",
    [
        (tuple((i, i + 1) for i in range(600)), 539_169),
        (tuple((i, i + 1) for i in range(1000)), 2_182_025),
        (tuple((i, i) for i in range(1000)), 1_503_498),
        (_chain(10), 263),
        (_chain(20), 1_728),
        (_chain(30), 5_393),
    ],
    ids=["path-600", "path-1000", "loops-1000", "chain-10", "chain-20", "chain-30"],
)
def test_canonical_form_work_is_pinned(canonical, work, monkeypatch):
    # The arc-at-a-time search read about n**3 arcs on a path of n arcs and
    # was refused at 600; it was factorial on chains (1.7 s on 9 objects,
    # refused on 10).  Labeling one object at a time, a path or n loops
    # cost a few times n**2 steps (each branch of the path runs to its
    # end), and the chain on k objects about k**3 / 6.  CANONICAL_LIMIT
    # bounds the work done before each search node, and each pin is the
    # least limit its search passes.
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", work)
    assert _decoded(canonical_form(_scrambled(canonical, 0))) == canonical


def test_canonical_form_guard_names_nodes_and_work(monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", 10_000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="steps of work") as excinfo:
        canonical_form(_scrambled(tuple((i, i + 1) for i in range(600)), 0))
    assert time.perf_counter() - start < 5
    assert "search nodes" in str(excinfo.value)


def test_one_pass_closure_matches_breadth_first_closure():
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    checked = 0
    for graph in database.classes():
        m = graph.m
        for arc, closed, p in _closed_extensions(graph.arcs, m, m + 2):
            assert closed == _closure_arcs(graph.arcs | {arc}), (graph, arc)
            d, c = arc
            assert p == max(m, d + 1, c + 1), (graph, arc)
            checked += 1
    assert checked > 10000


def test_extension_orbits_offer_every_child_class():
    # Per (arc count, object count), the children of one arc per twin orbit
    # have the same classes as the children of every arc.
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    classes = database.classes()
    assert len(classes) == 319
    forms: dict = {}

    def children(extensions):
        found: dict = {}
        for _, closed, p in extensions:
            if closed not in forms:
                forms[closed] = _decoded(canonical_form(closed))
            found.setdefault((len(closed), p), set()).add(forms[closed])
        return found

    skipped = 0
    for graph in classes:
        arcs, m = graph.arcs, graph.m
        for bound in (m, m + 1, m + 2):
            orbits = list(_extension_orbits(arcs, m, bound))
            every = list(_closed_extensions(arcs, m, bound))
            assert [e for e in every if e in orbits] == orbits  # same order
            assert children(orbits) == children(every), (graph, bound)
            skipped += len(every) - len(orbits)
    assert skipped > 1000


def _accepted_extensions(arcs, m):
    parent = _parent_masks(arcs, m)
    return {
        arc: closed
        for arc, closed, _ in _closed_extensions(arcs, m, m + 2)
        if _canonical_deletion(parent, arc, closed)
    }


def test_canonical_deletion_is_relabeling_invariant():
    # The filter reads only invariants of the pair (child, added arc), so
    # relabeling the parent maps the accepted arcs onto the accepted arcs.
    database = ClassDatabase()
    enumerate_by_closure(database, 6)
    classes = [g for g in database.classes() if g.arcs]
    assert len(classes) == 2 + 7 + 21 + 70 + 218 + 721
    rng = random.Random(14)
    accepted = rejected = 0
    for graph in classes:
        arcs, m = graph.arcs, graph.m
        kept = _accepted_extensions(arcs, m)
        accepted += len(kept)
        rejected += sum(1 for _ in _closed_extensions(arcs, m, m + 2)) - len(kept)
        for _ in range(3):
            labels = list(range(m))
            rng.shuffle(labels)
            labels += [m, m + 1]  # the fresh objects keep their labels

            def move(arc):
                return labels[arc[0]], labels[arc[1]]

            relabeled = _accepted_extensions(frozenset(map(move, arcs)), m)
            assert set(map(move, kept)) == set(relabeled), graph
            for arc, closed in kept.items():
                assert set(map(move, closed)) == relabeled[move(arc)]
    assert accepted > 5000 and rejected > 20000


def test_one_more_arrow_matches_closure_filtered_candidates():
    # Reference: the candidate orders spelled out, each kept when the
    # extended arc set passes the closure test.
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    classes = database.classes()
    assert len(classes) == 319
    for graph in classes:
        arcs, m = graph.arcs, graph.m
        row_major = [(d, c) for d in range(m) for c in range(m)]
        fresh = [arc for i in range(m) for arc in ((i, m), (m, i))] + [(m, m)]
        for added, candidates in ((False, row_major), (True, fresh)):
            expected = [
                arc
                for arc in candidates
                if arc not in arcs and is_transitively_closed(arcs | {arc})
            ]
            assert one_more_arrow(arcs, m + added, added_object=added) == expected


def test_canonical_form_agrees_with_isomorphism_search():
    graphs = list(_all_compact_arc_sets(3, 3))
    by_key = {}
    for arcs in graphs:
        by_key.setdefault(
            (len(arcs), len({x for a in arcs for x in a})), []
        ).append(arcs)
    for group in by_key.values():
        for g, h in itertools.combinations(group, 2):
            same_canonical = canonical_form(g) == canonical_form(h)
            isomorphic = next(digraph_isomorphisms(g, h), None) is not None
            assert same_canonical == isomorphic


def test_digraph_isomorphisms_match_permutation_oracle_in_order():
    # Full output, each dict and its place in the list: every compact arc
    # set on at most 3 objects against a relabeled copy of itself (new
    # labels, so the two node sets differ), then seeded unrelated pairs.
    rng = random.Random(13)
    graphs = list(_all_compact_arc_sets(9, 3))
    pairs = []
    for arcs in graphs:
        nodes = sorted({x for a in arcs for x in a})
        labels = rng.sample(range(10, 20), len(nodes))
        relabel = dict(zip(nodes, labels))
        pairs.append((arcs, {(relabel[d], relabel[c]) for d, c in arcs}))
    pairs += [tuple(rng.sample(graphs, 2)) for _ in range(40)]
    isomorphic = 0
    for g, h in pairs:
        found = list(digraph_isomorphisms(g, h))
        expected = brute_force_digraph_isomorphisms(g, h)
        assert found == expected
        assert [list(f.items()) for f in found] == [list(e.items()) for e in expected]
        isomorphic += bool(found)
    assert isomorphic >= len(graphs)


def test_signature_is_isomorphism_invariant():
    for arcs in _all_compact_arc_sets(3, 3):
        relabeled = _decoded(canonical_form(arcs))
        assert signature(relabeled) == signature(ArrowTypeGraph.from_arcs(arcs))


def test_graph_validation():
    with pytest.raises(DomainError):
        ArrowTypeGraph(3, frozenset({(0, 0)}))  # isolated objects 1, 2
    with pytest.raises(DomainError):
        ArrowTypeGraph(1, frozenset({(0, 1)}))
    graph = ArrowTypeGraph.from_arcs({(4, 7)})
    assert graph.m == 2 and graph.arcs == {(0, 1)}
    # Ends are ints, not bools: none of these is read as the arc (0, 1).
    for arc in ((0, 1.7), ("0", "1"), (False, True)):
        with pytest.raises(DomainError):
            ArrowTypeGraph(2, frozenset({arc}))
    # So is the object count, which to_json writes as given.
    for m in (1.0, True):
        with pytest.raises(DomainError):
            ArrowTypeGraph(m, frozenset({(0, 0)}))


def test_graph_json_round_trip():
    graph = ArrowTypeGraph.from_arcs({(0, 0), (0, 1), (1, 1)})
    assert ArrowTypeGraph.from_json(graph.to_json()) == graph
    with pytest.raises(DomainError):
        ArrowTypeGraph.from_json({"m": 3, "arcs": [[0, 0]]})


def test_brute_force_small_cells():
    assert len(enumerate_brute_force(1, 1)) == 1
    assert len(enumerate_brute_force(1, 2)) == 1
    assert len(enumerate_brute_force(2, 2)) == 3
    assert len(enumerate_brute_force(2, 3)) == 3
    assert len(enumerate_brute_force(2, 4)) == 1
    assert enumerate_brute_force(5, 2) == []


def test_brute_force_row_three():
    assert [len(enumerate_brute_force(3, m)) for m in range(1, 7)] == [
        0, 1, 8, 8, 3, 1,
    ]


def test_brute_force_matches_independent_oracle():
    for n in (1, 2, 3):
        for m in range(1, 2 * n + 1):
            ours = {g.sorted_arcs for g in enumerate_brute_force(n, m)}
            assert ours == brute_force_graph_classes(n, m)


def test_closed_graphs_by_object_count_match_oracle():
    # A closed graph on m objects has at most m * m arcs, so this census
    # holds every class on exactly m objects.
    for m in (1, 2, 3):
        expected = sorted(
            set().union(*(brute_force_graph_classes(n, m) for n in range(1, m * m + 1)))
        )
        classes = enumerate_by_closure(ClassDatabase(), m * m, m).classes(m=m)
        assert sorted(g.sorted_arcs for g in classes) == expected
    # Unlabeled transitive relations on 4 points with no isolated point.
    assert len(enumerate_by_closure(ClassDatabase(), 16, 4).classes(m=4)) == 203


def test_brute_force_guard(monkeypatch):
    # The guard counts scan nodes.  (8, 16), refused when the guard counted
    # the comb(256, 8) arc subsets, builds only the 8 disjoint arcs now.
    eight_arcs = tuple((2 * i, 2 * i + 1) for i in range(8))
    assert [g.sorted_arcs for g in enumerate_brute_force(8, 16)] == [eight_arcs]
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 5)
    with pytest.raises(ResourceLimitError, match="exceeded 5 scan nodes"):
        enumerate_brute_force(8, 16)
    # The refusal says how far the scan got.
    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 1000)
    with pytest.raises(ResourceLimitError) as excinfo:
        enumerate_brute_force(5, 5)
    message = str(excinfo.value)
    assert "at 5 arcs on 5 objects exceeded 1000 scan nodes after " in message
    assert "closed arc sets (" in message and "at prefix [(0, " in message


def test_brute_force_scan_work_is_pinned(monkeypatch):
    # (6, 6) takes exactly 12,113 scan nodes with every pruning rule; the
    # first-appearance rule alone takes 46,182.
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 12113)
    assert len(enumerate_brute_force(6, 6)) == 211
    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 12112)
    with pytest.raises(ResourceLimitError):
        enumerate_brute_force(6, 6)


def test_brute_force_inserts_first_appearance_orders_only(monkeypatch):
    # Every arc list handed to insert numbers its objects 0, 1, 2, ... in
    # order of first appearance.
    import sgpoidkit.arrowtype as arrowtype

    seen = []
    original = arrowtype.ClassDatabase.insert

    def recording_insert(self, graph):
        seen.append(graph)
        return original(self, graph)

    monkeypatch.setattr(arrowtype.ClassDatabase, "insert", recording_insert)
    for m in range(1, 7):
        enumerate_brute_force(3, m)
    for arcs in seen:
        arcs = sorted(arcs)
        order = []
        for arc in arcs:
            for x in arc:
                if x not in order:
                    order.append(x)
        assert order == list(range(len(order)))
        # Nor does swapping two labels shrink it.
        for a, b in itertools.combinations(order, 2):
            swap = {**{x: x for x in order}, a: b, b: a}
            assert sorted((swap[d], swap[c]) for d, c in arcs) >= arcs
    # Row 3 has 455 labeled closed arc sets; 50 are so ordered, and 23 of
    # those pass the swap test (21 classes).
    assert len(seen) == 23


def test_incremental_matches_brute_through_four():
    database = ClassDatabase()
    for n in range(1, 5):
        enumerate_incremental(database, n)
    for n in range(1, 5):
        for m in range(1, 2 * n + 1):
            assert database.count(n, m) == len(enumerate_brute_force(n, m)), (n, m)


def test_incremental_requires_complete_database():
    database = ClassDatabase()
    with pytest.raises(StaleDatabaseError):
        enumerate_incremental(database, 3)


def test_closure_method_rows_and_sums():
    database = ClassDatabase()
    enumerate_by_closure(database, 4)
    counts = count_table(database, 4, 8)
    assert [sum(row) for row in counts] == [2, 7, 21, 70]
    assert counts[2] == [0, 1, 8, 8, 3, 1, 0, 0]
    # Complete graph on two objects is reachable despite the jump.
    assert database.count(4, 2) == 1


STAGINGS = [
    ("closure", 5, 3), ("incremental", 4, 2), ("brute", 3, 6), ("closure", 6, 4)
]


@pytest.fixture(scope="module")
def brute_six():
    database = ClassDatabase()
    assert extend_census(database, "brute", 6)
    return database


@pytest.mark.parametrize("staging", STAGINGS, ids=lambda s: "%s-%d-%d" % s)
def test_staged_extensions_match_brute_force(staging, brute_six):
    # A database built by one method to fewer arcs or objects, extended to
    # row 6 by closure or by the incremental method: the filtered children
    # and the covered-row checks together still store every class once.
    for method in ("closure", "incremental"):
        database = ClassDatabase()
        assert extend_census(database, *staging)
        assert extend_census(database, method, 6)
        for k in range(1, 7):
            assert database.classes(k) == brute_six.classes(k), (method, k)
        assert database.covers(6, 12)


def test_row_eight_by_closure_and_incremental():
    # 7,952 is the row sum the methods gave before they filtered children.
    by_method = {}
    for method in ("closure", "incremental"):
        database = ClassDatabase()
        assert extend_census(database, method, 8)
        sums = [sum(row) for row in count_table(database, 8, 16)]
        assert sums == [2, 7, 21, 70, 218, 721, 2360, 7952]
        by_method[method] = database.classes()
    assert by_method["closure"] == by_method["incremental"]


# Transitive relations on k points, unlabeled (OEIS A091073; Pfeiffer,
# "Counting transitive relations", J. Integer Seq. 7, 2004) and labeled
# (OEIS A006905).  A relation is a closed graph on the points it touches
# plus isolated points, so the classes on at most k objects count them.
UNLABELED_TRANSITIVE = {1: 2, 2: 8, 3: 39, 4: 242, 5: 1895, 6: 19051}
LABELED_TRANSITIVE = {1: 2, 2: 13, 3: 171, 4: 3994, 5: 154303}


@functools.lru_cache(maxsize=None)
def _classes_on_at_most(k):
    database = ClassDatabase()
    enumerate_by_closure(database, k * k, k)
    return tuple(database.classes())


@pytest.mark.parametrize(
    "k",
    [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow),
     pytest.param(6, marks=pytest.mark.slow)],
)
def test_classes_on_at_most_k_objects_count_unlabeled_transitive_relations(k):
    assert len(_classes_on_at_most(k)) == UNLABELED_TRANSITIVE[k]


@pytest.mark.slow
def test_canonical_form_equals_arc_search_on_transitive_relations():
    # Every transitive relation on at most 6 points, under a seeded
    # relabeling, gives its stored code, as does the arc-at-a-time search.
    classes = _classes_on_at_most(6)
    assert len(classes) == UNLABELED_TRANSITIVE[6]
    for k, graph in enumerate(classes):
        code = (graph.m, tuple(a * graph.m + b for a, b in graph.sorted_arcs))
        arcs = _scrambled(graph.sorted_arcs, k)
        assert canonical_form(arcs) == canonical_form_by_arcs(arcs) == code


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_classes_on_at_most_k_objects_count_labeled_transitive_relations(k):
    # A class on m objects has m!/|Aut G| labelings on each m of the k points.
    total = 0
    for graph in _classes_on_at_most(k):
        automorphisms = sum(1 for _ in digraph_isomorphisms(graph, graph))
        labelings, rest = divmod(math.factorial(graph.m), automorphisms)
        assert rest == 0
        total += math.comb(k, graph.m) * labelings
    assert total == LABELED_TRANSITIVE[k]


def test_isolated_arrow_classes_and_near_maximal_cells():
    database = ClassDatabase()
    enumerate_by_closure(database, 4)
    for n in range(1, 5):
        assert database.count(n, 2 * n) == 1
    for n in range(2, 5):
        assert database.count(n, 2 * n - 1) == 3


def test_count_table_requires_completeness():
    database = ClassDatabase()
    enumerate_by_closure(database, 2)
    with pytest.raises(StaleDatabaseError):
        count_table(database, 3, 6)


def test_count_table_requires_the_object_range():
    database = ClassDatabase()
    enumerate_by_closure(database, 3, 2)
    assert count_table(database, 3, 2) == [[1, 1], [0, 3], [0, 1]]
    with pytest.raises(StaleDatabaseError, match="covers 2 arcs up to 2 objects"):
        count_table(database, 3, 6)
    # Row 5 has no class on 2 objects, so (5, 2) needs no row 5 stored.
    enumerate_by_closure(database, 4, 2)
    assert count_table(database, 5, 2)[3:] == [[0, 1], [0, 0]]


# (method, max_arrows, max_objects) runs on one database, in order.
COVERAGE_RUNS = [
    [("closure", 4, None)],
    [("closure", 5, 2), ("closure", 3, None)],
    [("brute", 3, 3), ("incremental", 4, 3)],
    [("closure", 3, None), ("closure", 5, 2)],
    [("incremental", 3, 4), ("brute", 4, 5)],
]


@pytest.mark.parametrize("runs", COVERAGE_RUNS)
def test_load_infers_the_whole_rows_the_runs_marked(runs, tmp_path):
    database = ClassDatabase()
    for method, max_arrows, max_objects in runs:
        assert extend_census(database, method, max_arrows, max_objects)
    database.save(tmp_path / "db")
    loaded = ClassDatabase.load(tmp_path / "db")
    marked = [database.coverage(k) for k in range(1, 9)]
    # Rows marked on all 2k objects are inferred; the others fall back to
    # the ceil(sqrt(k)) - 1 objects that no k-arc class fits in.
    inferred = [
        p if p == 2 * k else math.isqrt(k - 1) for k, p in enumerate(marked, 1)
    ]
    assert [loaded.coverage(k) for k in range(1, 9)] == inferred
    # Each row holds exactly the classes up to its marked coverage.
    full = ClassDatabase()
    enumerate_by_closure(full, 5)
    for k in range(1, 6):
        for m in range(1, 11):
            expected = full.count(k, m) if m <= marked[k - 1] else 0
            assert loaded.count(k, m) == expected, (k, m)


def test_load_does_not_trust_rows_an_earlier_version_overextended(tmp_path, capsys):
    # Earlier versions let `--max-arrows 5 --max-objects 2` on a database
    # complete through 3 arcs extend its 3-arc classes on up to 6 objects
    # between their own objects, leaving rows 4 and 5 incomplete but with
    # classes on 6 objects.  Their largest node count is no proof of
    # coverage, so such rows are enumerated again.
    from sgpoidkit.cli import run

    database = ClassDatabase()
    enumerate_by_closure(database, 3)
    enumerate_by_closure(database, 5, 2)
    database.insert({(0, 0), (0, 1), (2, 3), (4, 5)})
    database.insert({(0, 0), (0, 1), (1, 1), (2, 3), (4, 5)})
    database.save(tmp_path / "db")
    loaded = ClassDatabase.load(tmp_path / "db")
    assert loaded.count(5, 6) == 1 and not loaded.covers(4, 3)
    argv = ["arrowtypes", "--max-arrows", "5", "--max-objects", "6",
            "--db", str(tmp_path / "db"), "--emit-table", "json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["row_sums"] == [2, 7, 21, 66, 171]


def test_covered_request_runs_nothing(monkeypatch):
    database = ClassDatabase()
    assert extend_census(database, "closure", 4)
    import sgpoidkit.arrowtype as arrowtype

    calls = []
    monkeypatch.setattr(arrowtype, "canonical_form", calls.append)
    for method in ("closure", "incremental", "brute"):
        assert not extend_census(database, method, 4)
        assert not extend_census(database, method, 3, 5)
    assert calls == []
    with pytest.raises(DomainError, match="unknown census method"):
        extend_census(database, "orderly", 4)


def test_extension_inserts_only_new_rows(monkeypatch):
    # Closing a 5-arc database to 6 arcs inserts no closure the database
    # already covers, so only 6-arc closures are inserted.
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    import sgpoidkit.arrowtype as arrowtype

    inserted = []
    original = arrowtype.ClassDatabase.insert

    def recording_insert(self, graph):
        arcs = arrowtype._arcset(graph)
        inserted.append((len(arcs), len(arrowtype._nodes(arcs))))
        return original(self, graph)

    monkeypatch.setattr(arrowtype.ClassDatabase, "insert", recording_insert)
    enumerate_by_closure(database, 6)
    assert inserted and {k for k, _ in inserted} == {6}
    assert [sum(row) for row in count_table(database, 6, 12)][-2:] == [218, 721]
    # Incremental and brute force skip the covered rows and cells too.
    inserted.clear()
    enumerate_incremental(database, 7, 3)
    assert set(inserted) == {(7, 3)}
    inserted.clear()
    assert extend_census(database, "brute", 7, 4)
    assert set(inserted) == {(7, 4)}
    assert database.count(7, 4) == 35


def test_closure_stores_no_class_past_its_object_bound():
    # A stored class on 6 objects is not extended by a run bounded to 2,
    # so the rows that run touches stay complete up to their largest class.
    database = ClassDatabase()
    enumerate_by_closure(database, 3)
    enumerate_by_closure(database, 5, 2)
    assert database.classes(4) == database.classes(4, 2)
    assert database.classes(5) == []
    assert database.coverage(4) == 2 and not database.covers(4, 3)


def test_incremental_honours_max_objects():
    database = ClassDatabase()
    for n in range(1, 7):
        enumerate_incremental(database, n, 3)
    full = ClassDatabase()
    enumerate_by_closure(full, 6, 3)
    for n in range(1, 7):
        assert database.classes(n) == full.classes(n), n
    assert max(g.m for g in database.classes()) == 3
    with pytest.raises(StaleDatabaseError):
        enumerate_incremental(database, 7)  # row 6 covered to 3 objects only


def test_incremental_refuses_counts_below_one():
    # A target of 0 arcs used to fail inside the coverage bound with
    # ValueError, and 0 objects to mark row 2 covered with nothing stored.
    database = ClassDatabase()
    for target, objects in ((0, None), (-1, 4), (2, 0)):
        with pytest.raises(DomainError, match="must be positive"):
            enumerate_incremental(database, target, objects)
    assert database.total() == 0 and database.complete_arrows == -1


def test_incremental_refuses_rows_it_cannot_reach():
    database = ClassDatabase()
    with pytest.raises(DomainError, match="complete graph on three objects"):
        enumerate_incremental(database, 9, 3)
    with pytest.raises(DomainError):
        extend_census(database, "incremental", 9, 3)
    assert database.total() == 0


def test_methods_agree_through_three():
    closure_db = ClassDatabase()
    enumerate_by_closure(closure_db, 3)
    incremental_db = ClassDatabase()
    for n in range(1, 4):
        enumerate_incremental(incremental_db, n)
    for n in range(1, 4):
        for m in range(1, 2 * n + 1):
            brute = {g.sorted_arcs for g in enumerate_brute_force(n, m)}
            assert {
                g.sorted_arcs for g in closure_db.classes(n, m)
            } == brute
            assert {
                g.sorted_arcs for g in incremental_db.classes(n, m)
            } == brute


def test_single_arc_extension_gap_boundary():
    # A class is unreachable by single-arc additions exactly when removing
    # any arc breaks closure.  The smallest such class is the complete
    # graph on three objects (nine arcs); below that the additive method
    # misses nothing, which the method-agreement tests rely on.
    def is_gap(arcs):
        return all(
            not arcs_transitively_closed(arcs - {e}) for e in arcs
        )

    for m in (3, 4):
        slots = [(d, c) for d in range(m) for c in range(m)]
        for k in range(3, 9):
            for subset in itertools.combinations(slots, k):
                arcs = frozenset(subset)
                if {x for a in arcs for x in a} != set(range(m)):
                    continue
                if arcs_transitively_closed(arcs):
                    assert not is_gap(arcs), (m, sorted(arcs))
    complete = frozenset((d, c) for d in range(3) for c in range(3))
    assert is_gap(complete)


def test_database_insert_deduplicates():
    database = ClassDatabase()
    assert database.insert(ArrowTypeGraph.from_arcs({(0, 1)}))
    assert not database.insert(ArrowTypeGraph.from_arcs({(1, 0)}))
    assert database.total() == 1


def test_database_save_load_round_trip(tmp_path):
    database = ClassDatabase()
    enumerate_by_closure(database, 3)
    database.save(tmp_path / "db")
    loaded = ClassDatabase.load(tmp_path / "db")
    assert loaded.complete_arrows == database.complete_arrows
    for n in range(1, 4):
        for m in range(1, 7):
            assert loaded.count(n, m) == database.count(n, m)
    # Saving twice produces identical bytes.
    loaded.save(tmp_path / "db2")
    first = sorted((tmp_path / "db").glob("*.json"))
    second = sorted((tmp_path / "db2").glob("*.json"))
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_text() == b.read_text()


def _tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_save_failure_while_writing_leaves_the_old_database(tmp_path, monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    old = ClassDatabase()
    enumerate_by_closure(old, 3, 3)
    old.save(tmp_path / "db")
    (tmp_path / "db" / "notes.txt").write_text("kept")
    before = _tree(tmp_path / "db")
    new = ClassDatabase()
    enumerate_by_closure(new, 4)
    written = []
    original = arrowtype.Path.write_text

    def failing_write(self, text):
        if len(written) == 5:
            raise OSError("disk full")
        written.append(self.name)
        return original(self, text)

    monkeypatch.setattr(arrowtype.Path, "write_text", failing_write)
    with pytest.raises(OSError, match="disk full"):
        new.save(tmp_path / "db")
    assert _tree(tmp_path / "db") == before  # staging directory removed too


def test_save_failure_while_renaming_leaves_a_sound_database(tmp_path, monkeypatch):
    # Cut the renames after each file in turn: every file is whole, and
    # whatever the loaded database claims to cover, it holds.
    import sgpoidkit.arrowtype as arrowtype

    old = ClassDatabase()
    enumerate_by_closure(old, 3, 3)
    new = ClassDatabase()
    enumerate_by_closure(new, 3, 3)
    enumerate_by_closure(new, 4)
    files = len(new._buckets) + 1
    original = arrowtype.os.replace
    for cut in range(files + 1):
        directory = tmp_path / f"db{cut}"
        old.save(directory)
        renamed = []

        def failing_replace(src, dst):
            if len(renamed) == cut:
                raise OSError("interrupted")
            renamed.append(dst)
            original(src, dst)

        monkeypatch.setattr(arrowtype.os, "replace", failing_replace)
        if cut < files:
            with pytest.raises(OSError):
                new.save(directory)
        else:
            new.save(directory)
        monkeypatch.setattr(arrowtype.os, "replace", original)
        loaded = ClassDatabase.load(directory)
        for k in range(1, 5):
            for m in range(1, loaded.coverage(k) + 1):
                assert loaded.count(k, m) == new.count(k, m), (cut, k, m)
        assert loaded.covers(1, 2)
        assert loaded.covers(4, 8) == (cut == files)


# sha256 of json.dumps([g.to_json() for g in classes()]) after the 6-arc
# closure census, recorded before the database stored canonical codes.
CLOSURE6_CLASSES_SHA256 = "2e8e00757a6875316151070930f8d8098706e1700123f6134dc53994a7c0fd13"


def test_closure_census_classes_are_pinned():
    database = ClassDatabase()
    enumerate_by_closure(database, 6)
    records = [graph.to_json() for graph in database.classes()]
    assert len(records) == 1 + 2 + 7 + 21 + 70 + 218 + 721
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == CLOSURE6_CLASSES_SHA256


def test_saved_buckets_are_the_bytes_of_json_dumps(tmp_path):
    # save formats each bucket file itself; every file of a 7-arc build,
    # the 0-arc class's among them, is what json.dumps(indent=1,
    # sort_keys=True) gives.
    database = ClassDatabase()
    enumerate_by_closure(database, 7)
    database.save(tmp_path)
    for (m, n), bucket in database._buckets.items():
        classes = [[list(divmod(c, m)) for c in codes] for codes in sorted(bucket)]
        payload = {"node_count": m, "arc_count": n, "classes": classes}
        text = (tmp_path / f"nodes{m:02d}_arcs{n:03d}.json").read_text()
        assert text == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    empty = (tmp_path / "nodes00_arcs000.json").read_text()
    assert '"classes": [\n  []\n ]' in empty
    meta = {"complete_arrows": 7}
    assert (tmp_path / "meta.json").read_text() == json.dumps(meta, indent=1) + "\n"
    assert len(list(tmp_path.iterdir())) == len(database._buckets) + 1 == 49


def test_database_load_recanonicalizes_edited_classes(tmp_path):
    database = ClassDatabase()
    enumerate_by_closure(database, 3)
    database.save(tmp_path / "db")
    bucket_file = tmp_path / "db" / "nodes02_arcs002.json"
    payload = json.loads(bucket_file.read_text())
    assert payload["classes"][0] == [[0, 0], [0, 1]]
    payload["classes"][0] = [[1, 0], [1, 1]]  # the same class, relabeled
    bucket_file.write_text(json.dumps(payload))
    loaded = ClassDatabase.load(tmp_path / "db")
    enumerate_by_closure(loaded, 3)
    assert count_table(loaded, 3, 6) == count_table(database, 3, 6)


def test_database_load_refuses_classes_that_are_not_closed(tmp_path):
    database = ClassDatabase()
    enumerate_by_closure(database, 2)
    database.save(tmp_path / "db")
    bucket_file = tmp_path / "db" / "nodes02_arcs002.json"
    payload = json.loads(bucket_file.read_text())
    payload["classes"].append([[0, 1], [1, 0]])  # lacks (0, 0) and (1, 1)
    bucket_file.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match="nodes02_arcs002.json.*not transitively"):
        ClassDatabase.load(tmp_path / "db")


def test_load_infers_rows_past_the_incremental_limit_only_with_k3(tmp_path):
    # Earlier versions let the incremental method build row 9: it stores
    # the class of 9 detached arcs but not the complete graph on 3 objects.
    database = ClassDatabase()
    database.insert([(2 * i, 2 * i + 1) for i in range(9)])
    database.complete_arrows = 9
    database.save(tmp_path / "db")
    assert ClassDatabase.load(tmp_path / "db").coverage(9) == 2
    database.insert([(d, c) for d in range(3) for c in range(3)])
    database.save(tmp_path / "db")
    assert ClassDatabase.load(tmp_path / "db").coverage(9) == 18


def test_functional_digraph_counts():
    assert functional_digraph_count(1) == 1
    assert functional_digraph_count(2) == 3
    assert functional_digraph_count(3) == 7
    assert functional_digraph_count(3) == functional_digraph_classes(3)
    with pytest.raises(ResourceLimitError):
        functional_digraph_count(6)


def test_arrow_type_of(six_arrow, ff, empty_three):
    ts = next(infer_types(six_arrow, 2))
    graph = arrow_type_of(six_arrow, ts)
    assert canonical_form(graph) == canonical_form({(0, 0), (0, 1), (1, 1)})

    ts_ff = next(infer_types(ff, 1))
    assert arrow_type_of(ff, ts_ff).arcs == {(0, 0)}

    from sgpoidkit import TypeStructure

    ts_empty = TypeStructure(2, (0, 0, 0), (1, 1, 1))
    assert arrow_type_of(empty_three, ts_empty).arcs == {(0, 1)}


def test_type_quotient_is_a_strict_homomorphism(six_arrow, ff):
    for table in (six_arrow, ff):
        for m in (1, 2):
            ts = next(infer_types(table, m), None)
            if ts is None:
                continue
            graph, graph_table, amap = type_quotient_map(table, ts)
            assert check_morphism(table, graph_table, amap, strict=True)


def test_graph_composition_table_requires_closure():
    with pytest.raises(DomainError):
        graph_composition_table(ArrowTypeGraph.from_arcs({(0, 1), (1, 2)}))


def test_seeded_database_is_complete_for_zero():
    database = seed(ClassDatabase())
    assert database.complete_arrows == 0
    assert database.total() == 1
