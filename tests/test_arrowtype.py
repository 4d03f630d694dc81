import itertools
import json
import random

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
    functional_digraph_count,
    graph_composition_table,
    infer_types,
    is_transitively_closed,
    one_more_arrow,
    signature,
    transitive_closure,
    type_quotient_map,
)
from sgpoidkit.arrowtype import _closed_extensions, _closure_arcs, seed

from .oracles import (
    arcs_transitively_closed,
    brute_force_graph_classes,
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


def test_canonical_form_examples():
    assert canonical_form({(9, 9)}).arcs == {(0, 0)}
    assert canonical_form({(1, 0)}).arcs == {(0, 1)}
    left = canonical_form({(0, 0), (1, 1), (0, 1)})
    right = canonical_form({(1, 1), (0, 0), (1, 0)})
    assert left == right


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
        assert canonical_form(arcs).sorted_arcs == digraph_canonical(arcs)


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
                    assert canonical_form(arcs).sorted_arcs == digraph_canonical(arcs)
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
        assert canonical_form(relabeled).sorted_arcs == expected


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
    # loops took about 30 s); now each needs well under a thousand steps.
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", 1000)
    for seed in range(3):
        assert canonical_form(_scrambled(canonical, seed)).sorted_arcs == canonical


def test_canonical_form_depth_is_not_bounded_by_recursion():
    # The search opens one level per arc; 1,000 loops used to raise
    # RecursionError.
    loops = [(x, x) for x in range(1000)]
    random.Random(0).shuffle(loops)
    assert canonical_form(loops).sorted_arcs == tuple((i, i) for i in range(1000))


def test_canonical_form_step_guard(monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "CANONICAL_LIMIT", 3)
    with pytest.raises(ResourceLimitError):
        canonical_form(STAR6_PLUS_ARC)


def test_one_pass_closure_matches_breadth_first_closure():
    database = ClassDatabase()
    enumerate_by_closure(database, 5)
    checked = 0
    for graph in database.classes():
        for arc, closed in _closed_extensions(graph, graph.m + 2):
            assert closed == _closure_arcs(graph.arcs | {arc}), (graph, arc)
            checked += 1
    assert checked > 10000


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


def test_signature_is_isomorphism_invariant():
    for arcs in _all_compact_arc_sets(3, 3):
        relabeled = canonical_form(arcs)
        assert signature(relabeled) == signature(ArrowTypeGraph.from_arcs(arcs))


def test_graph_validation():
    with pytest.raises(DomainError):
        ArrowTypeGraph(3, frozenset({(0, 0)}))  # isolated objects 1, 2
    with pytest.raises(DomainError):
        ArrowTypeGraph(1, frozenset({(0, 1)}))
    graph = ArrowTypeGraph.from_arcs({(4, 7)})
    assert graph.m == 2 and graph.arcs == {(0, 1)}


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


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_brute_force(8, 16)


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
