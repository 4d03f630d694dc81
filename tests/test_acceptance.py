"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s to see them)."""

import itertools
import time

import pytest

from sgpoidkit import (
    NC,
    ArrowTypeGraph,
    ClassDatabase,
    CompositionTable,
    canonical_form,
    check_morphism,
    compose,
    compose_arrows,
    count_table,
    derive_table,
    digraph_isomorphisms,
    embed,
    enumerate_associative_tables,
    enumerate_brute_force,
    enumerate_by_closure,
    extend_census,
    find_morphisms,
    first_nonassociative_triple,
    full_transformation_sgpoid,
    functional_digraph_count,
    generate,
    infer_types,
    is_associative,
    is_semigroupoid,
    minimal_objects,
    one_more_arrow,
    pairs_composing_to,
    transitive_closure,
    type_quotient_map,
)
from sgpoidkit.arrowtype import _closure_arcs

from .conftest import grid
from .oracles import (
    brute_force_tables,
    functional_digraph_classes,
)

TABLE_ROWS = {
    1: [1, 1],
    2: [0, 3, 3, 1],
    3: [0, 1, 8, 8, 3, 1],
    4: [0, 1, 8, 23, 23, 11, 3, 1],
    5: [0, 0, 6, 34, 67, 64, 32, 11, 3, 1],
    6: [0, 0, 3, 42, 132, 211, 185, 97, 36, 11, 3, 1],
    7: [0, 0, 2, 35, 205, 486, 652, 536, 283, 110, 36, 11, 3, 1],
}
ROW_SUMS = {1: 2, 2: 7, 3: 21, 4: 70, 5: 218, 6: 721, 7: 2360}


def _best_of(fn, repeats=3):
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
    return result, min(elapsed)


def _report(number, label, seconds):
    print(f"criterion {number} ({label}): PASS in {seconds:.3f}s")


def test_criterion_01_flip_flop_queries(ff):
    def queries():
        return compose(ff, 0, 1), pairs_composing_to(ff, 1)

    (product, pairs), seconds = _best_of(queries)
    assert product == 1
    assert pairs == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert seconds < 0.001
    _report(1, "flip-flop queries", seconds)


def test_criterion_02_three_arrow_discrimination(
    single_composition, misplaced_composition
):
    def verdicts():
        return (
            is_semigroupoid(single_composition),
            first_nonassociative_triple(misplaced_composition),
        )

    (good, triple), seconds = _best_of(verdicts)
    assert good is True
    assert triple == (0, 0, 1)
    assert seconds < 0.001
    _report(2, "single-composition discrimination", seconds)


def test_criterion_03_typing_and_associativity_are_independent(
    typable_not_associative, associative_not_typable
):
    def verdicts():
        left_typable = minimal_objects(typable_not_associative)
        left_assoc = is_associative(typable_not_associative)
        right_assoc = is_associative(associative_not_typable)
        right_m = [
            next(infer_types(associative_not_typable, m), None)
            for m in range(1, 5)
        ]
        right_minimal = minimal_objects(associative_not_typable)
        return left_typable, left_assoc, right_assoc, right_m, right_minimal

    (left_typable, left_assoc, right_assoc, right_m, right_minimal), seconds = (
        _best_of(verdicts)
    )
    assert left_typable == 1 and not left_assoc
    assert right_assoc and right_m == [None] * 4 and right_minimal is None
    assert seconds < 0.010
    _report(3, "typing vs associativity independence", seconds)


def test_criterion_04_endomorphism_counts(six_arrow):
    def counts():
        permissive = sum(1 for _ in find_morphisms(six_arrow, six_arrow))
        strict = sum(1 for _ in find_morphisms(six_arrow, six_arrow, strict=True))
        return permissive, strict

    (permissive, strict), seconds = _best_of(counts, repeats=1)
    assert permissive == 9
    assert strict == 6
    assert seconds < 1.0
    _report(4, "endomorphism counts 9 permissive / 6 strict", seconds)


def test_criterion_05_bijective_morphism_asymmetry(loop_plus_stray, z2):
    def search():
        forward = list(find_morphisms(loop_plus_stray, z2, bijective=True))
        backward = list(find_morphisms(z2, loop_plus_stray, bijective=True))
        return forward, backward

    (forward, backward), seconds = _best_of(search)
    assert len(forward) >= 1
    assert backward == []
    assert seconds < 0.010
    _report(5, "bijective morphism asymmetry", seconds)


@pytest.fixture(scope="module")
def census_row4():
    start = time.perf_counter()
    closure_db = ClassDatabase()
    enumerate_by_closure(closure_db, 4)
    incremental_db = ClassDatabase()
    assert extend_census(incremental_db, "incremental", 4)
    brute = {
        (n, m): {g.sorted_arcs for g in enumerate_brute_force(n, m)}
        for n in range(1, 5)
        for m in range(1, 2 * n + 1)
    }
    return closure_db, incremental_db, brute, time.perf_counter() - start


def test_criterion_06a_census_rows_1_to_4(census_row4):
    closure_db, incremental_db, brute, seconds = census_row4
    for n in range(1, 5):
        for m in range(1, 2 * n + 1):
            expected = TABLE_ROWS[n][m - 1] if m - 1 < len(TABLE_ROWS[n]) else 0
            classes = brute[(n, m)]
            assert len(classes) == expected, (n, m)
            assert {
                g.sorted_arcs for g in closure_db.classes(n, m)
            } == classes, (n, m)
            assert {
                g.sorted_arcs for g in incremental_db.classes(n, m)
            } == classes, (n, m)
    counts = count_table(closure_db, 4, 8)
    assert [sum(row) for row in counts] == [ROW_SUMS[n] for n in range(1, 5)]
    assert seconds < 60.0
    _report("6a", "arrow-type census rows 1-4, three methods", seconds)


def _census_row_by_three_methods(n):
    # Every cell of row n agrees across the three methods and with the
    # pinned counts; returns the elapsed time.
    start = time.perf_counter()
    closure_db = ClassDatabase()
    enumerate_by_closure(closure_db, n)
    incremental_db = ClassDatabase()
    assert extend_census(incremental_db, "incremental", n)
    for m in range(1, 2 * n + 1):
        classes = {g.sorted_arcs for g in enumerate_brute_force(n, m)}
        assert len(classes) == TABLE_ROWS[n][m - 1], m
        assert {g.sorted_arcs for g in closure_db.classes(n, m)} == classes, m
        assert {g.sorted_arcs for g in incremental_db.classes(n, m)} == classes, m
    row = count_table(closure_db, n, 2 * n)[n - 1]
    assert row == TABLE_ROWS[n]
    assert sum(row) == ROW_SUMS[n]
    return time.perf_counter() - start


def test_criterion_06b_census_row_5():
    seconds = _census_row_by_three_methods(5)
    assert seconds < 60.0
    _report("6b", "arrow-type census row 5, three methods", seconds)


def test_criterion_06c_census_row_6():
    seconds = _census_row_by_three_methods(6)
    assert seconds < 300.0
    _report("6c", "arrow-type census row 6, three methods", seconds)


@pytest.mark.slow
def test_criterion_06d_census_row_7():
    seconds = _census_row_by_three_methods(7)
    assert seconds < 1800.0
    _report("6d", "arrow-type census row 7, three methods", seconds)


def test_criterion_07_one_more_arrow_queries():
    start = time.perf_counter()
    first = one_more_arrow([(0, 0), (1, 1)], 3, added_object=True)
    second = one_more_arrow([(0, 1), (1, 1)], 3, added_object=True)
    seconds = time.perf_counter() - start
    assert first == [(0, 2), (2, 0), (1, 2), (2, 1), (2, 2)]
    assert second == [(0, 2), (2, 1), (2, 2)]
    _report(7, "single-arc extension queries", seconds)


def test_criterion_08_functional_digraph_validation():
    start = time.perf_counter()
    for degree in (1, 2, 3, 4):
        assert functional_digraph_count(degree) == functional_digraph_classes(
            degree
        ), degree
    seconds = time.perf_counter() - start
    assert seconds < 10.0
    _report(8, "functional digraph census vs oracle, degrees 1-4", seconds)


def test_criterion_09_labeled_associative_table_counts():
    start = time.perf_counter()
    expected = {1: 1, 2: 8, 3: 113}
    for n, count in expected.items():
        ours = [grid(t) for t in enumerate_associative_tables(n)]
        assert len(ours) == count, n
        oracle = brute_force_tables(n)
        assert sorted(ours) == sorted(oracle), n
    seconds = time.perf_counter() - start
    assert seconds < 60.0
    _report(9, "labeled associative tables 1, 8, 113 vs oracle", seconds)


def test_criterion_10_communicating_vessels(vessels):
    start = time.perf_counter()
    degrees, (swap, reset, over, back) = vessels
    transferred_swap = compose_arrows(compose_arrows(back, swap), over)
    transferred_reset = compose_arrows(over, compose_arrows(reset, back))
    seconds = time.perf_counter() - start
    assert transferred_swap.dom == transferred_swap.cod == 1
    assert transferred_swap.map == (1, 0)
    assert transferred_reset.dom == transferred_reset.cod == 0
    assert transferred_reset.map == (1, 1)
    _report(10, "communicating vessels transfers", seconds)


def test_criterion_11_representations_of_the_six_arrow_semigroupoid(six_arrow):
    start = time.perf_counter()
    fully = ArrowTypeGraph(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    one_way = ArrowTypeGraph(2, frozenset({(0, 0), (0, 1), (1, 1)}))
    isolated = ArrowTypeGraph(2, frozenset({(0, 0), (1, 1)}))
    loop = ArrowTypeGraph(1, frozenset({(0, 0)}))

    for graph in (fully, one_way):
        target = full_transformation_sgpoid((2, 2), graph)
        found = next(embed(six_arrow, target, strict=True), None)
        assert found is not None
        assert check_morphism(six_arrow, derive_table(target.arrows), found, strict=True)
    none_target = full_transformation_sgpoid((2, 2), isolated)
    assert next(embed(six_arrow, none_target, strict=True), None) is None
    assert next(embed(six_arrow, none_target, strict=False), None) is None

    single = full_transformation_sgpoid((3,), loop)
    witness = None
    for amap in embed(six_arrow, single, strict=False):
        image = [single.arrows[i] for i in amap.images]
        if len(generate(image, (3,)).arrows) == 7:
            witness = amap
            break
    seconds = time.perf_counter() - start
    assert witness is not None
    assert seconds < 60.0
    _report(11, "representations over four target shapes", seconds)


def _relabel(table, perm):
    n = table.n
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    return CompositionTable(
        tuple(
            tuple(
                NC
                if table.entries[inverse[i]][inverse[j]] is NC
                else perm[table.entries[inverse[i]][inverse[j]]]
                for j in range(n)
            )
            for i in range(n)
        )
    )


def test_criterion_12_property_suites(small_semigroupoids, small_universe):
    start = time.perf_counter()
    labeled, reps = small_semigroupoids

    # Relabeling invariance of associativity, on every associative table.
    for table in small_universe:
        for perm in itertools.permutations(range(table.n)):
            assert is_associative(_relabel(table, perm))

    # The type quotient map is a strict homomorphism, per semigroupoid.
    for table in labeled:
        m = minimal_objects(table)
        ts = next(infer_types(table, m))
        graph, graph_table, quotient = type_quotient_map(table, ts)
        assert check_morphism(table, graph_table, quotient, strict=True)

    # Pairwise morphism properties on class representatives (the
    # properties are invariant under relabeling either side).
    for source in reps:
        for target in reps:
            strict_maps = list(find_morphisms(source, target, strict=True))
            for amap in strict_maps:
                # Strict maps satisfy the permissive contract too.
                assert check_morphism(source, target, amap, strict=False)
            if source.n == target.n:
                for amap in strict_maps:
                    if amap.is_injective():
                        assert check_morphism(
                            target, source, amap.inverse(), strict=True
                        )

    # Transitive closure is idempotent, extensive, monotone on the
    # quotient graphs of the enumerated semigroupoids.
    graphs = []
    for table in reps:
        ts = next(infer_types(table, minimal_objects(table)))
        graphs.append(type_quotient_map(table, ts)[0])
    for graph in graphs:
        closed = transitive_closure(graph.arcs)
        assert closed.arcs == graph.arcs
        for extra in itertools.product(range(graph.m), repeat=2):
            extended = _closure_arcs(graph.arcs | {extra})
            assert graph.arcs <= extended
            assert _closure_arcs(extended) == extended

    # Canonical forms agree with pairwise isomorphism search.
    for g, h in itertools.combinations(graphs, 2):
        same = canonical_form(g) == canonical_form(h)
        iso = next(digraph_isomorphisms(g, h), None) is not None
        assert same == iso

    seconds = time.perf_counter() - start
    _report(12, "property suites on all semigroupoids with <= 3 arrows", seconds)
