import pytest

from sgpoidkit import (
    NC,
    ArrowMap,
    CompositionTable,
    DomainError,
    check_morphism,
    composition_relation,
    compose,
    find_injective_morphisms,
    find_morphisms,
    induced_type_map,
    infer_types,
)

from .conftest import from_grid, grid
from .oracles import brute_force_morphisms


def test_composition_relation_flip_flop(ff):
    relation = composition_relation(ff)
    assert relation.fibers[1] == {(0, 1), (1, 0), (1, 1), (2, 1)}
    assert relation.fibers[NC] == frozenset()


def test_composition_relation_single_composition(single_composition):
    relation = composition_relation(single_composition)
    assert relation.fibers[2] == {(0, 1)}
    assert len(relation.fibers[NC]) == 8


def test_composition_relation_one_nc_arrow():
    table = from_grid(((None,),))
    relation = composition_relation(table)
    assert relation.fibers[NC] == {(0, 0)}
    assert relation.fibers[0] == frozenset()


def test_fibers_partition(six_arrow):
    relation = composition_relation(six_arrow)
    seen = set()
    for pairs in relation.fibers.values():
        assert not (pairs & seen)
        seen |= pairs
    assert seen == {(a, b) for a in range(6) for b in range(6)}


def test_bijective_asymmetry(loop_plus_stray, z2):
    forward = list(find_morphisms(loop_plus_stray, z2, bijective=True))
    assert [m.images for m in forward] == [(0, 1)]
    assert list(find_morphisms(z2, loop_plus_stray, bijective=True)) == []


def test_identity_is_a_strict_isomorphism(ff, six_arrow):
    for table in (ff, six_arrow):
        identity = tuple(range(table.n))
        found = [
            m.images
            for m in find_morphisms(table, table, bijective=True, strict=True)
        ]
        assert identity in found


def test_endomorphism_counts(six_arrow):
    permissive = list(find_morphisms(six_arrow, six_arrow))
    strict = list(find_morphisms(six_arrow, six_arrow, strict=True))
    assert len(permissive) == 9
    assert len(strict) == 6
    assert {m.images for m in strict} <= {m.images for m in permissive}


def test_collapsing_endomorphisms_are_permissive_only(six_arrow):
    permissive = {m.images for m in find_morphisms(six_arrow, six_arrow)}
    strict = {m.images for m in find_morphisms(six_arrow, six_arrow, strict=True)}
    # Everything onto one of the two identity-like arrows.
    assert (0,) * 6 in permissive - strict
    assert (5,) * 6 in permissive - strict


def test_check_morphism_on_found_maps(loop_plus_stray, z2):
    amap = ArrowMap(2, 2, (0, 1))
    assert check_morphism(loop_plus_stray, z2, amap, strict=False)
    # ab does not compose in the source but maps to ef = f in the target.
    assert not check_morphism(loop_plus_stray, z2, amap, strict=True)


def test_check_morphism_constant_to_non_idempotent(z2):
    # phi(aa) = phi(a) but phi(a)phi(a) = ff = e != f.
    amap = ArrowMap(2, 2, (1, 1))
    assert not check_morphism(z2, z2, amap, strict=False)


def test_check_morphism_dimension_mismatch(ff, z2):
    with pytest.raises(DomainError):
        check_morphism(ff, z2, ArrowMap(2, 2, (0, 1)))


def test_results_are_lexicographically_ordered(six_arrow):
    images = [m.images for m in find_morphisms(six_arrow, six_arrow)]
    assert images == sorted(images)


def test_matches_oracle_on_small_pairs(
    ff, z2, loop_plus_stray, single_composition, misplaced_composition
):
    pairs = [
        (loop_plus_stray, z2),
        (z2, loop_plus_stray),
        (z2, ff),
        (loop_plus_stray, single_composition),
        (single_composition, misplaced_composition),
    ]
    for source, target in pairs:
        for bijective in (False, True):
            for strict in (False, True):
                ours = [
                    m.images
                    for m in find_morphisms(source, target, bijective, strict)
                ]
                oracle = brute_force_morphisms(
                    grid(source), grid(target), bijective, strict
                )
                assert ours == oracle, (bijective, strict)


def test_matches_oracle_on_random_pairs():
    from hypothesis import given, settings, strategies as st

    def tables(n):
        values = st.one_of(st.integers(min_value=0, max_value=n - 1), st.none())
        return st.lists(values, min_size=n * n, max_size=n * n).map(
            lambda cells: tuple(
                tuple(cells[i * n + j] for j in range(n)) for i in range(n)
            )
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def run(data):
        sn = data.draw(st.integers(min_value=1, max_value=2))
        tn = data.draw(st.integers(min_value=1, max_value=3))
        source = data.draw(tables(sn))
        target = data.draw(tables(tn))
        for bijective in (False, True):
            for strict in (False, True):
                ours = [
                    m.images
                    for m in find_morphisms(
                        from_grid(source), from_grid(target), bijective, strict
                    )
                ]
                assert ours == brute_force_morphisms(
                    source, target, bijective, strict
                )

    run()


def test_strict_morphisms_send_nc_fiber_to_nc(six_arrow):
    relation = composition_relation(six_arrow)
    for amap in find_morphisms(six_arrow, six_arrow, strict=True):
        for a, b in relation.fibers[NC]:
            assert compose(six_arrow, amap.images[a], amap.images[b]) is NC


def test_strict_morphisms_compose(six_arrow):
    strict = list(find_morphisms(six_arrow, six_arrow, strict=True))
    for f in strict:
        for g in strict:
            composed = ArrowMap(
                6, 6, tuple(g.images[f.images[a]] for a in range(6))
            )
            assert check_morphism(six_arrow, six_arrow, composed, strict=True)


def test_bijective_strict_inverse_is_strict(six_arrow, z2):
    for table in (six_arrow, z2):
        for amap in find_morphisms(table, table, bijective=True, strict=True):
            assert check_morphism(table, table, amap.inverse(), strict=True)


def test_injective_search_allows_larger_targets(z2, six_arrow):
    found = list(find_injective_morphisms(z2, six_arrow))
    assert found
    for amap in found:
        assert amap.is_injective()
        assert check_morphism(z2, six_arrow, amap)


def test_strict_injective_search_matches_oracle_on_random_pairs():
    # The strict injective search gives each source arrow only the target
    # arrows with its power profile; it must still find every injective
    # strict morphism.  Half the targets have the source planted at random
    # images, so that such a morphism exists.
    from hypothesis import given, settings, strategies as st

    def tables(n):
        values = st.one_of(st.integers(min_value=0, max_value=n - 1), st.none())
        return st.lists(values, min_size=n * n, max_size=n * n).map(
            lambda cells: [[cells[i * n + j] for j in range(n)] for i in range(n)]
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def run(data):
        sn = data.draw(st.integers(min_value=1, max_value=3))
        tn = data.draw(st.integers(min_value=1, max_value=4))
        source = data.draw(tables(sn))
        target = data.draw(tables(tn))
        if tn >= sn and data.draw(st.booleans()):
            images = data.draw(st.permutations(range(tn)))[:sn]
            for a in range(sn):
                for b in range(sn):
                    d = source[a][b]
                    target[images[a]][images[b]] = None if d is None else images[d]
        ours = [
            m.images
            for m in find_injective_morphisms(
                from_grid(source), from_grid(target), strict=True
            )
        ]
        assert ours == [
            images
            for images in brute_force_morphisms(source, target, strict=True)
            if len(set(images)) == sn
        ]

    run()


def test_permissive_targets_need_not_be_semigroupoids(loop_plus_stray):
    # A target failing associativity can still receive permissive maps.
    target = CompositionTable(((0, 1), (0, 0)))
    found = list(find_morphisms(loop_plus_stray, target))
    assert found


def test_induced_type_map_identity(six_arrow):
    ts = next(infer_types(six_arrow, 2))
    identity = ArrowMap(6, 6, tuple(range(6)))
    assert induced_type_map(six_arrow, six_arrow, identity, ts, ts) == {
        0: 0,
        1: 1,
    }


def test_induced_type_map_swap_endomorphism(six_arrow):
    # The nontrivial automorphism swaps the two bijection-like cross
    # arrows; swapping the endo arrows 0 and 1 is no morphism at all,
    # since arrow 1 squares to 0 while 0 is idempotent.
    ts = next(infer_types(six_arrow, 2))
    swap = ArrowMap(6, 6, (0, 1, 2, 4, 3, 5))
    assert check_morphism(six_arrow, six_arrow, swap, strict=True)
    assert not check_morphism(
        six_arrow, six_arrow, ArrowMap(6, 6, (1, 0, 2, 3, 4, 5)), strict=False
    )
    assert induced_type_map(six_arrow, six_arrow, swap, ts, ts) == {0: 0, 1: 1}


def test_induced_type_map_collapse(six_arrow):
    ts = next(infer_types(six_arrow, 2))
    collapse = ArrowMap(6, 6, (0,) * 6)
    mapping = induced_type_map(six_arrow, six_arrow, collapse, ts, ts)
    # Both objects land on the type of arrow 0.
    assert mapping == {0: ts.doms[0], 1: ts.doms[0]}


def test_arrow_map_validation():
    with pytest.raises(DomainError):
        ArrowMap(2, 2, (0,))
    with pytest.raises(DomainError):
        ArrowMap(1, 2, (5,))
    # Images and sizes are ints, not bools or floats.
    with pytest.raises(DomainError):
        ArrowMap(1, 2, (True,))
    with pytest.raises(DomainError):
        ArrowMap(1.0, 2, (0,))
    with pytest.raises(DomainError):
        ArrowMap(2, 2, (0, 0)).inverse()
