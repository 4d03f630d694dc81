import itertools
import math
import random
from collections import Counter

import pytest

from sgpoidkit import (
    CompositionTable,
    DomainError,
    TypeStructure,
    associative_table_orbits,
    infer_types,
    is_associative,
    is_semigroupoid,
    minimal_objects,
    satisfies_typing,
    typing_orbits,
)

from .conftest import from_grid, grid
from .oracles import brute_force_typings, grid_typing_ok, typing_patterns


def _solutions(table, m):
    return {(ts.doms, ts.cods) for ts in infer_types(table, m)}


def test_total_table_is_single_typed(ff):
    assert _solutions(ff, 1) == {((0, 0, 0), (0, 0, 0))}
    assert minimal_objects(ff) == 1


def test_untypable_table(associative_not_typable):
    for m in range(1, 5):
        assert _solutions(associative_not_typable, m) == set()
    assert minimal_objects(associative_not_typable) is None
    assert is_associative(associative_not_typable)
    assert not is_semigroupoid(associative_not_typable)


def test_typable_but_not_associative(typable_not_associative):
    assert minimal_objects(typable_not_associative) == 1
    assert not is_associative(typable_not_associative)
    assert not is_semigroupoid(typable_not_associative)


def test_empty_table_needs_two_objects(empty_three):
    assert minimal_objects(empty_three) == 2
    solutions = _solutions(empty_three, 2)
    # Every codomain must avoid every domain: two constant patterns.
    assert solutions == {
        ((0, 0, 0), (1, 1, 1)),
        ((1, 1, 1), (0, 0, 0)),
    }


def test_single_composition_minimal_objects(single_composition):
    assert minimal_objects(single_composition) == 3
    assert is_semigroupoid(single_composition)


def test_misplaced_composition_is_untypable(misplaced_composition):
    assert minimal_objects(misplaced_composition) is None
    assert not is_semigroupoid(misplaced_composition)


def test_upper_bound_is_reached_by_empty_table(empty_three):
    # With 2n objects some solution gives every arrow its own private pair.
    solutions = _solutions(empty_three, 6)
    assert any(
        len(set(doms) | set(cods)) == 6 for doms, cods in solutions
    )


def test_monotone_in_object_count(ff, empty_three, single_composition):
    for table in (ff, empty_three, single_composition):
        base = minimal_objects(table)
        assert base is not None
        for m in range(base, 2 * table.n + 1):
            assert next(infer_types(table, m), None) is not None


def test_matches_oracle_on_small_tables(
    ff, empty_three, single_composition, loop_plus_stray, associative_not_typable
):
    for table in (empty_three, single_composition, loop_plus_stray,
                  associative_not_typable):
        for m in (1, 2, 3):
            assert _solutions(table, m) == set(
                brute_force_typings(grid(table), m)
            )


def test_solution_set_closed_under_object_permutations(
    loop_plus_stray, empty_three
):
    # The stray arrow needs a domain, a codomain, and a third object to
    # keep the idempotent loop away from both.
    assert minimal_objects(loop_plus_stray) == 3
    for table, m in ((loop_plus_stray, 3), (empty_three, 2)):
        solutions = _solutions(table, m)
        assert solutions
        for doms, cods in solutions:
            for perm in itertools.permutations(range(m)):
                relabeled = (
                    tuple(perm[d] for d in doms),
                    tuple(perm[c] for c in cods),
                )
                assert relabeled in solutions


def _seeded_grids(rng, n, count):
    """``count`` uniform grids with NC entries (nearly all untypable), then
    ``count`` grids typed by a random typing on 1 to 3 objects: a pair
    whose ends meet gets a random arrow of the right type, or NC when there
    is none.  Arrow 0 is a loop, so not every pair is NC.  Associative or
    not."""
    values = list(range(n)) + [None]
    for _ in range(count):
        yield tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
    for _ in range(count):
        objects = rng.randint(1, 3)
        doms = [rng.randrange(objects) for _ in range(n)]
        cods = [doms[0]] + [rng.randrange(objects) for _ in range(n - 1)]
        yield tuple(
            tuple(
                rng.choice(
                    [c for c in range(n) if (doms[c], cods[c]) == (doms[a], cods[b])]
                    or [None]
                )
                if cods[a] == doms[b] else None
                for b in range(n)
            )
            for a in range(n)
        )


def _typing_grids():
    for n in (1, 2):
        values = list(range(n)) + [None]
        for cells in itertools.product(values, repeat=n * n):
            yield tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))
    rng = random.Random(12)
    yield from _seeded_grids(rng, 3, 30)
    yield from _seeded_grids(rng, 4, 20)


def _first_appearance(doms, cods):
    labels: dict = {}
    ends = tuple(labels.setdefault(x, len(labels)) for x in doms + cods)
    return ends[:len(doms)], ends[len(doms):]


def _relabelings(patterns, m):
    """Every typing over m objects, in lexicographic order: each pattern
    under each injective relabeling of its objects."""
    found = []
    for p in patterns:
        n = len(p) // 2
        for image in itertools.permutations(range(m), max(p, default=-1) + 1):
            ends = tuple(image[x] for x in p)
            found.append((ends[:n], ends[n:]))
    return sorted(found)


def test_typing_paths_match_oracle():
    for entries in _typing_grids():
        table = from_grid(entries)
        n = len(entries)
        patterns = typing_patterns(entries)
        least = None
        for m in range(1, 2 * n + 1):
            labeled = _relabelings(patterns, m)
            if m ** (2 * n) <= 10**4:
                assert labeled == brute_force_typings(entries, m)
            listing = [(ts.doms, ts.cods) for ts in infer_types(table, m)]
            assert listing == labeled
            orbits = [(ts.doms, ts.cods) for ts in typing_orbits(table, m)]
            # One normal form per relabeling class, each a typing, and the
            # normal form of every labeled typing among them.
            assert len(set(orbits)) == len(orbits)
            for doms, cods in orbits:
                assert grid_typing_ok(entries, doms, cods)
                assert _first_appearance(doms, cods) == (doms, cods)
            assert {_first_appearance(*t) for t in labeled} == set(orbits)
            assert sum(
                math.perm(m, len(set(doms + cods))) for doms, cods in orbits
            ) == len(labeled)
            if least is None and labeled:
                least = m
        assert minimal_objects(table) == least


def test_zero_arrow_table_has_one_empty_typing():
    table = CompositionTable(())
    assert minimal_objects(table) == 1
    assert list(infer_types(table, 1)) == [TypeStructure(1, (), ())]
    assert list(typing_orbits(table, 3)) == [TypeStructure(3, (), ())]


def test_nc_pair_inside_one_class_is_untypable(associative_not_typable):
    # ef = fe = e and ff = f force cod e = dom f = dom e, but ee is NC.
    for m in range(1, 8):
        assert next(infer_types(associative_not_typable, m), None) is None
        assert next(typing_orbits(associative_not_typable, m), None) is None


def test_orbits_of_the_empty_table(empty_three):
    # A domain and a codomain never share an object: two constant
    # patterns on two objects, one relabeling class.
    assert [
        (ts.doms, ts.cods) for ts in typing_orbits(empty_three, 2)
    ] == [((0, 0, 0), (1, 1, 1))]


def test_independence_found_by_enumeration(
    typable_not_associative, associative_not_typable
):
    # Scanning every two-arrow table turns up both separations.
    typable_only = []
    associative_only = []
    for cells in itertools.product((0, 1, None), repeat=4):
        table = from_grid((cells[0:2], cells[2:4]))
        associative = is_associative(table)
        typable = minimal_objects(table) is not None
        if typable and not associative:
            typable_only.append(table)
        if associative and not typable:
            associative_only.append(table)
    assert typable_not_associative in typable_only
    assert associative_not_typable in associative_only


# Semigroupoids of n arrows up to isomorphism: the associative classes
# with NC allowed that have a typing, by their minimal object count.
SEMIGROUPOID_CENSUS = {
    1: {1: 1, 2: 1},
    2: {1: 5, 2: 4, 3: 1},
    3: {1: 24, 2: 21, 3: 12, 4: 1},
    4: {1: 188, 2: 135, 3: 86, 4: 14, 5: 1},
}


@pytest.mark.parametrize("n", sorted(SEMIGROUPOID_CENSUS))
def test_semigroupoid_census(n):
    classes = list(associative_table_orbits(n, allow_nc=True))
    assert len(classes) == [2, 12, 90, 960][n - 1]
    by_objects = Counter(
        m for m in map(minimal_objects, (t for t, _ in classes)) if m is not None
    )
    assert dict(by_objects) == SEMIGROUPOID_CENSUS[n]
    assert sum(by_objects.values()) == [2, 10, 58, 424][n - 1]
    # One object types exactly the tables without NC: the semigroups
    # (OEIS A027851), counted again by the NC-free orbits.
    assert by_objects[1] == [1, 5, 24, 188][n - 1]
    assert by_objects[1] == sum(1 for _ in associative_table_orbits(n))


def test_matches_oracle_on_random_tables():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        values = st.one_of(st.integers(min_value=0, max_value=n - 1), st.none())
        cells = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
        entries = tuple(
            tuple(cells[i * n + j] for j in range(n)) for i in range(n)
        )
        m = data.draw(st.integers(min_value=1, max_value=3))
        ours = {
            (ts.doms, ts.cods) for ts in infer_types(from_grid(entries), m)
        }
        assert ours == set(brute_force_typings(entries, m))

    run()


def test_satisfies_typing_agrees_with_inference(single_composition):
    good = next(infer_types(single_composition, 3))
    assert satisfies_typing(single_composition, good)
    bad = TypeStructure(3, (0, 0, 0), (0, 0, 0))
    assert not satisfies_typing(single_composition, bad)


def test_type_structure_validation():
    with pytest.raises(DomainError):
        TypeStructure(1, (0, 1), (0, 0))
    with pytest.raises(DomainError):
        TypeStructure(2, (0,), (0, 1))
    # Objects and their count are ints, not bools or floats.
    with pytest.raises(DomainError):
        TypeStructure(2, (True, 0), (0, 1))
    with pytest.raises(DomainError):
        TypeStructure(1.5, (0,), (1,))


def test_infer_types_rejects_nonpositive_m(ff):
    with pytest.raises(DomainError):
        list(infer_types(ff, 0))
    with pytest.raises(DomainError):
        list(typing_orbits(ff, 0))
