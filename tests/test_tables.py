import copy
import functools
import hashlib
import itertools
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sgpoidkit import (
    NC,
    UNSET,
    CompositionTable,
    DomainError,
    associative_table_orbits,
    compose,
    enumerate_associative_tables,
    first_nonassociative_triple,
    is_associative,
    pairs_composing_to,
    triple_associative,
)
from sgpoidkit.cli import run
from sgpoidkit.tables import SYMMETRY_LIMIT, _symmetry_group

from .conftest import from_grid, grid
from .oracles import brute_force_tables, table_canonical


def test_compose_flip_flop(ff):
    assert compose(ff, 0, 1) == 1
    assert compose(ff, 1, 0) == 1
    assert compose(ff, 2, 2) == 2


def test_nc_absorbs(ff):
    assert compose(ff, NC, 1) is NC
    assert compose(ff, 1, NC) is NC
    assert compose(ff, NC, NC) is NC


def test_single_composition_lookup(single_composition):
    assert compose(single_composition, 0, 1) == 2
    assert compose(single_composition, 1, 0) is NC


def test_compose_rejects_bad_indices(ff):
    with pytest.raises(DomainError):
        compose(ff, 3, 0)
    with pytest.raises(DomainError):
        compose(ff, 0, -1)


def test_pairs_composing_to_flip_flop(ff):
    assert pairs_composing_to(ff, 1) == [(0, 1), (1, 0), (1, 1), (2, 1)]


def test_pairs_composing_to_single_composition(single_composition):
    assert pairs_composing_to(single_composition, 2) == [(0, 1)]
    nc_pairs = pairs_composing_to(single_composition, NC)
    assert len(nc_pairs) == 8 and (0, 1) not in nc_pairs


def test_fibers_partition_all_pairs(ff, single_composition, six_arrow):
    for table in (ff, single_composition, six_arrow):
        counted = sum(
            len(pairs_composing_to(table, target))
            for target in list(range(table.n)) + [NC]
        )
        assert counted == table.n * table.n


def test_triple_associative_cases(single_composition, misplaced_composition):
    # (aa)b undefined but a(ab) = ab = b: fails.
    assert not triple_associative(misplaced_composition, 0, 0, 1)
    for triple in itertools.product(range(3), repeat=3):
        assert triple_associative(single_composition, *triple)


def test_total_table_failing_triple(typable_not_associative):
    # (bb)b = ab = b while b(bb) = ba = a.
    assert not triple_associative(typable_not_associative, 1, 1, 1)


def test_is_associative(ff, misplaced_composition, associative_not_typable):
    assert is_associative(ff)
    assert not is_associative(misplaced_composition)
    assert is_associative(associative_not_typable)


def test_first_failing_triple_is_lexicographic_least(misplaced_composition):
    assert first_nonassociative_triple(misplaced_composition) == (0, 0, 1)


def test_enumerate_sizes_against_oracle():
    for n, allow_nc in [(1, False), (1, True), (2, False), (2, True)]:
        ours = [grid(t) for t in enumerate_associative_tables(n, allow_nc=allow_nc)]
        oracle = brute_force_tables(n, allow_nc=allow_nc)
        assert sorted(ours, key=repr) == sorted(oracle, key=repr)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_associative_tables(1)) == 1
    assert sum(1 for _ in enumerate_associative_tables(1, allow_nc=True)) == 2
    assert sum(1 for _ in enumerate_associative_tables(2)) == 8


def test_nc_free_tables_reappear_without_nc():
    with_nc = {
        t for t in enumerate_associative_tables(2, allow_nc=True)
        if all(v is not NC for row in t.entries for v in row)
    }
    without = set(enumerate_associative_tables(2))
    assert with_nc == without


def test_partial_seeding_restricts_completions():
    partial = ((0, UNSET), (UNSET, UNSET))
    seeded = set(enumerate_associative_tables(2, partial=partial))
    unrestricted = set(enumerate_associative_tables(2))
    assert seeded == {t for t in unrestricted if t.entries[0][0] == 0}
    assert seeded


def test_partial_fixed_nc_cell_is_honored_even_without_allow_nc():
    partial = ((NC, UNSET), (UNSET, UNSET))
    for table in enumerate_associative_tables(2, partial=partial):
        assert table.entries[0][0] is NC
        for i, j in ((0, 1), (1, 0), (1, 1)):
            assert table.entries[i][j] is not NC


def test_partial_dimension_mismatch():
    with pytest.raises(DomainError):
        list(enumerate_associative_tables(2, partial=((UNSET,),)))


def test_enumeration_order_is_deterministic():
    first = list(enumerate_associative_tables(2, allow_nc=True))
    second = list(enumerate_associative_tables(2, allow_nc=True))
    assert first == second


@pytest.mark.parametrize("n, count", [(1, 2), (2, 20), (3, 442)])
def test_nc_tables_are_semigroups_with_a_pinned_zero(n, count):
    # An n-arrow table with NC cells is an (n+1)-element semigroup whose
    # extra element n is a zero read as NC: pin row n and column n to n and
    # enumerate the rest.  Both searches try NC (or n) last, so the listings
    # agree in order too.
    partial = [[UNSET] * n + [n] for _ in range(n)] + [[n] * (n + 1)]
    pinned = [
        tuple(tuple(NC if v == n else v for v in row[:n]) for row in t.entries[:n])
        for t in enumerate_associative_tables(n + 1, partial=partial)
    ]
    listed = [t.entries for t in enumerate_associative_tables(n, allow_nc=True)]
    assert listed == pinned
    assert len(listed) == count


# SHA-256 of `enumerate-tables --size 4 --allow-nc` stdout (18,604 tables),
# recorded before the solver's constraints could wait on a single cell.
NC4_LISTING_SHA256 = "d608de3df080731d3f076adafa33228ad40414b8be84e43614189018c4b2de71"


def test_size_4_nc_listing_is_byte_stable(capsys):
    assert run(["enumerate-tables", "--size", "4", "--allow-nc"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 18604
    assert hashlib.sha256(out.encode()).hexdigest() == NC4_LISTING_SHA256


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabeling_invariance_of_associativity(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    values = st.one_of(st.integers(min_value=0, max_value=n - 1), st.none())
    cells = data.draw(
        st.lists(values, min_size=n * n, max_size=n * n)
    )
    table = from_grid(
        tuple(tuple(cells[i * n + j] for j in range(n)) for i in range(n))
    )
    perm = data.draw(st.permutations(range(n)))
    assert is_associative(table) == is_associative(_relabel(table, tuple(perm)))


def test_json_round_trip(six_arrow):
    data = six_arrow.to_json()
    assert CompositionTable.from_json(data) == six_arrow
    assert data["entries"][0][5] is None


def test_json_rejects_minus_one():
    with pytest.raises(DomainError):
        CompositionTable.from_json({"n": 1, "entries": [[-1]]})


def test_table_validation():
    with pytest.raises(DomainError):
        CompositionTable(((0, 1),))
    with pytest.raises(DomainError):
        CompositionTable(((5,),))


# Sizes on either side of the whole-table check, which starts at 6 arrows.
@pytest.mark.parametrize("n", (3, 8))
@pytest.mark.parametrize("bad", (True, -1, "n", 1.0))
def test_table_validation_rejects_bad_entries(n, bad):
    bad = n if bad == "n" else bad
    rows = [[1] * n for _ in range(n)]
    rows[n - 1][n - 2] = NC
    rows[n - 1][n - 1] = bad
    with pytest.raises(DomainError, match=re.escape(f"entry {bad!r} is not")):
        CompositionTable(rows)


@pytest.mark.parametrize("n", (3, 8))
def test_table_validation_reports_the_first_fault(n):
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = 1.5
    rows[1] = rows[1][:-1]
    with pytest.raises(DomainError, match="entry 1.5 is not"):
        CompositionTable(rows)
    rows[0][1] = 0
    rows[2][0] = 1.5
    with pytest.raises(DomainError, match="must be square"):
        CompositionTable(rows)
    # NC and UNSET share one marker class, yet only NC is a table entry.
    rows[1] = [NC] * (n - 1) + [UNSET]
    with pytest.raises(DomainError, match=r"entry \? is not"):
        CompositionTable(rows)


@pytest.mark.parametrize("n", (3, 8))
def test_table_validation_accepts_int_subclasses_and_nc(n):
    class Index(int):
        pass

    rows = [[NC] * n for _ in range(n)]
    rows[0][0] = Index(n - 1)
    table = CompositionTable(rows)
    assert table.entries[0][0] == n - 1
    assert CompositionTable([[NC] * n for _ in range(n)]).n == n


@pytest.mark.parametrize("marker, text", ((NC, "nc"), (UNSET, "?")))
def test_markers_survive_pickle_and_copy(marker, text):
    assert repr(marker) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(marker, protocol)) is marker
    assert copy.copy(marker) is marker
    assert copy.deepcopy(marker) is marker
    assert copy.deepcopy([marker, (0, marker)]) == [marker, (0, marker)]


def _orbit_count(n, allow_nc=False, partial=None):
    return sum(size for _, size in associative_table_orbits(n, allow_nc, partial))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("allow_nc", [False, True])
def test_orbit_count_matches_labeled_count(n, allow_nc):
    labeled = sum(1 for _ in enumerate_associative_tables(n, allow_nc=allow_nc))
    assert _orbit_count(n, allow_nc=allow_nc) == labeled


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("allow_nc", [False, True])
def test_orbits_are_the_isomorphism_classes(n, allow_nc):
    # One table per class, and each orbit's size is the number of labeled
    # tables in its class, by the brute-force oracles.
    orbits = list(associative_table_orbits(n, allow_nc=allow_nc))
    forms = [table_canonical(grid(t)) for t, _ in orbits]
    assert len(set(forms)) == len(forms)
    per_class = Counter(table_canonical(g) for g in brute_force_tables(n, allow_nc))
    assert dict(zip(forms, (size for _, size in orbits))) == per_class


# Semigroups of order n up to isomorphism (OEIS A027851) and labeled
# (A023814).
@pytest.mark.parametrize(
    "n, classes, labeled",
    [(1, 1, 1), (2, 5, 8), (3, 24, 113), (4, 188, 3492), (5, 1915, 183732)],
)
def test_orbit_counts_match_oeis(n, classes, labeled):
    sizes = [size for _, size in associative_table_orbits(n)]
    assert len(sizes) == classes
    assert sum(sizes) == labeled
    assert _orbit_count(n) == labeled


def _relabel_grid(rows, perm):
    """The grid relabeled by ``perm``: cell (perm[i], perm[j]) holds the
    image of cell (i, j); NC and UNSET stay."""
    n = len(rows)
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    return [
        [
            v if v is NC or v is UNSET else perm[v]
            for v in (rows[inverse[i]][inverse[j]] for j in range(n))
        ]
        for i in range(n)
    ]


def _relabelings_keeping(rows):
    n = len(rows)
    rows = [list(row) for row in rows]
    return [
        perm
        for perm in itertools.permutations(range(n))
        if _relabel_grid(rows, perm) == rows
    ]


@functools.lru_cache(maxsize=None)
def _table_pool(n):
    return [t.entries for t in enumerate_associative_tables(n, allow_nc=n < 4)]


def _seeded_partial(seed):
    """A partial grid cut from a random associative table: with some seeds
    a union of the cell orbits of one of the table's automorphisms, so the
    grid keeps that relabeling, with the others random cells."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    entries = rng.choice(_table_pool(n))
    automorphisms = _relabelings_keeping(entries)
    while seed % 2 and len(automorphisms) == 1:
        entries = rng.choice(_table_pool(n))
        automorphisms = _relabelings_keeping(entries)
    rows = [[UNSET] * n for _ in range(n)]
    if seed % 2:
        sigma = rng.choice(automorphisms[1:])
        for i, j in itertools.product(range(n), repeat=2):
            if rows[i][j] is UNSET and rng.random() < 0.5:
                while rows[i][j] is UNSET:
                    rows[i][j] = entries[i][j]
                    i, j = sigma[i], sigma[j]
    else:
        for i, j in itertools.product(range(n), repeat=2):
            if rng.random() < 0.4:
                rows[i][j] = entries[i][j]
    return n, rows, rng.random() < 0.5


def test_orbit_count_of_seeded_partial_grids_matches_listing():
    symmetric = with_nc = completed = 0
    for seed in range(40):
        n, rows, allow_nc = _seeded_partial(seed)
        group = _symmetry_group(rows)
        assert group == _relabelings_keeping(rows)
        listed = sum(1 for _ in enumerate_associative_tables(n, allow_nc, rows))
        assert _orbit_count(n, allow_nc, rows) == listed
        symmetric += len(group) > 1
        with_nc += any(v is NC for row in rows for v in row)
        completed += listed > 0
    assert symmetric >= 10 and with_nc >= 10 and completed >= 20


_oracle_tables = functools.lru_cache(maxsize=None)(brute_force_tables)


def test_seeded_partial_listings_match_oracle():
    # Grids cut from an associative table, some with one cell overwritten
    # by a random value, searched with and without NC.  Fixed cells are
    # taken as given, so a fixed NC cell is searched without NC too: the
    # oracle then filters the NC listing, whose order (row-major, NC last)
    # keeps the search's.
    kinds = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3))
        source = rng.choice(_oracle_tables(n, True))
        share = rng.choice((0.2, 0.4, 0.6))
        cells = [[source[i][j] if rng.random() < share else UNSET for j in range(n)]
                 for i in range(n)]
        if seed % 3 == 0:
            cells[rng.randrange(n)][rng.randrange(n)] = rng.choice(list(range(n)) + [None])
        allow_nc = rng.random() < 0.5
        fixed = [(i, j, v) for i, row in enumerate(cells) for j, v in enumerate(row)
                 if v is not UNSET]
        has_nc = any(v is None for _, _, v in fixed)
        expected = [
            t for t in _oracle_tables(n, allow_nc or has_nc)
            if all(t[i][j] == v for i, j, v in fixed)
            and (allow_nc or all(
                t[i][j] is not None
                for i in range(n) for j in range(n) if cells[i][j] is UNSET
            ))
        ]
        partial = [[NC if v is None else v for v in row] for row in cells]
        listed = [grid(t) for t in enumerate_associative_tables(n, allow_nc, partial)]
        assert listed == expected, (seed, cells, allow_nc)
        kinds.update({
            "n3": n == 3, "nc": allow_nc, "fixed-nc": has_nc and not allow_nc,
            "empty": not expected, "several": len(expected) > 1,
        })
    assert min(kinds[k] for k in ("n3", "nc", "fixed-nc", "empty", "several")) >= 5, kinds


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_symmetry_group_of_random_partial_grids_matches_brute_force(data):
    # Grids of arrows, NC and UNSET cells, not associative in general, kept
    # by a drawn relabeling sigma: each cell orbit of sigma gets one drawn
    # value, carried along the orbit, or UNSET where the value would not
    # come back.  Half of them then get one more drawn cell, which may
    # break some of the symmetry.
    n = data.draw(st.integers(min_value=1, max_value=5))
    sigma = data.draw(st.permutations(range(n)))
    values = st.one_of(
        st.integers(min_value=0, max_value=n - 1), st.just(NC), st.just(UNSET)
    )
    rows = [[None] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if rows[i][j] is not None:
            continue
        orbit, v = {}, data.draw(values)
        while (i, j) not in orbit:
            orbit[i, j] = v
            i, j = sigma[i], sigma[j]
            v = v if v is NC or v is UNSET else sigma[v]
        back = v == orbit[i, j]
        for (k, l), w in orbit.items():
            rows[k][l] = w if back else UNSET
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        rows[i][j] = data.draw(values)
    assert _symmetry_group(rows) == _relabelings_keeping(rows)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("marked", [0, 1])
def test_nc_and_unset_cells_are_not_swapped(n, marked):
    # The only asymmetry: diagonal cell (marked, marked) is NC, and every
    # other cell UNSET.  So only relabelings that fix arrow ``marked``
    # keep the grid.
    rows = [[UNSET] * n for _ in range(n)]
    rows[marked][marked] = NC
    group = _symmetry_group(rows)
    assert group == _relabelings_keeping(rows)
    assert all(sigma[marked] == marked for sigma in group)
    if n == 2:
        assert group == [(0, 1)]
    listed = sum(1 for _ in enumerate_associative_tables(n, True, rows))
    assert _orbit_count(n, True, rows) == listed


@pytest.mark.parametrize("zero", [0, 1])
def test_pinned_zero_size_5_grid_counts_3020(zero):
    # The benchmark's grid: rows 0 and 1 pinned to the zero, under either
    # labeling of the zero.
    rows = [[zero] * 5, [zero] * 5] + [[UNSET] * 5 for _ in range(3)]
    assert len(_symmetry_group(rows)) == 6
    assert _orbit_count(5, partial=rows) == 3020
    assert sum(1 for _ in enumerate_associative_tables(5, partial=rows)) == 3020


def test_large_symmetry_groups_are_cut_to_a_point_stabiliser():
    # All 7! relabelings keep the empty 7-arrow grid; the count breaks the
    # 6! of them that fix arrow 0.
    group = _symmetry_group([[UNSET] * 7 for _ in range(7)])
    assert len(group) == SYMMETRY_LIMIT == 720
    assert group[0] == tuple(range(7))
    assert len(set(group)) == 720 and all(sigma[0] == 0 for sigma in group)
    assert sorted(group[1][1:]) == list(range(1, 7))
