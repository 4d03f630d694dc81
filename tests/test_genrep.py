import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sgpoidkit import genrep

from sgpoidkit import (
    NC,
    ArrowTypeGraph,
    ClassDatabase,
    CompositionTable,
    DomainError,
    ResourceLimitError,
    TransformationArrow,
    associative_table_orbits,
    check_morphism,
    compose_arrows,
    derive_table,
    embed,
    enumerate_associative_tables,
    enumerate_by_closure,
    find_morphisms,
    full_transformation_arrows,
    full_transformation_sgpoid,
    generate,
    is_associative,
    is_semigroupoid,
    minimal_objects,
    minimal_representation,
    validate_arrow,
)
from sgpoidkit.catalog import flip_flop, two_element_group, two_type_six_arrow
from sgpoidkit.genrep import _degree_vectors

from .conftest import grid
from .oracles import closure_by_pairs, composition_grid

FULL_2 = ArrowTypeGraph(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
ONE_WAY = ArrowTypeGraph(2, frozenset({(0, 0), (0, 1), (1, 1)}))
ISOLATED = ArrowTypeGraph(2, frozenset({(0, 0), (1, 1)}))
LOOP = ArrowTypeGraph(1, frozenset({(0, 0)}))
SINK = ArrowTypeGraph(2, frozenset({(0, 1)}))


def test_compose_arrows_transfers_the_swap(vessels):
    degrees, (swap, reset, over, back) = vessels
    transferred = compose_arrows(compose_arrows(back, swap), over)
    assert transferred == TransformationArrow(1, 1, (1, 0))


def test_compose_arrows_transfers_the_reset(vessels):
    degrees, (swap, reset, over, back) = vessels
    transferred = compose_arrows(over, compose_arrows(reset, back))
    assert transferred == TransformationArrow(0, 0, (1, 1))


def test_compose_arrows_type_mismatch(vessels):
    degrees, (swap, reset, over, back) = vessels
    assert compose_arrows(swap, reset) is NC


def test_compose_arrows_range_error():
    wide = TransformationArrow(0, 1, (3,))
    narrow = TransformationArrow(1, 0, (0, 0))
    with pytest.raises(DomainError):
        compose_arrows(wide, narrow)
    # State -1 would read as the last state of the next map.
    with pytest.raises(DomainError, match="-1"):
        compose_arrows(TransformationArrow(0, 1, (-1,)), narrow)
    with pytest.raises(DomainError, match="-1"):
        compose_arrows(TransformationArrow(0, 1, (1,)), TransformationArrow(1, 0, (0, -1)))


def test_validate_arrow():
    validate_arrow(TransformationArrow(0, 1, (0, 1)), (2, 2))
    with pytest.raises(DomainError):
        validate_arrow(TransformationArrow(0, 1, (0, 2)), (2, 2))
    with pytest.raises(DomainError):
        validate_arrow(TransformationArrow(0, 2, (0,)), (1, 1))
    with pytest.raises(DomainError):
        validate_arrow(TransformationArrow(0, 0, (0, 0, 0)), (2,))
    with pytest.raises(DomainError):
        validate_arrow(TransformationArrow(-1, 0, (0,)), (1, 1))
    # A negative state, a bool state and a map that is not a tuple.
    for bad in ((-1, 0), (True, 0), [0, 1]):
        with pytest.raises(DomainError):
            validate_arrow(TransformationArrow(0, 1, bad), (2, 2))


def test_generate_validates_generators_before_hashing_them():
    for bad in ((-1, 0), [1, 0]):
        with pytest.raises(DomainError):
            generate([TransformationArrow(0, 0, bad)], (2,))


def test_generate_single_idempotent():
    identity = TransformationArrow(0, 0, (0, 1))
    closed = generate([identity], (2,))
    assert closed.arrows == (identity,)
    assert closed.table.entries == ((0,),)


def test_generate_transposition_gives_order_two_group():
    swap = TransformationArrow(0, 0, (1, 0))
    closed = generate([swap], (2,))
    assert len(closed.arrows) == 2
    identity = TransformationArrow(0, 0, (0, 1))
    assert identity in closed.arrows
    assert is_semigroupoid(closed.table)


def test_generate_vessels_matches_pairwise_closure_oracle(vessels):
    degrees, gens = vessels
    closed = generate(gens, degrees)
    oracle = closure_by_pairs({(g.dom, g.cod, g.map) for g in gens})
    assert {(a.dom, a.cod, a.map) for a in closed.arrows} == oracle
    assert len(closed.arrows) == 16


@st.composite
def generator_sets(draw):
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    types = st.integers(0, len(degrees) - 1)
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        dom, cod = draw(types), draw(types)
        mapping = draw(
            st.tuples(*[st.integers(0, degrees[cod] - 1)] * degrees[dom])
        )
        generators.append(TransformationArrow(dom, cod, mapping))
    return degrees, generators


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_generate_matches_pairwise_closure_oracle(case):
    degrees, gens = case
    closed = generate(gens, degrees)
    oracle = closure_by_pairs({(g.dom, g.cod, g.map) for g in gens})
    assert [(a.dom, a.cod, a.map) for a in closed.arrows] == sorted(oracle)


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_generated_table_matches_composition_grid_oracle(case):
    degrees, gens = case
    closed = generate(gens, degrees)
    triples = [(a.dom, a.cod, a.map) for a in closed.arrows]
    assert grid(closed.table) == composition_grid(triples)


def test_compose_arrows_calls_are_pinned(monkeypatch):
    # The closure of the T_4 generators composes each of its 256 arrows
    # with each of the three generators once.  Table cells, whole or lazy,
    # are looked up without composing an arrow.
    calls = []
    compose = genrep.compose_arrows

    def counting_compose(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(genrep, "compose_arrows", counting_compose)
    gens = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]
    closed = generate([TransformationArrow(0, 0, g) for g in gens], (4,))
    assert (len(closed.arrows), len(calls)) == (256, 768)
    calls.clear()
    target = full_transformation_sgpoid((3,), LOOP)
    derive_table(target.arrows)
    assert sum(row[j] is not NC for row in target.products for j in range(27)) == 729
    assert calls == []


def test_generate_accepts_the_full_monoid_on_five_states(monkeypatch):
    # The 5-cycle, a transposition and one collapse generate T_5 (3125
    # arrows, 9.8 M table cells), which passes the cost guard; its table is
    # not built here.  tests/test_cli.py checks that T_6 exits 3.
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)]
    monkeypatch.setattr(genrep, "derive_table", lambda arrows: None)
    closed = generate([TransformationArrow(0, 0, g) for g in gens], (5,))
    assert len(closed.arrows) == 5**5


def test_generate_vessels_fills_the_full_structure(vessels):
    degrees, gens = vessels
    closed = generate(gens, degrees)
    full = full_transformation_sgpoid(degrees, FULL_2)
    assert set(closed.arrows) == set(full.arrows)


def test_generate_is_order_independent(vessels):
    degrees, gens = vessels
    reference = generate(gens, degrees).arrows
    for permuted in itertools.permutations(gens):
        assert generate(permuted, degrees).arrows == reference


def test_vessels_local_monoids_match(vessels):
    degrees, gens = vessels
    closed = generate(gens, degrees)
    locals_by_type = {
        t: [a for a in closed.arrows if a.dom == a.cod == t] for t in (0, 1)
    }
    assert len(locals_by_type[0]) == len(locals_by_type[1]) == 4
    tables = {t: derive_table(locals_by_type[t]) for t in (0, 1)}
    isomorphic = next(
        find_morphisms(tables[0], tables[1], bijective=True, strict=True), None
    )
    assert isomorphic is not None


def test_generated_tables_are_semigroupoids(vessels):
    degrees, gens = vessels
    for sgpoid in (
        generate(gens, degrees),
        full_transformation_sgpoid((2, 2), ISOLATED),
        full_transformation_sgpoid((2,), LOOP),
    ):
        table = derive_table(sgpoid.arrows)
        assert is_associative(table)
        assert is_semigroupoid(table)


def test_full_sgpoid_arrow_counts():
    assert len(full_transformation_sgpoid((2, 2), FULL_2).arrows) == 16
    assert len(full_transformation_sgpoid((3,), LOOP).arrows) == 27
    isolated = full_transformation_sgpoid((2, 2), ISOLATED)
    assert len(isolated.arrows) == 8
    assert all(a.dom == a.cod for a in isolated.arrows)
    mixed = full_transformation_sgpoid((1, 3), ONE_WAY)
    assert len(mixed.arrows) == 1 + 3 + 27


def _composed_row(arrows, index, a):
    row = []
    for b in arrows:
        composite = compose_arrows(a, b)
        row.append(NC if composite is NC else index[composite])
    return tuple(row)


def _closed_graphs(max_objects):
    # Every closed graph on 1..max_objects objects, from the census.
    m = max_objects
    return [g for g in enumerate_by_closure(ClassDatabase(), m * m, m).classes() if g.m]


def _small_targets():
    # Every closed graph on up to 3 objects, every degree vector up to 5
    # states in total.
    for graph in _closed_graphs(3):
        for total in range(graph.m, 6):
            for degrees in _degree_vectors(total, graph.m):
                yield full_transformation_sgpoid(degrees, graph)


def _oracle_rows(arrows):
    entries = composition_grid([(a.dom, a.cod, a.map) for a in arrows])
    return [tuple(NC if v is None else v for v in row) for row in entries]


def _expected_rows(target):
    # Row i of the composition-grid oracle, for every row below 1000
    # arrows, and the row composed arrow by arrow for every 31st row of T_5
    # (3125 arrows).
    arrows = target.arrows
    if len(arrows) < 1000:
        return dict(enumerate(_oracle_rows(arrows)))
    index = {arrow: i for i, arrow in enumerate(arrows)}
    return {
        i: _composed_row(arrows, index, arrows[i]) for i in range(0, len(arrows), 31)
    }


def test_lazy_products_match_derive_table_on_all_small_targets():
    # The cells are read in a seeded random order, so a cell computed
    # early never depends on its neighbours having been read first.
    rng = random.Random(15)
    for target in _small_targets():
        rows = _expected_rows(target)
        cells = [(i, j) for i in rows for j in range(len(target.arrows))]
        rng.shuffle(cells)
        products = target.products
        assert len(products) == len(target.arrows)
        for i, j in cells:
            value = products[i][j]
            assert value == rows[i][j] and (value is NC) == (rows[i][j] is NC)
        assert products == tuple(
            dict(enumerate(rows[i])) if i in rows else {} for i in range(len(products))
        )


def test_minimal_representation_computes_few_cells(monkeypatch):
    # The 3-arrow null semigroup is tried on T_2, T_3 and T_4 and embeds in
    # T_4; the searches compute 764 cells, where the three tables hold
    # 16 + 729 + 65,536.  Most of T_4's 647 are its arrows' powers, read
    # once to group the arrows by power profile.
    built = []
    build = genrep.full_transformation_sgpoid

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(genrep, "full_transformation_sgpoid", recording_build)
    graph, degrees, amap = minimal_representation(CompositionTable(((0,) * 3,) * 3))
    assert (degrees, amap.images) == ((4,), (0, 1, 2))
    assert [len(t.arrows) for t in built] == [4, 27, 256]
    cells = [sum(map(len, t.products)) for t in built]
    assert cells == [5, 112, 647]


def test_minimal_representations_are_unchanged():
    # Every typable associative table on 3 arrows, NC allowed; the digest
    # was recorded while every target's whole table was still built first.
    records = []
    for table in enumerate_associative_tables(3, allow_nc=True):
        if minimal_objects(table) is None:
            continue
        graph, degrees, amap = minimal_representation(table)
        records.append([graph.to_json(), list(degrees), list(amap.images)])
    assert len(records) == 271
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "f1b593799c1294d242f416354a9f778a1553fe13200248478d72791a2e22a730"


@pytest.mark.slow
def test_minimal_representations_of_all_4_arrow_classes_are_unchanged():
    # One table of each of the 424 typable classes of associative 4-arrow
    # tables, NC allowed.  The digest was recorded with every target arrow
    # in every domain, so it checks that the power-profile filter of the
    # strict injective searches changes no answer.
    records = []
    for table, _ in associative_table_orbits(4, allow_nc=True):
        if minimal_objects(table) is None:
            continue
        graph, degrees, amap = minimal_representation(table)
        records.append([graph.to_json(), list(degrees), list(amap.images)])
    assert len(records) == 424
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "48d481bdf3880df19e3d6bc791ce24ced4418cf2838f168ce4a67399748790db"


@pytest.mark.parametrize(
    "degrees, graph",
    [((4,), LOOP), ((1, 3), ONE_WAY), ((2, 2), ONE_WAY), ((2, 3), SINK)],
)
def test_full_table_matches_derive_table(degrees, graph):
    # Every row of the products grid, read in order, is the row of the
    # composition-grid oracle.  SINK: object 1 has no outgoing arc, so its
    # arrows' rows are all NC.
    target = full_transformation_sgpoid(degrees, graph)
    n = len(target.arrows)
    expected = _oracle_rows(target.arrows)
    assert [tuple(row[j] for j in range(n)) for row in target.products] == expected
    if graph is SINK:
        assert all(set(row.values()) == {NC} for row in target.products)
    assert target.arrows == full_transformation_arrows(degrees, graph)


def test_full_sgpoid_rejects_bad_inputs():
    with pytest.raises(DomainError):
        full_transformation_sgpoid((0, 2), ISOLATED)
    with pytest.raises(DomainError):
        full_transformation_sgpoid((2, 2, 2), ISOLATED)
    open_path = ArrowTypeGraph.from_arcs({(0, 1), (1, 2)})
    with pytest.raises(DomainError):
        full_transformation_sgpoid((2, 2, 2), open_path)


def test_full_sgpoid_refuses_oversized_targets():
    # T_5 (3125 arrows, 9.8 M table cells), the largest target accepted, is
    # read above; T_6 and two T_5 loops side by side are refused before any
    # arrow is made.
    with pytest.raises(ResourceLimitError, match="46656 arrows, 2176782336 table cells"):
        full_transformation_sgpoid((6,), LOOP)
    with pytest.raises(ResourceLimitError, match="6250 arrows"):
        full_transformation_sgpoid((5, 5), ISOLATED)


def test_derive_table_requires_closure():
    swap = TransformationArrow(0, 0, (1, 0))
    with pytest.raises(DomainError):
        derive_table((swap,))


def test_derive_table_refuses_negative_states():
    # State -1 would read as the last state, so this arrow would look
    # closed: its map composed with itself is itself.
    with pytest.raises(DomainError, match="-1"):
        derive_table((TransformationArrow(0, 0, (-1, -1)),))


def test_strict_embeddings_of_six_arrow(six_arrow):
    for graph in (FULL_2, ONE_WAY):
        target = full_transformation_sgpoid((2, 2), graph)
        found = next(embed(six_arrow, target, strict=True), None)
        assert found is not None
        assert found.is_injective()
        assert check_morphism(six_arrow, derive_table(target.arrows), found, strict=True)
    none_target = full_transformation_sgpoid((2, 2), ISOLATED)
    assert next(embed(six_arrow, none_target, strict=True), None) is None
    assert next(embed(six_arrow, none_target, strict=False), None) is None


def _induced_subtable(table, images):
    position = {arrow: i for i, arrow in enumerate(images)}
    rows = []
    for a in images:
        row = []
        for b in images:
            value = table.entries[a][b]
            if value is NC or value not in position:
                row.append(NC)
            else:
                row.append(position[value])
        rows.append(tuple(row))
    return CompositionTable(tuple(rows))


def test_embedding_images_are_isomorphic_copies(six_arrow):
    target = full_transformation_sgpoid((2, 2), ONE_WAY)
    amap = next(embed(six_arrow, target, strict=True))
    induced = _induced_subtable(derive_table(target.arrows), amap.images)
    iso = next(
        find_morphisms(six_arrow, induced, bijective=True, strict=True), None
    )
    assert iso is not None


def test_both_connected_targets_give_the_same_representation(six_arrow):
    subtables = []
    for graph in (FULL_2, ONE_WAY):
        target = full_transformation_sgpoid((2, 2), graph)
        amap = next(embed(six_arrow, target, strict=True))
        subtables.append(_induced_subtable(derive_table(target.arrows), amap.images))
    iso = next(
        find_morphisms(subtables[0], subtables[1], bijective=True, strict=True),
        None,
    )
    assert iso is not None


def test_permissive_embedding_into_single_type(six_arrow):
    target = full_transformation_sgpoid((3,), LOOP)
    sizes = set()
    witness = None
    for amap in embed(six_arrow, target, strict=False):
        image = [target.arrows[i] for i in amap.images]
        size = len(generate(image, (3,)).arrows)
        sizes.add(size)
        if size == 7 and witness is None:
            witness = amap
    assert witness is not None
    assert 7 == min(sizes)
    # No strict embedding exists on a single type: the cross arrows would
    # need composable images of non-composable pairs.
    assert next(embed(six_arrow, target, strict=True), None) is None


def test_minimal_representation_idempotent():
    graph, degrees, amap = minimal_representation(CompositionTable(((0,),)))
    assert graph.arcs == {(0, 0)}
    assert degrees == (1,)
    assert amap.images == (0,)


def test_minimal_representation_two_element_group(z2):
    graph, degrees, amap = minimal_representation(z2)
    assert graph.arcs == {(0, 0)}
    assert degrees == (2,)
    target = full_transformation_sgpoid(degrees, graph)
    assert check_morphism(z2, derive_table(target.arrows), amap, strict=True)
    # Degree 1 has a single map, too small for two distinct images.
    one_point = full_transformation_sgpoid((1,), LOOP)
    assert next(embed(z2, one_point, strict=True), None) is None


def test_minimal_representation_six_arrow(six_arrow):
    graph, degrees, amap = minimal_representation(six_arrow)
    assert graph.m == 2
    assert degrees == (2, 2)
    target = full_transformation_sgpoid(degrees, graph)
    assert check_morphism(six_arrow, derive_table(target.arrows), amap, strict=True)
    assert amap.is_injective()


@pytest.mark.parametrize(
    "table, total",
    [
        (two_element_group(), 2),
        (flip_flop(), 2),
        (two_type_six_arrow(), 4),
        (CompositionTable(((NC,) * 3,) * 3), 4),
    ],
    ids=["z2", "flip-flop", "six-arrow", "empty-3"],
)
def test_no_other_closed_graph_lowers_the_minimal_total(table, total):
    # The least total over every closed graph on up to 4 objects, with
    # every degree vector, is the one reached from the table's own typings.
    def least_total(graphs):
        for t in itertools.count(1):
            for graph in graphs:
                for degrees in _degree_vectors(t, graph.m):  # none if m > t
                    if sum(degrees[c] ** degrees[d] for d, c in graph.arcs) < table.n:
                        continue
                    target = full_transformation_sgpoid(degrees, graph)
                    if next(embed(table, target, strict=True), None) is not None:
                        return t

    assert least_total(_closed_graphs(4)) == total
    assert sum(minimal_representation(table)[1]) == total


def test_minimal_representation_rejects_bad_tables(
    misplaced_composition, associative_not_typable
):
    with pytest.raises(DomainError):
        minimal_representation(misplaced_composition)
    with pytest.raises(DomainError):
        minimal_representation(associative_not_typable)


def test_minimal_representation_respects_budget(z2):
    with pytest.raises(ResourceLimitError):
        minimal_representation(z2, max_total=1)


def test_arrow_json_round_trip():
    arrow = TransformationArrow(0, 1, (1, 0, 2))
    assert TransformationArrow.from_json(arrow.to_json()) == arrow
