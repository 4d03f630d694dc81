"""Regenerate perfbench/expected.json: the query corpus and the outputs
the benchmark checks its runs against.

    python3 perfbench/make_expected.py

What it records:

* ``tables3``: the 442 associative 3-arrow tables with NC entries, in
  enumeration order, each with its minimal object count, its number of
  type structures on that many objects and the total state count of its
  minimal transformation representation.  The tables, object counts and
  type-structure counts come from the brute-force oracles in
  ``tests/oracles.py``; the package must agree or the script stops.
* ``classes4``: the 70 isomorphism classes of arrow-type graphs with four
  arcs, with the same three figures for their composition tables.  Classes
  on up to five nodes are cross-checked against the oracle.
* ``outputs``: SHA-256 digests of order-sensitive CLI outputs (the census
  stdout of each method, the saved class database, the ``--allow-nc``
  listing).  These pin the output contract at the commit that recorded
  them; any change to them is a change of behaviour.

The representation totals are invariant under relabeling the arrows, so
the benchmark can check the outputs for its seeded relabelings against
them.  The script takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness

OUT = Path(__file__).resolve().parent / "expected.json"


def _grid(table, NC):
    return [[None if v is NC else v for v in row] for row in table.entries]


def _oracle_min_objects(oracles, entries, limit):
    for m in range(1, limit + 1):
        found = oracles.brute_force_typings(entries, m)
        if found:
            return m, len(found)
    return None, 0


def main() -> int:
    cli = harness.import_package()
    oracles = harness.load_oracles()
    import sgpoidkit as sg

    tables = list(sg.enumerate_associative_tables(3, allow_nc=True))
    oracle_tables = oracles.brute_force_tables(3, allow_nc=True)
    grids = [_grid(t, sg.NC) for t in tables]
    if [tuple(map(tuple, g)) for g in grids] != oracle_tables:
        raise SystemExit("enumeration disagrees with the oracle")
    tables3 = []
    for table, entries in zip(tables, grids):
        m, count = _oracle_min_objects(oracles, entries, 2 * table.n)
        if m != sg.minimal_objects(table):
            raise SystemExit(f"minimal objects disagree on {entries}")
        if m is not None and count != sum(1 for _ in sg.infer_types(table, m)):
            raise SystemExit(f"type structure counts disagree on {entries}")
        total = None
        if m is not None:
            _, degrees, _ = sg.minimal_representation(table)
            total = sum(degrees)
        tables3.append([entries, m, count, total])

    database = sg.ClassDatabase()
    sg.enumerate_by_closure(database, 4)
    graphs = database.classes(n_arcs=4)
    for m in range(1, 6):
        mine = {g.sorted_arcs for g in graphs if g.m == m}
        if mine != oracles.brute_force_graph_classes(4, m):
            raise SystemExit(f"4-arc classes on {m} nodes disagree with the oracle")
    classes4 = []
    for graph in graphs:
        table = sg.graph_composition_table(graph)
        m = sg.minimal_objects(table)
        count = sum(1 for _ in sg.infer_types(table, m))
        _, degrees, _ = sg.minimal_representation(table)
        classes4.append([[list(arc) for arc in graph.sorted_arcs], m, count, sum(degrees)])

    with tempfile.TemporaryDirectory() as tmp:
        db = str(Path(tmp) / "db")
        build = harness.capture(cli, ["arrowtypes", "--max-arrows", "7", "--db", db,
                                      "--emit-table", "json"])
        outputs = {
            "census_stdout": harness.sha256_text(build),
            "census_db": harness.sha256_tree(db),
            "incremental_stdout": harness.sha256_text(harness.capture(
                cli, ["arrowtypes", "--method", "incremental", "--max-arrows", "6",
                      "--emit-table", "json"])),
            "brute_stdout": harness.sha256_text(harness.capture(
                cli, ["arrowtypes", "--method", "brute", "--max-arrows", "4",
                      "--emit-table", "json"])),
            "nc_listing": harness.sha256_text(harness.capture(
                cli, ["enumerate-tables", "--size", "3", "--allow-nc"])),
        }

    OUT.write_text(json.dumps(
        {"tables3": tables3, "classes4": classes4, "outputs": outputs},
        sort_keys=True,
    ) + "\n")
    print(f"wrote {OUT}: {len(tables3)} tables, {len(classes4)} classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
