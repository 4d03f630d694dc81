import hashlib
import importlib
import json
import math
import sys
import time
from pathlib import Path

import pytest

from sgpoidkit.cli import run


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ff_file(tmp_path, ff):
    return _write(tmp_path / "ff.json", ff.to_json())


@pytest.fixture
def six_file(tmp_path, six_arrow):
    return _write(tmp_path / "six.json", six_arrow.to_json())


@pytest.fixture
def misplaced_file(tmp_path, misplaced_composition):
    return _write(tmp_path / "misplaced.json", misplaced_composition.to_json())


def test_check_flip_flop(ff_file, capsys):
    assert run(["check", ff_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "associative: true; minimal objects: 1; semigroupoid: true"


def test_check_reports_failing_triple(misplaced_file, capsys):
    assert run(["check", misplaced_file]) == 0
    out = capsys.readouterr().out.strip()
    assert "associative: false" in out
    assert "failing triple: (0, 0, 1)" in out
    assert "semigroupoid: false" in out


def test_infer_types_minimal(ff_file, capsys):
    assert run(["infer-types", ff_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(line) for line in out] == [
        {"m": 1, "doms": [0, 0, 0], "cods": [0, 0, 0]}
    ]


def test_infer_types_untypable_exits_one(tmp_path, associative_not_typable, capsys):
    path = _write(tmp_path / "untypable.json", associative_not_typable.to_json())
    assert run(["infer-types", path]) == 1


def test_infer_types_count(tmp_path, empty_three, capsys):
    path = _write(tmp_path / "empty3.json", empty_three.to_json())
    assert run(["infer-types", path, "--objects", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_infer_types_count_on_many_objects(tmp_path, empty_three, capsys):
    # The typings of the empty table colour K_{3,3}, domains against
    # codomains: its chromatic polynomial at 30, with the domains on j
    # objects and each codomain on one of the other 30 - j.
    path = _write(tmp_path / "empty3.json", empty_three.to_json())
    m = 30
    expected = sum(
        _stirling2(3, j) * math.perm(m, j) * (m - j) ** 3 for j in range(1, 4)
    )
    start = time.perf_counter()
    assert run(["infer-types", path, "--objects", str(m), "--count-only"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.strip() == str(expected)


def test_morphism_counts(six_file, capsys):
    assert run(["morphisms", six_file, six_file, "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert run(["morphisms", six_file, six_file, "--count-only", "--strict"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_morphisms_listing_is_sorted(six_file, capsys):
    assert run(["morphisms", six_file, six_file, "--strict"]) == 0
    images = json.loads(capsys.readouterr().out)
    assert images == sorted(images)
    assert len(images) == 6


def test_morphisms_no_solution_exits_one(tmp_path, z2, six_arrow, capsys):
    z2_file = _write(tmp_path / "z2.json", z2.to_json())
    six_file = _write(tmp_path / "six.json", six_arrow.to_json())
    assert run(["morphisms", z2_file, six_file, "--bijective"]) == 1


def test_morphisms_warns_on_nonassociative_target(
    tmp_path, loop_plus_stray, typable_not_associative, capsys
):
    source = _write(tmp_path / "src.json", loop_plus_stray.to_json())
    target = _write(tmp_path / "tgt.json", typable_not_associative.to_json())
    assert run(["morphisms", source, target]) == 0
    captured = capsys.readouterr()
    assert "not associative" in captured.err


def test_enumerate_tables_count(capsys):
    assert run(["enumerate-tables", "--size", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_enumerate_tables_size_5_count(capsys):
    start = time.perf_counter()
    assert run(["enumerate-tables", "--size", "5", "--count-only"]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out == "183732\n"


def _zero_rows_then_free_row(n):
    # Every row but the last pinned to the zero 0: the relabelings of
    # arrows 1..n-1 keep the grid.
    return {"n": n, "entries": [[0] * n] * (n - 1) + [["?"] * n]}


def test_enumerate_tables_count_of_a_nearly_filled_grid(tmp_path, capsys):
    small = _write(tmp_path / "small.json", _zero_rows_then_free_row(7))
    small = ["--size", "7", "--partial", small]
    assert run(["enumerate-tables", *small]) == 0
    listed = capsys.readouterr().out.count("\n")
    assert run(["enumerate-tables", *small, "--count-only"]) == 0
    assert capsys.readouterr().out == f"{listed}\n"
    # 7! relabelings keep the 8-arrow grid; its labeled count, 7380, took
    # 3.4 s when this test was written.
    large = _write(tmp_path / "large.json", _zero_rows_then_free_row(8))
    large = ["--size", "8", "--partial", large, "--count-only"]
    start = time.perf_counter()
    assert run(["enumerate-tables", *large]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "7380\n"


def test_enumerate_tables_partial(tmp_path, capsys):
    partial = _write(
        tmp_path / "partial.json", {"entries": [[0, "?"], ["?", "?"]]}
    )
    assert run(["enumerate-tables", "--size", "2", "--partial", partial]) == 0
    tables = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert tables
    assert all(t["entries"][0][0] == 0 for t in tables)


def test_arrowtypes_csv_row_sums(capsys):
    assert run(["arrowtypes", "--max-arrows", "4", "--emit-table", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    sums = [line.split(",")[-1] for line in lines[1:]]
    assert sums == ["2", "7", "21", "70"]


# Recorded before the md and csv tables were rendered from one list of rows.
ARROWTYPES_4_MD = """\
| arrows \\ objects | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | sum |
|---|---|---|---|---|---|---|---|---|---|
| 1 | 1 | 1 |  |  |  |  |  |  | 2 |
| 2 |  | 3 | 3 | 1 |  |  |  |  | 7 |
| 3 |  | 1 | 8 | 8 | 3 | 1 |  |  | 21 |
| 4 |  | 1 | 8 | 23 | 23 | 11 | 3 | 1 | 70 |
"""
ARROWTYPES_4_CSV = """\
arrows,1,2,3,4,5,6,7,8,sum
1,1,1,,,,,,,2
2,,3,3,1,,,,,7
3,,1,8,8,3,1,,,21
4,,1,8,23,23,11,3,1,70
"""
ARROWTYPES_3_2_MD = """\
| arrows \\ objects | 1 | 2 | sum |
|---|---|---|---|
| 1 | 1 | 1 | 2 |
| 2 |  | 3 | 3 |
| 3 |  | 1 | 1 |
"""
ARROWTYPES_3_2_CSV = """\
arrows,1,2,sum
1,1,1,2
2,,3,3
3,,1,1
"""


@pytest.mark.parametrize(
    "bounds, emit, expected",
    [
        (["--max-arrows", "4"], "md", ARROWTYPES_4_MD),
        (["--max-arrows", "4"], "csv", ARROWTYPES_4_CSV),
        (["--max-arrows", "3", "--max-objects", "2"], "md", ARROWTYPES_3_2_MD),
        (["--max-arrows", "3", "--max-objects", "2"], "csv", ARROWTYPES_3_2_CSV),
    ],
)
def test_arrowtypes_table_golden_output(bounds, emit, expected, capsys):
    assert run(["arrowtypes", *bounds, "--emit-table", emit]) == 0
    assert capsys.readouterr().out == expected


def test_arrowtypes_methods_agree(capsys):
    outputs = []
    for method in ("closure", "incremental", "brute"):
        assert run(
            ["arrowtypes", "--max-arrows", "3", "--method", method,
             "--emit-table", "json"]
        ) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["row_sums"] == [2, 7, 21]


# SHA-256 of the files saved by `arrowtypes --max-arrows 6 --db D` (per file
# in name order: name, NUL, contents, NUL) and of its stdout, recorded
# before the database was keyed by canonical form.
CENSUS6_DB_SHA256 = "c403311c8742a44b596ff0870c27b3b226e798b850a5206a32c2ab78fdf25d47"
CENSUS6_STDOUT_SHA256 = "a10c3050c62d294dcb626b34f6e14c81f14a99b72398f6a183d3655246ecf566"


def _tree_sha256(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_arrowtypes_saved_database_is_byte_stable(tmp_path, capsys):
    # From scratch, and staged: the 6-arc build then extends a preloaded
    # database whose rows 1-4 are stored on at most 3 objects.
    staged = ["--max-arrows", "4", "--max-objects", "3"]
    for name, first in (("fresh", None), ("staged", staged)):
        db_dir = tmp_path / name
        if first:
            assert run(["arrowtypes", *first, "--db", str(db_dir)]) == 0
            capsys.readouterr()
        for _ in range(2):  # build, then rerun on the populated database
            assert run(["arrowtypes", "--max-arrows", "6", "--db", str(db_dir)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == CENSUS6_STDOUT_SHA256
            assert len(list(db_dir.iterdir())) == 37
            assert _tree_sha256(db_dir) == CENSUS6_DB_SHA256


def test_arrowtypes_db_persistence(tmp_path, capsys):
    db_dir = str(tmp_path / "db")
    assert run(["arrowtypes", "--max-arrows", "3", "--db", db_dir]) == 0
    first = capsys.readouterr().out
    # Extending a saved database reuses it.
    assert run(["arrowtypes", "--max-arrows", "4", "--db", db_dir]) == 0
    second = capsys.readouterr().out
    assert "70" in second and first != second


def _row_sums(argv, capsys):
    code = run(argv + ["--emit-table", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)["row_sums"] if code == 0 else None


@pytest.mark.parametrize("method", ["closure", "incremental", "brute"])
def test_arrowtypes_restricted_database_is_not_reused_past_its_range(
    method, tmp_path, capsys
):
    # A database built on at most 2 objects holds rows 1-3 only partly; a
    # full request either completes them or is refused, never counted short.
    db_dir = str(tmp_path / "db")
    assert _row_sums(
        ["arrowtypes", "--max-arrows", "3", "--max-objects", "2", "--db", db_dir],
        capsys,
    ) == (0, [2, 3, 1])
    code, sums = _row_sums(
        ["arrowtypes", "--max-arrows", "3", "--method", method, "--db", db_dir],
        capsys,
    )
    assert (code, sums) in ((0, [2, 7, 21]), (2, None))


def test_arrowtypes_restricted_extension_is_not_full_coverage(tmp_path, capsys):
    db_dir = str(tmp_path / "db")
    assert _row_sums(["arrowtypes", "--max-arrows", "3", "--db", db_dir], capsys)[0] == 0
    assert _row_sums(
        ["arrowtypes", "--max-arrows", "5", "--max-objects", "2", "--db", db_dir],
        capsys,
    ) == (0, [2, 3, 1, 1, 0])
    # Rows 4 and 5 are stored on at most 2 objects only.
    for objects, sums in (("6", [2, 7, 21, 66, 171]), ("10", [2, 7, 21, 70, 218])):
        assert _row_sums(
            ["arrowtypes", "--max-arrows", "5", "--max-objects", objects,
             "--method", "incremental", "--db", db_dir],
            capsys,
        ) == (0, sums)


def test_arrowtypes_covered_rerun_only_loads(tmp_path, capsys, monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    db_dir = tmp_path / "db"
    argv = ["arrowtypes", "--max-arrows", "5", "--db", str(db_dir)]
    assert run(argv) == 0
    first = capsys.readouterr().out
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in db_dir.iterdir()}
    calls = []
    original = arrowtype.canonical_form

    def counting(graph):
        calls.append(1)
        return original(graph)

    monkeypatch.setattr(arrowtype, "canonical_form", counting)
    arrowtype.ClassDatabase.load(db_dir)
    loading = len(calls)
    assert loading == 1 + 2 + 7 + 21 + 70 + 218
    calls.clear()
    for extra in ([], ["--max-objects", "4"], ["--max-arrows", "3"]):
        assert run(argv + extra) == 0
        assert len(calls) == loading
        calls.clear()
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in db_dir.iterdir()}
    assert after == before  # not rewritten


@pytest.mark.parametrize(
    "argv, searches",
    [
        (["--max-arrows", "7"], 4536),
        (["--method", "incremental", "--max-arrows", "6"], 1372),
    ],
    ids=["closure-7", "incremental-6"],
)
def test_arrowtypes_canonical_form_searches_are_pinned(
    argv, searches, tmp_path, capsys, monkeypatch
):
    # One search per child offered.  Each class is extended by one arc per
    # orbit of its twin permutations, and a child is offered only when its
    # new arc is a canonical deletion: a count above these means the census
    # canonicalises isomorphic children again.
    import sgpoidkit.arrowtype as arrowtype

    calls = []
    original = arrowtype.canonical_form

    def counting(graph):
        calls.append(1)
        return original(graph)

    monkeypatch.setattr(arrowtype, "canonical_form", counting)
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    assert run(["arrowtypes", "--db", str(db_dir), "--emit-table", "json"] + argv) == 0
    sums = json.loads(capsys.readouterr().out)["row_sums"]
    assert sums == [2, 7, 21, 70, 218, 721, 2360][: len(sums)]
    assert len(calls) == searches


def test_arrowtypes_extension_inserts_only_the_new_row(tmp_path, capsys, monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    db_dir = str(tmp_path / "db")
    assert run(["arrowtypes", "--max-arrows", "5", "--db", db_dir]) == 0
    inserted = []
    original = arrowtype.ClassDatabase.insert

    def recording_insert(self, graph):
        inserted.append(len(arrowtype._arcset(graph)))
        return original(self, graph)

    monkeypatch.setattr(arrowtype.ClassDatabase, "insert", recording_insert)
    assert run(["arrowtypes", "--max-arrows", "6", "--db", db_dir]) == 0
    loading = 1 + 2 + 7 + 21 + 70 + 218  # one insert per stored class
    assert max(inserted[:loading]) == 5
    assert set(inserted[loading:]) == {6}


def test_arrowtypes_incremental_refuses_nine_arrows_at_once(capsys):
    start = time.perf_counter()
    for extra in (["--max-objects", "3"], []):
        argv = ["arrowtypes", "--method", "incremental", "--max-arrows", "9"]
        assert run(argv + extra) == 2
        assert "complete graph on three objects" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "bounds",
    [
        ["--max-arrows", "2", "--max-objects", "0"],
        ["--max-arrows", "0"],
        ["--max-arrows", "-1"],
        ["--max-arrows", "2", "--max-objects", "-3"],
    ],
)
def test_arrowtypes_bounds_below_one_exit_two(bounds, capsys):
    assert run(["arrowtypes"] + bounds) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"count {bounds[-1]} is not an int of at least 1" in captured.err


def test_arrowtypes_db_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SGPOIDKIT_DB", str(tmp_path / "envdb"))
    assert run(["arrowtypes", "--max-arrows", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envdb" / "meta.json").exists()


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_arrowtypes_db_path_that_is_a_file_exits_two(via_env, tmp_path, capsys, monkeypatch):
    # Refused before any search, not after the census when saving fails.
    import sgpoidkit.cli as cli

    def no_census(*args):
        raise AssertionError("the census ran")

    monkeypatch.setattr(cli, "extend_census", no_census)
    path = tmp_path / "db"
    path.write_text("")
    argv = ["arrowtypes", "--max-arrows", "2"]
    if via_env:
        monkeypatch.setenv("SGPOIDKIT_DB", str(path))
    else:
        argv += ["--db", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{str(path)!r} is not a directory" in captured.err


def test_benchmark_reaches_every_name_it_traces(monkeypatch):
    # perfbench/run.py reads each per-layer metric from a function that its
    # tracer wraps by name, so a deleted or renamed one raises KeyError here;
    # perfbench/make_expected.py calls enumerate_by_closure.
    import sgpoidkit.cli  # the tracer wraps the layers it imports

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    for name in ("run", "tracing", "harness", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    bench = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    with tracing.Tracer() as tracer:
        pass
    for name, _, _, get in bench.PER_LAYER:
        get(tracer)
    assert callable(sgpoidkit.enumerate_by_closure)


def test_generate_vessels(tmp_path, vessels, capsys):
    degrees, gens = vessels
    path = _write(
        tmp_path / "gens.json",
        {"degrees": list(degrees), "generators": [g.to_json() for g in gens]},
    )
    assert run(["generate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["arrows"]) == 16
    assert payload["table"]["n"] == 16


def test_generate_refuses_the_full_monoid_on_six_states(tmp_path, capsys):
    # The 6-cycle, a transposition and one collapse generate T_6, whose
    # table would have 2.2 G cells.
    gens = [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]]
    path = _write(
        tmp_path / "gens.json",
        {
            "degrees": [6],
            "generators": [{"dom": 0, "cod": 0, "map": g} for g in gens],
        },
    )
    start = time.perf_counter()
    assert run(["generate", path]) == 3
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit 10000000 cells" in captured.err


@pytest.mark.parametrize(
    "degrees", ["ab", [0], [-1], [2.5], [True]], ids=repr
)
def test_generate_refuses_invalid_degrees(degrees, tmp_path, capsys):
    path = _write(tmp_path / "gens.json", {"degrees": degrees, "generators": []})
    assert run(["generate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an integer of at least 1" in captured.err


def test_represent_minimal(tmp_path, z2, capsys):
    path = _write(tmp_path / "z2.json", z2.to_json())
    assert run(["represent", path, "--minimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degrees"] == [2]
    assert payload["graph"]["arcs"] == [[0, 0]]
    assert len(payload["images"]) == 2


# Recorded before full targets were built by index arithmetic; the 3-arrow
# null semigroup needs the 256-arrow monoid T_4.
NULL3_MINIMAL = (
    '{"arrows": [{"cod": 0, "dom": 0, "map": [0, 0, 0, 0]}, '
    '{"cod": 0, "dom": 0, "map": [0, 0, 0, 1]}, '
    '{"cod": 0, "dom": 0, "map": [0, 0, 0, 2]}], '
    '"degrees": [4], "graph": {"arcs": [[0, 0]], "m": 1}, '
    '"images": [0, 1, 2]}\n'
)


def test_represent_minimal_golden_output(tmp_path, capsys):
    path = _write(tmp_path / "null3.json", {"n": 3, "entries": [[0] * 3] * 3})
    assert run(["represent", path, "--minimal"]) == 0
    assert capsys.readouterr().out == NULL3_MINIMAL


def test_represent_minimal_refuses_the_table_with_no_arrows(tmp_path, capsys):
    path = _write(tmp_path / "empty.json", {"entries": []})
    assert run(["represent", path, "--minimal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: the table with no arrows" in captured.err


def test_represent_strict_is_a_usage_error(tmp_path, capsys):
    # Strict embedding is the default, so there is no --strict flag.
    table = _write(tmp_path / "z.json", {"n": 1, "entries": [[0]]})
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    argv = ["represent", table, "--graph", graph, "--degrees", "1"]
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--strict"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    assert run(argv + ["--permissive"]) == 0


@pytest.mark.parametrize(
    "extra", [["--permissive"], ["--graph", "g.json"], ["--degrees", "2"]]
)
def test_represent_minimal_refuses_explicit_target_flags(extra, tmp_path, capsys):
    table = _write(tmp_path / "z.json", {"n": 1, "entries": [[0]]})
    assert run(["represent", table, "--minimal"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--minimal takes no" in captured.err


def test_represent_oversized_target_exits_three(tmp_path, capsys):
    # T_6 has 46656 arrows and a 2.2 G-cell table; it is refused unbuilt.
    table = _write(tmp_path / "z.json", {"n": 1, "entries": [[0]]})
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    start = time.perf_counter()
    assert run(["represent", table, "--graph", graph, "--degrees", "6"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "46656 arrows" in err and "2176782336 table cells" in err


@pytest.mark.parametrize("permissive", [False, True])
def test_represent_largest_allowed_target(permissive, tmp_path, capsys):
    # T_5, 3125 arrows and 9.8 M table cells, is the largest target the
    # guard accepts; the search reads only the cells it tests.
    table = _write(tmp_path / "t.json", {"entries": [[0] * 3] * 3})
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    argv = ["represent", table, "--graph", graph, "--degrees", "5"]
    assert run(argv + ["--permissive"] * permissive) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["degrees"], payload["images"]) == ([5], [0, 1, 2])


@pytest.mark.parametrize("degrees", ["2,x", ","])
def test_represent_refuses_non_integer_degrees(degrees, tmp_path, capsys):
    table = _write(tmp_path / "z.json", {"n": 1, "entries": [[0]]})
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    assert run(["represent", table, "--graph", graph, "--degrees", degrees]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--degrees takes comma-separated integers" in captured.err


def test_represent_explicit_target(tmp_path, six_arrow, capsys):
    table = _write(tmp_path / "six.json", six_arrow.to_json())
    graph = _write(
        tmp_path / "graph.json", {"m": 2, "arcs": [[0, 0], [0, 1], [1, 1]]}
    )
    assert run(
        ["represent", table, "--graph", graph, "--degrees", "2,2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["arrows"]) == 6

    isolated = _write(
        tmp_path / "isolated.json", {"m": 2, "arcs": [[0, 0], [1, 1]]}
    )
    assert run(
        ["represent", table, "--graph", isolated, "--degrees", "2,2"]
    ) == 1


# stdout digests (exit code, SHA-256) of `represent --graph` on one loop
# with --degrees 4 (the 256-arrow T_4), recorded while the target's whole
# table was still built before the search.
T4_GRAPH_OUTPUT = {
    ("null3", False): (0, "7450833fb49817a9ee12fd010c1f7a61163f00c9bce4840c776d51fd2f8e78b1"),
    ("z2", False): (0, "79b9119a0fdb655c09614d4f3fb0fce3aee8ab028d37aee9c8dfa21c9a27cf62"),
    ("flip-flop", False): (0, "41fa525db8a57d72e81643a3bee04693388cd9775d5edcef7e1f38c91396d0ed"),
    ("six-arrow", False): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("six-arrow", True): (0, "77d81009d8fbf40db45b9998f8c3034d883558fbc98bcb5a5c7e2444db0777e1"),
}


@pytest.mark.parametrize("name, permissive", sorted(T4_GRAPH_OUTPUT))
def test_represent_on_t4_is_unchanged(name, permissive, tmp_path, capsys, request):
    tables = {
        "null3": {"entries": [[0] * 3] * 3},
        "z2": request.getfixturevalue("z2").to_json(),
        "flip-flop": request.getfixturevalue("ff").to_json(),
        "six-arrow": request.getfixturevalue("six_arrow").to_json(),
    }
    table = _write(tmp_path / "t.json", tables[name])
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    argv = ["represent", table, "--graph", graph, "--degrees", "4"]
    code = run(argv + ["--permissive"] * permissive)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == T4_GRAPH_OUTPUT[name, permissive]


def test_emitted_json_round_trips_between_subcommands(tmp_path, capsys):
    # Tables printed by enumerate-tables are accepted by check.
    assert run(["enumerate-tables", "--size", "2", "--allow-nc"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table_file = tmp_path / "emitted.json"
    table_file.write_text(lines[0])
    assert run(["check", str(table_file)]) == 0
    capsys.readouterr()

    # Arrows printed by generate are accepted back as generators and
    # regenerate the same closed set.
    gens_file = _write(
        tmp_path / "gens.json",
        {
            "degrees": [2],
            "generators": [{"dom": 0, "cod": 0, "map": [1, 0]}],
        },
    )
    assert run(["generate", str(gens_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    again = _write(
        tmp_path / "gens2.json",
        {"degrees": payload["degrees"], "generators": payload["arrows"]},
    )
    assert run(["generate", str(again)]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_count_only_matches_listing_length(six_file, capsys):
    assert run(["morphisms", six_file, six_file, "--count-only"]) == 0
    count = int(capsys.readouterr().out)
    assert run(["morphisms", six_file, six_file]) == 0
    assert len(json.loads(capsys.readouterr().out)) == count

    assert run(["enumerate-tables", "--size", "2", "--count-only"]) == 0
    count = int(capsys.readouterr().out)
    assert run(["enumerate-tables", "--size", "2"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == count


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "entries": [[0, 1')
    assert run(["check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert run(["check", "/nonexistent/table.json"]) == 2


def test_minus_one_entry_exits_two(tmp_path, capsys):
    path = _write(tmp_path / "bad.json", {"n": 1, "entries": [[-1]]})
    assert run(["check", path]) == 2
    assert "-1" in capsys.readouterr().err
    # A partial table reads its cells by the same rule.
    assert run(["enumerate-tables", "--size", "1", "--partial", path]) == 2
    assert "-1" in capsys.readouterr().err


GRAPH_ARGV = ["represent", "t.json", "--graph", "g.json", "--degrees", "1"]
DB_ARGV = ["arrowtypes", "--max-arrows", "2", "--db", "db"]


@pytest.mark.parametrize(
    "name, payload, argv",
    [
        ("g.json", {"arcs": [[0]]}, GRAPH_ARGV),
        ("g.json", {"arcs": [[[1], [1]]]}, GRAPH_ARGV),
        ("g.json", {"arcs": 5}, GRAPH_ARGV),
        ("t.json", [1, 2], ["check", "t.json"]),
        ("t.json", {"entries": [[0, 1], 5]}, ["check", "t.json"]),
        (
            "gens.json",
            {"degrees": [2], "generators": [{"dom": "0", "cod": 0, "map": [1, 0]}]},
            ["generate", "gens.json"],
        ),
        (
            "gens.json",
            {"degrees": [2], "generators": [{"dom": 0, "cod": 0, "map": 5}]},
            ["generate", "gens.json"],
        ),
        (
            "db/nodes01_arcs001.json",
            {"node_count": 1, "arc_count": 1, "classes": [[[0]]]},
            ["arrowtypes", "--max-arrows", "2", "--db", "db"],
        ),
        ("db/nodes01_arcs001.json", [1], DB_ARGV),
        ("db/nodes01_arcs001.json", {"classes": 5}, DB_ARGV),
        ("db/meta.json", [1], DB_ARGV),
        ("db/meta.json", {"complete_arrows": "x"}, DB_ARGV),
        ("gens.json", {"degrees": [2], "generators": 5}, ["generate", "gens.json"]),
        (
            "gens.json",
            {"degrees": [2], "generators": [[0, 0, [1, 0]]]},
            ["generate", "gens.json"],
        ),
        (
            "gens.json",
            {"degrees": [2], "generators": [{"dom": 0, "cod": 0, "map": [True, False]}]},
            ["generate", "gens.json"],
        ),
        ("db/nodes02_arcs002.json", {"classes": [[[0, 1], [1, 0]]]}, DB_ARGV),
        # State -1 would read as the last state.
        (
            "gens.json",
            {"degrees": [2], "generators": [{"dom": 0, "cod": 0, "map": [-1, 0]}]},
            ["generate", "gens.json"],
        ),
        # A partial table's declared n must match its rows, as a table's must.
        (
            "p.json",
            {"n": 3, "entries": [[0] * 5] * 2 + [["?"] * 5] * 3},
            ["enumerate-tables", "--size", "5", "--partial", "p.json", "--count-only"],
        ),
    ],
)
def test_malformed_input_files_exit_two(
    name, payload, argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "db").mkdir()
    _write(tmp_path / "t.json", {"n": 1, "entries": [[0]]})
    _write(tmp_path / name, payload)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_resource_guard_exits_three(tmp_path, capsys, monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 10)
    assert run(["arrowtypes", "--max-arrows", "3", "--method", "brute"]) == 3
    assert "limit" in capsys.readouterr().err


def test_parser_reuse_keeps_outputs(ff_file, capsys):
    # One parser serves every run: usage errors, --version and flag
    # conflicts read the same on each run, and earlier runs leave no state.
    def usage_error(argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        captured = capsys.readouterr()
        return excinfo.value.code, captured.out, captured.err

    first = [
        usage_error(["check"]),
        usage_error(["arrowtypes", "--max-arrows", "2", "--jobs", "2"]),
        usage_error(["--version"]),
        usage_error(["represent", ff_file, "--strict", "--permissive"]),
    ]
    assert [code for code, _, _ in first] == [2, 2, 0, 2]
    assert first[0][2].startswith("usage: sgpoidkit check [-h] table\n")
    assert "unrecognized arguments: --jobs 2" in first[1][2]
    assert first[2][1] == "sgpoidkit 0.1.0\n"
    assert run(["infer-types", ff_file, "--count-only"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["infer-types", ff_file]) == 0
    assert capsys.readouterr().out.count("\n") == 1
    second = [
        usage_error(["check"]),
        usage_error(["arrowtypes", "--max-arrows", "2", "--jobs", "2"]),
        usage_error(["--version"]),
        usage_error(["represent", ff_file, "--strict", "--permissive"]),
    ]
    assert second == first


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("sgpoidkit ")
