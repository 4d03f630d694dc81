import json

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
    assert run(["infer-types", ff_file, "--minimal"]) == 0
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


def test_arrowtypes_jobs_output_identical(capsys):
    assert run(
        ["arrowtypes", "--max-arrows", "3", "--method", "brute",
         "--emit-table", "csv"]
    ) == 0
    sequential = capsys.readouterr().out
    assert run(
        ["arrowtypes", "--max-arrows", "3", "--method", "brute",
         "--emit-table", "csv", "--jobs", "3"]
    ) == 0
    assert capsys.readouterr().out == sequential


def test_arrowtypes_db_persistence(tmp_path, capsys):
    db_dir = str(tmp_path / "db")
    assert run(["arrowtypes", "--max-arrows", "3", "--db", db_dir]) == 0
    first = capsys.readouterr().out
    # Extending a saved database reuses it.
    assert run(["arrowtypes", "--max-arrows", "4", "--db", db_dir]) == 0
    second = capsys.readouterr().out
    assert "70" in second and first != second


def test_arrowtypes_db_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SGPOIDKIT_DB", str(tmp_path / "envdb"))
    assert run(["arrowtypes", "--max-arrows", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envdb" / "meta.json").exists()


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


def test_represent_strict_and_permissive_exclude_each_other(tmp_path, capsys):
    table = _write(tmp_path / "z.json", {"n": 1, "entries": [[0]]})
    graph = _write(tmp_path / "loop.json", {"m": 1, "arcs": [[0, 0]]})
    argv = ["represent", table, "--graph", graph, "--degrees", "1"]
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--strict", "--permissive"])
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert run(argv + ["--permissive"]) == 0


def test_represent_explicit_target(tmp_path, six_arrow, capsys):
    table = _write(tmp_path / "six.json", six_arrow.to_json())
    graph = _write(
        tmp_path / "graph.json", {"m": 2, "arcs": [[0, 0], [0, 1], [1, 1]]}
    )
    assert run(
        ["represent", table, "--graph", graph, "--degrees", "2,2", "--strict"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["arrows"]) == 6

    isolated = _write(
        tmp_path / "isolated.json", {"m": 2, "arcs": [[0, 0], [1, 1]]}
    )
    assert run(
        ["represent", table, "--graph", isolated, "--degrees", "2,2"]
    ) == 1


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


def test_resource_guard_exits_three(tmp_path, capsys, monkeypatch):
    import sgpoidkit.arrowtype as arrowtype

    monkeypatch.setattr(arrowtype, "BRUTE_FORCE_LIMIT", 10)
    assert run(["arrowtypes", "--max-arrows", "3", "--method", "brute"]) == 3
    assert "limit" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("sgpoidkit ")
