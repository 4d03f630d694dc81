"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types

import pytest

import harness
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def oracles():
    return harness.load_oracles()


@pytest.fixture()
def cli():
    return harness.import_package()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["tables", "queries"])
def test_inputs_repeat_for_a_seed(name, tmp_path, oracles):
    made = []
    for sub in ("a", "b", "c"):
        directory = tmp_path / sub
        directory.mkdir()
        workload = workloads.WORKLOADS[name](7 if sub != "c" else 8, directory, oracles)
        workloads.write_inputs(workload)
        argvs = [[arg.replace(str(directory), "") for arg in call.argv]
                 for call in workload.pass_calls(0)]
        made.append((_files(directory), argvs))
    assert made[0] == made[1]
    if name == "queries":  # the tables seed only picks among few relabelings
        assert made[0] != made[2]


def _bumping_cli(cli, subcommand):
    """A stand-in CLI whose counts for one subcommand are off by one."""

    def fake_run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv)
        text = out.getvalue()
        if argv[0] == subcommand and text.strip().isdigit():
            text = f"{int(text) + 1}\n"
        sys.stdout.write(text)
        return rc

    return types.SimpleNamespace(run=fake_run)


def test_corrupted_output_makes_fail_rate_nonzero(tmp_path, cli, oracles):
    workload = workloads.Queries(3, tmp_path, oracles)
    workloads.write_inputs(workload)
    workload.calls = workload.calls[:40]  # check and infer-types on 20 tables
    typable = sum(1 for e in workload.corpus[:20] if e.min_objects)

    honest = run.Runner(cli, workload)
    honest.run_pass(0)
    assert honest.failed == 0

    corrupted = run.Runner(_bumping_cli(cli, "infer-types"), workload)
    corrupted.run_pass(0)
    assert corrupted.failed == typable > 0
    assert all(argv[0] == "infer-types" for argv, _, _ in corrupted.failures)


def _bindings():
    """Identity of every name bound in the package's modules and in the
    classes the tracer patches."""
    found = {}
    for name, module in sys.modules.items():
        if name.split(".")[0] == "sgpoidkit":
            for attr, value in vars(module).items():
                found[(name, attr)] = id(value)
    for cls in (sys.modules["sgpoidkit.arrowtype"].ClassDatabase,
                sys.modules["sgpoidkit.search"].Problem):
        for attr, value in vars(cls).items():
            found[(cls.__name__, attr)] = id(value)
    return found


def _traced_calls(cli, tmp_path):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"n": 3, "entries": [[0, 1, 2], [1, 1, 2], [2, 1, 2]]}))
    db = str(tmp_path / "db")
    calls = [
        ["arrowtypes", "--max-arrows", "3", "--db", db],
        ["arrowtypes", "--max-arrows", "3", "--db", db],
        ["arrowtypes", "--method", "brute", "--max-arrows", "2"],
        ["enumerate-tables", "--size", "2", "--allow-nc", "--count-only"],
        ["check", str(table)],
        ["morphisms", str(table), str(table), "--strict", "--count-only"],
        ["represent", str(table), "--minimal"],
    ]
    for argv in calls:
        assert harness.invoke(cli, argv).rc == 0


def test_wrappers_are_removed_after_the_traced_run(cli, tmp_path):
    before = _bindings()
    search = sys.modules["sgpoidkit.search"]
    original = search.solve_all
    with tracing.Tracer():
        wrapped = search.solve_all
        assert wrapped is not original
        # One wrapper, rebound under every module name that imports it.
        for layer in ("tables", "typestructure", "morphisms", "arrowtype"):
            assert sys.modules[f"sgpoidkit.{layer}"].solve_all is wrapped
        assert sys.modules["sgpoidkit"].solve_all is wrapped
        _traced_calls(cli, tmp_path)
    assert _bindings() == before

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_spans_nest_and_self_times_are_not_negative(cli, tmp_path):
    with tracing.Tracer() as tracer:
        _traced_calls(cli, tmp_path)
    spans = {sid: row for sid, *row in tracer.span_rows()}
    assert len(spans) == len(tracer.spans) // 6 > 100
    child_time = dict.fromkeys(spans, 0)
    for sid, (parent, request, name, start, end) in spans.items():
        assert start <= end
        if parent < 0:
            assert name == "cli.run"
            continue
        p_parent, p_request, _, p_start, p_end = spans[parent]
        assert p_start <= start and end <= p_end
        assert request == p_request
        child_time[parent] += end - start
    for sid, (_, _, _, start, end) in spans.items():
        assert end - start - child_time[sid] >= 0
    assert all(stat.self_ns >= 0 for stat in tracer.stats.values())
    assert len({row[1] for row in spans.values()}) == 7  # one request per CLI call
    for name in ("arrowtype.insert", "arrowtype.load", "arrowtype.save",
                 "arrowtype.closure", "arrowtype.brute_force", "genrep.derive_table",
                 "tables.enumerate", "morphisms.find_morphisms"):
        assert tracer.stats[name].calls > 0, name
    # Self times add up to the time of the top-level calls.
    top = sum(end - start for parent, _, _, start, end in spans.values() if parent < 0)
    assert sum(stat.self_ns for stat in tracer.stats.values()) == top


def test_benchmark_json_matches_the_runner():
    assert json.loads(run.SPEC_FILE.read_text()) == run.spec()
