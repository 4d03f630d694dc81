"""Benchmark for sgpoidkit: fixed CLI runs, made in-process through
``sgpoidkit.cli.run(argv)`` with the output captured and verified.

    python3 perfbench/run.py --workload census|tables|queries \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # rewrite BENCHMARK.json

Calls are driven closed loop: one caller in one process, no threads, and
each call starts only after the previous one has returned and been
verified.  Verification is not timed.

With ``--trace 0`` the workload's passes repeat while another pass is
expected to end within ``--seconds`` (there is always at least one), and
the end-to-end metrics are reported: medians over passes, percentiles over
all calls of the run.
With ``--trace 1`` one pass runs under the tracer, which wraps the
package's layers from outside, then one pass runs with every wrapper
removed; the per-layer metrics come from the first pass and the tracing
overhead is the difference of the two pass times.  Spans go to
``perfbench/_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print the same metrics
for people, with figures that are not gated: the median time of each kind
of call (on census, ``census_build_s`` and ``census_rerun_s``), tables per
second on tables, and the failure rate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC_FILE = harness.ROOT / "BENCHMARK.json"
RUN_SECONDS = 40
SETUP_REPEATS = 9

WORKLOADS = {
    "census": "arrowtype census by all three methods: mostly-duplicate inserts of the "
              "closure build, the all-new inserts of load on rerun, the brute-force scan",
    "tables": "deep solver search in search and tables: size-4 count, size-3 NC listing, "
              "seeded size-5 partial table; no arrowtype or genrep",
    "queries": "about 1.4k small calls on a seeded corpus of 512 relabeled tables: check, "
               "infer-types, morphisms, represent --minimal, generate",
}

# name, unit, bound: the share of the parent's median by which the metric
# may get worse before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("call_p50_ms", "ms", 0.25),
    ("call_p99_ms", "ms", 0.25),
)


def _calls(name):
    return lambda t: t.stats[name].calls


def _self(name):
    return lambda t: t.stats[name].self_ns / 1e9


def _yields(name):
    return lambda t: t.stats[name].yields


def _tally(name, key):
    return lambda t: t.stats[name].tallies.get(key, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


_TARGETS = _calls("genrep.full_transformation_sgpoid")

# name, unit, better, value from a finished tracer.  README.md maps each to
# the end-to-end metric and workload it should move.
PER_LAYER = (
    ("cli.calls", "count", "lower", _calls("cli.run")),
    ("cli.self_s", "s", "lower", lambda t: t.layer_self_seconds("cli")),
    ("search.solve_all.calls", "count", "lower", _calls("search.solve_all")),
    ("search.solve_all.self_s", "s", "lower", _self("search.solve_all")),
    ("search.solutions", "count", "lower", _yields("search.solve_all")),
    ("search.constraints_built", "count", "lower", lambda t: t.constraints_built),
    ("search.constraint_tests", "count", "lower", lambda t: t.constraint_tests),
    ("tables.enumerate.self_s", "s", "lower", _self("tables.enumerate")),
    ("tables.enumerate.tables", "count", "higher", _yields("tables.enumerate")),
    ("tables.first_nonassociative_triple.self_s", "s", "lower",
     _self("tables.first_nonassociative_triple")),
    ("typestructure.minimal_objects.calls", "count", "lower",
     _calls("typestructure.minimal_objects")),
    ("typestructure.minimal_objects.self_s", "s", "lower",
     _self("typestructure.minimal_objects")),
    ("typestructure.infer_types.self_s", "s", "lower", _self("typestructure.infer_types")),
    ("morphisms.find_morphisms.calls", "count", "lower", _calls("morphisms.find_morphisms")),
    ("morphisms.find_morphisms.self_s", "s", "lower", _self("morphisms.find_morphisms")),
    ("morphisms.find_morphisms.solutions", "count", "higher",
     _yields("morphisms.find_morphisms")),
    ("arrowtype.insert.calls", "count", "lower", _calls("arrowtype.insert")),
    ("arrowtype.insert.new", "count", "higher", _tally("arrowtype.insert", "new")),
    ("arrowtype.insert.new_ratio", "ratio", "higher",
     _ratio(_tally("arrowtype.insert", "new"), _calls("arrowtype.insert"))),
    ("arrowtype.insert.self_s", "s", "lower", _self("arrowtype.insert")),
    ("arrowtype.signature.self_s", "s", "lower", _self("arrowtype.signature")),
    ("arrowtype.isomorphism.calls", "count", "lower", _calls("arrowtype.isomorphism")),
    ("arrowtype.isomorphism.self_s", "s", "lower", _self("arrowtype.isomorphism")),
    ("arrowtype.canonical_form.calls", "count", "lower", _calls("arrowtype.canonical_form")),
    ("arrowtype.canonical_form.self_s", "s", "lower", _self("arrowtype.canonical_form")),
    ("arrowtype.closure.calls", "count", "lower", _calls("arrowtype.closure")),
    ("arrowtype.closure.self_s", "s", "lower", _self("arrowtype.closure")),
    ("arrowtype.brute_force.self_s", "s", "lower", _self("arrowtype.brute_force")),
    ("arrowtype.load.self_s", "s", "lower", _self("arrowtype.load")),
    ("arrowtype.save.self_s", "s", "lower", _self("arrowtype.save")),
    ("genrep.minimal_representation.calls", "count", "lower",
     _calls("genrep.minimal_representation")),
    ("genrep.minimal_representation.self_s", "s", "lower",
     _self("genrep.minimal_representation")),
    ("genrep.targets_built", "count", "lower", _TARGETS),
    ("genrep.target_hit_ratio", "ratio", "higher",
     _ratio(lambda t: t.stats["genrep.minimal_representation"].returned, _TARGETS)),
    ("genrep.derive_table.self_s", "s", "lower", _self("genrep.derive_table")),
    ("genrep.derive_table.cells", "count", "lower", _tally("genrep.derive_table", "cells")),
    ("genrep.embed.self_s", "s", "lower", _self("genrep.embed")),
    ("genrep.generate.self_s", "s", "lower", _self("genrep.generate")),
)
# Reported by the traced run itself rather than read from the tracer.
TRACE_OWN = (("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"))


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b in [row[:3] for row in PER_LAYER] + list(TRACE_OWN)
        ],
    }


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    """Runs passes of one workload and keeps a record of every call."""

    def __init__(self, cli, workload) -> None:
        self.cli = cli
        self.workload = workload
        self.records: list = []  # (label, seconds, ok)
        self.failures: list = []

    def run_pass(self, k: int) -> float:
        """One pass; returns the sum of its call times."""
        calls = self.workload.pass_calls(k)
        gc.collect()
        total = 0.0
        for call in calls:
            outcome = harness.invoke(self.cli, call.argv)
            try:
                ok = bool(call.check(outcome.rc, outcome.stdout))
            except Exception:  # unparsable output is a failed call
                ok = False
            if not ok:
                self.failures.append((call.argv, outcome.rc, outcome.error))
            self.records.append((call.label, outcome.seconds, ok))
            total += outcome.seconds
        return total

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok in self.records)

    def seconds(self, label=None) -> list:
        return [s for lab, s, _ in self.records if label is None or lab == label]


def set_up(name: str, seed: int, workdir: Path, oracles):
    """Import the package and make the inputs, several times; returns the
    last import and inputs, written to ``workdir``, and the median set-up
    time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = harness.import_package()
        workload = workloads.WORKLOADS[name](seed, workdir, oracles)
        times.append(time.perf_counter() - start)
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(workload)
    return cli, workload, statistics.median(times)


def measure(runner: Runner, seconds: float, setup_s: float) -> tuple:
    """End-to-end metrics, and the workload's own figures for people."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(runner.run_pass(len(passes)))
        now = time.perf_counter()
        if now + (now - began) > deadline:  # the next pass would overrun
            break
    latencies = runner.seconds()
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "call_p50_ms": 1000 * percentile(latencies, 50),
        "call_p99_ms": 1000 * percentile(latencies, 99),
    }
    extra = {"passes": (len(passes), "count"), "calls": (len(latencies), "count")}
    # Median time of each kind of call; for census this gives census_build_s
    # (the first closure build on an empty database) and census_rerun_s.
    for label in dict.fromkeys(label for label, _, _ in runner.records):
        extra[f"{label}_s"] = (statistics.median(runner.seconds(label)), "s")
    if runner.workload.name == "tables":
        emitted = workloads.TABLES_PER_PASS * len(passes)
        extra["tables_per_s"] = (emitted / sum(latencies), "1/s")
    return metrics, extra


def measure_traced(runner: Runner, out_file: Path, header: dict) -> tuple:
    """Per-layer metrics from one traced pass, and the tracing overhead
    against one untraced pass run after every wrapper is removed."""
    with tracing.Tracer() as tracer:
        traced = runner.run_pass(0)
    untraced = runner.run_pass(1)
    metrics = {name: get(tracer) for name, _, _, get in PER_LAYER}
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.spans) // 6
    out_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_file, {**header, "traced_wall_s": traced, "untraced_wall_s": untraced})
    extra = {"traced wall_s": (traced, "s"), "untraced wall_s": (untraced, "s")}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the root of the checkout and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        SPEC_FILE.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        oracles = harness.load_oracles()
        cli, workload, setup_s = set_up(args.workload, args.seed, workdir, oracles)
        runner = Runner(cli, workload)
        header = {"workload": args.workload, "seed": args.seed, "loop": "closed-1-caller",
                  "python": platform.python_version(), "cpus": os.cpu_count()}
        if args.trace:
            out_file = HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, extra = measure_traced(runner, out_file, header)
            units = {name: unit for name, unit, *_ in PER_LAYER + TRACE_OWN}
            extra["spans written to"] = (str(out_file.relative_to(harness.ROOT)), "")
        else:
            metrics, extra = measure(runner, args.seconds, setup_s)
            units = {name: unit for name, unit, _ in END_TO_END}
    except harness.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    attempted, failed = len(runner.records), runner.failed
    for argv_, rc, error in runner.failures[:5]:
        print(f"FAILED {' '.join(argv_)}: exit {rc}: {error}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in header.items()) + f" trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:42} {value:>16.6g} {units[name]}")
    extra["fail_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in extra.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:42} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
