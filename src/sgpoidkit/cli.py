"""Command line interface.

Every run with identical flags and inputs produces byte-identical output:
no randomness is used anywhere, listings are emitted in sorted order, and
all searches are deterministic.

Exit codes: 0 success, 1 a query found no solutions, 2 input errors,
3 a cost guard refused the computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .arrowtype import (
    ArrowTypeGraph,
    ClassDatabase,
    count_table,
    extend_census,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ResourceLimitError,
    StaleDatabaseError,
)
from .genrep import (
    TransformationArrow,
    embed,
    full_transformation_arrows,
    full_transformation_sgpoid,
    generate,
    minimal_representation,
)
from .morphisms import find_morphisms
from .tables import (
    NC,
    UNSET,
    CompositionTable,
    enumerate_associative_tables,
    first_nonassociative_triple,
    is_associative,
)
from .typestructure import infer_types, minimal_objects


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_table(path: str) -> CompositionTable:
    return CompositionTable.from_json(_load_json(path))


def _load_graph(path: str) -> ArrowTypeGraph:
    return ArrowTypeGraph.from_json(_load_json(path))


def _cmd_check(opts: dict) -> int:
    table = _load_table(opts["table"])
    triple = first_nonassociative_triple(table)
    m = minimal_objects(table)
    parts = []
    if triple is None:
        parts.append("associative: true")
    else:
        parts.append("associative: false")
        parts.append(f"failing triple: {triple}")
    parts.append(f"minimal objects: {m if m is not None else 'none'}")
    is_sgpoid = triple is None and m is not None
    parts.append(f"semigroupoid: {'true' if is_sgpoid else 'false'}")
    print("; ".join(parts))
    return 0


def _cmd_infer_types(opts: dict) -> int:
    table = _load_table(opts["table"])
    if opts.get("objects") is not None:
        m = opts["objects"]
    else:
        m = minimal_objects(table)
        if m is None:
            print("no consistent type structure", file=sys.stderr)
            return 1
    solutions = list(infer_types(table, m))
    if opts.get("count_only"):
        print(len(solutions))
    else:
        for ts in solutions:
            print(json.dumps(ts.to_json(), sort_keys=True))
    return 0 if solutions else 1


def _cmd_morphisms(opts: dict) -> int:
    source = _load_table(opts["source"])
    target = _load_table(opts["target"])
    if not is_associative(target):
        print("warning: target table is not associative", file=sys.stderr)
    maps = list(
        find_morphisms(
            source,
            target,
            bijective=opts.get("bijective", False),
            strict=opts.get("strict", False),
        )
    )
    if opts.get("count_only"):
        print(len(maps))
    else:
        print(json.dumps(sorted(list(amap.images) for amap in maps)))
    return 0 if maps else 1


def _parse_partial(data: dict):
    rows = []
    for row in data["entries"]:
        out = []
        for value in row:
            if value is None:
                out.append(NC)
            elif value == "?":
                out.append(UNSET)
            elif value == -1:
                raise DomainError("-1 is not a valid entry; use null or \"?\"")
            else:
                out.append(value)
        rows.append(tuple(out))
    return tuple(rows)


def _cmd_enumerate_tables(opts: dict) -> int:
    partial = None
    if opts.get("partial"):
        partial = _parse_partial(_load_json(opts["partial"]))
    stream = enumerate_associative_tables(
        opts["size"], allow_nc=opts.get("allow_nc", False), partial=partial
    )
    count = 0
    if opts.get("count_only"):
        for _ in stream:
            count += 1
        print(count)
    else:
        for table in stream:
            count += 1
            print(json.dumps(table.to_json(), sort_keys=True))
    return 0 if count else 1


def _render_counts(counts, fmt: str) -> str:
    row_sums = [sum(row) for row in counts]
    max_objects = len(counts[0]) if counts else 0
    if fmt == "md":
        lines = []
        header = ["arrows \\ objects"] + [str(m) for m in range(1, max_objects + 1)]
        header.append("sum")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for n, row in enumerate(counts, start=1):
            cells = [str(v) if v else "" for v in row]
            lines.append(
                "| " + " | ".join([str(n)] + cells + [str(row_sums[n - 1])]) + " |"
            )
        return "\n".join(lines)
    if fmt == "csv":
        lines = [
            ",".join(
                ["arrows"]
                + [str(m) for m in range(1, max_objects + 1)]
                + ["sum"]
            )
        ]
        for n, row in enumerate(counts, start=1):
            cells = [str(v) if v else "" for v in row]
            lines.append(",".join([str(n)] + cells + [str(row_sums[n - 1])]))
        return "\n".join(lines)
    return json.dumps(
        {"counts": counts, "row_sums": row_sums}, sort_keys=True
    )


def _cmd_arrowtypes(opts: dict) -> int:
    max_arrows = opts["max_arrows"]
    max_objects = opts.get("max_objects")
    if max_objects is None:
        max_objects = 2 * max_arrows
    db_dir = opts.get("db") or os.environ.get("SGPOIDKIT_DB")
    if db_dir and os.path.isdir(db_dir) and os.listdir(db_dir):
        database = ClassDatabase.load(db_dir)
    else:
        database = ClassDatabase()
    method = opts.get("method", "closure")
    if extend_census(database, method, max_arrows, max_objects) and db_dir:
        database.save(db_dir)
    counts = count_table(database, max_arrows, max_objects)
    print(_render_counts(counts, opts.get("emit_table", "md")))
    return 0


def _cmd_generate(opts: dict) -> int:
    data = _load_json(opts["generators"])
    degrees = tuple(data["degrees"])
    gens = [TransformationArrow.from_json(g) for g in data["generators"]]
    sgpoid = generate(gens, degrees)
    print(
        json.dumps(
            {
                "degrees": list(sgpoid.degrees),
                "arrows": [a.to_json() for a in sgpoid.arrows],
                "table": sgpoid.table.to_json(),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_represent(opts: dict) -> int:
    table = _load_table(opts["table"])
    if opts.get("minimal"):
        if opts["graph"] is not None or opts["degrees"] is not None or opts["permissive"]:
            raise DomainError("--minimal takes no --graph, --degrees or --permissive")
        graph, degrees, amap = minimal_representation(table)
        arrows = full_transformation_arrows(degrees, graph)
    else:
        if not opts.get("graph") or not opts.get("degrees"):
            raise DomainError("represent needs --minimal or --graph with --degrees")
        graph = _load_graph(opts["graph"])
        degrees = tuple(int(d) for d in opts["degrees"].split(","))
        target = full_transformation_sgpoid(degrees, graph)
        strict = not opts.get("permissive", False)
        amap = next(embed(table, target, strict=strict), None)
        if amap is None:
            print("no embedding", file=sys.stderr)
            return 1
        arrows = target.arrows
    print(
        json.dumps(
            {
                "graph": graph.to_json(),
                "degrees": list(degrees),
                "images": list(amap.images),
                "arrows": [arrows[i].to_json() for i in amap.images],
            },
            sort_keys=True,
        )
    )
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "infer-types": _cmd_infer_types,
    "morphisms": _cmd_morphisms,
    "enumerate-tables": _cmd_enumerate_tables,
    "arrowtypes": _cmd_arrowtypes,
    "generate": _cmd_generate,
    "represent": _cmd_represent,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgpoidkit",
        description="Explore finite semigroupoids: composition tables, "
        "type structures, morphisms, arrow-type graphs, representations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"sgpoidkit {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="associativity / typability verdict")
    p.add_argument("table")

    p = sub.add_parser("infer-types", help="type structures of a table")
    p.add_argument("table")
    p.add_argument("--objects", type=int)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("morphisms", help="morphisms between two tables")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--bijective", action="store_true")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("enumerate-tables", help="associative tables of a size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--allow-nc", action="store_true")
    p.add_argument("--partial")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("arrowtypes", help="arrow-type graph class census")
    p.add_argument("--max-arrows", type=int, required=True)
    p.add_argument("--max-objects", type=int)
    p.add_argument(
        "--method", choices=("brute", "incremental", "closure"), default="closure"
    )
    p.add_argument("--db")
    p.add_argument("--emit-table", choices=("md", "csv", "json"), default="md")

    p = sub.add_parser("generate", help="close typed generators under composition")
    p.add_argument("generators")

    p = sub.add_parser("represent", help="transformation representation of a table")
    p.add_argument("table")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--graph")
    p.add_argument("--degrees")
    p.add_argument("--permissive", action="store_true")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about fifty times a parse, and parsing
    # leaves it unchanged, so one instance serves every run in a process.
    return build_parser()


def run(argv=None) -> int:
    options = vars(_parser().parse_args(argv))
    try:
        return _HANDLERS[options.pop("command")](options)
    except json.JSONDecodeError as exc:
        print(
            f"input error: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (
        DomainError, ConfigurationError, StaleDatabaseError, KeyError, OSError
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
