"""Plumbing shared by the benchmark scripts: find the checkout, import the
package from its source tree, load the test oracles, and run one CLI call
in-process with its output captured."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"


class MissingSource(Exception):
    """The checkout does not hold the package source or the oracles."""


def import_package():
    """Import ``sgpoidkit.cli`` afresh from the checkout's ``src`` tree.

    Any copy imported before is dropped first, so each call pays the full
    import; the benchmark repeats set-up and reports its median.
    """
    if not (SRC / "sgpoidkit" / "__init__.py").is_file():
        raise MissingSource(f"no package source under {SRC}")
    for name in [n for n in sys.modules if n.split(".")[0] == "sgpoidkit"]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sgpoidkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"sgpoidkit was imported from {cli.__file__}")
    return cli


def load_oracles():
    """The brute-force routines of ``tests/oracles.py``, which share no code
    with the package."""
    if not ORACLES.is_file():
        raise MissingSource(f"no oracles at {ORACLES}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Outcome:
    seconds: float
    rc: Optional[int]
    stdout: str
    error: Optional[str] = None


def invoke(cli, argv) -> Outcome:
    """Run ``cli.run(argv)`` and time it.  The attribute is looked up at
    call time, so a traced run sees the wrapped ``run``."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None and rc != 0:
        error = err.getvalue().strip() or None
    return Outcome(seconds, rc, out.getvalue(), error)


def capture(cli, argv) -> str:
    """Stdout of a call that must succeed."""
    outcome = invoke(cli, argv)
    if outcome.rc != 0:
        raise RuntimeError(f"{argv} exited {outcome.rc}: {outcome.error}")
    return outcome.stdout


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_tree(path) -> str:
    """Digest of every file under ``path``: relative names and contents."""
    digest = hashlib.sha256()
    base = Path(path)
    for file in sorted(p for p in base.rglob("*") if p.is_file()):
        digest.update(file.relative_to(base).as_posix().encode() + b"\0")
        digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()
