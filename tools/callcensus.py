#!/usr/bin/env python3
"""callcensus: which ``src/`` code no product run ever executes.

``sizereport.py --check`` matches definitions by bare name; this census
runs the product and records what executes::

    python tools/callcensus.py [REF]       # REF defaults to HEAD

It exports REF with ``git archive`` (as ``tools/abcompare.py`` does) and
puts a generated ``sitecustomize.py`` on ``PYTHONPATH``: in every Python
process, it records the lines run in the export's ``src/repro``
(``sys.settrace`` + ``threading.settrace``) and writes them at exit;
forked kernel workers flush through ``multiprocessing.util.Finalize``.
The entry points are a fixed table: the examples, one invocation per CLI
subcommand and flag family, ``REPRO_BENCH_TINY=1 pytest benchmarks
--benchmark-disable`` (a timed call pauses any tracer) and the layer-cake
``--quick`` run, without and with ``--trace 1``.  It reports each
function (closures included, dunders not) never entered, then each block
of statements never run inside an entered one, with line counts;
docstrings do not count as statements.

A killed process never flushes, so code that only SIGKILLed crash tests
run reads as dead; a ``serve --journal ... --snapshot-every 4`` run with no
kill hook covers the journal's snapshot path.  Stdlib only; it takes
minutes, so it runs by hand, not in tier-1.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from abcompare import export  # noqa: E402

#: The recorder every traced process imports at startup.
RECORDER = '''
import atexit, json, os, sys, threading
_SRC = os.path.join(os.environ["CALLCENSUS_TREE"], "src", "repro") + os.sep
_OUT = os.environ["CALLCENSUS_OUT"]
_lines = {}

def _local(frame, event, arg):
    if event == "line":
        _lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local
def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_SRC):
        return None
    _lines.setdefault(code.co_filename, set()).add(-code.co_firstlineno)
    return _local
def _flush():
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as handle:
        json.dump({name: sorted(got) for name, got in _lines.items()}, handle)
_hooked = []
def _before_fork():  # multiprocessing resets a forked child's finalizers
    import multiprocessing.util as util
    if not _hooked:
        _hooked.append(util.register_after_fork(
            _flush, lambda flush: util.Finalize(None, flush, exitpriority=9)))
atexit.register(_flush)
os.register_at_fork(before=_before_fork)
threading.settrace(_global)
sys.settrace(_global)
'''

#: ``repro`` invocations (``|`` or newline apart), run in order in one
#: directory; ``--scale huge`` (exit 2) and ``min-time --deadline`` (exit 1)
#: are errors on purpose.
CLI = """--version | simulate gnmf --scale huge | catalog | catalog --json
optimize gnmf --objective min-time --deadline 1 | explain gnmf --scale small
explain gnmf --scale tiny --dot | explain gnmf --scale tiny --json
explain gnmf --scale tiny --search --instances m1.large --node-counts 2,4 \
--slot-options 2 | explain gnmf --scale tiny --search --method surrogate \
--deadline 120 --json | simulate multiply --scale small --nodes 4
simulate multiply --scale small --nodes 4 --json | optimize multiply \
--scale small --deadline 60 | optimize gnmf --scale tiny --budget 1 --json
optimize gnmf --scale tiny --deadline 120 --method surrogate
trace multiply --scale tiny --diff --format summary
trace multiply --scale tiny --format chrome --out trace.json
trace multiply --scale tiny --diff --backend process --json
trace gnmf --scale small --scenario node-crash --format summary
profile multiply --scale tiny | profile multiply --scale tiny \
--backend process --json | metrics gnmf --scale tiny --nodes 4 --budget 1
metrics gnmf --scale tiny --deadline 30 --format prom
metrics gnmf --scale small --scenario flaky-tasks --json
chaos gnmf --scale small --scenario revocation-wave --json
chaos gnmf --scale tiny --scenario node-crash --recovery restart
chaos gnmf --scale tiny --scenario flaky-tasks --deadline 120 \
--advise-checkpoint --trace-out c.json --metrics-out m.json
submit burst.json gnmf --scale tiny --tenant heavy --nodes 2 --policy fair \
--budget 50 --weight 2 | submit burst.json multiply --scale tiny \
--tenant light --submit-at 15 --deadline 60
submit burst.json gnmf --scale tiny --tenant heavy --submit-at 30
serve burst.json | serve burst.json --policy fifo --json
serve burst.json --journal state --snapshot-every 4 --fsync-every 1
submit burst.json multiply --scale tiny --tenant light --submit-at 60 \
--journal state --json | serve burst.json --journal state --recover --json"""


def entry_points(tree: Path) -> list[tuple[str, list[str], dict]]:
    """``(label, argv, extra env)`` of every traced run, in order."""
    python, quick = sys.executable, "benchmarks/layercake/run.py --quick"
    return ([(f"example {path.name}", [python, str(path)], {})
             for path in sorted((tree / "examples").glob("*.py"))]
            + [(f"repro {line}", [python, "-m", "repro", *line.split()], {})
               for line in CLI.replace("\n", " | ").split(" | ")]
            + [("benches (tiny)", [python, "-m", "pytest", "benchmarks", "-q",
                "-p", "no:cacheprovider", "--benchmark-disable"],
                {"REPRO_BENCH_TINY": "1"})]
            + [(line, [python, *line.split()], {})
               for line in (quick, quick + " --trace 1")])


def record(tree: Path, out: Path) -> None:
    """Run every entry point under the recorder into ``out``, printing
    each run's exit status, time and, if it failed, last output line."""
    for sub in ("hook", "work"):
        (out / sub).mkdir(parents=True)
    (out / "hook" / "sitecustomize.py").write_text(RECORDER)
    env = dict(os.environ, CALLCENSUS_TREE=str(tree), CALLCENSUS_OUT=str(out),
               PYTHONPATH=os.pathsep.join(
                   [str(out / "hook"), str(tree / "src"), str(tree)]))
    for label, argv, extra in entry_points(tree):
        started = time.perf_counter()
        done = subprocess.run(
            argv, cwd=out / "work" if label.startswith("repro") else tree,
            env=dict(env, **extra), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        print(f"-- exit {done.returncode:>3}  "
              f"{time.perf_counter() - started:6.1f}s  {label}"
              + (f"\n     {last}" if done.returncode else ""), flush=True)


def load(out: Path, tree: Path) -> dict[str, set[int]]:
    """Recorded lines by repo path; -N means a code object at N entered."""
    merged: dict[str, set[int]] = {}
    for path in out.glob("*.json"):
        for name, lines in json.loads(path.read_text()).items():
            key = Path(name).relative_to(tree).as_posix()
            merged.setdefault(key, set()).update(lines)
    return merged


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(tree: ast.AST, prefix: str = ""):
    """``(qualname, node)`` of every non-dunder function, parents first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFS):
            name = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node
            yield from functions(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, prefix + node.name + ".")
        else:
            yield from functions(node, prefix)


def _blocks(body: list[ast.stmt], ran: set[int]):
    """``(start, end)`` of each run of consecutive statements in ``body``
    with no line run, and of those in the nested bodies of statements that
    ran; nested function and class bodies are left to their own entry."""
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # a docstring is not a statement that runs
    start = None
    for stmt in body + [None]:
        if stmt is not None and not ran.intersection(
                range(stmt.lineno, stmt.end_lineno + 1)):
            start, end = start or stmt, stmt
            continue
        if start is not None:
            yield start.lineno, end.end_lineno
            start = None
        if stmt is None or isinstance(stmt, (*DEFS, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            children = getattr(stmt, field, [])
            if children and not isinstance(children[0], ast.stmt):
                for child in children:  # except handlers, match cases
                    yield from _blocks(child.body, ran)
            else:
                yield from _blocks(children, ran)


def census(source: str, recorded: set[int]) -> tuple[list, list]:
    """``(dead, blocks)`` for one file: ``(qualname, first line, lines)``
    of each function never entered (a closure inside one counts with it),
    and ``(qualname, start, end)`` of each never-run block of statements
    inside an entered one."""
    dead, blocks = [], []
    for name, node in functions(ast.parse(source)):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if -first in recorded:  # a code object's first line: decorators'
            blocks += [(name, *b) for b in _blocks(node.body, recorded)]
        elif not any(name.startswith(row[0] + ".") for row in dead):
            dead.append((name, first, node.end_lineno - first + 1))
    return dead, blocks


def report(tree: Path, recorded: dict[str, set[int]]) -> list[str]:
    dead, blocks = [], []
    for path in sorted((tree / "src").rglob("*.py")):
        key = path.relative_to(tree).as_posix()
        rows = census(path.read_text(), recorded.get(key, set()))
        dead += [(key, *row) for row in rows[0]]
        blocks += [(key, *row) for row in rows[1]]
    return ([f"never-entered definitions: {len(dead)} "
             f"({sum(row[3] for row in dead)} lines)"]
            + [f"  {key}:{line}  {name}  ({count} lines)"
               for key, name, line, count in dead]
            + [f"never-run blocks in entered definitions: {len(blocks)} "
               f"({sum(end - start + 1 for *_, start, end in blocks)} "
               "lines)"]
            + [f"  {key}:{start}-{end}  {name}  ({end - start + 1} lines)"
               for key, name, start, end in blocks]
            + ["known gap: a killed process never flushes, so code that only "
               "SIGKILLed crash tests or killed servers run reads as dead"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="callcensus", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", nargs="?", default="HEAD",
                        help="git ref to census (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="callcensus-") as scratch:
        scratch = Path(scratch).resolve()  # the layer cake resolves its root
        tree, out = scratch / "tree", scratch / "out"
        export(args.ref, str(tree))
        record(tree, out)
        print("\n".join(report(tree, load(out, tree))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
