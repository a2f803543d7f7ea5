"""Size report: the three numbers ROADMAP tracks, and a ceiling on the first.

ROADMAP's design aim calls the ``src/`` line count, the
``tests/fixtures/api_surface.txt`` name count and the
``tests/fixtures/test_only_defs.txt`` entry count "tracked numbers, and
they should go down".  The API surface already has a snapshot test; this
tool gives the other two the same treatment::

    python tools/sizereport.py            # report
    python tools/sizereport.py --check    # + fail above the committed
                                          #   ceiling, on an orphan module
                                          #   or on a test-only definition

Lines are counted the way ``wc -l`` counts them (newline bytes) over
``src/**/*.py``.  The ceiling lives in ``tests/fixtures/size_budget.json``;
raising it is a one-line edit a reviewer sees, the ``api_surface.txt``
pattern.  Lower it whenever a change shrinks ``src/``.

``--check`` also runs a static reachability census: every ``src/`` module
must be imported, directly or transitively, from a product entry point —
``repro.api``, ``repro.cli``, ``repro.__main__`` or any file under
``benchmarks/``, ``examples/`` or ``tools/``.  A module only ``tests/``
import is dead weight.  Imports are read with :mod:`ast`, function-local
ones included; nothing is executed.

``--check`` then runs the same census one level down: every non-dunder
function, class and method defined under ``src/`` (module and class
level) must be *named* by product code — ``src/`` outside the definition
itself, or any file under ``benchmarks/``, ``examples/`` or ``tools/``.
A name counts as an :class:`ast.Name`, an :class:`ast.Attribute`, an
import alias, or an identifier-shaped string constant (handler tables,
``getattr``).  The exceptions are ``tests/fixtures/test_only_defs.txt``,
one ``path::Qualname  reason`` per line, where the reason is one of
:data:`TEST_ONLY_REASONS`; ``api`` is allowed only on a method of a
class in ``api_surface.txt``, and only when a file under ``docs/``
mentions the method's name.  An
entry whose definition is gone, or that product code now names, is
stale and fails the check too, so the file can only shrink.

Matching is by bare name, so it can only err towards "used": a method
called ``get`` looks used because something else is called ``get``.  The
census is a lower bound on dead code, never a false alarm.  Stdlib
only; ``tests/test_size_budget.py`` runs the check in tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET = REPO_ROOT / "tests" / "fixtures" / "size_budget.json"
API_SURFACE = REPO_ROOT / "tests" / "fixtures" / "api_surface.txt"
TEST_ONLY_DEFS = REPO_ROOT / "tests" / "fixtures" / "test_only_defs.txt"

#: How many of the largest files the report lists.
TOP = 10

#: Product entry points of the census: ``src/`` modules, then whole trees.
ENTRY_MODULES = ("repro.api", "repro.cli", "repro.__main__")
ENTRY_TREES = ("benchmarks", "examples", "tools")

#: Why a definition no product code names may stay: a reference a test
#: compares against, a test double, test input or setup, an invariant
#: checker, or a documented method of a ``repro.api`` class.
TEST_ONLY_REASONS = ("oracle", "double", "fixture", "check", "api")


def source_lines(root: Path = REPO_ROOT) -> dict[str, int]:
    """``wc -l`` of every ``src/**/*.py``, keyed by repo-relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes().count(b"\n")
            for path in sorted((root / "src").rglob("*.py"))}


def api_names() -> int:
    """Names in the public-API snapshot (one per non-blank line)."""
    return sum(1 for line in API_SURFACE.read_text(encoding="utf-8")
               .splitlines() if line.strip())


def ceiling() -> int:
    """The committed ``src/`` line ceiling."""
    return int(json.loads(BUDGET.read_text(encoding="utf-8"))
               ["src_lines_max"])


def src_modules(root: Path = REPO_ROOT) -> dict[str, Path]:
    """Every ``src/`` module by dotted name (a package by its own name)."""
    modules = {}
    for path in sorted((root / "src").rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, module: str | None = None) -> set[str]:
    """Dotted names ``path`` imports, with ``from X import y`` giving both
    ``X`` and ``X.y``; relative imports resolve against ``module``."""
    names = set()
    package = (module or "").split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def unreachable_modules(root: Path = REPO_ROOT) -> list[str]:
    """``src/`` modules no product entry point imports, even transitively.

    Importing ``a.b.c`` runs ``a`` and ``a.b`` too, so a reached module's
    parent packages count as reached.
    """
    modules = src_modules(root)
    frontier = set(ENTRY_MODULES)
    for tree in ENTRY_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            frontier |= imported_names(path)
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                frontier |= imported_names(modules[prefix], prefix)
    return sorted(set(modules) - reached)


def named_identifiers(tree: ast.AST) -> Counter:
    """How often each identifier is named under ``tree``: as a name, an
    attribute, an import alias or an identifier-shaped string constant."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def src_definitions(tree: ast.Module):
    """``(qualname, node)`` for each non-dunder module- or class-level
    function and class in ``tree``."""
    pending = [(tree.body, "")]
    while pending:
        body, prefix = pending.pop()
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            qualname = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualname, node
            if isinstance(node, ast.ClassDef):
                pending.append((node.body, qualname + "."))


def unnamed_definitions(root: Path = REPO_ROOT) -> dict[str, int]:
    """``path::Qualname`` of every ``src/`` definition no product code
    names, with its line count (decorators included)."""
    trees = {path: ast.parse(path.read_bytes(), str(path))
             for path in sorted((root / "src").rglob("*.py"))}
    named: Counter = Counter()
    for tree in trees.values():
        named += named_identifiers(tree)
    for entry in ENTRY_TREES:
        for path in sorted((root / entry).rglob("*.py")):
            named += named_identifiers(ast.parse(path.read_bytes(), str(path)))
    unnamed = {}
    for path, tree in trees.items():
        for qualname, node in src_definitions(tree):
            if named[node.name] <= named_identifiers(node)[node.name]:
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                key = f"{path.relative_to(root).as_posix()}::{qualname}"
                unnamed[key] = node.end_lineno - first + 1
    return unnamed


def allowlisted_definitions(path: Path = TEST_ONLY_DEFS) -> dict[str, str]:
    """The allowlist: ``path::Qualname`` -> reason."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, reason = line.split()
            entries[key] = reason
    return entries


def definition_problems(root: Path = REPO_ROOT,
                       allowlist: Path = TEST_ONLY_DEFS,
                       api_surface: Path = API_SURFACE) -> list[str]:
    """Why the definition census fails, one line per offender."""
    unnamed = unnamed_definitions(root)
    entries = allowlisted_definitions(allowlist)
    api_classes = {line.split()[0] for line in
                   api_surface.read_text(encoding="utf-8").splitlines()
                   if line.endswith(" class")}
    docs = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted((root / "docs").rglob("*.md")))
    problems = [f"{key} ({lines} lines) is named by no product code; "
                f"delete it, give it a product caller or allowlist it"
                for key, lines in unnamed.items() if key not in entries]
    for key, reason in entries.items():
        qualname = key.partition("::")[2]
        if reason not in TEST_ONLY_REASONS:
            problems.append(f"{key}: reason {reason!r} is not one of "
                            f"{', '.join(TEST_ONLY_REASONS)}")
        elif reason == "api" and (
                qualname.count(".") != 1
                or qualname.split(".")[0] not in api_classes
                or not re.search(rf"\b{qualname.split('.')[1]}\b", docs)):
            problems.append(f"{key}: 'api' needs a method of a class in "
                            f"{api_surface.name} that docs/ names")
        if key not in unnamed:
            problems.append(f"{key} is stale: the definition is gone or "
                            f"product code names it; drop the entry")
    return problems


def report(sizes: dict[str, int]) -> str:
    """The human-readable size report over ``sizes`` (:func:`source_lines`)."""
    lines = [f"src/**/*.py: {sum(sizes.values())} lines in {len(sizes)} "
             f"files (ceiling {ceiling()})",
             f"public API surface: {api_names()} names",
             f"test-only definitions: {len(allowlisted_definitions())} "
             f"allowlisted",
             f"largest {TOP} files:"]
    for path, count in sorted(sizes.items(),
                              key=lambda item: (-item[1], item[0]))[:TOP]:
        lines.append(f"  {count:6d}  {path}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if src/ exceeds the committed ceiling, "
                        "or on an orphan module or test-only definition")
    args = parser.parse_args(argv)
    sizes = source_lines()
    print(report(sizes))
    if not args.check:
        return 0
    status = 0
    total = sum(sizes.values())
    if total > ceiling():
        print(f"FAIL: src/ is {total} lines, over the ceiling of "
              f"{ceiling()} in {BUDGET.relative_to(REPO_ROOT)}; shrink "
              f"the change or raise the ceiling in the same (reviewed) "
              f"edit", file=sys.stderr)
        status = 1
    orphans = unreachable_modules()
    if orphans:
        print(f"FAIL: no product entry point ({', '.join(ENTRY_MODULES)}, "
              f"{'/, '.join(ENTRY_TREES)}/) imports "
              f"{', '.join(orphans)}; delete it or move it into the tests "
              f"that use it", file=sys.stderr)
        status = 1
    for problem in definition_problems():
        print(f"FAIL: {problem} ({TEST_ONLY_DEFS.relative_to(REPO_ROOT)})",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
