"""Size report: the two numbers ROADMAP tracks, and a ceiling on the first.

ROADMAP's design aim calls the ``src/`` line count and the
``tests/fixtures/api_surface.txt`` name count "tracked numbers, and they
should go down".  The API surface already has a snapshot test; this tool
gives the line count the same treatment::

    python tools/sizereport.py            # report
    python tools/sizereport.py --check    # + fail above the committed
                                          #   ceiling or on an orphan module

Lines are counted the way ``wc -l`` counts them (newline bytes) over
``src/**/*.py``.  The ceiling lives in ``tests/fixtures/size_budget.json``;
raising it is a one-line edit a reviewer sees, the ``api_surface.txt``
pattern.  Lower it whenever a change shrinks ``src/``.

``--check`` also runs a static reachability census: every ``src/`` module
must be imported, directly or transitively, from a product entry point —
``repro.api``, ``repro.cli``, ``repro.__main__`` or any file under
``benchmarks/``, ``examples/`` or ``tools/``.  A module only ``tests/``
import is dead weight.  Imports are read with :mod:`ast`, function-local
ones included; nothing is executed.  Stdlib only;
``tests/test_size_budget.py`` runs the check in tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET = REPO_ROOT / "tests" / "fixtures" / "size_budget.json"
API_SURFACE = REPO_ROOT / "tests" / "fixtures" / "api_surface.txt"

#: How many of the largest files the report lists.
TOP = 10

#: Product entry points of the census: ``src/`` modules, then whole trees.
ENTRY_MODULES = ("repro.api", "repro.cli", "repro.__main__")
ENTRY_TREES = ("benchmarks", "examples", "tools")


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


def report(sizes: dict[str, int]) -> str:
    """The human-readable size report over ``sizes`` (:func:`source_lines`)."""
    lines = [f"src/**/*.py: {sum(sizes.values())} lines in {len(sizes)} "
             f"files (ceiling {ceiling()})",
             f"public API surface: {api_names()} names",
             f"largest {TOP} files:"]
    for path, count in sorted(sizes.items(),
                              key=lambda item: (-item[1], item[0]))[:TOP]:
        lines.append(f"  {count:6d}  {path}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if src/ exceeds the committed ceiling")
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
    return status


if __name__ == "__main__":
    sys.exit(main())
