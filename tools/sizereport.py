"""Size report: the two numbers ROADMAP tracks, and a ceiling on the first.

ROADMAP's design aim calls the ``src/`` line count and the
``tests/fixtures/api_surface.txt`` name count "tracked numbers, and they
should go down".  The API surface already has a snapshot test; this tool
gives the line count the same treatment::

    python tools/sizereport.py            # report
    python tools/sizereport.py --check    # + fail above the committed ceiling

Lines are counted the way ``wc -l`` counts them (newline bytes) over
``src/**/*.py``.  The ceiling lives in ``tests/fixtures/size_budget.json``;
raising it is a one-line edit a reviewer sees, the ``api_surface.txt``
pattern.  Lower it whenever a change shrinks ``src/``.  Stdlib only;
``tests/test_size_budget.py`` runs the check in tier-1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET = REPO_ROOT / "tests" / "fixtures" / "size_budget.json"
API_SURFACE = REPO_ROOT / "tests" / "fixtures" / "api_surface.txt"

#: How many of the largest files the report lists.
TOP = 10


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
    total = sum(sizes.values())
    if args.check and total > ceiling():
        print(f"FAIL: src/ is {total} lines, over the ceiling of "
              f"{ceiling()} in {BUDGET.relative_to(REPO_ROOT)}; shrink "
              f"the change or raise the ceiling in the same (reviewed) "
              f"edit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
