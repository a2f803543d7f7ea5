"""Tier-1 size gate: ``src/`` stays under its committed line ceiling.

ROADMAP tracks three numbers that "should go down": the public-API name
count (``tests/test_api_surface.py``), the ``src/`` line count and the
test-only definition allowlist.  This runs ``tools/sizereport.py
--check`` so the line count cannot grow unnoticed (a change that needs
more lines raises ``src_lines_max`` in ``tests/fixtures/size_budget.json``
in the same, reviewed, edit), and so no ``src/`` module or definition
lives on for tests alone without a reason in
``tests/fixtures/test_only_defs.txt``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import sizereport  # noqa: E402


def test_src_is_under_its_ceiling(capsys):
    assert sizereport.main(["--check"]) == 0, capsys.readouterr().err


def test_ceiling_is_tight_enough_to_mean_something():
    # A ceiling far above the code gates nothing: keep it within 1%.
    total = sum(sizereport.source_lines().values())
    assert sizereport.ceiling() <= total * 1.01


def test_report_names_both_tracked_numbers(capsys):
    assert sizereport.main([]) == 0
    text = capsys.readouterr().out
    total = sum(sizereport.source_lines().values())
    assert f"src/**/*.py: {total} lines" in text
    assert f"public API surface: {sizereport.api_names()} names" in text
    assert len([line for line in text.splitlines()
                if line.startswith("  ")]) == sizereport.TOP


def test_report_counts_the_test_only_allowlist(capsys):
    assert sizereport.main([]) == 0
    count = len(sizereport.allowlisted_definitions())
    assert f"test-only definitions: {count} allowlisted" \
        in capsys.readouterr().out


def test_check_fails_over_the_ceiling(monkeypatch, capsys):
    monkeypatch.setattr(sizereport, "ceiling", lambda: 10)
    assert sizereport.main(["--check"]) == 1
    assert "over the ceiling of 10" in capsys.readouterr().err


def test_every_src_module_is_reached_from_a_product_entry_point():
    # A module that only tests import is dead weight: delete it, or move
    # it into the tests that use it.
    assert sizereport.unreachable_modules() == []


def test_census_follows_every_import_form_and_names_the_orphan(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/api/__init__.py": "from ..core import a\n",
        "src/repro/core/__init__.py": "",
        "src/repro/core/a.py": "def lazy():\n    from . import b\n",
        "src/repro/core/b.py": "",
        "src/repro/core/c.py": "",
        "src/repro/core/orphan.py": "import repro.core.b\n",
        "tools/tool.py": "import repro.core.c\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert sizereport.unreachable_modules(tmp_path) == ["repro.core.orphan"]


def test_check_fails_on_an_orphan_module(monkeypatch, capsys):
    monkeypatch.setattr(sizereport, "unreachable_modules",
                        lambda: ["repro.core.orphan"])
    assert sizereport.main(["--check"]) == 1
    assert "imports repro.core.orphan" in capsys.readouterr().err


def test_every_src_definition_has_a_product_caller_or_a_reason():
    assert sizereport.definition_problems() == []


def census_tree(tmp_path, allowlist="", api_surface="", docs=""):
    """A minimal repo under ``tmp_path`` for the definition census."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/core.py": (
            "HANDLERS = {'submit': 'on_submit'}\n\n"
            "def reference(x):\n    return x\n\n"
            "def on_submit():\n    pass\n\n"
            "def used():\n    return 1\n\n"
            "class Report:\n"
            "    def __init__(self):\n        pass\n\n"
            "    def extra(self):\n        return 2\n"),
        "tools/tool.py": ("from repro.core import Report, used\n"
                          "used()\nReport()\n"),
        "tests/test_core.py": ("from repro.core import Report, reference\n"
                               "reference(1)\nReport().extra()\n"),
        "docs/api.md": docs,
        "allowlist.txt": allowlist,
        "api_surface.txt": api_surface,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return {"root": tmp_path, "allowlist": tmp_path / "allowlist.txt",
            "api_surface": tmp_path / "api_surface.txt"}


def test_definition_census_names_test_only_definitions(tmp_path):
    # ``on_submit`` is named only by a string constant and ``__init__`` is
    # a dunder: neither is reported.
    tree = census_tree(tmp_path)
    assert sizereport.unnamed_definitions(tree["root"]) == {
        "src/repro/core.py::reference": 2,
        "src/repro/core.py::Report.extra": 2}
    problems = sizereport.definition_problems(**tree)
    assert len(problems) == 2
    assert problems[0].startswith("src/repro/core.py::reference (2 lines)")


def test_an_allowlisted_definition_passes(tmp_path):
    tree = census_tree(tmp_path, allowlist=(
        "src/repro/core.py::reference  oracle\n"
        "src/repro/core.py::Report.extra  api\n"),
        api_surface="Report class\n", docs="`Report.extra()` adds two.\n")
    assert sizereport.definition_problems(**tree) == []


def test_a_stale_entry_fails(tmp_path):
    tree = census_tree(tmp_path, allowlist=(
        "src/repro/core.py::reference  oracle\n"
        "src/repro/core.py::Report.extra  check\n"
        "src/repro/core.py::deleted  fixture\n"
        "src/repro/core.py::used  oracle\n"))
    problems = sizereport.definition_problems(**tree)
    assert [problem.split()[0] for problem in problems] == [
        "src/repro/core.py::deleted", "src/repro/core.py::used"]
    assert all("is stale" in problem for problem in problems)


def test_api_needs_a_documented_method_of_an_api_class(tmp_path):
    entry = "src/repro/core.py::Report.extra  api\n"
    absent = census_tree(tmp_path, allowlist=entry, docs="extra\n")
    undocumented = census_tree(tmp_path / "b", allowlist=entry,
                               api_surface="Report class\n")
    for tree in (absent, undocumented):
        problems = [problem for problem in sizereport.definition_problems(
            **tree) if "Report.extra" in problem]
        assert len(problems) == 1 and "'api' needs" in problems[0]


def test_an_unknown_reason_is_refused(tmp_path):
    tree = census_tree(tmp_path, allowlist=(
        "src/repro/core.py::reference  legacy\n"
        "src/repro/core.py::Report.extra  check\n"))
    assert sizereport.definition_problems(**tree) == [
        "src/repro/core.py::reference: reason 'legacy' is not one of "
        "oracle, double, fixture, check, api"]


def test_check_fails_on_a_test_only_definition(monkeypatch, capsys):
    monkeypatch.setattr(sizereport, "definition_problems",
                        lambda: ["src/repro/core.py::reference (2 lines) is "
                                 "named by no product code"])
    assert sizereport.main(["--check"]) == 1
    assert "core.py::reference (2 lines)" in capsys.readouterr().err
