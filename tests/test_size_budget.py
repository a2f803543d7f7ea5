"""Tier-1 size gate: ``src/`` stays under its committed line ceiling.

ROADMAP tracks two numbers that "should go down": the public-API name
count (``tests/test_api_surface.py``) and the ``src/`` line count.  This
runs ``tools/sizereport.py --check`` so the second cannot grow unnoticed:
a change that needs more lines raises ``src_lines_max`` in
``tests/fixtures/size_budget.json`` in the same, reviewed, edit.
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
