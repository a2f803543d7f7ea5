"""Tier-1 documentation gate: docstrings, links, CLI refs, snapshots.

Runs the same checks as the CI docs job (``tools/doccheck.py``): the
core, observability, and service packages must stay >=80%
docstring-covered, every relative link in ``docs/`` and the README must
resolve — file and anchor — and every ``repro <subcommand>`` phrase in
the docs must name a real subcommand.  On top of that, ``docs/cli.md``
is snapshot-tested against ``tools/gendocs.py``: the committed CLI
reference must byte-match what the live argparse tree generates.
Keeping this in tier-1 means a renamed doc heading, an undocumented new
module, or a CLI flag change without a doc regen fails locally, not just
in CI.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import doccheck  # noqa: E402
import gendocs  # noqa: E402


class TestDocstringCoverage:
    def test_core_and_observability_meet_gate(self):
        report = doccheck.docstring_coverage()
        assert report.total > 100, "coverage walk found too few definitions"
        missing = "\n".join(report.missing)
        assert report.percent >= doccheck.FAIL_UNDER, (
            f"docstring coverage {report.percent:.1f}% is below the "
            f"{doccheck.FAIL_UNDER:.0f}% gate; undocumented:\n{missing}")


class TestMarkdownLinks:
    def test_no_broken_links_or_anchors(self):
        errors = doccheck.check_links()
        assert errors == []

    def test_checker_sees_the_experiment_book(self):
        files = list(doccheck._iter_markdown_files(REPO_ROOT))
        names = {path.name for path in files}
        assert "benchmarks.md" in names and "README.md" in names

    def test_slugging_matches_github(self):
        assert doccheck.github_slug("Metrics & search telemetry") \
            == "metrics--search-telemetry"
        assert doccheck.github_slug("E22 — Fast optimizer search") \
            == "e22--fast-optimizer-search"
        assert doccheck.github_slug("Search performance") \
            == "search-performance"

    def test_broken_link_is_reported(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(
            "# A\n[dead](missing.md) [bad](a.md#nope) [ok](a.md#a)\n")
        errors = doccheck.check_links(root=tmp_path)
        assert len(errors) == 2
        assert any("missing.md" in e for e in errors)
        assert any("#nope" in e for e in errors)


class TestCliReferences:
    def test_docs_name_only_real_subcommands(self):
        assert doccheck.check_cli_references() == []

    def test_parser_exposes_the_serving_stack(self):
        known = doccheck.cli_subcommands()
        assert {"serve", "chaos"} <= known
        assert "loadtest" not in known

    def test_stale_reference_is_reported(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("# A\nRun `repro frobnicate` twice.\n")
        errors = doccheck.check_cli_references(root=tmp_path)
        assert len(errors) == 1
        assert "frobnicate" in errors[0]


class TestCliReferenceSnapshot:
    def test_generated_cli_md_matches_parser(self):
        committed = (REPO_ROOT / "docs" / "cli.md").read_text(
            encoding="utf-8")
        regenerated = gendocs.generate()
        assert committed == regenerated, (
            "docs/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gendocs.py`")

    def test_reference_covers_every_subcommand(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        for name in doccheck.cli_subcommands():
            assert f"## `repro {name}`" in text
