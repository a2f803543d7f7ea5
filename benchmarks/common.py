"""Shared infrastructure for the experiment benchmarks.

Every experiment Exx regenerates one figure/table of the paper's evaluation:
it computes the series, prints it, and writes it to
``benchmarks/results/eXX_<name>.txt`` so EXPERIMENTS.md can be refreshed
from the files.  All simulation experiments use the deterministic
:data:`~repro.core.benchmarking.REFERENCE_COEFFICIENTS`, so numbers are
machine-independent.

Results persist in two forms:

* ``benchmarks/results/<bench>.txt`` / ``.json`` — the latest run.  The
  JSON is a *compact summary* (table rows, run parameters, headline
  metrics, git sha) small enough to commit and diff; the full
  ``MetricsRegistry`` snapshot that used to make these files thousands of
  lines is only embedded when ``REPRO_BENCH_FULL=1`` is set (or pytest is
  invoked with ``--full``).
* ``benchmarks/history/<bench>.jsonl`` — an append-only scoreboard, one
  compact line per run, that ``tools/benchdiff.py`` reads to compare the
  latest numbers against the committed baseline and render the
  trajectory.  History lines are written whenever a bench passes headline
  ``summary`` numbers to :func:`report`.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.costmodel import CumulonCostModel
from repro.observability.metrics import MetricsRegistry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

#: History/summary schema version (bump on breaking changes so benchdiff
#: can refuse mixed files instead of misreading them).
SCHEMA_VERSION = 1

#: Env var that opts into embedding the full metrics snapshot in the
#: results JSON (pytest --full sets it; see benchmarks/conftest.py).
FULL_ENV = "REPRO_BENCH_FULL"


#: The evaluation's default reference cluster (mirrors the paper's use of a
#: mid-size general-purpose cluster for operator-level experiments).
def reference_spec(nodes: int = 8, slots: int = 2,
                   instance: str = "m1.large") -> ClusterSpec:
    return ClusterSpec(get_instance_type(instance), nodes, slots)


def reference_model() -> CumulonCostModel:
    return CumulonCostModel()


@dataclass
class Table:
    """A named experiment result: header row plus data rows."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[object]]

    def formatted(self) -> str:
        widths = [len(str(h)) for h in self.headers]
        str_rows = [[_fmt(cell) for cell in row] for row in self.rows]
        for row in str_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(w)
                                   for cell, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)


def git_sha() -> str:
    """The current commit's short sha, or ``unknown`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(__file__), capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def report(table: Table, registry: MetricsRegistry | None = None,
           summary: dict | None = None,
           params: dict | None = None) -> str:
    """Print the table and persist it under benchmarks/results/.

    ``summary`` holds the bench's headline numbers (flat name -> number
    dict); it lands in the compact results JSON **and** appends one line
    to ``benchmarks/history/<bench>.jsonl`` — the scoreboard
    ``tools/benchdiff.py`` gates CI on.  ``params`` records the knobs the
    run used (sizes, reps, tiny-mode), so benchdiff only compares runs
    against baselines with matching parameters.

    With a ``registry``, the compact JSON carries the headline metrics; the
    *full* snapshot (every counter/histogram/series — thousands of lines)
    is embedded only when ``REPRO_BENCH_FULL=1``.
    """
    text = table.formatted()
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = table.experiment.lower()
    path = os.path.join(RESULTS_DIR, f"{stem}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if registry is None and summary is None:
        return text
    document = {
        "schema_version": SCHEMA_VERSION,
        "experiment": table.experiment,
        "title": table.title,
        "headers": table.headers,
        "rows": table.rows,
        "params": params or {},
        "metrics": summary or {},
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if registry is not None and os.environ.get(FULL_ENV):
        document["metrics_snapshot"] = registry.snapshot()
    json_path = os.path.join(RESULTS_DIR, f"{stem}.json")
    with open(json_path, "w") as handle:
        json.dump(document, handle, indent=2, default=_json_cell)
        handle.write("\n")
    if summary:
        append_history(stem, summary, params=params,
                       experiment=table.experiment)
    return text


def append_history(bench: str, metrics: dict, params: dict | None = None,
                   experiment: str | None = None,
                   history_dir: str | None = None) -> str:
    """Append one compact scoreboard line for ``bench``; returns the path.

    The line schema is what ``tools/benchdiff.py`` consumes:
    ``{schema_version, bench, params, metrics, git_sha, timestamp}``.
    """
    directory = history_dir or HISTORY_DIR
    os.makedirs(directory, exist_ok=True)
    entry = {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "experiment": experiment or bench.upper(),
        "params": params or {},
        "metrics": metrics,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(directory, f"{bench}.jsonl")
    with open(path, "a") as handle:
        json.dump(entry, handle, sort_keys=True, default=_json_cell)
        handle.write("\n")
    return path


def _json_cell(value):
    """Coerce numpy scalars and other oddballs for json.dump."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)
