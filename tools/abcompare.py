#!/usr/bin/env python3
"""abcompare: alternating parent/change runs of the layer-cake benchmark.

The procedure every performance claim in CHANGES.md was made by hand,
as one command::

    python tools/abcompare.py PARENT CHANGE --pairs 10 [--workload W]

It exports both git refs into a temporary directory (``git archive``, so
neither this checkout nor its ``.git`` is written to), then for each pair
and each workload runs the ``BENCHMARK.json`` command in both trees with
seed ``--seed + pair``, alternating which side goes first.  Every run's
metrics are printed as they arrive.  The closing table has one row per
workload x end-to-end metric: each side's q1 / median / q3, the change's
wins / losses / ties over the pairs, and a verdict by the rule of the
choosing-metrics guide (section 8):

* ``gain`` -- the change won at least nine tenths of all pairs (ties
  count for neither) *and* the medians are further apart than the
  parent's own interquartile range;
* ``WORSE`` -- the change's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json``;
* ``unresolved`` -- inside the bound, but the parent's own spread is wider
  than the bound, so "unchanged" cannot be told from "moved";
* ``same`` -- inside the bound, and the bound is wider than the spread
  (a small move every pair agrees on still shows in the W/L/T column).

To compare the uncommitted working tree, pass ``$(git stash create)`` as
CHANGE.  Exit codes: 0 = no ``WORSE`` cell and no failed or incorrect
run, 1 = otherwise, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of all pairs one side must win before a difference is claimed.
WIN_SHARE = 0.9

SIDES = ("parent", "change")


@dataclass(frozen=True)
class Cell:
    """Verdict for one workload x metric."""

    parent: tuple[float, float, float]   # q1, median, q3
    change: tuple[float, float, float]
    wins: int
    losses: int
    ties: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative when it is better)."""
    delta = (change - parent) / parent if parent else 0.0
    return delta if better == "lower" else -delta


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> Cell:
    """Compare one metric's paired runs (``parent[i]`` ran with
    ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    wins = sum(1 for p, c in zip(parent, change)
               if worse_by(p, c, better) < 0)
    losses = sum(1 for p, c in zip(parent, change)
                 if worse_by(p, c, better) > 0)
    parent_q, change_q = quartiles(parent), quartiles(change)
    iqr = parent_q[2] - parent_q[0]
    apart = abs(change_q[1] - parent_q[1]) > iqr
    worse = worse_by(parent_q[1], change_q[1], better)
    if wins >= WIN_SHARE * len(parent) and apart and worse < 0:
        verdict = "gain"
    elif worse > bound:
        verdict = "WORSE"
    elif parent_q[1] and iqr / abs(parent_q[1]) > bound \
            and not all(worse_by(p, c, better) < 0
                        for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "same"
    return Cell(parent_q, change_q, wins, losses,
                len(parent) - wins - losses, verdict)


def parse_result(stdout: str) -> dict:
    """The result object on the last stdout line of a ``--workload`` run:
    ``{"correct", "attempted", "failed", "metrics": {name: value}}``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    doc = json.loads(lines[-1])
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise ValueError(f"not a result line: {lines[-1][:80]!r}")
    return {"correct": bool(doc["correct"]),
            "attempted": int(doc["attempted"]), "failed": int(doc["failed"]),
            "metrics": {name: float(entry["value"])
                        for name, entry in doc["metrics"].items()}}


def summarize(runs: dict, contract: dict) -> tuple[list[str], bool]:
    """The closing table and whether everything held.

    ``runs[workload][side]`` is the list of parsed results, pair by pair.
    """
    lines = ["| workload | metric | unit | parent q1/med/q3 "
             "| change q1/med/q3 | W/L/T | verdict |",
             "|---|---|---|---|---|---|---|"]
    held = True
    for workload, sides in runs.items():
        for entry in contract["end_to_end"]:
            name = entry["name"]
            cell = judge([run["metrics"][name] for run in sides["parent"]],
                         [run["metrics"][name] for run in sides["change"]],
                         entry["better"], entry["bound"])
            held = held and cell.verdict != "WORSE"
            lines.append(
                f"| {workload} | {name} | {entry['unit']} | "
                + " / ".join(f"{value:.4g}" for value in cell.parent) + " | "
                + " / ".join(f"{value:.4g}" for value in cell.change)
                + f" | {cell.wins}/{cell.losses}/{cell.ties} "
                  f"| {cell.verdict} |")
        for side in SIDES:
            failed = sum(run["failed"] for run in sides[side])
            attempted = sum(run["attempted"] for run in sides[side])
            wrong = sum(1 for run in sides[side] if not run["correct"])
            lines.append(f"{workload} {side}: {failed} of {attempted} ops "
                         f"failed, {wrong} of {len(sides[side])} runs "
                         f"incorrect")
            held = held and failed == 0 and wrong == 0
    return lines, held


def export(ref: str, target: str) -> None:
    """Unpack ``ref``'s committed tree into ``target``."""
    os.makedirs(target)
    archive = subprocess.run(["git", "-C", REPO_ROOT, "archive", ref],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)


def run_once(tree: str, command: list[str], workload: str,
             seed: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        return parse_result(done.stdout)
    except ValueError as error:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{done.returncode}: {error}") from None


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        contract = json.load(handle)
    workloads = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="abcompare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="git ref of the baseline")
    parser.add_argument("change", help="git ref of the change")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs per workload (default 10)")
    parser.add_argument("--workload", choices=workloads,
                        help="compare one workload (default: all)")
    parser.add_argument("--seed", type=int, default=31,
                        help="seed of the first pair; pair i runs both "
                             "sides with seed + i (default 31)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    selected = [args.workload] if args.workload else workloads

    runs = {workload: {side: [] for side in SIDES} for workload in selected}
    with tempfile.TemporaryDirectory(prefix="abcompare-") as scratch:
        trees = {"parent": os.path.join(scratch, "parent"),
                 "change": os.path.join(scratch, "change")}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in selected:
                for side in order:
                    result = run_once(trees[side], contract["command"],
                                      workload, args.seed + pair)
                    runs[workload][side].append(result)
                    print(f"-- pair {pair + 1}/{args.pairs} {side} "
                          f"{workload} seed {args.seed + pair}: "
                          + " ".join(f"{name}={value:.5g}" for name, value
                                     in result["metrics"].items())
                          + f" failed={result['failed']}"
                            f" correct={result['correct']}", flush=True)
    print(f"\n{args.pairs} alternating pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}: parent {args.parent}, "
          f"change {args.change}")
    lines, held = summarize(runs, contract)
    print("\n".join(lines))
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
