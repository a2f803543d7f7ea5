"""A/A check: do two sets of runs of the *same* code agree?

``python -m benchmarks.layercake.aa --runs K`` makes 2 x K full untraced
runs of the current tree, alternating which set a run belongs to
(A B A B ...), and prints for every workload x end-to-end metric both
set medians, their relative difference and the metric's bound from
``BENCHMARK.json``.  It exits non-zero if a difference exceeds its bound
or if a count that must repeat exactly (``plans_digest``, dispatches per
op, ...) differs between any two runs.
"""

from __future__ import annotations

import argparse
import io
import statistics
import sys
from pathlib import Path

if not __package__:  # run as a script: make ``benchmarks.layercake`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.layercake import harness, run  # noqa: E402


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layercake.aa", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default 5)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed of every run (default: "
                             "workloads.json)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    definitions = harness.load_definitions()
    contract = harness.load_contract()
    seed = definitions["seed"] if args.seed is None else args.seed
    run_args = run.parse_args(["--seed", str(seed)], definitions)

    sets: dict[str, dict[tuple[str, str], list[float]]] = {"A": {}, "B": {}}
    exact: dict[tuple[str, str], set] = {}
    all_correct = True
    for index in range(2 * args.runs):
        label = "AB"[index % 2]
        print(f"-- run {index // 2 + 1}/{args.runs} of set {label}",
              flush=True)
        measured = run.run(run_args, definitions,
                           out=io.StringIO())["untraced"]
        for workload, doc in measured.items():
            all_correct = all_correct and doc["correct"]
            for metric, entry in doc["metrics"].items():
                sets[label].setdefault((workload, metric), []).append(
                    entry["value"])
            for name, value in doc["exact"].items():
                exact.setdefault((workload, name), set()).add(value)

    failures = 0
    print(f"\nA/A: {args.runs} runs per set, sets interleaved, seed {seed}")
    print("| workload | metric | unit | median A | median B | B worse by "
          "| bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in run.WORKLOADS:
        for entry in contract["end_to_end"]:
            key = (workload, entry["name"])
            median_a = statistics.median(sets["A"][key])
            median_b = statistics.median(sets["B"][key])
            worse = worse_by(median_a, median_b, entry["better"])
            within = abs(worse) <= entry["bound"]
            failures += 0 if within else 1
            print(f"| {workload} | {entry['name']} | {entry['unit']} | "
                  f"{median_a:.5g} | {median_b:.5g} | {worse:+.2%} | "
                  f"{entry['bound']:.0%} | {'ok' if within else 'FAIL'} |")
    print("\nCounts that must repeat exactly across all "
          f"{2 * args.runs} runs:")
    for (workload, name), seen in sorted(exact.items()):
        same = len(seen) == 1
        failures += 0 if same else 1
        shown = next(iter(seen)) if same else sorted(map(str, seen))
        print(f"- {workload} {name}: {shown} "
              f"{'(identical)' if same else 'DIFFERS'}")
    if not all_correct:
        print("a run failed its output checks", file=sys.stderr)
    return 0 if all_correct and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
