"""Golden trace test: a fixed GNMF run's Chrome-trace export, pinned.

The simulator is deterministic, so everything *structural* about a GNMF
trace — which jobs and tasks exist, their phases, attempt counts, statuses,
I/O volumes, slot lanes — is pinned against a committed fixture.  Wall-clock
fields (``ts``/``dur``) are stripped before comparison, so recalibrating the
cost model's timing coefficients does not break this test; changing the
compiler's job structure or the trace schema does, which is the point.

A real (thread-pool) run of the same program with fixed-seed inputs is then
checked against the same fixture for task coverage: the actual execution
must produce events for exactly the tasks the prediction did.

Regenerate after a deliberate structural change::

    PYTHONPATH=src python tests/test_golden_trace.py --regenerate
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.executor import CumulonExecutor
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.observability.export import structural_summary, to_chrome_events
from repro.observability.trace import (
    SOURCE_ACTUAL,
    SOURCE_SIMULATED,
    InMemoryRecorder,
)
from repro.workloads.gnmf import build_gnmf_program

FIXTURE = Path(__file__).parent / "fixtures" / "gnmf_trace_golden.json"

TILE = 64
SEED = 17


def build_program():
    return build_gnmf_program(192, 128, 16, iterations=2)


def simulated_trace():
    compiled = compile_program(build_program(), PhysicalContext(TILE))
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    spec = ClusterSpec(get_instance_type("m1.large"), 2, 2)
    simulate_program(compiled.dag, spec, CumulonCostModel(),
                     recorder=recorder)
    return recorder.trace()


def strip_timing(events):
    return [{key: value for key, value in event.items()
             if key not in ("ts", "dur")} for event in events]


def build_fixture():
    trace = simulated_trace()
    return {
        "chrome_events": strip_timing(to_chrome_events(trace)),
        "summary": structural_summary(trace),
    }


def load_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenTrace:
    def test_chrome_export_structure_matches_fixture(self):
        assert build_fixture()["chrome_events"] \
            == load_fixture()["chrome_events"]

    def test_structural_summary_matches_fixture(self):
        assert build_fixture()["summary"] == load_fixture()["summary"]

    def test_event_counts_pinned(self):
        summary = load_fixture()["summary"]
        trace = simulated_trace()
        assert len(trace.events) == summary["num_events"]
        assert len(trace.task_events()) == summary["num_task_events"]

    def test_actual_run_covers_fixture_tasks(self):
        """A fixed-seed real execution runs exactly the predicted task set."""
        fixture_tasks = sorted(
            event["task_id"] for event in load_fixture()["summary"]["events"]
            if event["phase"] in ("map", "reduce")
        )
        program = build_program()
        rng = np.random.default_rng(SEED)
        inputs = {name: rng.random(var.shape) + 0.01
                  for name, var in program.inputs.items()}
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        CumulonExecutor(tile_size=TILE, max_workers=2,
                        recorder=recorder).run(program, inputs)
        actual_tasks = sorted(
            event.task_id for event in recorder.trace().task_events())
        assert actual_tasks == fixture_tasks


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump(build_fixture(), handle, indent=1, sort_keys=True)
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
