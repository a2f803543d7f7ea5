"""Verdict logic of ``tools/abcompare.py`` on canned benchmark output.

No benchmark runs here: the tool's parsing and its nine-of-ten /
beyond-the-parent's-IQR rule are pure functions over result lines.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import abcompare  # noqa: E402

CONTRACT = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
}


def result_line(ops_per_s, op_ms_p50, failed=0, correct=True):
    """What ``run.py --workload W`` prints last, after its chatter."""
    return ("== plan_cold: seed 31, 165 ops attempted\n"
            "plan_cold/ops_per_s 7.1 1/s\n"
            + json.dumps({
                "correct": correct, "attempted": 165, "failed": failed,
                "metrics": {
                    "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "op_ms_p50": {"value": op_ms_p50, "unit": "ms"}}})
            + "\n")


class TestParseResult:
    def test_reads_the_last_line(self):
        parsed = abcompare.parse_result(result_line(7.5, 120.0))
        assert parsed == {"correct": True, "attempted": 165, "failed": 0,
                          "metrics": {"ops_per_s": 7.5, "op_ms_p50": 120.0}}

    @pytest.mark.parametrize("stdout", ["", "benchmark failed\n", "[1, 2]\n",
                                        '{"correct": true}\n'])
    def test_rejects_output_without_a_result(self, stdout):
        with pytest.raises(ValueError):
            abcompare.parse_result(stdout)


class TestJudge:
    PARENT = [7.0, 7.2, 6.9, 7.1, 7.3, 7.0, 6.8, 7.2, 7.1, 7.0]

    def test_gain_needs_nine_of_ten_wins_and_medians_beyond_the_iqr(self):
        change = [value * 1.3 for value in self.PARENT]
        cell = abcompare.judge(self.PARENT, change, "higher", 0.25)
        assert (cell.wins, cell.losses, cell.ties) == (10, 0, 0)
        assert cell.verdict == "gain"
        assert cell.parent[1] == pytest.approx(7.05)

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [value * 1.3 for value in self.PARENT]
        change[0] = change[1] = 6.0
        cell = abcompare.judge(self.PARENT, change, "higher", 0.25)
        assert (cell.wins, cell.losses) == (8, 2)
        assert cell.verdict == "same"

    def test_ties_count_for_neither_side(self):
        change = [value * 1.3 for value in self.PARENT]
        change[0], change[1] = self.PARENT[0], self.PARENT[1]
        cell = abcompare.judge(self.PARENT, change, "higher", 0.25)
        assert (cell.wins, cell.losses, cell.ties) == (8, 0, 2)
        assert cell.verdict != "gain"

    def test_winning_every_pair_inside_the_parents_iqr_is_not_a_gain(self):
        noisy = [3.0, 11.0, 4.0, 10.0, 5.0, 9.0, 6.0, 8.0, 7.0, 7.2]
        change = [value + 0.1 for value in noisy]
        cell = abcompare.judge(noisy, change, "higher", 0.25)
        assert cell.wins == 10
        # 10/10, but 0.1 apart against an IQR of ~4: the rule says no;
        # and a spread that wide cannot call it unchanged either.
        assert cell.verdict == "unresolved"

    def test_lower_is_better_flips_the_direction(self):
        parent = [100.0 + index for index in range(10)]
        faster = [value * 0.7 for value in parent]
        assert abcompare.judge(parent, faster, "lower", 0.25).verdict == "gain"
        assert abcompare.judge(parent, faster, "higher", 0.25).verdict \
            == "WORSE"

    def test_a_consistent_move_inside_the_bound_is_not_flagged(self):
        parent = [59.0 + 0.01 * index for index in range(10)]
        change = [value + 0.2 for value in parent]      # peak RSS +0.3%
        cell = abcompare.judge(parent, change, "lower", 0.10)
        assert (cell.wins, cell.losses) == (0, 10)
        assert cell.verdict == "same"

    def test_median_past_the_bound_is_flagged_without_nine_losses(self):
        parent = [100.0] * 10
        change = [90.0] * 4 + [140.0] * 6      # 4 wins, median 140
        cell = abcompare.judge(parent, change, "lower", 0.25)
        assert (cell.wins, cell.losses) == (4, 6)
        assert cell.verdict == "WORSE"

    def test_inside_the_bound_with_a_tight_parent_is_same(self):
        parent = [100.0, 101.0, 99.0, 100.5]
        change = [104.0, 98.0, 103.0, 99.0]
        assert abcompare.judge(parent, change, "lower", 0.25).verdict \
            == "same"

    def test_every_change_run_better_than_every_parent_run_resolves(self):
        noisy = [1.0, 1.0, 9.0, 9.1, 9.2]
        change = [9.3, 9.4, 9.5, 9.6, 9.7]
        # 5/5 wins but medians 0.5 apart against an IQR of 8: no gain by
        # the rule, yet not "unresolved" either -- no change run reads
        # worse than any parent run.
        assert abcompare.judge(noisy, change, "higher", 0.25).verdict \
            == "same"

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            abcompare.judge([1.0, 2.0], [1.0], "lower", 0.25)


class TestSummarize:
    def runs(self, change_failed=0):
        parent = [abcompare.parse_result(result_line(7.0 + 0.01 * i, 130.0))
                  for i in range(10)]
        change = [abcompare.parse_result(
            result_line(9.5 + 0.01 * i, 100.0, failed=change_failed))
            for i in range(10)]
        return {"plan_cold": {"parent": parent, "change": change}}

    def test_table_has_a_row_per_metric_and_holds(self):
        lines, held = abcompare.summarize(self.runs(), CONTRACT)
        assert held
        rows = [line for line in lines if line.startswith("| plan_cold")]
        assert len(rows) == 2
        assert "| 10/0/0 | gain |" in rows[0]
        assert "7.022 / 7.045 / 7.067" in rows[0]

    def test_a_failed_op_fails_the_comparison(self):
        lines, held = abcompare.summarize(self.runs(change_failed=1),
                                          CONTRACT)
        assert not held
        assert "plan_cold change: 10 of 1650 ops failed" in "\n".join(lines)
