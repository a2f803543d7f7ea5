"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_workload, main
from repro.errors import ReproError
from repro.observability.export import validate_chrome_trace


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCatalog:
    def test_lists_all_types(self):
        code, text = run_cli("catalog")
        assert code == 0
        for name in ("m1.small", "c1.xlarge", "m2.4xlarge"):
            assert name in text


class TestExplain:
    def test_text_output(self):
        code, text = run_cli("explain", "multiply", "--scale", "small")
        assert code == 0
        assert "program" in text
        assert "maps=" in text

    def test_dot_output(self):
        code, text = run_cli("explain", "gnmf", "--scale", "small", "--dot")
        assert code == 0
        assert text.startswith("digraph")

    def test_unknown_workload_fails_cleanly(self):
        code, __ = run_cli("explain", "quicksort")
        assert code == 1


class TestSimulate:
    def test_reports_total(self):
        code, text = run_cli("simulate", "multiply", "--scale", "small",
                             "--nodes", "4")
        assert code == 0
        assert "total" in text

    def test_instance_selection(self):
        code, text = run_cli("simulate", "multiply", "--scale", "small",
                             "--instance", "c1.xlarge", "--nodes", "2",
                             "--slots", "4")
        assert code == 0
        assert "c1.xlarge" in text


class TestOptimize:
    def test_deadline(self):
        code, text = run_cli("optimize", "multiply", "--scale", "small",
                             "--deadline", "60")
        assert code == 0
        assert "deploy on" in text
        assert "estimated cost" in text

    def test_budget(self):
        code, text = run_cli("optimize", "multiply", "--scale", "small",
                             "--budget", "5")
        assert code == 0
        assert "fastest plan" in text

    def test_constraint_required(self):
        with pytest.raises(SystemExit):
            run_cli("optimize", "multiply")


class TestTrace:
    def test_chrome_output_is_valid(self):
        code, text = run_cli("trace", "multiply", "--scale", "tiny")
        assert code == 0
        assert validate_chrome_trace(text) > 0
        assert json.loads(text)["displayTimeUnit"] == "ms"

    def test_csv_output(self):
        code, text = run_cli("trace", "multiply", "--scale", "tiny",
                             "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("source,job_id,task_id,phase,slot")
        assert len(lines) > 1

    def test_summary_output(self):
        code, text = run_cli("trace", "multiply", "--scale", "tiny",
                             "--format", "summary")
        assert code == 0
        assert "trace [simulated]" in text
        assert "makespan" in text

    def test_diff_reports_coverage(self):
        code, text = run_cli("trace", "multiply", "--scale", "tiny",
                             "--diff", "--format", "summary")
        assert code == 0
        assert "trace [actual]" in text
        assert "coverage 100%" in text

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "trace.json"
        code, text = run_cli("trace", "multiply", "--scale", "tiny",
                             "--out", str(target))
        assert code == 0
        assert validate_chrome_trace(
            target.read_text(encoding="utf-8")) > 0


class TestProfile:
    def test_text_profile_reports_lanes_and_tasks(self):
        code, text = run_cli("profile", "multiply", "--scale", "tiny",
                             "--workers", "2")
        assert code == 0
        assert "backend=thread" in text
        assert "wall time (execution only):" in text
        assert "per-lane utilization" in text
        assert "top task groups by cumulative time" in text
        # Thread backend: no process-pool kernel spans in the profile.
        assert "procworker:" not in text

    def test_json_profile_document(self):
        code, text = run_cli("profile", "gnmf", "--scale", "tiny",
                             "--workers", "2", "--json")
        assert code == 0
        document = json.loads(text)
        assert document["workload"] == "gnmf"
        assert document["backend"] == "thread"
        assert document["workers"] == 2
        assert document["wall_seconds"] > 0
        assert document["tasks"], "expected grouped task rows"
        assert document["lanes"], "expected per-lane utilization rows"
        for lane in document["lanes"]:
            assert lane["busy_seconds"] >= 0

    def test_top_limits_rows(self):
        code, text = run_cli("profile", "gnmf", "--scale", "tiny",
                             "--top", "1")
        assert code == 0
        section = text.split("top task groups by cumulative time:")[1]
        rows = [line for line in section.splitlines()
                if line.startswith("  j")]
        assert len(rows) == 1

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "profile.json"
        code, text = run_cli("profile", "multiply", "--scale", "tiny",
                             "--json", "--out", str(target))
        assert code == 0
        assert "wrote profile to" in text
        assert json.loads(target.read_text(encoding="utf-8"))["lanes"]


class TestExecutorFlags:
    """``--workers``/``--backend`` exist only where the executor runs."""

    @pytest.mark.parametrize("argv", [
        ("explain", "gnmf", "--scale", "tiny", "--backend", "process"),
        ("explain", "gnmf", "--scale", "tiny", "--search", "--workers", "4"),
        ("serve", "S.json", "--backend", "process", "--workers", "3"),
    ])
    def test_commands_that_do_not_execute_refuse_them(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("repro ")
        assert repro.__version__ in text


class TestMetricsCommand:
    def test_dashboard_output(self):
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--nodes", "2")
        assert code == 0
        assert "counters & gauges" in text
        assert "sim.tasks_completed" in text
        assert "time series" in text

    def test_prometheus_output(self):
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--format", "prom")
        assert code == 0
        assert "# TYPE sim_tasks_completed_total counter" in text

    def test_json_output_includes_context(self):
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--format", "json")
        assert code == 0
        document = json.loads(text)
        assert document["workload"] == "multiply"
        assert document["makespan_seconds"] > 0
        assert document["counters"]

    def test_csv_output(self):
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--format", "csv")
        assert code == 0
        assert text.splitlines()[0] == "kind,name,labels,field,t,value"

    def test_budget_reports_cost_meter(self):
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--budget", "0.01", "--format", "json")
        assert code == 0
        assert "cost meter" in text
        assert "OVER" in text

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "metrics.json"
        code, text = run_cli("metrics", "multiply", "--scale", "tiny",
                             "--format", "json", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text(encoding="utf-8"))["counters"]


class TestUnwritableOut:
    """Every ``--out``-style flag goes through one writer: a path that
    cannot be opened is a clean exit 1, not a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (("trace", "multiply", "--scale", "tiny"), "--out"),
        (("metrics", "multiply", "--scale", "tiny", "--format", "json"),
         "--out"),
        (("chaos", "gnmf", "--scale", "tiny", "--scenario", "node-crash",
          "--seed", "7"), "--metrics-out"),
    ], ids=["trace", "metrics", "chaos-metrics"])
    def test_exits_one_with_cannot_write(self, argv, flag, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "document"
        code, text = run_cli(*argv, flag, str(target))
        assert code == 1
        assert "wrote" not in text
        error = capsys.readouterr().err
        assert error.startswith("error: cannot write ")
        assert str(target) in error
        assert not target.parent.exists()


class TestExplainSearchFlag:
    def test_search_prints_candidates(self):
        code, text = run_cli("explain", "multiply", "--scale", "tiny",
                             "--search", "--instances", "m1.large",
                             "--node-counts", "2", "--slot-options", "2")
        assert code == 0
        assert "candidates" in text
        assert "pareto frontier" in text

    def test_bad_list_value_fails_cleanly(self):
        code, __ = run_cli("explain", "multiply", "--scale", "tiny",
                           "--search", "--node-counts", "two")
        assert code == 1


class TestWorkloadRegistry:
    @pytest.mark.parametrize("name", ["multiply", "gnmf", "rsvd",
                                      "regression", "pagerank", "logistic",
                                      "pca", "kmeans"])
    def test_all_workloads_build(self, name):
        program, tile = build_workload(name, "small")
        assert program.statements
        assert tile > 0

    def test_unknown_scale(self):
        with pytest.raises(ReproError):
            build_workload("multiply", "galactic")

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            build_workload("quicksort", "small")


class TestServeDurability:
    def build_script(self, tmp_path, jobs=2):
        path = tmp_path / "script.json"
        for index in range(jobs):
            code, __ = run_cli(
                "submit", str(path), "multiply", "--scale", "tiny",
                "--tenant", "acme", "--submit-at", str(index * 30.0),
                "--nodes", "2")
            assert code == 0
        return path

    def test_serve_with_journal_reports_stats(self, tmp_path):
        script = self.build_script(tmp_path)
        journal = tmp_path / "state"
        code, text = run_cli("serve", str(script), "--journal",
                             str(journal), "--json")
        assert code == 0
        document = json.loads(text)
        assert document["journal"]["records"] > 0
        assert (journal / "journal.wal").exists()
        assert all(job["state"] == "completed"
                   for job in document["jobs"])

    def test_serve_refuses_existing_state_without_recover(
            self, tmp_path, capsys):
        script = self.build_script(tmp_path)
        journal = tmp_path / "state"
        code, __ = run_cli("serve", str(script), "--journal", str(journal))
        assert code == 0
        code, __ = run_cli("serve", str(script), "--journal",
                           str(journal))
        assert code == 1
        assert "--recover" in capsys.readouterr().err

    def test_listen_refuses_existing_state_before_binding(
            self, tmp_path, capsys):
        # The socket path shares the journal-opening step with the batch
        # path, and that step runs before any server object exists.
        script = self.build_script(tmp_path)
        journal = tmp_path / "state"
        code, __ = run_cli("serve", str(script), "--journal", str(journal))
        assert code == 0
        socket_path = tmp_path / "serve.sock"
        code, text = run_cli("serve", "--listen", str(socket_path),
                             "--journal", str(journal))
        assert code == 1
        assert "listening on" not in text
        assert "--recover" in capsys.readouterr().err
        assert not socket_path.exists()

    def test_serve_recover_picks_up_new_jobs(self, tmp_path):
        script = self.build_script(tmp_path)
        journal = tmp_path / "state"
        code, __ = run_cli("serve", str(script), "--journal", str(journal))
        assert code == 0
        # A job appended after the journaled run is not yet durable.
        code, text = run_cli(
            "submit", str(script), "multiply", "--scale", "tiny",
            "--tenant", "acme", "--submit-at", "90", "--journal",
            str(journal), "--json")
        assert code == 0
        assert json.loads(text)["journal_pending_jobs"] == 1
        code, text = run_cli("serve", str(script), "--journal",
                             str(journal), "--recover", "--json")
        assert code == 0
        document = json.loads(text)
        assert len(document["jobs"]) == 3
        assert document["recovery"]["decisions_repriced"] == 0
        assert document["recovery"]["decisions_replayed"] == 2

    def test_submit_journal_ignores_non_script_submissions(self, tmp_path):
        # A journal fed by live submissions (no script_index) holds none
        # of this script's jobs: they are all still pending.
        from repro.service.durability import DurabilityStore
        from repro.service.jobs import JobService
        from repro.cloud.instances import ClusterSpec, get_instance_type

        journal = tmp_path / "state"
        service = JobService(ClusterSpec(get_instance_type("c1.medium"), 2,
                                         2))
        service.attach_durability(DurabilityStore(journal))
        service.add_tenant("live")
        for __ in range(5):
            program, tile = build_workload("multiply", "tiny")
            service.submit(program, "live", tile_size=tile,
                           source={"workload": "multiply", "scale": "tiny"})
        service.drain()
        service.close_durability()
        script = self.build_script(tmp_path)
        code, text = run_cli(
            "submit", str(script), "multiply", "--scale", "tiny",
            "--tenant", "acme", "--journal", str(journal), "--json")
        assert code == 0
        document = json.loads(text)
        assert document["journal_pending_jobs"] == document["jobs"] == 3

    def test_submit_journal_counts_jobs_held_in_the_snapshot(self, tmp_path):
        script = self.build_script(tmp_path, jobs=3)
        journal = tmp_path / "state"
        code, __ = run_cli("serve", str(script), "--journal", str(journal),
                           "--snapshot-every", "4")
        assert code == 0
        assert (journal / "snapshot.json").exists()
        code, text = run_cli(
            "submit", str(script), "multiply", "--scale", "tiny",
            "--tenant", "acme", "--submit-at", "120", "--journal",
            str(journal), "--json")
        assert code == 0
        assert json.loads(text)["journal_pending_jobs"] == 1

    def test_serve_recover_text_describes_replay(self, tmp_path):
        script = self.build_script(tmp_path)
        journal = tmp_path / "state"
        run_cli("serve", str(script), "--journal", str(journal))
        code, text = run_cli("serve", str(script), "--journal",
                             str(journal), "--recover")
        assert code == 0
        assert "recovered from journal" in text
        assert "decisions replayed (0 re-priced)" in text

    def test_chaos_service_kill_round_trip(self, tmp_path):
        script = self.build_script(tmp_path)
        code, text = run_cli("chaos", str(script), "--scenario",
                             "service-kill", "--chaos-seed", "5", "--json")
        assert code == 0
        document = json.loads(text)
        assert document["scenario"] == "service-kill"
        assert document["kill_after"] == 5
        assert document["killed"] is True
        assert document["ok"] is True
        assert document["lost_jobs"] == 0
        assert document["double_billed"] == 0
        assert document["bills_match"] and document["schedules_match"]
        assert document["full_run_records"] >= 5

    def test_chaos_service_kill_past_the_run_fails(self, tmp_path, capsys):
        # A 3-job script writes a few dozen records: a kill point past
        # them could never land, so the run is refused, not passed.
        script = self.build_script(tmp_path, jobs=3)
        code, text = run_cli("chaos", str(script), "--scenario",
                             "service-kill", "--chaos-seed", "100000")
        assert code == 1
        assert text == ""
        assert "past the last" in capsys.readouterr().err


class TestChaos:
    def test_node_crash_reports_damage(self):
        code, text = run_cli("chaos", "gnmf", "--scale", "tiny",
                             "--scenario", "node-crash", "--seed", "7")
        assert code == 0
        assert "chaos scenario 'node-crash'" in text
        assert "clean baseline" in text
        assert "nodes lost" in text

    def test_revocation_wave_writes_artifacts(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code, text = run_cli(
            "chaos", "gnmf", "--scale", "tiny",
            "--scenario", "revocation-wave", "--seed", "7",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--advise-checkpoint")
        assert code == 0
        assert "checkpoint" in text
        assert validate_chrome_trace(trace_path.read_text()) > 0
        document = json.loads(metrics_path.read_text())
        counters = {c["name"]: c["value"] for c in document["counters"]}
        assert counters.get("sim.nodes_lost", 0) >= 1
        assert document["scenario"] == "revocation-wave"
        assert document["completed"] is True

    def test_restart_recovery_costs_more(self):
        code, resume_text = run_cli("chaos", "gnmf", "--scale", "tiny",
                                    "--scenario", "node-crash", "--seed", "7")
        assert code == 0
        code, restart_text = run_cli("chaos", "gnmf", "--scale", "tiny",
                                     "--scenario", "node-crash", "--seed",
                                     "7", "--recovery", "restart")
        assert code == 0
        assert "restart" in restart_text

    def test_quorum_loss_exits_nonzero(self):
        code, text = run_cli("chaos", "gnmf", "--scale", "tiny", "--nodes",
                             "2", "--scenario", "node-crash",
                             "--min-live-nodes", "2")
        assert code == 1
        assert "ABORTED" in text

    def test_trace_scenario_injection(self):
        code, text = run_cli("trace", "gnmf", "--scale", "tiny",
                             "--scenario", "revocation-wave",
                             "--chaos-seed", "7", "--format", "summary")
        assert code == 0

    def test_trace_diff_rejects_scenario(self):
        code, __ = run_cli("trace", "multiply", "--scale", "tiny", "--diff",
                           "--scenario", "node-crash")
        assert code == 1

    def test_metrics_scenario_counts_losses(self):
        code, text = run_cli("metrics", "gnmf", "--scale", "tiny",
                             "--scenario", "revocation-wave",
                             "--chaos-seed", "7", "--format", "prom")
        assert code == 0
        assert "sim_nodes_lost_total" in text
        assert "sim_revocations_total" in text
