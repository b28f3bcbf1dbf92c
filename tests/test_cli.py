"""CLI: every subcommand exercised end to end."""

import json

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            main(["summary", "resnet152"])

    def test_optimize_requires_qos(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["optimize", "tiny"])

    def test_qos_forms_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(
                ["optimize", "tiny", "--qos-percent", "30", "--qos-ms", "5"]
            )


class TestCommands:
    def test_summary(self, capsys):
        assert main(["summary", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "DAE-eligible" in out

    def test_optimize_writes_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            ["optimize", "tiny", "--qos-percent", "30",
             "--output", str(plan_path)]
        )
        assert code == 0
        data = json.loads(plan_path.read_text())
        assert data["model_name"] == "tiny"
        assert data["layers"]

    def test_optimize_harmonized(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            ["optimize", "tiny", "--qos-percent", "30", "--harmonize",
             "--output", str(plan_path)]
        )
        assert code == 0

    def test_deploy_roundtrip(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        timeline_path = tmp_path / "timeline.csv"
        main(["optimize", "tiny", "--qos-percent", "30",
              "--output", str(plan_path)])
        capsys.readouterr()
        code = main(
            ["deploy", "tiny", "--plan", str(plan_path),
             "--qos-ms", "2.0", "--timeline", str(timeline_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QoS met: True" in out
        assert timeline_path.read_text().startswith("start_s,")

    def test_deploy_missing_plan_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{broken")
        code = main(["deploy", "tiny", "--plan", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "tiny", "--qos-percents", "20"]) == 0
        out = capsys.readouterr().out
        assert "vs TE" in out
        assert "20%" in out

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "MHz" in out
        assert "mW" in out

    def test_lifetime(self, capsys):
        code = main(
            ["lifetime", "tiny", "--qos-percent", "30",
             "--capacity-mah", "500", "--windows-per-hour", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "days" in out
        assert "DAE + DVFS" in out

    def test_codegen(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(["optimize", "tiny", "--qos-percent", "30",
              "--output", str(plan_path)])
        capsys.readouterr()
        outdir = tmp_path / "firmware"
        code = main(
            ["codegen", "tiny", "--plan", str(plan_path),
             "--outdir", str(outdir)]
        )
        assert code == 0
        header = (outdir / "dae_dvfs_clocks.h").read_text()
        source = (outdir / "dae_dvfs_inference.c").read_text()
        assert "PLLN" in header
        assert "run_inference" in source

    def test_infeasible_qos_reports_error(self, capsys):
        code = main(["optimize", "tiny", "--qos-ms", "0.001"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_stream(self, capsys):
        code = main(
            ["stream", "tiny", "--qos-percent", "30",
             "--windows", "20", "--idle", "stop"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "20 windows" in out
        assert "thermal" in out

    def test_hotspots(self, capsys):
        assert main(["hotspots", "tiny", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "share" in out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "self-test PASSED" in out

    def test_chaos_campaign(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "tiny", "--devices", "3", "--epochs", "1",
             "--watchdog-rate", "0.01", "--json", str(out_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # --json owns stdout; the human summary moves to stderr.
        assert "chaos campaign" in captured.err
        assert "digest:" in captured.err
        data = json.loads(out_path.read_text())
        assert json.loads(captured.out) == data
        assert data["n_devices"] == 3
        assert data["digest"]
        assert len(data["devices"]) == 3


class TestJsonContract:
    """--json: machine-parseable stdout, human text on stderr."""

    def test_optimize_json_stdout_only(self, capsys):
        code = main(
            ["optimize", "tiny", "--qos-percent", "30", "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["model"] == "tiny"
        assert payload["plan"]["layers"]
        assert len(payload["digest"]) == 64
        assert "baseline" in captured.err  # human text on stderr

    def test_optimize_json_to_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["optimize", "tiny", "--qos-percent", "30",
             "--json", str(path)]
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        on_stdout = json.loads(capsys.readouterr().out)
        assert on_disk == on_stdout

    def test_compare_json(self, capsys):
        code = main(
            ["compare", "tiny", "--qos-percents", "30", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["qos_percent"] == 30
        assert payload["rows"][0]["met_qos"]

    def test_lifetime_json(self, capsys):
        code = main(
            ["lifetime", "tiny", "--qos-percent", "30", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["systems"]["ours"]["days"] > 0

    def test_selftest_quick_json(self, capsys):
        code = main(["selftest", "--quick", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["quick"] is True
        assert len(payload["checks"]) == 3

    def test_error_emits_structured_json(self, capsys):
        code = main(
            ["optimize", "tiny", "--qos-ms", "0.001", "--json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["error"]["kind"] == "qos_infeasible"
        assert "infeasible" in captured.err

    def test_fleet_json_stdout(self, capsys):
        code = main(
            ["fleet", "tiny", "--devices", "2", "--epochs", "0",
             "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["n_devices"] == 2
        assert "fleet" in captured.err


class TestServeCommands:
    def test_loadgen_json(self, capsys):
        code = main(
            ["loadgen", "--requests", "6", "--concurrency", "2",
             "--qos-percents", "30", "--workers", "2", "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] == 6
        assert payload["sheds"] == 0
        assert payload["cache_consistent"] is True
        assert "req/s" in captured.err

    def test_loadgen_human_only(self, capsys):
        code = main(
            ["loadgen", "--requests", "4", "--concurrency", "2",
             "--qos-percents", "30", "--workers", "2", "--no-verify"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "4/4 ok" in captured.out
        assert captured.err == ""


class TestMonitorCommand:
    @pytest.fixture(scope="class")
    def metrics_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metrics") / "fleet.metrics.json"
        code = main(
            ["fleet", "tiny", "--devices", "2", "--epochs", "0",
             "--metrics", str(path)]
        )
        assert code == 0
        return path

    def test_metrics_flag_writes_verifiable_snapshot(self, metrics_file):
        from repro.obs.registry import snapshot_digest

        doc = json.loads(metrics_file.read_text())
        assert doc["digest"] == snapshot_digest(doc["registry"])
        assert "fleet.pricing" in doc["registry"]["counters"]

    def test_monitor_tails_single_snapshot(self, capsys, metrics_file):
        assert main(["monitor", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "counter" in out

    def test_monitor_delta_between_snapshots_json(
        self, capsys, metrics_file
    ):
        code = main(
            ["monitor", str(metrics_file), str(metrics_file), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sources"] == [str(metrics_file)] * 2
        # Identical endpoints: no window activity, so no counter
        # families at all (zero-delta cells are omitted).
        assert payload["rollup"]["counters"] == {}

    def test_monitor_prom_export_lints_clean(
        self, capsys, metrics_file, tmp_path
    ):
        prom_path = tmp_path / "metrics.prom"
        code = main(
            ["monitor", str(metrics_file), "--prom", str(prom_path),
             "--lint"]
        )
        assert code == 0
        assert prom_path.read_text().startswith("# HELP ")
        assert "lint: exposition clean" in capsys.readouterr().out

    def test_monitor_slo_json_reports_rows(self, capsys, metrics_file):
        code = main(
            ["monitor", str(metrics_file), "--slo", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["slo"]["rows"]}
        assert "serve-latency-p95" in names
        assert "scenario-governor-drift" in names

    def test_monitor_detects_tampered_digest(self, tmp_path, capsys):
        path = tmp_path / "bad.metrics.json"
        code = main(
            ["fleet", "tiny", "--devices", "2", "--epochs", "0",
             "--metrics", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        doc["digest"] = "0" * 64
        path.write_text(json.dumps(doc))
        assert main(["monitor", str(path)]) != 0

    def test_monitor_requires_a_source(self, capsys):
        assert main(["monitor"]) != 0


class TestFailedRunArtifacts:
    """A failing traced command still writes --trace/--metrics."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--devices", "2", "--epochs", "0"],
            ["scenario", "zero-event"],
        ],
        ids=["fleet", "scenario"],
    )
    def test_failure_writes_artifacts_and_uninstalls_tracer(
        self, capsys, tmp_path, argv
    ):
        from repro.obs.export import load_jsonl
        from repro.obs.tracing import get_tracer, uninstall

        trace = tmp_path / "fail.jsonl"
        metrics = tmp_path / "fail.metrics.json"
        try:
            code = main(
                argv + ["--board", "nosuch", "--trace", str(trace),
                        "--metrics", str(metrics)]
            )
            leaked = get_tracer()
        finally:
            uninstall()
        assert code == 1
        assert "unknown board" in capsys.readouterr().err
        assert trace.exists() and metrics.exists()
        assert isinstance(load_jsonl(str(trace)), list)
        assert "registry" in json.loads(metrics.read_text())
        assert leaked is None


class TestQoSFlagsHonoured:
    """Every accepted QoS flag reaches the planner."""

    @staticmethod
    def _baseline_s():
        from repro.nn import build_tiny_test_model
        from repro.pipeline import DAEDVFSPipeline

        return DAEDVFSPipeline().baseline_latency_s(build_tiny_test_model())

    def test_fleet_qos_ms_sets_budget(self, capsys):
        code = main(
            ["fleet", "--devices", "2", "--epochs", "0",
             "--qos-ms", "2.0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qos_ms"] == pytest.approx(2.0)

    def test_stream_qos_ms_sets_period(self, capsys):
        code = main(
            ["stream", "tiny", "--qos-ms", "2.0", "--windows", "2"]
        )
        assert code == 0
        assert "2 windows of 2.00 ms" in capsys.readouterr().out

    def test_deploy_qos_percent_sets_window(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(["optimize", "tiny", "--qos-percent", "30",
              "--output", str(plan_path)])
        capsys.readouterr()
        code = main(
            ["deploy", "tiny", "--plan", str(plan_path),
             "--qos-percent", "10"]
        )
        assert code == 0
        window_ms = self._baseline_s() * 1.1 * 1e3
        assert f"over a {window_ms:.3f} ms window" in capsys.readouterr().out

    def test_lifetime_rejects_qos_ms(self):
        with pytest.raises(SystemExit) as exc:
            main(["lifetime", "tiny", "--qos-ms", "2.0"])
        assert exc.value.code == 2
