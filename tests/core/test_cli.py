"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import cli
from repro.cli import build_parser, main

SAMPLE = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                      "sample_msr.csv")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_present(self):
        parser = build_parser()
        for command in ("features", "validate", "fig3", "fig4", "fig5",
                        "fig6", "run", "explore"):
            args = parser.parse_args([command] if command == "features"
                                     else [command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.commands == 2000
        assert args.configs == ""


class TestFeatures:
    def test_prints_matrix_and_succeeds(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "WAF FTL" in out
        assert "capabilities verified" in out


class TestValidate:
    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch,
                                          capsys):
        """validate builds its runner like every other fan-out command,
        so REPRO_SWEEP_CACHE_DIR serves a rerun from the cache."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        runners = []

        def recording_runner(*args, **kwargs):
            runners.append(real_runner(*args, **kwargs))
            return runners[-1]

        real_runner = cli.runner_from_args
        monkeypatch.setattr(cli, "runner_from_args", recording_runner)
        assert main(["validate", "--commands", "40"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--commands", "40"]) == 0
        assert capsys.readouterr().out == first
        assert [runner.last_summary.cached for runner in runners] == [0, 4]


class TestRun:
    def test_default_architecture(self, capsys):
        assert main(["run", "--workload", "SW", "--commands", "80"]) == 0
        out = capsys.readouterr().out
        assert "4-DDR-buf;4-CHN;4-WAY;2-DIE" in out
        assert "throughput" in out

    def test_all_iozone_workloads(self, capsys):
        for workload in ("SW", "SR", "RW", "RR"):
            assert main(["run", "--workload", workload,
                         "--commands", "40"]) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "XX", "--commands", "10"])

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "ssd.cfg"
        config.write_text("[geometry]\n"
                          "label = 8-DDR-buf;8-CHN;4-WAY;2-DIE\n")
        assert main(["run", "--config", str(config),
                     "--commands", "40"]) == 0
        out = capsys.readouterr().out
        assert "8-DDR-buf;8-CHN;4-WAY;2-DIE" in out

    def test_config_fast_dial_runs_calibrated(self, tmp_path, monkeypatch,
                                              capsys):
        """A config file's ``fidelity.default = fast`` runs the same
        calibrated fast paths as ``--fidelity fast``."""
        monkeypatch.chdir(tmp_path)  # the calibration cache lands here
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        config = tmp_path / "fast.cfg"
        config.write_text("[fidelity]\ndefault = fast\n")
        documents = []
        for dial in (["--config", str(config)], ["--fidelity", "fast"]):
            assert main(["run", "--workload", "SW", "--commands", "80",
                         "--json"] + dial) == 0
            documents.append(json.loads(capsys.readouterr().out))
        assert documents[0] == documents[1]

    def test_fast_calibration_follows_the_cache_dir(self, tmp_path,
                                                    monkeypatch, capsys):
        """``--cache-dir D`` keeps the calibration fit under
        ``D/calibration``; nothing is written to the working directory."""
        cwd, cache = tmp_path / "cwd", tmp_path / "D"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        assert main(["run", "--workload", "SW", "--commands", "40",
                     "--fidelity", "fast", "--cache-dir", str(cache),
                     "--json"]) == 0
        capsys.readouterr()
        assert not (cwd / ".sweep-cache").exists()
        assert list(cwd.iterdir()) == []
        assert len(list((cache / "calibration").glob("*.json"))) == 1

    def test_fast_calibration_follows_the_env_cache_dir(self, tmp_path,
                                                        monkeypatch, capsys):
        cwd, cache = tmp_path / "cwd", tmp_path / "E"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(cache))
        assert main(["fig3", "--configs", "C1", "--commands", "20",
                     "--fidelity", "fast", "--workers", "1"]) == 0
        capsys.readouterr()
        assert list(cwd.iterdir()) == []
        assert len(list((cache / "calibration").glob("*.json"))) == 1

    def test_no_cache_calibrates_without_persisting(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        assert main(["run", "--workload", "SW", "--commands", "40",
                     "--fidelity", "fast", "--no-cache", "--json"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "{camp}", "--fidelity", "fast", "--quiet"],
        ["campaign", "run", "{camp}", "--experiment", "adaptive",
         "--quiet"],
        ["fig3", "--campaign", "{camp}", "--fidelity", "fast"],
    ], ids=["campaign-run", "campaign-adaptive", "fig3-campaign"])
    def test_campaign_calibration_stays_in_the_campaign(
            self, argv, tmp_path, monkeypatch, capsys):
        """A campaign keeps its fit under ``<campaign dir>/calibration``;
        nothing is written to the working directory."""
        cwd, camp = tmp_path / "cwd", tmp_path / "camp"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        assert main([part.format(camp=camp) for part in argv]
                    + ["--configs", "C1,C2", "--commands", "20",
                       "--workers", "1"]) == 0
        capsys.readouterr()
        assert list(cwd.iterdir()) == []
        assert len(list((camp / "calibration").glob("*.json"))) == 1

    def test_calibrate_shares_the_runs_fit(self, tmp_path, monkeypatch,
                                           capsys):
        """``repro calibrate`` reads the fit a fast run kept, whether the
        cache is named by ``--cache-dir`` or ``REPRO_SWEEP_CACHE_DIR``."""
        cache = tmp_path / "D"
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        assert main(["run", "--workload", "SW", "--commands", "40",
                     "--fidelity", "fast", "--cache-dir", str(cache),
                     "--json"]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--cache-dir", str(cache), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(cache))
        assert main(["calibrate", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D"]

    def test_warm_flag(self, capsys):
        assert main(["run", "--workload", "SW", "--commands", "60",
                     "--warm"]) == 0


class TestSweeps:
    def test_fig3_subset(self, capsys):
        assert main(["fig3", "--configs", "C1", "--commands", "150"]) == 0
        out = capsys.readouterr().out
        assert "DDR+FLASH" in out
        assert "C1" in out

    def test_bad_config_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--configs", "C99", "--commands", "10"])

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--commands", "60", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "adaptive-read" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--commands", "40"]) == 0
        out = capsys.readouterr().out
        assert "KCPS" in out


class TestExplore:
    def test_explore_subset(self, capsys):
        assert main(["explore", "--configs", "C1,C6",
                     "--commands", "300"]) == 0
        out = capsys.readouterr().out
        assert "target" in out
        assert ("optimal design point" in out
                or "cheapest near-best" in out)


class TestSweepFlags:
    def test_sweep_flags_parse_with_defaults(self):
        for command in ("fig3", "fig4", "fig5", "explore", "run"):
            args = build_parser().parse_args([command])
            assert args.workers == 0          # 0 = all cores
            assert args.cache_dir == ""
            assert not args.no_cache

    def test_explore_with_workers_and_cache(self, tmp_path, capsys):
        argv = ["explore", "--configs", "C1", "--commands", "200",
                "--workers", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        # Warm re-run: every point served from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 simulated" in out
        assert "target" in out

    def test_no_cache_forces_resimulation(self, tmp_path, capsys):
        base = ["explore", "--configs", "C1", "--commands", "200",
                "--workers", "1", "--cache-dir", str(tmp_path)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--no-cache"]) == 0
        assert "1 simulated" in capsys.readouterr().out

    def test_resume_continues_partial_sweep(self, tmp_path, capsys):
        # Seed the cache with C1 only, then rerun a C1+C6 sweep over the
        # same cache: resuming is the default, so C1 is replayed and only
        # C6 simulates.
        assert main(["explore", "--configs", "C1", "--commands", "200",
                     "--workers", "1", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["explore", "--configs", "C1,C6", "--commands", "200",
                     "--workers", "1", "--cache-dir", str(tmp_path)]) == 0
        assert "1 cached, 1 simulated" in capsys.readouterr().out

    def test_run_cached_result_is_flagged(self, tmp_path, capsys):
        argv = ["run", "--workload", "SW", "--commands", "40",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "sweep cache" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "served from the sweep cache" in capsys.readouterr().out


class TestJsonExport:
    def test_run_json(self, capsys):
        import json
        assert main(["run", "--workload", "SW", "--commands", "40",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["architecture"] == "4-DDR-buf;4-CHN;4-WAY;2-DIE"
        assert payload["commands"] == 40
        assert payload["latency_us"]["p50"] <= payload["latency_us"]["p99"]

    @pytest.mark.parametrize("argv", [
        ["profile", "--workload", "SW", "--commands", "40"],
        ["trace", "replay", SAMPLE, "--commands", "30"],
    ], ids=["profile", "trace-replay"])
    def test_json_with_trace_out_keeps_stdout_parseable(
            self, argv, tmp_path, capsys):
        import json
        trace_path = tmp_path / "trace.json"
        assert main(argv + ["--json", "--trace-out", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        assert f"chrome trace written to {trace_path}" in captured.err
        assert trace_path.exists()

    def test_to_dict_roundtrips_json(self):
        import json
        from repro.host import sequential_write
        from repro.ssd import SsdArchitecture, measure
        result = measure(SsdArchitecture(), sequential_write(4096 * 30))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["bytes_moved"] == 30 * 4096


class TestReport:
    # --skip-reliability keeps these fast; the reliability section is
    # covered by test_experiments.py::TestFullReportUnit and the
    # dedicated tier in test_reliability.py.
    @pytest.fixture(autouse=True)
    def _shared_cache(self, monkeypatch, report_cache_dir):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", report_cache_dir)

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--commands", "60", "--configs", "C1",
                     "--skip-fig4", "--skip-reliability",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# SSDExplorer reproduction" in text
        assert "Fig. 3" in text
        assert "Fig. 5" in text
        assert "Fig. 6" in text
        assert "Fig. 4" not in text
        assert "Capability checks: 18/18 pass" in text

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--commands", "50", "--configs", "C1",
                     "--skip-fig4", "--skip-reliability"]) == 0
        out = capsys.readouterr().out
        assert "generated report" in out


class TestReliabilityCli:
    def test_run_defaults(self):
        args = build_parser().parse_args(["reliability", "run", "dir"])
        assert args.reliability_command == "run"
        assert args.replicas == 64
        assert args.metric == "failed_rate"
        assert args.target_half_width == 0.0

    def test_run_report_agree(self, tmp_path, capsys):
        directory = str(tmp_path / "rel")
        assert main(["reliability", "run", directory, "--replicas", "2",
                     "--fractions", "1.0", "--kinds", "read",
                     "--commands", "16", "--workers", "1",
                     "--quiet", "--json"]) == 0
        ran = capsys.readouterr().out
        assert main(["reliability", "report", directory, "--json"]) == 0
        reported = capsys.readouterr().out
        import json as json_module
        ran_estimates = json_module.loads(ran)["estimates"]
        rep_estimates = json_module.loads(reported)["estimates"]
        assert ran_estimates == rep_estimates
        assert "rel/read/1/s8" in ran_estimates

    def test_report_requires_campaign(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reliability", "report", str(tmp_path / "missing")])


class TestCampaignStoreCli:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("store") / "camp")
        assert main(["campaign", "run", directory, "--configs", "C1",
                     "--commands", "40", "--workers", "1", "--quiet"]) == 0
        return directory

    @pytest.mark.parametrize("argv", [
        ["query", "--metric", "latency_us.p999"],
        ["query", "--where", "nope<=3"],
        ["report", "--metric", "nope", "--where", "nope2<=3"],
        ["report", "--where", "latency_us.p99<=3", "--where", "nope<=3"],
    ], ids=["query-metric", "query-where", "report-metric",
            "report-where"])
    def test_unknown_metric_is_a_user_error(self, campaign, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["campaign", argv[0], campaign] + argv[1:])
        message = str(raised.value.code)
        assert "unknown metric" in message and "--list-metrics" in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_campaign_id_is_the_manifests(self, campaign, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "query", campaign, "--campaign-id", "bogus"])
        assert main(["campaign", "query", campaign]) == 0
        assert capsys.readouterr().out.startswith("C1 ")

    def test_all_failed_campaign_prints_post_mortems(self, tmp_path, capsys):
        from repro.core import CampaignRunner, SweepPoint
        from repro.host import sequential_write
        from repro.ssd import SsdArchitecture
        directory = str(tmp_path / "failed")
        CampaignRunner(directory, workers=1).run([SweepPoint(
            name="bad", arch=SsdArchitecture(),
            workload=sequential_write(4096), evaluator="no-such")])
        assert main(["campaign", "report", directory, "--metric",
                     "nope"]) == 1
        out = capsys.readouterr().out
        assert "0 ok, 1 failed" in out
        assert "bad: ValueError: unknown evaluator 'no-such'" in out
