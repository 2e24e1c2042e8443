"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.parallel import derive_seed

SPEC_SMOKE = Path(__file__).resolve().parents[1] / "examples" / "spec_smoke.json"


class TestCharacterize:
    def test_runs_and_prints_metrics(self, capsys):
        exit_code = main(["characterize", "--chips", "1", "--blocks", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Delta-H" in out
        assert "Delta-V" in out


class TestSimulate:
    def test_small_simulation(self, capsys):
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "300", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cubeFTL" in out
        assert "IOPS" in out
        assert "tPROG" in out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "bogus"])

    def test_bad_ftl_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--ftl", "bogus"])

    def test_telemetry_and_profile_flags(self, capsys):
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--telemetry", "--profile",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "die busy time" in out
        assert "subsystem" in out  # the profiler table header

    def test_telemetry_embedded_in_json(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        exit_code = main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--telemetry", "--json", path,
        ])
        assert exit_code == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == 2
        assert "chip_busy_us" in payload["telemetry"]

    def test_json_without_telemetry_has_no_extra_key(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        main([
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "200", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--json", path,
        ])
        with open(path) as handle:
            assert "telemetry" not in json.load(handle)

    def test_fault_report_routed_through_structured_log(self, capsys):
        exit_code = main([
            "--log-level", "info",
            "simulate", "--ftl", "cube", "--workload", "OLTP",
            "--requests", "400", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8", "--faults", "heavy",
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        # the old ad-hoc multi-line report ("recovery: N program fails,
        # ...") is gone from stdout; the one-line stats summary remains
        assert "program fails" not in captured.out
        from repro.obs.log import parse_line

        events = [
            parsed
            for parsed in map(parse_line, captured.err.splitlines())
            if parsed is not None
        ]
        assert any(parsed["event"] == "fault_recovery" for parsed in events)

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "chatty", "simulate"])


class TestCompare:
    def test_three_ftl_comparison(self, capsys):
        exit_code = main([
            "compare", "--workload", "Mail",
            "--requests", "300", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        for name in ("pageFTL", "vertFTL", "cubeFTL", "dftl"):
            assert name in out


class TestSweep:
    """``sweep --json`` names each cell and records the seed, FTL and
    workload it ran with, in both the flat-flags and the spec-file form."""

    def _runs(self, tmp_path, args):
        path = tmp_path / "sweep.json"
        assert main(["sweep", *args, "--seed", "5", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["base_seed"] == 5
        return [
            {key: run[key] for key in ("name", "seed", "ftl", "workload")}
            for run in payload["runs"]
        ]

    @staticmethod
    def _expected(cells):
        return [
            {"name": name, "seed": derive_seed(5, name), "ftl": ftl,
             "workload": workload}
            for name, ftl, workload in cells
        ]

    def test_flags_form(self, tmp_path, capsys):
        runs = self._runs(tmp_path, [
            "--ftls", "page,cube", "--workloads", "OLTP,Web",
            "--requests", "60", "--warmup", "0",
            "--blocks-per-chip", "8", "--prefill", "0.3",
            "--queue-depth", "8",
        ])
        assert runs == self._expected([
            ("page-OLTP-pe0-ret0", "page", "OLTP"),
            ("page-Web-pe0-ret0", "page", "Web"),
            ("cube-OLTP-pe0-ret0", "cube", "OLTP"),
            ("cube-Web-pe0-ret0", "cube", "Web"),
        ])

    def test_spec_file_form(self, tmp_path, capsys):
        runs = self._runs(tmp_path, [
            "--spec", str(SPEC_SMOKE), "--ftls", "page,cube",
            "--aging", "0:0", "2000:12",
        ])
        assert runs == self._expected([
            ("page-OLTP-pe0-ret0", "page", "OLTP"),
            ("page-OLTP-pe2000-ret12", "page", "OLTP"),
            ("cube-OLTP-pe0-ret0", "cube", "OLTP"),
            ("cube-OLTP-pe2000-ret12", "cube", "OLTP"),
        ])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
