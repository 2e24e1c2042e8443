"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.parallel import derive_seed
from repro.persist import CheckpointError

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


class TestSimulateSpecOptions:
    """Run-option flags apply on top of ``--spec FILE`` exactly as they
    do on top of the run flags."""

    def test_telemetry(self, capsys):
        assert main(["simulate", "--spec", str(SPEC_SMOKE), "--telemetry"]) == 0
        assert "die busy time" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["simulate", "--spec", str(SPEC_SMOKE), "--profile"]) == 0
        assert "subsystem" in capsys.readouterr().out

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert main([
            "simulate", "--spec", str(SPEC_SMOKE), "--trace", str(path),
        ]) == 0
        assert path.stat().st_size > 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        assert "stage" in out  # the per-stage breakdown table

    def test_checkpoint(self, tmp_path, capsys):
        assert main([
            "simulate", "--spec", str(SPEC_SMOKE),
            "--checkpoint", str(tmp_path), "--checkpoint-every", "100",
        ]) == 0
        assert sorted(p.name for p in tmp_path.glob("ckpt_*"))

    def test_resume_prints_the_header_cadence(self, tmp_path, capsys):
        """A resumed run checkpoints at the cadence in the checkpoint
        header, and says so (not the ``--checkpoint-every`` default)."""
        assert main([
            "simulate", "--spec", str(SPEC_SMOKE),
            "--checkpoint", str(tmp_path / "a"), "--checkpoint-every", "100",
        ]) == 0
        first = sorted((tmp_path / "a").glob("ckpt_*"))[0]
        capsys.readouterr()
        assert main([
            "simulate", "--spec", str(SPEC_SMOKE), "--resume", str(first),
            "--checkpoint", str(tmp_path / "b"),
        ]) == 0
        out = capsys.readouterr().out
        assert f"checkpoints in {tmp_path / 'b'} (every 100 requests)" in out

    def test_resume_from_missing_checkpoint_fails(self, tmp_path, capsys):
        with pytest.raises((CheckpointError, FileNotFoundError)):
            main([
                "simulate", "--spec", str(SPEC_SMOKE),
                "--resume", str(tmp_path / "missing"),
            ])
        assert "resumed from" not in capsys.readouterr().out

    def test_artifacts_keep_the_file_window(self, tmp_path, capsys):
        """``--artifacts`` without ``--artifact-every`` leaves the spec
        file's own time-series window in place."""
        spec_path = tmp_path / "spec.json"
        data = json.loads(SPEC_SMOKE.read_text())
        data["options"] = {"artifact_every": 250.0}
        spec_path.write_text(json.dumps(data))
        runs = tmp_path / "runs"
        assert main([
            "simulate", "--spec", str(spec_path), "--artifacts", str(runs),
        ]) == 0
        (run_dir,) = runs.iterdir()
        lines = (run_dir / "timeseries.jsonl").read_text().splitlines()
        assert [json.loads(line)["t_us"] for line in lines[:2]] == [0.0, 250.0]


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

    def test_interrupted_json_is_incomplete(self, tmp_path, capsys, monkeypatch):
        import repro.api

        args = [
            "sweep", "--ftls", "page,cube", "--workloads", "OLTP",
            "--requests", "60", "--warmup", "0", "--blocks-per-chip", "8",
            "--prefill", "0.3", "--queue-depth", "8",
        ]
        full_path = tmp_path / "full.json"
        assert main([*args, "--json", str(full_path)]) == 0
        full = json.loads(full_path.read_text())
        real, calls = repro.api.run_spec, []

        def interrupted_on_the_second_cell(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(spec)

        monkeypatch.setattr(repro.api, "run_spec", interrupted_on_the_second_cell)
        path = tmp_path / "partial.json"
        assert main([*args, "--json", str(path)]) == 130
        payload = json.loads(path.read_text())
        assert payload["incomplete"] is True
        assert [run["name"] for run in payload["runs"]] == [
            run["name"] for run in full["runs"]
        ]
        first, rest = payload["runs"][0], payload["runs"][1:]
        assert first["stats"] == full["runs"][0]["stats"]
        assert rest and all(run["stats"] is None for run in rest)
        assert all(
            run["retried"] is False and run["cached"] is False
            for run in payload["runs"]
        )
        assert "interrupted: 1/2 cell(s) complete" in capsys.readouterr().err


_RUN_DEFAULTS = {
    "workload": "OLTP", "pe": 0, "retention": 0.0, "requests": 8000,
    "warmup": 2500, "queue_depth": 32, "blocks_per_chip": 48,
    "prefill": 0.9, "seed": 7, "faults": "none", "check": None,
}

#: subcommand -> (required positionals, every parsed flag and default)
PARSED_DEFAULTS = {
    "characterize": ([], {"chips": 4, "blocks": 8, "report": None}),
    "simulate": ([], {
        **_RUN_DEFAULTS, "ftl": "cube", "cmt_capacity": None, "spec": None,
        "json": None, "trace": None, "metrics_interval": None,
        "telemetry": False, "profile": False, "checkpoint": None,
        "checkpoint_every": 1000, "resume": None, "artifacts": None,
        "artifact_every": None,
    }),
    "compare": ([], dict(_RUN_DEFAULTS)),
    "fuzz": ([], {
        "seed": 7, "ops": 400, "ftls": "page,vert,cube,oracle,dftl",
        "check": "strict", "faults": "none", "queue_depth": 8,
        "prefill": 0.4,
    }),
    "sweep": ([], {
        "spec": None, "ftls": "page,vert,cube", "workloads": "OLTP",
        "aging": ["0:0"], "faults": ["none"], "jobs": 1, "requests": 2000,
        "warmup": 500, "queue_depth": 32, "blocks_per_chip": 16,
        "prefill": 0.5, "seed": 7, "telemetry": False, "json": None,
        "checkpoint_dir": None, "retries": 0, "artifacts": None,
    }),
    "tenants": ([], {
        "spec": None, "requests_per_tenant": 2000, "rate": 20000.0,
        "ftl": "cube", "queue_depth": 32, "blocks_per_chip": 48,
        "prefill": 0.9, "seed": 7, "jobs": 1, "json": None,
        "artifacts": None,
    }),
    "report": (["RUN"], {"run_dir": "RUN", "html": None}),
    "diff": (["A", "B"], {"run_a": "A", "run_b": "B", "tolerance": 0.1}),
    "contract": ([], {
        "workload": "OLTP", "requests": 8000, "blocks_per_chip": 48,
        "seed": 7, "json": None,
    }),
    "spor": ([], {
        **_RUN_DEFAULTS, "ftl": "cube", "spor_at": None, "json": None,
    }),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_parsed_defaults(self, command):
        required, defaults = PARSED_DEFAULTS[command]
        parsed = vars(_build_parser().parse_args([command, *required]))
        assert parsed == {
            "log_level": "warning", "command": command, **defaults
        }

    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro-ssd {command}" in capsys.readouterr().out
