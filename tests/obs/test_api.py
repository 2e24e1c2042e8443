"""The repro.api facade: the stable entry point every front end uses."""

import pytest

import repro
from repro.api import SimulationResult, run_spec
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.workloads.synthetic import uniform_random_trace


class TestRunSimulation:
    def test_happy_path_by_name(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=WorkloadSpec("OLTP", n_requests=200),
                ftl="cube",
                host=HostSpec(queue_depth=8),
                prefill=0.4,
            )
        )
        assert isinstance(result, SimulationResult)
        assert result.stats.completed_requests == 200
        assert result.iops == result.stats.iops > 0
        assert result.spans is None
        assert result.metrics is None
        assert result.trace_path is None

    def test_accepts_prebuilt_trace(self):
        config = SSDConfig.small(logical_fraction=0.4)
        workload = uniform_random_trace(
            config.logical_pages, 150, read_fraction=0.5, seed=3
        )
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=workload,
                ftl="page",
                host=HostSpec(queue_depth=8),
                prefill=0.4,
            )
        )
        assert result.stats.completed_requests == 150
        assert result.stats.ftl_name == "pageFTL"

    def test_schema_version_2(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=WorkloadSpec("OLTP", n_requests=100),
                ftl="cube",
                host=HostSpec(queue_depth=8),
                prefill=0.4,
            )
        )
        payload = result.to_dict()
        assert payload["schema_version"] == 2
        assert payload["read_latency"]["p999_us"] >= payload["read_latency"]["p99_us"]
        assert payload["read_latency"]["max_us"] >= payload["read_latency"]["p999_us"]
        assert payload["counters"]["vfy_skipped"] >= 0

    def test_memory_trace_and_metrics_together(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=WorkloadSpec("OLTP", n_requests=100),
                ftl="cube",
                host=HostSpec(queue_depth=8),
                options=RunOptions(trace="memory", metrics_interval=1000.0),
                prefill=0.4,
            )
        )
        assert result.spans
        assert result.metrics
        assert result.to_dict()["metrics"][-1]["completed_requests"] == 100

    def test_jsonl_trace_written_and_closed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=WorkloadSpec("OLTP", n_requests=50),
                ftl="cube",
                host=HostSpec(queue_depth=8),
                options=RunOptions(trace=path),
                prefill=0.4,
            )
        )
        assert result.trace_path == path
        assert result.spans is None
        with open(path) as handle:
            assert sum(1 for line in handle if line.strip()) > 50

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_spec(
                SimulationSpec(
                    config=SSDConfig.small(),
                    workload=WorkloadSpec("NoSuchWorkload", n_requests=10),
                )
            )

    def test_exported_from_package_root(self):
        assert repro.SimulationResult is SimulationResult
        assert "SimulationResult" in repro.__all__
