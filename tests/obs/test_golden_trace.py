"""Byte-identical JSONL traces against a committed golden baseline.

The trace path is pure-Python float arithmetic with a fixed key order
and Python's deterministic float repr, so a given (config, workload,
seed) must reproduce the committed bytes exactly -- on any host and
with telemetry attached or not.  A diff here means the simulated
timeline itself moved: either an intentional model change (regenerate
the golden with ``tests/obs/golden/regen.py``) or an accidental
perturbation (fix it).
"""

import os

from repro.api import run_spec
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from tests.helpers.determinism import assert_files_identical

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "trace.jsonl")


def _run_traced(path, **options):
    return run_spec(
        SimulationSpec(
            config=SSDConfig.small(logical_fraction=0.4),
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            host=HostSpec(queue_depth=8),
            options=RunOptions(trace=path, **options),
            prefill=0.4,
            seed=7,
        )
    )


class TestGoldenTrace:
    def test_trace_matches_golden(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _run_traced(path)
        assert_files_identical(path, GOLDEN, "trace vs golden")

    def test_trace_matches_golden_with_telemetry_and_profile(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _run_traced(path, telemetry=True, profile=True)
        assert_files_identical(path, GOLDEN, "instrumented trace vs golden")


class TestSpecFormIdentity:
    def test_spec_form_matches_golden(self, tmp_path):
        """A spec written out field by field, every default spelled out,
        reproduces the committed golden bytes."""
        path = str(tmp_path / "trace.jsonl")
        spec = SimulationSpec(
            config=SSDConfig.small(logical_fraction=0.4),
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            host=HostSpec(queue_depth=8, open_loop=False),
            options=RunOptions(trace=path),
            warmup_requests=0,
            prefill=0.4,
            seed=7,
            ftl_kwargs={},
        )
        run_spec(spec)
        assert_files_identical(path, GOLDEN, "spec-form trace vs golden")
