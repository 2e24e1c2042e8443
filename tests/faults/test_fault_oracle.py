"""Fault-campaign differential: recovery must never serve stale data.

Runs seeded workloads through every FTL with fault injection active and
the invariant checker in strict mode: program-fail rewrites, conservative
re-reads, grown-bad retirement and GC migration all have to preserve
end-to-end data integrity, and all FTLs must still agree on the final
logical state.
"""

import pytest

from repro.check import CheckConfig
from repro.check.fuzz import DEFAULT_FTLS, run_fuzz
from repro.faults import get_campaign
from repro.ssd.config import SSDConfig


class TestOracleUnderFaults:
    @pytest.mark.parametrize("ftl", DEFAULT_FTLS)
    def test_each_ftl_clean_under_default_campaign(self, ftl):
        report = run_fuzz(seed=11, ops=150, ftls=(ftl,), faults="default")
        assert not report.violations, report.summary()
        check = report.reports[ftl]
        assert check["violations"] == 0
        oracle = check["oracle"]
        assert oracle["reads_verified"] + oracle["buffer_reads_verified"] > 0

    def test_all_ftls_agree_under_heavy_campaign(self):
        report = run_fuzz(seed=42, ops=150, faults="heavy")
        assert report.ok, report.summary()
        assert len(set(report.digests.values())) == 1

    def test_recovery_paths_actually_fired(self):
        """The campaign must exercise recovery, otherwise this suite
        proves nothing about it."""
        from repro.api import run_spec
        from repro.check.fuzz import random_trace
        from repro.specs import HostSpec, RunOptions, SimulationSpec

        config = SSDConfig.small(logical_fraction=0.4).with_faults(
            get_campaign("heavy")
        )
        trace = random_trace(
            config.logical_pages, 800, seed=42, read_fraction=0.35
        )
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=trace,
                ftl="cube",
                host=HostSpec(queue_depth=8),
                options=RunOptions(check=CheckConfig.strict()),
                prefill=0.4,
                seed=42,
            )
        )
        assert result.check["violations"] == 0
        recovery = result.stats.recovery
        assert recovery is not None
        assert recovery.program_fails > 0
        assert recovery.blocks_retired > 0
