"""Differential harness: every FTL must compute the same logical state.

The same seeded random workload is replayed through all four FTL
variants (page, vert, cube, oracle) with the invariant checker in
strict mode.  Each run must finish with zero violations, and all runs
must agree on the final logical state digest -- fresh, pre-aged to
2K P/E + 1 year retention, and under a seeded fault campaign.
"""

import pytest

from repro.check import CheckConfig
from repro.check.fuzz import DEFAULT_FTLS, run_fuzz, random_trace
from repro.nand.reliability import AgingState
from repro.ssd.config import SSDConfig
from tests.helpers.determinism import assert_snapshots_identical

SEEDS = (3, 11, 42)
OPS = 160


def _assert_agreement(report):
    assert report.ok, report.summary()
    assert set(report.digests) == set(report.ftls)
    assert len(set(report.digests.values())) == 1, report.summary()
    for ftl in report.ftls:
        assert report.reports[ftl]["violations"] == 0
        assert report.reports[ftl]["deep_scans"] >= 1


class TestFreshDevice:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_ftls_agree(self, seed):
        _assert_agreement(run_fuzz(seed=seed, ops=OPS))

    def test_reads_actually_verified(self):
        report = run_fuzz(seed=SEEDS[0], ops=OPS)
        for ftl in report.ftls:
            oracle = report.reports[ftl]["oracle"]
            verified = (
                oracle["reads_verified"] + oracle["buffer_reads_verified"]
            )
            assert verified > 0, f"{ftl}: no reads were verified"


class TestAgedDevice:
    def test_all_ftls_agree_at_2k_pe_one_year(self):
        config = SSDConfig.small(logical_fraction=0.4).with_aging(
            AgingState(pe_cycles=2000, retention_months=12.0)
        )
        _assert_agreement(run_fuzz(seed=SEEDS[1], ops=OPS, config=config))


class TestFaultyDevice:
    def test_all_ftls_agree_under_fault_campaign(self):
        _assert_agreement(run_fuzz(seed=SEEDS[2], ops=OPS, faults="default"))

    def test_all_ftls_agree_aged_and_faulty(self):
        config = SSDConfig.small(logical_fraction=0.4).with_aging(
            AgingState(pe_cycles=2000, retention_months=12.0)
        )
        _assert_agreement(
            run_fuzz(seed=SEEDS[0], ops=OPS, config=config, faults="default")
        )


class TestLogicalViewDiff:
    def test_full_views_identical_not_just_digests(self):
        """Belt and braces for the digest: capture the complete LPN ->
        tag views of two FTLs and diff them line by line."""
        from repro.api import run_spec
        from repro.specs import HostSpec, RunOptions, SimulationSpec

        config = SSDConfig.small(logical_fraction=0.4)
        trace = random_trace(config.logical_pages, OPS, seed=SEEDS[0])
        views = {}
        for ftl in ("page", "cube"):
            result = run_spec(
                SimulationSpec(
                    config=config,
                    workload=trace,
                    ftl=ftl,
                    host=HostSpec(queue_depth=8),
                    options=RunOptions(
                        check=CheckConfig.strict(capture_state=True)
                    ),
                    prefill=0.4,
                    seed=SEEDS[0],
                )
            )
            views[ftl] = result.check["logical_view"]
        assert_snapshots_identical(
            views["page"], views["cube"], "page vs cube logical view"
        )


class TestRandomTrace:
    def test_same_seed_same_trace(self):
        first = random_trace(512, 64, seed=9)
        second = random_trace(512, 64, seed=9)
        assert [
            (r.op, r.lpn, r.n_pages) for r in first.requests
        ] == [(r.op, r.lpn, r.n_pages) for r in second.requests]
        assert first.name == "fuzz-s9"

    def test_different_seed_different_trace(self):
        first = random_trace(512, 64, seed=9)
        second = random_trace(512, 64, seed=10)
        assert [
            (r.op, r.lpn, r.n_pages) for r in first.requests
        ] != [(r.op, r.lpn, r.n_pages) for r in second.requests]

    def test_requests_stay_in_bounds(self):
        trace = random_trace(128, 200, seed=1, max_pages=16)
        for request in trace.requests:
            assert 0 <= request.lpn < 128
            assert request.lpn + request.n_pages <= 128
            assert request.n_pages >= 1

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            random_trace(0, 10, seed=1)
        with pytest.raises(ValueError):
            random_trace(10, 0, seed=1)


def test_default_ftls_cover_all_variants():
    assert DEFAULT_FTLS == ("page", "vert", "cube", "oracle", "dftl")
