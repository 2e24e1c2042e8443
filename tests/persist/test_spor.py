"""Sudden-power-off recovery: the shadow-store oracle must see zero
stale reads after mapping rebuild + lost-window replay, and the
rebuilt mapping must pass ``PageMapper.audit()``."""

import dataclasses

import pytest

from repro.faults import get_campaign
from repro.nand.reliability import AgingState
from repro.persist import SporReport, run_spor_campaign
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation


def _config(spor_at_us=20_000.0, aged=False):
    campaign = dataclasses.replace(get_campaign("spor"), spor_at_us=spor_at_us)
    config = SSDConfig.small().with_faults(campaign)
    if aged:
        config = config.with_aging(AgingState(2000, 12.0))
    return config


def _spec(config, ftl="cube", n_requests=1200, seed=7, prefill=0.7, **fields):
    return SimulationSpec(
        config=config,
        workload=WorkloadSpec("OLTP", n_requests=n_requests),
        ftl=ftl,
        prefill=prefill,
        seed=seed,
        **fields,
    )


class TestRecovery:
    @pytest.mark.parametrize("ftl", ["page", "vert", "cube", "oracle", "dftl"])
    def test_recovery_serves_zero_stale_reads(self, ftl):
        report = run_spor_campaign(_spec(_config(), ftl=ftl))
        assert isinstance(report, SporReport)
        assert report.check["violations"] == 0
        assert report.audit is None
        assert report.clean
        # the cut must actually have landed mid-run with work in flight
        assert 0 < report.completed_before < 1200
        assert report.issued_before >= report.completed_before

    def test_lost_window_is_replayed(self):
        report = run_spor_campaign(_spec(_config()))
        lost = report.lost_writes + report.dropped_reads
        assert lost == report.issued_before - report.completed_before
        recovered = report.recovery
        assert recovered["mapped_lpns"] > 0
        assert recovered["oob_records"] >= recovered["mapped_lpns"]

    def test_aged_device_recovers(self):
        report = run_spor_campaign(_spec(_config(aged=True)))
        assert report.clean

    def test_dftl_dirty_cmt_at_cut_recovers(self):
        """Power cut while the CMT holds dirty entries: the cached
        mapping dies with RAM, but every acked write is rebuilt from
        data-page OOB, the GTD is rebuilt from translation-page OOB,
        and the lost window replays on top -- clean oracle, no stale
        reads, no lost acked data."""
        from repro.check import InvariantChecker, parse_check_level
        from repro.workloads import build_workload

        config = _config()
        # deterministic phase-1 probe (same seed/instant the campaign
        # replays): prove the chosen cut really lands mid-run with
        # dirty CMT entries, i.e. mappings newer than any durable
        # translation page
        sim_config = dataclasses.replace(
            config, store_oob=True, store_tags=True
        )
        checker = InvariantChecker(parse_check_level("on"))
        sim = SSDSimulation(sim_config, ftl="dftl", checker=checker)
        sim.prefill(0.7)
        trace = build_workload("OLTP", sim_config.logical_pages, 1200, seed=7)
        requests = list(trace.requests)
        progress = {"issued": 0}

        def on_complete(active, now_us):
            issue_next()

        def issue_next():
            if progress["issued"] >= len(requests):
                return
            request = requests[progress["issued"]]
            progress["issued"] += 1
            sim.ftl.submit(request, on_complete)

        for _ in range(32):
            issue_next()
        sim.controller.engine.run(until=20_000.0)
        assert any(sim.ftl._cmt.values()), (
            "cut instant has no dirty CMT entries; pick another instant"
        )

        report = run_spor_campaign(_spec(config, ftl="dftl"))
        assert report.clean
        assert report.lost_writes > 0  # the window was non-trivial
        recovered = report.recovery
        assert recovered["trans_records"] > 0
        assert recovered["trans_pages"] > 0
        assert recovered["mapped_lpns"] > 0

    def test_report_serializes(self):
        report = run_spor_campaign(
            _spec(_config(), n_requests=800, seed=3, prefill=0.6)
        )
        payload = report.to_dict()
        assert payload["spor_at_us"] == 20_000.0
        assert payload["check"]["violations"] == 0
        assert payload["clean"] is True


class TestGuards:
    def test_requires_spor_instant(self):
        with pytest.raises(ValueError, match="spor_at_us"):
            run_spor_campaign(_spec(SSDConfig.small(), n_requests=100))

    def test_rejects_open_loop_host(self):
        """Phase 1 replays closed-loop, so an open-loop host would be
        silently run with a different arrival model."""
        spec = _spec(_config(), host=HostSpec(open_loop=True, rate_iops=20_000))
        with pytest.raises(ValueError, match="open-loop"):
            run_spor_campaign(spec)

    def test_spor_recover_requires_oob(self):
        sim = SSDSimulation(SSDConfig.small(), ftl="cube")
        with pytest.raises(RuntimeError, match="store_oob"):
            sim.ftl.spor_recover()

    def test_spor_recover_requires_fresh_ftl(self):
        config = dataclasses.replace(
            SSDConfig.small(), store_oob=True, store_tags=True
        )
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.3)
        with pytest.raises(RuntimeError, match="fresh"):
            sim.ftl.spor_recover()
