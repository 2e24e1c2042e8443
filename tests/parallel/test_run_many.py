"""``repro.api.run_many``: batch runs merged back into spec order."""

import pytest

from repro.api import run_many
from repro.parallel import RunSpec, derive_seed, resolve_seed
from repro.specs import RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


def _specs(telemetry=False):
    config = SSDConfig.small()
    return [
        RunSpec(
            name=f"cell-{workload}",
            spec=SimulationSpec(
                config=config,
                workload=WorkloadSpec(workload, n_requests=200),
                options=RunOptions(telemetry=telemetry),
                prefill=0.3,
            ),
        )
        for workload in ("OLTP", "Proxy")
    ]


class TestRunMany:
    def test_results_in_spec_order(self):
        batch = run_many(_specs(), jobs=1)
        assert batch.ok
        assert batch.names == ["cell-OLTP", "cell-Proxy"]
        assert all(r is not None and r.stats.iops > 0 for r in batch.results)

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_many(_specs(telemetry=True), jobs=1)
        pooled = run_many(_specs(telemetry=True), jobs=2)
        assert serial.ok and pooled.ok
        for a, b in zip(serial.results, pooled.results):
            assert a.to_dict() == b.to_dict()
            assert a.telemetry == b.telemetry
        assert serial.telemetry == pooled.telemetry

    def test_failed_spec_is_isolated(self):
        specs = _specs() + [
            RunSpec(
                name="broken",
                spec=SimulationSpec(
                    config=SSDConfig.small(), workload=WorkloadSpec("NOPE")
                ),
            )
        ]
        batch = run_many(specs, jobs=2)
        assert not batch.ok
        assert set(batch.errors) == {"broken"}
        assert batch.results[2] is None
        assert batch.results[0] is not None and batch.results[1] is not None
        with pytest.raises(KeyError):
            batch.result_for("broken")
        assert batch.result_for("cell-OLTP").stats.iops > 0

    def test_merged_telemetry_present_only_when_requested(self):
        assert run_many(_specs(), jobs=1).telemetry is None
        merged = run_many(_specs(telemetry=True), jobs=1).telemetry
        assert merged is not None and "chip_busy_us" in merged

    def test_seed_resolution_rule(self):
        spec = _specs()[0]
        assert resolve_seed(spec, 7) == derive_seed(7, spec.name)
        pinned = RunSpec(
            name="pinned",
            spec=SimulationSpec(
                config=SSDConfig.small(), workload=WorkloadSpec("OLTP")
            ),
            seed=42,
        )
        assert resolve_seed(pinned, 7) == 42

    def test_duplicate_names_rejected(self):
        spec = _specs()[0]
        with pytest.raises(ValueError, match="duplicate"):
            run_many([spec, spec])

    def test_inline_batch_frees_each_simulation(self, monkeypatch):
        # a finished run's device (controller, chips, FTL) sits in
        # reference cycles; the inline path must free it before the next
        # run builds its own, whenever the automatic collector would run
        import gc
        import weakref

        import repro.api

        built = []
        real = repro.api.build_simulation

        def tracked(*args, **kwargs):
            alive = [ref for ref in built if ref() is not None]
            assert not alive, f"{len(alive)} earlier devices still alive"
            sim, checker = real(*args, **kwargs)
            built.extend([weakref.ref(sim.controller), weakref.ref(sim.ftl)])
            return sim, checker

        monkeypatch.setattr(repro.api, "build_simulation", tracked)
        specs = _specs() + _specs(telemetry=True)
        specs = [
            RunSpec(name=f"{index}-{spec.name}", spec=spec.spec)
            for index, spec in enumerate(specs)
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            batch = run_many(specs, jobs=1)
        finally:
            if enabled:
                gc.enable()
        assert batch.ok, batch.errors
        assert len(built) == 2 * len(specs)

    def test_results_carry_host_time_and_rss(self):
        batch = run_many(_specs(), jobs=1)
        assert all(wall > 0 for wall in batch.wall_clock_s)
        assert all(rss > 0 for rss in batch.peak_rss_kb)


class TestResume:
    def test_rerun_serves_every_run_cached(self, tmp_path):
        first = run_many(_specs(telemetry=True), checkpoint_dir=str(tmp_path))
        assert first.ok and first.cached == []
        again = run_many(_specs(telemetry=True), checkpoint_dir=str(tmp_path))
        assert again.cached == again.names == first.names
        for a, b in zip(first.results, again.results):
            assert a.to_dict() == b.to_dict()
            assert a.telemetry == b.telemetry
        assert again.telemetry == first.telemetry
