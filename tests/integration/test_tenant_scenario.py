"""Multi-tenant scenario runs: determinism, per-tenant stats, and the
interference matrix, pinned against a committed golden snapshot."""

import json
import os

import pytest

from repro.api import run_spec, run_tenant_scenario
from repro.specs import HostSpec, SimulationSpec, TenantSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from tests.helpers.determinism import assert_snapshots_identical

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "tenant_scenario.json"
)


def _scenario_spec(seed=7):
    tenants = (
        TenantSpec(
            name="oltp",
            workload=WorkloadSpec("OLTP", n_requests=80),
            rate_iops=20_000.0,
            partition=(0.0, 0.5),
        ),
        TenantSpec(
            name="web",
            workload=WorkloadSpec("Web", n_requests=80),
            rate_iops=20_000.0,
            partition=(0.5, 1.0),
        ),
    )
    return SimulationSpec(
        config=SSDConfig.small(),
        ftl="cube",
        host=HostSpec(queue_depth=8, tenants=tenants),
        prefill=0.4,
        seed=seed,
    )


class TestTenantRun:
    def test_per_tenant_stats_partition_the_run(self):
        result = run_spec(_scenario_spec())
        stats = result.stats
        assert stats.completed_requests == 160
        assert set(stats.tenants) == {"oltp", "web"}
        assert sum(
            t.completed_requests for t in stats.tenants.values()
        ) == 160
        for tenant in stats.tenants.values():
            assert tenant.p99_us > 0

    def test_tenants_key_in_stats_dict(self):
        stats = run_spec(_scenario_spec()).stats
        payload = stats.to_dict()
        assert set(payload["tenants"]) == {"oltp", "web"}
        for block in payload["tenants"].values():
            assert block["completed_requests"] == 80
            assert block["iops"] > 0

    def test_untenanted_run_omits_key(self):
        result = run_spec(
            SimulationSpec(
                config=SSDConfig.small(),
                workload=WorkloadSpec("OLTP", n_requests=40),
                prefill=0.4,
                seed=7,
            )
        )
        assert "tenants" not in result.stats.to_dict()

    def test_same_seed_same_result(self):
        one = run_spec(_scenario_spec()).stats.to_dict()
        two = run_spec(_scenario_spec()).stats.to_dict()
        assert_snapshots_identical(one, two, "repeated tenant runs")


class TestScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tenant_scenario(_scenario_spec())

    def test_matrix_shape(self, result):
        matrix = result.interference_matrix()
        assert set(matrix) == {"oltp", "web"}
        for row in matrix.values():
            for key in ("solo_p99_us", "shared_p99_us", "p99_slowdown",
                        "solo_iops", "shared_iops"):
                assert key in row
            assert row["p99_slowdown"] > 0

    def test_sharing_does_not_speed_tenants_up(self, result):
        """Contention can only hurt: shared p99 >= solo p99 for every
        tenant (streams are bit-identical across the two runs)."""
        for row in result.interference_matrix().values():
            assert row["shared_p99_us"] >= row["solo_p99_us"]

    def test_jobs_do_not_change_results(self):
        serial = run_tenant_scenario(_scenario_spec(), jobs=1)
        parallel = run_tenant_scenario(_scenario_spec(), jobs=2)
        assert_snapshots_identical(
            serial.to_dict(), parallel.to_dict(),
            "tenant scenario serial vs jobs=2",
        )

    def test_matches_golden_snapshot(self, result):
        """The full scenario result is pinned: a diff here means the
        simulated timeline or the scenario schema moved (regenerate
        with tests/integration/golden/regen_tenants.py if intended)."""
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert_snapshots_identical(
            result.to_dict(), golden, "tenant scenario vs golden"
        )
