"""The continuous-benchmark runner and its regression comparator."""

import copy
import importlib.util
import json
import os

import pytest

TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench")
bench_compare = _load("bench_compare")
check_schema = _load("check_schema")

#: one (name, ftl, workload, aging) case
CASE = [("cube-OLTP", "cube", "OLTP", None)]


@pytest.fixture(scope="module")
def snapshot():
    """One tiny seeded bench document shared by the tests."""
    size = dict(
        requests=150, warmup=0, blocks_per_chip=8, prefill=0.3, queue_depth=8
    )
    (case,), errors, _ = bench.run_cases(CASE, size, seed=7)
    assert errors == []
    return {
        "bench_schema_version": bench.BENCH_SCHEMA_VERSION,
        "label": "test",
        "smoke": True,
        "seed": 7,
        "host": {"python": "x", "platform": "x", "cpu_count": 1},
        "cases": [case],
    }


class TestBenchRunner:
    def test_case_fields(self, snapshot):
        case = snapshot["cases"][0]
        assert case["iops"] > 0
        assert case["read_latency"]["p99_us"] >= case["read_latency"]["p50_us"]
        assert case["counters"]["flash_programs"] > 0
        assert "chip_busy_us" in case["telemetry"]

    def test_simulated_metrics_deterministic(self, snapshot):
        size = dict(
            requests=150, warmup=0, blocks_per_chip=8, prefill=0.3,
            queue_depth=8,
        )
        (again,), _, _ = bench.run_cases(CASE, size, seed=7)
        for key in ("iops", "read_latency", "write_latency", "counters",
                    "telemetry"):
            assert again[key] == snapshot["cases"][0][key], key

    def test_document_json_serializable(self, snapshot):
        json.dumps(snapshot)

    def test_next_bench_path_increments(self, tmp_path):
        assert bench.next_bench_path(str(tmp_path)).endswith("BENCH_0.json")
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_1.json").write_text("{}")
        assert bench.next_bench_path(str(tmp_path)).endswith("BENCH_2.json")

    def test_passes_schema_check(self, snapshot):
        assert check_schema.check_bench(snapshot) == []

    def test_schema_check_flags_missing_case_key(self, snapshot):
        broken = copy.deepcopy(snapshot)
        del broken["cases"][0]["iops"]
        assert any("iops" in error for error in check_schema.check_bench(broken))


class TestBenchCompare:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_identical_snapshots_pass(self, snapshot, tmp_path, capsys):
        path = self._write(tmp_path, "a.json", snapshot)
        assert bench_compare.main([path, path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_latency_regression_fails(self, snapshot, tmp_path, capsys):
        regressed = copy.deepcopy(snapshot)
        regressed["cases"][0]["read_latency"]["p99_us"] *= 1.12
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", regressed)
        assert bench_compare.main([old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_injected_iops_regression_fails(self, snapshot, tmp_path):
        regressed = copy.deepcopy(snapshot)
        regressed["cases"][0]["iops"] *= 0.85
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", regressed)
        assert bench_compare.main([old, new]) == 1

    def test_within_tolerance_passes(self, snapshot, tmp_path):
        drifted = copy.deepcopy(snapshot)
        drifted["cases"][0]["read_latency"]["p99_us"] *= 1.05
        drifted["cases"][0]["iops"] *= 0.95
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", drifted)
        assert bench_compare.main([old, new]) == 0

    def test_wall_clock_not_gated_by_default(self, snapshot, tmp_path):
        slower = copy.deepcopy(snapshot)
        slower["cases"][0]["wall_clock_s"] *= 10.0
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", slower)
        assert bench_compare.main([old, new]) == 0
        assert bench_compare.main(
            [old, new, "--wall-tolerance", "0.5"]
        ) == 1

    def test_missing_case_is_an_error(self, snapshot, tmp_path):
        empty = copy.deepcopy(snapshot)
        empty["cases"] = []
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", empty)
        assert bench_compare.main([old, new]) == 2

    def test_smoke_vs_full_is_an_error(self, snapshot, tmp_path):
        full = copy.deepcopy(snapshot)
        full["smoke"] = False
        old = self._write(tmp_path, "old.json", snapshot)
        new = self._write(tmp_path, "new.json", full)
        assert bench_compare.main([old, new]) == 2
