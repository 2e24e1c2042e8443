"""Request-lifecycle tracing: tiling contract, determinism, breakdowns."""

import pytest

from repro.api import run_spec
from repro.nand.reliability import AgingState
from repro.obs.analyze import (
    breakdown_report,
    load_trace,
    page_chains,
    request_breakdown,
    request_spans,
    stage_summary,
    validate_trace,
)
from repro.obs.trace import JsonlSink, NullSink, Span, Tracer
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


def _run_traced(
    workload="OLTP", ftl="cube", aging=None, n_requests=300, trace="memory"
):
    config = SSDConfig.small(logical_fraction=0.4)
    if aging is not None:
        config = config.with_aging(aging)
    return run_spec(
        SimulationSpec(
            config=config,
            workload=WorkloadSpec(workload, n_requests=n_requests),
            ftl=ftl,
            host=HostSpec(queue_depth=8),
            options=RunOptions(trace=trace),
            warmup_requests=0,
            prefill=0.4,
            seed=7,
        )
    )


class TestSpan:
    def test_roundtrip(self):
        span = Span(3, 17, "nand_read", 1.0, 2.5, chip=1, info={"retries": 2})
        assert Span.from_dict(span.to_dict()) == span
        assert span.duration_us == 1.5

    def test_fixed_key_order(self):
        span = Span(0, 1, "bus_xfer", 0.0, 1.0, chip=0, info={"b": 1, "a": 2})
        keys = list(span.to_dict().keys())
        assert keys == ["request", "lpn", "stage", "start_us", "end_us",
                        "chip", "info"]
        assert list(span.to_dict()["info"].keys()) == ["a", "b"]

    def test_info_omitted_when_empty(self):
        assert "info" not in Span(0, 1, "bus_xfer", 0.0, 1.0).to_dict()


class TestSinks:
    def test_null_sink_discards(self):
        tracer = Tracer(NullSink())
        tracer.span(0, 1, "nand_read", 0.0, 1.0)
        tracer.close()

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        tracer.span(0, 1, "nand_read", 0.0, 1.0, chip=2, retries=1)
        tracer.close()
        tracer.close()  # idempotent
        spans = load_trace(path)
        assert len(spans) == sink.count == 1
        assert spans[0].stage == "nand_read"
        assert spans[0].info == {"retries": 1}


class TestTilingContract:
    """Per-page stage spans must cover [issue, completion] exactly."""

    @pytest.mark.parametrize("ftl", ["page", "vert", "cube"])
    def test_fresh_oltp(self, ftl):
        result = _run_traced(ftl=ftl)
        assert result.spans, "no spans recorded"
        assert validate_trace(result.spans) == []

    @pytest.mark.parametrize("workload", ["OLTP", "Proxy"])
    def test_aged_with_retries(self, workload):
        result = _run_traced(
            workload=workload, ftl="page", aging=AgingState(2000, 12.0)
        )
        assert result.stats.counters.read_retries > 0
        assert validate_trace(result.spans) == []

    def test_every_request_has_a_span(self):
        result = _run_traced()
        requests = request_spans(result.spans)
        assert len(requests) == result.stats.completed_requests

    def test_spans_sum_to_request_latency_single_page(self):
        """For one-page requests the stage sum IS the request latency."""
        result = _run_traced()
        requests = request_spans(result.spans)
        chains = page_chains(result.spans)
        checked = 0
        for (request, _lpn), chain in chains.items():
            parent = requests[request]
            if parent.info["n_pages"] != 1:
                continue
            total = sum(span.duration_us for span in chain)
            assert total == pytest.approx(parent.duration_us, abs=1e-6)
            checked += 1
        assert checked > 0


class TestDeterminism:
    def test_byte_identical_jsonl_across_runs(self, tmp_path):
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        for path in paths:
            _run_traced(trace=path)
        first, second = (open(path, "rb").read() for path in paths)
        assert first == second
        assert len(first) > 0


class TestBreakdown:
    @pytest.mark.parametrize("workload", ["OLTP", "Proxy"])
    def test_separates_queueing_nand_retry(self, workload):
        result = _run_traced(
            workload=workload, ftl="page", aging=AgingState(2000, 12.0),
            n_requests=400,
        )
        breakdown = request_breakdown(result.spans)
        totals = {"queueing": 0.0, "nand": 0.0, "retry": 0.0}
        for groups in breakdown.values():
            for key in totals:
                totals[key] += groups[key]
        assert totals["nand"] > 0
        assert totals["queueing"] > 0
        assert totals["retry"] > 0  # aged page FTL retries on reads

    def test_report_mentions_groups(self):
        result = _run_traced()
        report = breakdown_report(result.spans)
        assert "queueing" in report
        assert "nand" in report

    def test_stage_summary_counts(self):
        result = _run_traced()
        summary = stage_summary(result.spans)
        assert summary["nand_program"]["count"] > 0
        assert summary["nand_program"]["mean_us"] > 0

    def test_result_breakdown_helper(self):
        result = _run_traced()
        assert "nand" in result.breakdown()

    def test_breakdown_requires_trace(self):
        config = SSDConfig.small(logical_fraction=0.4)
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=WorkloadSpec("OLTP", n_requests=50),
                ftl="cube",
                host=HostSpec(queue_depth=8),
                prefill=0.4,
            )
        )
        with pytest.raises(ValueError):
            result.breakdown()


class TestGcAttribution:
    def test_background_spans_unattributed(self):
        from repro.workloads.synthetic import uniform_random_trace

        config = SSDConfig.small(logical_fraction=0.7)
        workload = uniform_random_trace(
            config.logical_pages, 800, read_fraction=0.2, seed=5
        )
        result = run_spec(
            SimulationSpec(
                config=config,
                workload=workload,
                ftl="cube",
                host=HostSpec(queue_depth=8),
                options=RunOptions(trace="memory"),
                prefill=0.95,
            )
        )
        background = [
            span for span in result.spans
            if span.stage in ("gc_read", "gc_program", "erase")
        ]
        assert background, "run too small to trigger GC"
        assert all(span.request is None for span in background)
        # background work never appears in host page chains
        assert validate_trace(result.spans) == []


class TestZeroPerturbation:
    def test_tracing_does_not_change_results(self):
        untraced = _run_traced(trace=None)
        traced = _run_traced(trace="memory")
        assert traced.stats.to_dict() == untraced.stats.to_dict()
