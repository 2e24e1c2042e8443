"""Live-progress plumbing: hook cadence, the process-wide sink, shard
heartbeats across worker pipes, and --log-level propagation."""

import pytest

from repro.obs.log import configure_logging, configured_level
from repro.parallel.progress import (
    get_progress_sink,
    make_progress_hook,
    set_progress_sink,
)
from repro.parallel.runner import _run_shards, _Shard


class TestProgressHook:
    def test_fires_at_stride_multiples_and_completion(self):
        seen = []
        hook = make_progress_hook(seen.append, parts=4)
        for completed in range(1, 11):
            hook(completed, 10, sim_us=float(completed) * 5.0)
        # stride = 10 // 4 = 2: every even count, plus the final 10th
        assert [p["completed"] for p in seen] == [2, 4, 6, 8, 10]
        assert seen[-1] == {"completed": 10, "total": 10, "sim_us": 50.0}

    def test_total_smaller_than_parts_fires_only_at_completion(self):
        # tiny runs must not flood the pipe with one message per request
        # (a thousand-cell sweep has thousands of these hooks): only the
        # final completion is reported
        seen = []
        hook = make_progress_hook(seen.append, parts=16)
        for completed in range(1, 4):
            hook(completed, 3, sim_us=0.0)
        assert [p["completed"] for p in seen] == [3]

    def test_final_emit_is_deduped(self):
        # a resumed/segmented replay can re-report the final completion;
        # the hook forwards it once
        seen = []
        hook = make_progress_hook(seen.append, parts=4)
        for completed in range(1, 9):
            hook(completed, 8, sim_us=float(completed))
        hook(8, 8, sim_us=8.0)
        assert [p["completed"] for p in seen] == [2, 4, 6, 8]

    def test_cadence_is_deterministic(self):
        def run():
            seen = []
            hook = make_progress_hook(seen.append, parts=4)
            for completed in range(1, 101):
                hook(completed, 100, sim_us=float(completed))
            return seen

        assert run() == run()


class TestSinkRegistry:
    def test_round_trip_and_clear(self):
        assert get_progress_sink() is None
        sink = lambda payload: None  # noqa: E731
        set_progress_sink(sink)
        try:
            assert get_progress_sink() is sink
        finally:
            set_progress_sink(None)
        assert get_progress_sink() is None


def _emitting_worker(n):
    """Reports n completions through this process's bound sink."""
    sink = get_progress_sink()
    assert sink is not None, "worker should have a pipe-backed sink"
    hook = make_progress_hook(sink, parts=4)
    for completed in range(1, n + 1):
        hook(completed, n, sim_us=float(completed) * 2.0)
    return n


def _report_log_level():
    return configured_level()


class TestShardHeartbeats:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_heartbeats_reach_the_parent(self, jobs):
        beats = []
        specs = [
            _Shard("s0", _emitting_worker, {"n": 8}),
            _Shard("s1", _emitting_worker, {"n": 8}),
        ]
        outcomes = _run_shards(specs, jobs=jobs, heartbeat=lambda name, p:
                              beats.append((name, p)))
        assert [o.ok for o in outcomes] == [True, True]
        names = {name for name, _ in beats}
        assert names == {"s0", "s1"}
        for name in ("s0", "s1"):
            mine = [p for n, p in beats if n == name]
            assert [p["completed"] for p in mine] == [2, 4, 6, 8]
            assert all(p["total"] == 8 for p in mine)
            assert mine[-1]["sim_us"] == 16.0

    def test_no_heartbeat_callback_means_no_sink_inline(self):
        specs = [_Shard("s0", _emitting_worker, {"n": 4})]
        outcomes = _run_shards(specs, jobs=1)
        # the worker's assert would have failed the shard
        assert not outcomes[0].ok
        assert "sink" in outcomes[0].error


class TestLogLevelPropagation:
    def test_worker_inherits_the_parent_level(self):
        previous = configured_level()
        configure_logging("debug")
        try:
            specs = [_Shard("lvl", _report_log_level)]
            outcomes = _run_shards(specs, jobs=2)
        finally:
            configure_logging(previous or "warning")
        assert outcomes[0].ok
        assert outcomes[0].result == "debug"
