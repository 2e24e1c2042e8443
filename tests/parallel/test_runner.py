"""The crash-isolated process pool private to ``run_many``.

Worker functions live at module level so they pickle into spawn-started
worker processes; the pool takes any such call, so these tests inject
raising and hard-dying workers directly.
"""

import os
import time

import pytest

from repro.parallel.runner import _run_shards, _Shard


def _double(x):
    return 2 * x


def _sleep_then_double(x, delay):
    time.sleep(delay)
    return 2 * x


def _raise(message):
    raise ValueError(message)


def _hard_exit(code):
    os._exit(code)  # simulates a segfault / OOM kill: no reporting at all


def _specs(n):
    return [_Shard(name=f"s{i}", fn=_double, kwargs={"x": i}) for i in range(n)]


class TestInlinePath:
    def test_results_in_order(self):
        outcomes = _run_shards(_specs(4), jobs=1)
        assert [o.name for o in outcomes] == ["s0", "s1", "s2", "s3"]
        assert [o.result for o in outcomes] == [0, 2, 4, 6]
        assert all(o.ok for o in outcomes)

    def test_exception_is_isolated(self):
        specs = _specs(2) + [_Shard("bad", _raise, {"message": "boom"})]
        outcomes = _run_shards(specs, jobs=1)
        assert [o.ok for o in outcomes] == [True, True, False]
        assert "ValueError" in outcomes[2].error
        assert "boom" in outcomes[2].error

    def test_progress_callback_sees_every_shard(self):
        seen = []
        _run_shards(_specs(3), jobs=1, on_outcome=lambda i, o: seen.append(o.name))
        assert sorted(seen) == ["s0", "s1", "s2"]


class TestProcessPool:
    def test_results_in_input_order_not_completion_order(self):
        # s0 sleeps longest, so it finishes last -- but must come first
        specs = [
            _Shard(
                name=f"s{i}",
                fn=_sleep_then_double,
                kwargs={"x": i, "delay": 0.3 if i == 0 else 0.0},
            )
            for i in range(3)
        ]
        outcomes = _run_shards(specs, jobs=3)
        assert [o.name for o in outcomes] == ["s0", "s1", "s2"]
        assert [o.result for o in outcomes] == [0, 2, 4]

    def test_worker_exception_is_isolated(self):
        specs = _specs(3) + [_Shard("bad", _raise, {"message": "kaput"})]
        outcomes = _run_shards(specs, jobs=2)
        assert [o.ok for o in outcomes] == [True, True, True, False]
        assert "kaput" in outcomes[3].error
        assert [o.result for o in outcomes[:3]] == [0, 2, 4]

    def test_hard_worker_death_is_isolated(self):
        # a worker dying without reporting (exit code, no traceback) must
        # fail only its own shard; every other shard still completes
        specs = _specs(3) + [_Shard("dead", _hard_exit, {"code": 3})]
        outcomes = _run_shards(specs, jobs=2)
        assert [o.ok for o in outcomes] == [True, True, True, False]
        assert "exit code 3" in outcomes[3].error
        assert [o.result for o in outcomes[:3]] == [0, 2, 4]

    def test_more_shards_than_jobs(self):
        outcomes = _run_shards(_specs(7), jobs=2)
        assert [o.result for o in outcomes] == [2 * i for i in range(7)]

    def test_progress_callback_sees_every_shard(self):
        seen = []
        _run_shards(_specs(4), jobs=2, on_outcome=lambda i, o: seen.append(o.name))
        assert sorted(seen) == ["s0", "s1", "s2", "s3"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcomes_carry_host_time_and_rss(self, jobs):
        # timed where the shard ran, around the call alone
        specs = [
            _Shard(f"s{i}", _sleep_then_double, {"x": i, "delay": 0.2})
            for i in range(2)
        ]
        outcomes = _run_shards(specs, jobs=jobs)
        for outcome in outcomes:
            assert 0.2 <= outcome.wall_clock_s < 5.0
            assert outcome.peak_rss_kb > 0
        failed = _run_shards([_Shard("bad", _raise, {"message": "x"})])[0]
        assert failed.wall_clock_s is None and failed.peak_rss_kb is None

    def test_parallel_matches_inline(self):
        inline = _run_shards(_specs(5), jobs=1)
        pooled = _run_shards(_specs(5), jobs=4)
        assert [(o.name, o.ok, o.result) for o in inline] == [
            (o.name, o.ok, o.result) for o in pooled
        ]
