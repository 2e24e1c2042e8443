"""Retry semantics: hard-died workers relaunch with the identical shard
(same seed), raised exceptions do not, and every relaunch is visible in
outcome provenance; an interrupted batch keeps what completed."""

import os
from types import SimpleNamespace

import pytest

import repro.api
from repro.api import run_many
from repro.parallel import RunSpec, ShardsInterrupted
from repro.parallel.runner import _run_shards, _Shard
from repro.specs import SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


def _ok(value):
    return value + 1


def _raise(value):
    raise RuntimeError(f"boom {value}")


def _die_once(sentinel):
    """Hard-die (no report through the pipe) on the first attempt only."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(41)
    return "second-attempt"


def _die_always():
    os._exit(41)


class TestHardDeathRetry:
    def test_retry_recovers_a_flaky_worker(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        specs = [
            _Shard("stable", _ok, {"value": 1}),
            _Shard("flaky", _die_once, {"sentinel": sentinel}),
        ]
        outcomes = _run_shards(specs, jobs=2, retries=1)
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[1].result == "second-attempt"
        assert [o.relaunches for o in outcomes] == [0, 1]

    def test_no_retries_reports_hard_death(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        specs = [
            _Shard("stable", _ok, {"value": 1}),
            _Shard("flaky", _die_once, {"sentinel": sentinel}),
        ]
        outcomes = _run_shards(specs, jobs=2, retries=0)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "died without reporting" in outcomes[1].error
        assert "41" in outcomes[1].error

    def test_retry_budget_exhausts(self):
        specs = [
            _Shard("stable", _ok, {"value": 1}),
            _Shard("doomed", _die_always, {}),
        ]
        outcomes = _run_shards(specs, jobs=2, retries=2)
        assert not outcomes[1].ok
        assert outcomes[1].relaunches == 2

    def test_raised_exceptions_are_not_retried(self):
        specs = [
            _Shard("stable", _ok, {"value": 1}),
            _Shard("raiser", _raise, {"value": 2}),
        ]
        outcomes = _run_shards(specs, jobs=2, retries=3)
        assert not outcomes[1].ok
        assert "boom 2" in outcomes[1].error
        assert outcomes[1].relaunches == 0


def _run_spec_interrupting_on(seed):
    """A ``run_spec`` stand-in that raises KeyboardInterrupt for ``seed``."""

    def fake(spec):
        if spec.seed == seed:
            raise KeyboardInterrupt
        return SimpleNamespace(seed=spec.seed, telemetry=None)

    return fake


def _named_runs(*seeds):
    spec = SimulationSpec(config=SSDConfig.small(), workload=WorkloadSpec("OLTP"))
    return [RunSpec(f"run-{seed}", spec, seed=seed) for seed in seeds]


class TestInterrupt:
    def test_inline_interrupt_carries_completed(self, monkeypatch):
        monkeypatch.setattr(repro.api, "run_spec", _run_spec_interrupting_on(2))
        with pytest.raises(ShardsInterrupted) as excinfo:
            run_many(_named_runs(1, 2, 3), jobs=1)
        batch = excinfo.value.batch
        assert batch.names == ["run-1", "run-2", "run-3"]
        assert batch.results[0].seed == 1
        assert batch.results[1:] == [None, None]
        assert batch.errors == {}
        assert batch.wall_clock_s[0] is not None
        assert batch.wall_clock_s[1:] == [None, None]

    def test_interrupt_is_a_keyboard_interrupt(self):
        assert issubclass(ShardsInterrupted, KeyboardInterrupt)


class TestRetryTelemetry:
    def test_relaunches_reach_the_retry_counter(self):
        from repro.api import _batch_result
        from repro.parallel.runner import _Outcome

        done = SimpleNamespace(telemetry=None)
        outcomes = [
            _Outcome("a", True, done, relaunches=1),
            _Outcome("b", False, error="died", relaunches=2),
            # relaunched in an earlier session: listed, not counted again
            _Outcome("c", True, done, relaunches=3, cached=True),
            None,
        ]
        batch = _batch_result(["a", "b", "c", "d"], outcomes)
        assert batch.retried == ["a", "b", "c"]
        assert batch.cached == ["c"]
        assert batch.errors == {"b": "died"}
        assert batch.results == [done, None, done, None]
        counter = batch.telemetry["shard_retries_total"]["series"][0]
        assert counter["value"] == 3
