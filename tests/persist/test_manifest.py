"""Resumable sweeps: manifest identity, per-run result caching, and
interrupt survival, through ``run_many(checkpoint_dir=...)``.

``run_spec`` is replaced by a cheap stand-in (``run_many`` looks it up
at call time), so each run's result is a function of its pinned seed.
"""

import json
import os
import pickle
from types import SimpleNamespace

import pytest

import repro.api
from repro.api import run_many
from repro.parallel import RunSpec, ShardsInterrupted
from repro.persist import (
    MANIFEST_SCHEMA_VERSION,
    ManifestMismatch,
    load_manifest,
    shard_result_path,
    write_manifest,
)
from repro.specs import SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


@pytest.fixture
def squares(monkeypatch):
    """Install a ``run_spec`` that squares the seed; returns a control
    object whose ``fail``/``interrupt`` seeds raise and whose
    ``log_dir`` (when set) records every run that executed."""
    control = SimpleNamespace(fail=None, interrupt=None, log_dir=None)

    def fake(spec):
        if spec.seed == control.interrupt:
            raise KeyboardInterrupt
        if spec.seed == control.fail:
            raise RuntimeError(f"run {spec.seed} failed")
        if control.log_dir is not None:
            with open(os.path.join(control.log_dir, f"ran_{spec.seed}"), "w"):
                pass
        return SimpleNamespace(value=spec.seed * spec.seed, telemetry=None)

    monkeypatch.setattr(repro.api, "run_spec", fake)
    return control


def _specs(*seeds):
    spec = SimulationSpec(config=SSDConfig.small(), workload=WorkloadSpec("OLTP"))
    return [RunSpec(f"cell-{seed}", spec, seed=seed) for seed in seeds]


def _values(batch):
    return [r.value if r is not None else None for r in batch.results]


class TestManifestFile:
    def test_write_and_load(self, tmp_path):
        write_manifest(str(tmp_path), ["a", "b"], base_seed=5)
        manifest = load_manifest(str(tmp_path))
        assert manifest["shards"] == ["a", "b"]
        assert manifest["base_seed"] == 5

    def test_load_missing_returns_none(self, tmp_path):
        assert load_manifest(str(tmp_path / "nope")) is None

    def test_result_path_is_collision_safe(self, tmp_path):
        # names differing only in sanitized characters must not collide
        a = shard_result_path(str(tmp_path), "cell a/b")
        b = shard_result_path(str(tmp_path), "cell a:b")
        assert a != b


class TestResumableRun:
    def test_fresh_run_matches_plain_and_saves(self, tmp_path, squares):
        batch = run_many(_specs(0, 1, 2, 3), checkpoint_dir=str(tmp_path))
        assert _values(batch) == [0, 1, 4, 9]
        assert batch.cached == []
        assert load_manifest(str(tmp_path))["shards"] == [
            "cell-0", "cell-1", "cell-2", "cell-3"
        ]
        for i in range(4):
            assert os.path.isfile(shard_result_path(str(tmp_path), f"cell-{i}"))

    def test_rerun_serves_everything_cached(self, tmp_path, squares):
        squares.log_dir = str(tmp_path / "log")
        os.mkdir(squares.log_dir)
        specs = _specs(0, 1, 2)
        run_many(specs, checkpoint_dir=str(tmp_path))
        assert len(os.listdir(squares.log_dir)) == 3
        batch = run_many(specs, checkpoint_dir=str(tmp_path))
        assert batch.cached == ["cell-0", "cell-1", "cell-2"]
        assert _values(batch) == [0, 1, 4]
        # no run actually executed again
        assert len(os.listdir(squares.log_dir)) == 3

    def test_failed_shards_are_not_saved(self, tmp_path, squares):
        squares.fail = 2
        specs = _specs(0, 1, 2)
        batch = run_many(specs, checkpoint_dir=str(tmp_path))
        assert list(batch.errors) == ["cell-2"]
        assert not os.path.isfile(shard_result_path(str(tmp_path), "cell-2"))
        # the rerun retries the failed run (and only it runs again)
        rerun = run_many(specs, checkpoint_dir=str(tmp_path))
        assert rerun.cached == ["cell-0", "cell-1"]
        assert list(rerun.errors) == ["cell-2"]

    def test_mismatched_shards_raise(self, tmp_path, squares):
        run_many(_specs(0, 1), checkpoint_dir=str(tmp_path))
        with pytest.raises(ManifestMismatch):
            run_many(_specs(0, 1, 2), checkpoint_dir=str(tmp_path))

    def test_mismatched_base_seed_raises(self, tmp_path, squares):
        run_many(_specs(0, 1), base_seed=7, checkpoint_dir=str(tmp_path))
        with pytest.raises(ManifestMismatch):
            run_many(_specs(0, 1), base_seed=8, checkpoint_dir=str(tmp_path))

    def test_older_schema_raises(self, tmp_path, squares):
        # a directory written before outcomes carried relaunch counts and
        # host times must not be unpickled into today's batch
        specs = _specs(0, 1)
        run_many(specs, checkpoint_dir=str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = MANIFEST_SCHEMA_VERSION - 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestMismatch):
            run_many(specs, checkpoint_dir=str(tmp_path))

    def test_no_dir_is_plain_run(self, squares):
        batch = run_many(_specs(0, 1, 2), checkpoint_dir=None)
        assert _values(batch) == [0, 1, 4]

    def test_interrupt_preserves_saved_shards(self, tmp_path, squares):
        squares.interrupt = 9
        specs = _specs(0, 1, 9)
        with pytest.raises(ShardsInterrupted) as excinfo:
            run_many(specs, checkpoint_dir=str(tmp_path))
        assert _values(excinfo.value.batch) == [0, 1, None]
        # the completed runs survived on disk; the rerun picks them up
        # cached and only re-attempts the interrupted one
        squares.interrupt = None
        rerun = run_many(specs, checkpoint_dir=str(tmp_path))
        assert rerun.cached == ["cell-0", "cell-1"]
        assert _values(rerun) == [0, 1, 81]

    def test_interrupt_merges_cached_outcomes(self, tmp_path, squares):
        # pre-seed one cached run, then interrupt on the next rerun
        run_many(_specs(0), checkpoint_dir=str(tmp_path))
        specs = _specs(0, 9)
        write_manifest(str(tmp_path), [s.name for s in specs], base_seed=7)
        squares.interrupt = 9
        with pytest.raises(ShardsInterrupted) as excinfo:
            run_many(specs, checkpoint_dir=str(tmp_path))
        batch = excinfo.value.batch
        assert _values(batch) == [0, None]
        assert batch.cached == ["cell-0"]


class TestOutcomePickleRoundtrip:
    def test_saved_outcome_keeps_result(self, tmp_path, squares):
        run_many(_specs(0), checkpoint_dir=str(tmp_path))
        with open(shard_result_path(str(tmp_path), "cell-0"), "rb") as fh:
            outcome = pickle.load(fh)
        assert outcome.ok and outcome.result.value == 0 and not outcome.cached
        assert outcome.wall_clock_s is not None
