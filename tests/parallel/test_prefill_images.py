"""Prefill images: an inline ``run_many`` batch prefills once per
prefill key and restores the image for the other runs of that key.

Three properties carry the optimization:

- the prefilled device does not depend on the workload, seed, warm-up
  or host model (so one image serves every run of a key);
- a batch that restores images returns exactly what one ``run_spec``
  per cell returns: results, violations and ``state_digest``;
- runs with a telemetry registry still prefill for real.
"""

import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.api import build_simulation, run_many, run_spec
from repro.faults import get_campaign
from repro.nand.reliability import AgingState
from repro.parallel import RunSpec, resolve_seed
from repro.persist import capture_state
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation

FTLS = ("page", "vert", "cube", "oracle", "dftl")
REQUESTS = 200


def _prefilled_state(spec):
    sim, _ = build_simulation(spec, spec.options.check, spec.workload_name)
    sim.prefill(spec.prefill)
    return pickle.dumps(capture_state(sim, {}), protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture
def prefill_calls(monkeypatch):
    """Count real prefills (``SSDSimulation._prefill_locked`` calls)."""
    calls = []
    real = SSDSimulation._prefill_locked

    def counted(self, fraction):
        calls.append(fraction)
        return real(self, fraction)

    monkeypatch.setattr(SSDSimulation, "_prefill_locked", counted)
    return calls


class TestWorkloadIndependence:
    @pytest.mark.parametrize("ftl", FTLS)
    def test_prefilled_state_ignores_the_stream(self, ftl):
        config = SSDConfig.small()
        a = SimulationSpec(
            config=config,
            workload=WorkloadSpec("OLTP", n_requests=REQUESTS),
            ftl=ftl,
            warmup_requests=0,
            prefill=0.6,
            seed=3,
        )
        b = SimulationSpec(
            config=config,
            workload=WorkloadSpec("Web", n_requests=2 * REQUESTS),
            ftl=ftl,
            host=HostSpec(queue_depth=8, open_loop=True, rate_iops=5000.0),
            warmup_requests=50,
            prefill=0.6,
            seed=99,
        )
        assert _prefilled_state(a) == _prefilled_state(b)


def _cells(ftl, check="strict", telemetry=False):
    """Fresh and aged, with and without faults, two workloads each: four
    prefill keys, two runs per key."""
    cells = []
    for aged in (False, True):
        for faults in (None, "default"):
            config = SSDConfig.small()
            if aged:
                config = config.with_aging(AgingState(2000, 12.0))
            if faults is not None:
                config = config.with_faults(get_campaign(faults))
            for workload in ("OLTP", "Web"):
                cells.append(
                    RunSpec(
                        name=f"{ftl}/{workload}/{int(aged)}/{faults}",
                        spec=SimulationSpec(
                            config=config,
                            workload=WorkloadSpec(workload, n_requests=REQUESTS),
                            ftl=ftl,
                            host=HostSpec(queue_depth=8),
                            warmup_requests=20,
                            options=RunOptions(check=check, telemetry=telemetry),
                            prefill=0.5,
                        ),
                    )
                )
    return cells


def _per_cell(cells, base_seed):
    """One plain ``run_spec`` per cell, outside any batch."""
    return [
        run_spec(replace(cell.spec, seed=resolve_seed(cell, base_seed)))
        for cell in cells
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("ftl", FTLS)
    def test_batch_matches_one_run_spec_per_cell(self, ftl, prefill_calls):
        cells = _cells(ftl)
        batch = run_many(cells, jobs=1, base_seed=5)
        assert batch.ok, batch.errors
        # four distinct prefill keys, so four real prefills for eight runs
        assert len(prefill_calls) == 4
        expected = _per_cell(cells, base_seed=5)
        assert len(prefill_calls) == 4 + len(cells)
        for cell, got, want in zip(cells, batch.results, expected):
            assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
                want.to_dict(), sort_keys=True
            ), cell.name
            assert got.check["violations"] == want.check["violations"] == 0
            assert got.check["state_digest"] == want.check["state_digest"]
            # the restored checker reports its own run, not the one that
            # captured the image
            assert got.check == want.check, cell.name

    def test_unchecked_batch_matches(self, prefill_calls):
        cells = _cells("cube", check=None)
        batch = run_many(cells, jobs=1, base_seed=5)
        assert len(prefill_calls) == 4
        for got, want in zip(batch.results, _per_cell(cells, base_seed=5)):
            assert got.to_dict() == want.to_dict()

    def test_telemetry_runs_prefill_for_real(self, prefill_calls):
        cells = _cells("cube", check=None, telemetry=True)
        batch = run_many(cells, jobs=1, base_seed=5)
        assert batch.ok, batch.errors
        assert len(prefill_calls) == len(cells)
        for got, want in zip(batch.results, _per_cell(cells, base_seed=5)):
            assert got.to_dict() == want.to_dict()
            assert got.telemetry == want.telemetry

    def test_single_use_keys_make_no_image(self, prefill_calls, monkeypatch):
        from repro.parallel import prefill

        captured = []
        monkeypatch.setattr(
            prefill, "_Image", lambda sim: captured.append(sim)
        )
        cells = [cell for cell in _cells("page", check=None) if "OLTP" in cell.name]
        batch = run_many(cells, jobs=1, base_seed=5)
        assert batch.ok, batch.errors
        assert len(prefill_calls) == len(cells)
        assert captured == []

    def test_checkpointed_runs_prefill_for_real(self, prefill_calls, tmp_path):
        # a checkpointing run's host time is the cost of a whole run
        cells = [
            RunSpec(
                name=cell.name,
                spec=cell.spec.with_options(
                    checkpoint_every=100,
                    checkpoint_dir=str(tmp_path / str(index)),
                ),
            )
            for index, cell in enumerate(_cells("cube", check=None)[:2])
        ]
        batch = run_many(cells, jobs=1, base_seed=5)
        assert batch.ok, batch.errors
        assert len(prefill_calls) == len(cells)


class TestResumedBatch:
    def test_only_executing_runs_count_toward_images(
        self, prefill_calls, monkeypatch, tmp_path
    ):
        from repro.parallel import prefill
        from repro.persist import shard_result_path

        cells = _cells("cube", check=None)[:2]  # one key, two runs
        fresh = run_many(cells, jobs=1, base_seed=5, checkpoint_dir=str(tmp_path))
        assert fresh.ok, fresh.errors
        assert len(prefill_calls) == 1
        made = []
        real = prefill._Image

        def counted(sim):
            made.append(sim)
            return real(sim)

        monkeypatch.setattr(prefill, "_Image", counted)
        os.remove(shard_result_path(str(tmp_path), cells[1].name))
        rerun = run_many(cells, jobs=1, base_seed=5, checkpoint_dir=str(tmp_path))
        assert rerun.cached == [cells[0].name]
        # the one run that executed prefilled for real and left no image
        assert len(prefill_calls) == 2
        assert made == []
        for got, want in zip(rerun.results, fresh.results):
            assert got.to_dict() == want.to_dict()
