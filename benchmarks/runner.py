"""Shared SSD-simulation runner for the evaluation benchmarks."""

from __future__ import annotations

from typing import Dict

from benchmarks.conftest import BENCH_QUEUE_DEPTH, BENCH_REQUESTS, BENCH_WARMUP
from repro.api import run_many, run_spec
from repro.nand.reliability import AgingState
from repro.parallel import RunSpec
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.stats import SimulationStats

#: the paper's three aging conditions (Section 6.2)
AGING_STATES = {
    "fresh (0K P/E)": AgingState(0, 0.0),
    "2K P/E + 1-month": AgingState(2000, 1.0),
    "2K P/E + 1-year": AgingState(2000, 12.0),
}

WORKLOADS = ["Mail", "Web", "Proxy", "OLTP", "Rocks", "Mongo"]

FTLS = ["page", "vert", "cube"]


def bench_spec(
    config: SSDConfig,
    ftl: str,
    workload: str,
    aging: AgingState,
    seed: int = 7,
    prefill: float = 0.9,
    n_requests: int = BENCH_REQUESTS,
    warmup: int = BENCH_WARMUP,
    queue_depth: int = BENCH_QUEUE_DEPTH,
) -> SimulationSpec:
    """The run that prefills an SSD and replays one workload on one FTL."""
    return SimulationSpec(
        config=config.with_aging(aging),
        workload=WorkloadSpec(workload, n_requests=n_requests),
        ftl=ftl,
        host=HostSpec(queue_depth=queue_depth),
        warmup_requests=warmup,
        prefill=prefill,
        seed=seed,
    )


def run_one(config, ftl, workload, aging, **knobs) -> SimulationStats:
    """Run one :func:`bench_spec` and return its stats."""
    return run_spec(bench_spec(config, ftl, workload, aging, **knobs)).stats


def run_matrix(
    config: SSDConfig, aging: AgingState, ftls=None, workloads=None, seed: int = 7
) -> Dict[str, Dict[str, SimulationStats]]:
    """workload -> ftl-name -> stats, for one aging condition."""
    runs = [
        RunSpec(f"{workload}/{ftl}", bench_spec(config, ftl, workload, aging), seed)
        for workload in (workloads if workloads is not None else WORKLOADS)
        for ftl in (ftls if ftls is not None else FTLS)
    ]
    batch = run_many(runs, jobs=1)
    results: Dict[str, Dict[str, SimulationStats]] = {}
    for run in runs:
        stats = batch.result_for(run.name).stats
        results.setdefault(run.spec.workload_name, {})[stats.ftl_name] = stats
    return results
