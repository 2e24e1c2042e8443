"""One repetition of one workload, run in a fresh process.

``python3 -m perfbench.rep --workload NAME --seed N --mode MODE [--tiny]``
prints one JSON line.  Modes:

- ``timed``: phase timers only (one pair of clock reads around set-up
  and one around replay, per run);
- ``traced``: the same plus :mod:`perfbench.layers` spans;
- ``check``: every run under ``check="on"`` (the invariant checker).

Every mode reports the simulated metrics, which must be identical for a
given seed whatever the mode, and the correctness gate: all requests
completed and every mapper audits clean after replay.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

import repro.api
import repro.ssd.host
from perfbench import layers
from perfbench.workloads import run_specs
from repro.workloads.base import Trace

#: FTL counters summed over a workload's runs
COUNTERS = (
    "host_read_pages",
    "host_write_pages",
    "buffer_read_hits",
    "flash_reads",
    "flash_programs",
    "leader_programs",
    "follower_programs",
    "gc_reads",
    "gc_programs",
    "erases",
    "reprograms",
    "read_retries",
    "program_time_us",
)


class Probe:
    """Phase timers around ``run_spec`` and ``replay``, plus what the
    simulator holds at the end of each replay (gate and counters).

    Installed outermost, so in a traced run its bookkeeping after a
    replay is excluded from every span.
    """

    def __init__(self, tracer: Optional[layers.LayerTracer] = None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.replay_s = 0.0
        self.gate_s = 0.0
        self.gate_cpu_s = 0.0
        self.completed = 0
        #: simulated steady-state IOPS of each run, in run order
        self.steady_iops: List[float] = []
        self.audit_failures: List[dict] = []
        #: deterministic simulator state, summed over runs
        self.state: Dict[str, float] = {
            "engine_events": 0,
            "engine_peak_pending": 0,
            "chip_busy_us": 0.0,
            "chip_time_us": 0.0,
            "wam_leaders": 0,
            "wam_followers": 0,
            "ort_hits": 0,
            "ort_lookups": 0,
            "free_blocks_min": None,
        }
        self._cell_start = 0.0

    def install(self) -> None:
        run_spec = repro.api.run_spec
        replay = repro.ssd.host.replay
        clock = time.perf_counter

        def timed_run_spec(spec):
            self._cell_start = clock()
            return run_spec(spec)

        def timed_replay(sim, trace, **kwargs):
            warmup = kwargs.get("warmup_requests", 0)
            # steady closed-loop throughput: completions while every
            # queue slot is busy, from the end of warm-up until the trace
            # runs dry and the queue starts to drain
            window = {warmup: 0.0, len(trace) - kwargs["queue_depth"]: None}
            inner = sim.progress

            def progress(completed, total, now_us):
                if completed in window:
                    window[completed] = now_us
                if inner is not None:
                    inner(completed, total, now_us)

            sim.progress = progress
            # prefill allocates through the WAM too; count replay only
            wam = getattr(sim.ftl, "wam", None)
            wam_before = (wam.leader_allocations, wam.follower_allocations) if wam else (0, 0)
            free = min(sim.ftl.blocks.free_count(chip) for chip in range(len(sim.controller.chips)))
            start = clock()
            self.setup_s += start - self._cell_start
            stats = replay(sim, trace, **kwargs)
            end = clock()
            self.replay_s += end - start
            cpu = time.process_time()
            self._observe(sim, stats, warmup, window, wam_before, free)
            self.gate_cpu_s += time.process_time() - cpu
            spent = clock() - end
            self.gate_s += spent
            if self.tracer is not None:
                self.tracer.exclude(spent)
            return stats

        repro.api.run_spec = timed_run_spec
        repro.ssd.host.replay = timed_replay

    def _observe(self, sim, stats, warmup: int, window: dict, wam_before, free: int) -> None:
        self.completed += stats.completed_requests + warmup
        (first, start_us), (last, end_us) = sorted(window.items())
        self.steady_iops.append((last - first) / ((end_us - start_us) / 1e6))
        for name, mapper in sim.ftl.mappers().items():
            finding = mapper.audit()
            if finding is not None:
                self.audit_failures.append({"mapper": name, **finding})
        engine = sim.controller.engine
        chips = [sim.controller.chip_resource(chip) for chip in range(len(sim.controller.chips))]
        state = self.state
        state["engine_events"] += engine.processed
        state["engine_peak_pending"] = max(state["engine_peak_pending"], engine.peak_pending)
        state["chip_busy_us"] += sum(chip.busy_time_us for chip in chips)
        state["chip_time_us"] += len(chips) * engine.now
        wam = getattr(sim.ftl, "wam", None)
        if wam is not None:
            state["wam_leaders"] += wam.leader_allocations - wam_before[0]
            state["wam_followers"] += wam.follower_allocations - wam_before[1]
        opm = getattr(sim.ftl, "opm", None)
        if opm is not None:
            # prefill never reads, so the ORT counts are replay-only
            state["ort_hits"] += opm.ort.hits
            state["ort_lookups"] += opm.ort.hits + opm.ort.misses
        if state["free_blocks_min"] is None or free < state["free_blocks_min"]:
            state["free_blocks_min"] = free


def _percentiles(samples: List[np.ndarray], prefix: str) -> Dict[str, float]:
    pooled = np.concatenate(samples) if samples else np.zeros(0)
    if not len(pooled):
        return {f"{prefix}_p50_us": 0.0, f"{prefix}_p99_us": 0.0, f"{prefix}_samples": 0}
    return {
        f"{prefix}_p50_us": float(np.percentile(pooled, 50)),
        f"{prefix}_p99_us": float(np.percentile(pooled, 99)),
        f"{prefix}_samples": int(len(pooled)),
    }


def simulated_metrics(results, probe: Probe) -> Dict[str, float]:
    """What the modelled SSD did: identical for a seed in every mode."""
    stats = [result.stats for result in results]
    iops = probe.steady_iops
    sim = {
        # geometric mean over runs (the only run, on single workloads)
        "sim_iops": math.exp(sum(math.log(value) for value in iops) / len(iops)),
    }
    sim.update(_percentiles([s.read_latency.samples for s in stats], "sim_read"))
    sim.update(_percentiles([s.write_latency.samples for s in stats], "sim_write"))
    for counter in COUNTERS:
        sim[counter] = sum(getattr(s.counters, counter) for s in stats)
    sim.update(probe.state)
    recovery = [s.recovery for s in stats if s.recovery is not None]
    sim["uncorrectable_after_recovery"] = sum(
        r.uncorrectable_after_recovery for r in recovery
    )
    return sim


def _requests(run) -> int:
    workload = run.spec.workload
    return len(workload) if isinstance(workload, Trace) else workload.n_requests


def run_rep(workload: str, seed: int, mode: str, tiny: bool = False) -> dict:
    """Run one repetition in this process; the caller must be a fresh
    process (``traced`` patches the simulator for good)."""
    tracer = layers.LayerTracer() if mode == "traced" else None
    if tracer is not None:
        layers.install(tracer)
    probe = Probe(tracer)
    probe.install()
    cpu_start = time.process_time()
    start = time.perf_counter()
    # building the specs is set-up too: web-aged generates its trace here
    specs = run_specs(workload, seed, tiny=tiny)
    probe.setup_s += time.perf_counter() - start
    if mode == "check":
        specs = [replace(spec, spec=spec.spec.with_options(check="on")) for spec in specs]
    batch = repro.api.run_many(specs, jobs=1, base_seed=seed)
    wall = time.perf_counter() - start - probe.gate_s
    cpu = time.process_time() - cpu_start - probe.gate_cpu_s
    out = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "errors": batch.errors,
        "requests": sum(_requests(spec) for spec in specs),
        "completed": probe.completed,
        "audit_failures": probe.audit_failures,
        "host": {
            "wall_s": wall,
            "setup_s": probe.setup_s,
            "replay_s": probe.replay_s,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    results = [result for result in batch.results if result is not None]
    if results:
        out["sim"] = simulated_metrics(results, probe)
    if mode == "check":
        out["check"] = {
            name: {
                "violations": result.check["violations"],
                "data_loss_escapes": result.check["oracle"]["data_loss_escapes"],
                "state_digest": result.check["state_digest"],
            }
            for name, result in zip(batch.names, batch.results)
            if result is not None
        }
    if tracer is not None:
        out["layers"] = tracer.table()
        out["free_min"] = tracer.free_min
        out["prefill_pages"] = tracer.prefill_pages
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "check"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, args.mode, tiny=args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
