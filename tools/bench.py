#!/usr/bin/env python
"""Seeded continuous-benchmark runner.

Runs a fixed, seeded set of simulation cases and writes one
``BENCH_<n>.json`` snapshot (auto-incrementing at the repo root) with,
per case: simulated IOPS, latency percentiles, host wall-clock, peak
RSS, the FTL counters, and the device-telemetry registry snapshot.
Successive BENCH files are diffed with ``tools/bench_compare.py``; CI
runs the smoke size against the committed baseline::

    PYTHONPATH=src python tools/bench.py --smoke --out /tmp/BENCH_ci.json
    PYTHONPATH=src python tools/bench_compare.py BENCH_0.json /tmp/BENCH_ci.json

The *simulated* metrics (IOPS, percentiles, counters, telemetry) are
deterministic for a given seed and case list -- the simulator's
reliability model is hash-based, not host-dependent -- so they are
comparable across machines.  Wall-clock and RSS are host-dependent and
informational only.

Every case is a :class:`~repro.parallel.RunSpec` with a pinned seed,
and all of them run as one :func:`repro.api.run_many` batch, which
times each run where it executes: ``wall_clock_s`` is the host time
around the run alone and ``peak_rss_kb`` the peak RSS of the process
that ran it.  ``--checkpoint-every N`` adds a second, checkpointing run
per case to the batch as an overhead probe.

``--jobs N`` spreads the batch over N crash-isolated worker processes;
every case keeps the same explicit seed and the snapshot lists cases in
the same order, so the simulated metrics are identical to a serial run.
``--canonical`` additionally drops the
host-dependent fields (wall-clock, RSS, host info), making the snapshot
*byte-for-byte* identical for any ``--jobs`` value::

    PYTHONPATH=src python tools/bench.py --smoke --canonical --jobs 4 --out a.json
    PYTHONPATH=src python tools/bench.py --smoke --canonical --out b.json
    cmp a.json b.json   # identical
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)  # for benchmarks.runner configs

BENCH_SCHEMA_VERSION = 1


def _cases():
    """(name, ftl, workload, aging) drawn from the benchmark configs.

    Every FTL of the paper comparison on the write-heavy OLTP mix, the
    read-heavier Proxy mix on cubeFTL, and one aged-device case (where
    read retries and the ORT actually matter) -- a small spread that
    still exercises every subsystem the registry instruments.
    """
    from benchmarks.runner import AGING_STATES, FTLS

    fresh = AGING_STATES["fresh (0K P/E)"]
    aged = AGING_STATES["2K P/E + 1-year"]
    cases = [(f"{ftl}-OLTP", ftl, "OLTP", fresh) for ftl in FTLS]
    cases.append(("cube-Proxy", "cube", "Proxy", fresh))
    cases.append(("cube-OLTP-aged", "cube", "OLTP", aged))
    # demand-paged mapping: the translation-traffic overhead case
    cases.append(("dftl-OLTP", "dftl", "OLTP", fresh))
    return cases

#: sizing knobs: smoke is the CI-friendly size, full the nightly one
SIZES = {
    "smoke": dict(
        requests=600, warmup=100, blocks_per_chip=8, prefill=0.3, queue_depth=8
    ),
    "full": dict(
        requests=4000, warmup=500, blocks_per_chip=16, prefill=0.5,
        queue_depth=16,
    ),
}


def _latency_dict(hist) -> dict:
    return {
        "count": len(hist),
        "mean_us": hist.mean_us,
        "p50_us": hist.percentile(50),
        "p90_us": hist.percentile(90),
        "p99_us": hist.percentile(99),
        "max_us": hist.max_us,
    }


def _spec(ftl: str, workload: str, size: dict, aging=None):
    from repro.nand.geometry import BlockGeometry, SSDGeometry
    from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
    from repro.ssd.config import SSDConfig

    geometry = SSDGeometry(
        n_channels=2,
        chips_per_channel=4,
        blocks_per_chip=size["blocks_per_chip"],
        block=BlockGeometry(),
    )
    config = SSDConfig(geometry=geometry)
    if aging is not None:
        config = config.with_aging(aging)
    return SimulationSpec(
        config=config,
        workload=WorkloadSpec(workload, n_requests=size["requests"]),
        ftl=ftl,
        host=HostSpec(queue_depth=size["queue_depth"]),
        warmup_requests=size["warmup"],
        prefill=size["prefill"],
    )


def run_cases(
    cases, size: dict, seed: int, jobs: int = 1,
    checkpoint_every: Optional[int] = None, on_progress=None,
):
    """Run ``(name, ftl, workload, aging)`` cases as one
    :func:`repro.api.run_many` batch and build their BENCH case dicts.

    Each case is one run with telemetry; with ``checkpoint_every`` it
    also gets a second, checkpointing run as an overhead probe.  Every
    run pins ``seed``.  Returns ``(cases, errors, incomplete)``: the case
    dicts in case order, one ``{"name", "error"}`` per failed case, and
    whether a SIGINT stopped the batch.
    """
    import shutil
    import tempfile

    from repro.api import run_many
    from repro.parallel import RunSpec, ShardsInterrupted

    runs, probe_dirs = [], []
    for name, ftl, workload, aging in cases:
        spec = _spec(ftl, workload, size, aging)
        runs.append(RunSpec(name, spec.with_options(telemetry=True), seed=seed))
        if checkpoint_every is not None:
            probe_dirs.append(tempfile.mkdtemp(prefix="bench-ckpt-"))
            probe = spec.with_options(
                checkpoint_every=checkpoint_every, checkpoint_dir=probe_dirs[-1]
            )
            runs.append(RunSpec(f"{name}/checkpointed", probe, seed=seed))
    incomplete = False
    try:
        batch = run_many(runs, jobs=jobs, on_progress=on_progress)
    except ShardsInterrupted as interrupt:
        batch, incomplete = interrupt.batch, True
    finally:
        written = [len(os.listdir(directory)) for directory in probe_dirs]
        for directory in probe_dirs:
            shutil.rmtree(directory, ignore_errors=True)
    step = len(runs) // len(cases)  # the runs of case i: i*step, i*step+1
    done, errors = [], []
    for index, (name, ftl, workload, _aging) in enumerate(cases):
        mine = range(index * step, (index + 1) * step)
        failed = [batch.names[i] for i in mine if batch.names[i] in batch.errors]
        if failed:
            errors.append({"name": name, "error": batch.errors[failed[0]]})
            continue
        if any(batch.results[i] is None for i in mine):
            continue  # the interrupt came before it ran
        result, wall = batch.results[mine[0]], batch.wall_clock_s[mine[0]]
        stats = result.stats
        case = {
            "name": name,
            "ftl": ftl,
            "workload": workload,
            "requests": size["requests"],
            "iops": stats.iops,
            "read_latency": _latency_dict(stats.read_latency),
            "write_latency": _latency_dict(stats.write_latency),
            "wall_clock_s": wall,
            "peak_rss_kb": batch.peak_rss_kb[mine[0]],
            "counters": stats.to_dict()["counters"],
            "telemetry": result.telemetry,
        }
        if checkpoint_every is not None:
            # overhead probe: the same case run *with* checkpointing.
            # The primary metrics above always come from the
            # checkpoint-off run, so baselines diff at exactly 0.0 %
            # regardless of this knob; the sub-dict records what
            # periodic durability costs.
            probe_wall = batch.wall_clock_s[mine[1]]
            case["checkpoint"] = {
                "every": checkpoint_every,
                "checkpoints_written": written[index],
                "iops": batch.results[mine[1]].iops,
                "wall_clock_s": probe_wall,
                "wall_overhead_pct": (
                    100.0 * (probe_wall - wall) / wall if wall > 0 else None
                ),
            }
        done.append(case)
    return done, errors, incomplete


def next_bench_path(directory: str) -> str:
    taken = set()
    for entry in os.listdir(directory):
        match = re.fullmatch(r"BENCH_(\d+)\.json", entry)
        if match:
            taken.add(int(match.group(1)))
    index = 0
    while index in taken:
        index += 1
    return os.path.join(directory, f"BENCH_{index}.json")


#: per-case fields that depend on the machine, not the simulation; the
#: ``--canonical`` mode strips these (plus the top-level ``host`` block)
HOST_DEPENDENT_FIELDS = ("wall_clock_s", "peak_rss_kb")


def canonicalize(document: dict) -> dict:
    """Drop host-dependent fields so snapshots compare byte-for-byte."""
    document = dict(document)
    document.pop("host", None)
    document["canonical"] = True
    cases = []
    for case in document["cases"]:
        case = {k: v for k, v in case.items() if k not in HOST_DEPENDENT_FIELDS}
        if "checkpoint" in case:
            case["checkpoint"] = {
                k: v
                for k, v in case["checkpoint"].items()
                if k not in ("wall_clock_s", "wall_overhead_pct")
            }
        cases.append(case)
    document["cases"] = cases
    return document


def run_bench(
    smoke: bool,
    seed: int,
    label: str,
    jobs: int = 1,
    checkpoint_every: Optional[int] = None,
) -> dict:
    """Run every case (serially or across ``jobs`` workers) and build
    the snapshot document.

    Cases appear in the snapshot in definition order regardless of
    worker completion order, and every case runs with the same explicit
    ``seed`` under any ``jobs`` value, so the simulated metrics cannot
    depend on how the run was sharded.  A crashed case becomes an entry
    in the document's ``errors`` list instead of aborting the batch.

    A SIGINT (Ctrl-C) stops the batch cleanly: running workers are shut
    down and the document carries the completed cases plus
    ``"incomplete": true`` so a partial snapshot is never mistaken for a
    full one.
    """
    size = SIZES["smoke" if smoke else "full"]
    mode = "smoke" if smoke else "full"

    def progress(name, ok):
        status = "done" if ok else "FAILED"
        print(f"bench: {name} ({mode}) {status}", flush=True)

    cases, errors, incomplete = run_cases(
        _cases(), size, seed, jobs=jobs, checkpoint_every=checkpoint_every,
        on_progress=progress,
    )
    document = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "smoke": smoke,
        "seed": seed,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "cases": cases,
    }
    if checkpoint_every is not None:
        document["checkpoint_every"] = checkpoint_every
    if incomplete:
        document["incomplete"] = True
    if errors:
        document["errors"] = errors
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (fewer requests, smaller device)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--label", default="", help="free-form tag stored in the snapshot"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path; 'auto' (or omitted) appends the next free "
        "BENCH_<n>.json at the repo root",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard the cases across (default 1: "
        "serial; any value yields identical simulated metrics)",
    )
    parser.add_argument(
        "--canonical",
        action="store_true",
        help="strip host-dependent fields (wall-clock, RSS, host info) so "
        "snapshots are byte-identical across hosts and --jobs values",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        dest="checkpoint_every",
        metavar="N",
        help="also run each case with a checkpoint every N requests and "
        "record the overhead in a per-case 'checkpoint' sub-dict; the "
        "primary metrics always come from the checkpoint-off run",
    )
    args = parser.parse_args(argv)

    document = run_bench(
        args.smoke, args.seed, args.label, jobs=args.jobs,
        checkpoint_every=args.checkpoint_every,
    )
    if args.canonical:
        document = canonicalize(document)
    out = (
        next_bench_path(REPO_ROOT)
        if args.out in (None, "auto")
        else args.out
    )
    with open(out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for case in document["cases"]:
        wall = case.get("wall_clock_s")
        print(
            f"  {case['name']:>12}: {case['iops']:8.0f} IOPS, "
            f"read p99 {case['read_latency']['p99_us']:7.1f} us, "
            f"write p99 {case['write_latency']['p99_us']:7.1f} us"
            + (f", {wall:.2f} s wall" if wall is not None else "")
        )
        checkpoint = case.get("checkpoint")
        if checkpoint:
            overhead = checkpoint.get("wall_overhead_pct")
            print(
                f"  {'':>12}  checkpointed every {checkpoint['every']}: "
                f"{checkpoint['checkpoints_written']} checkpoint(s)"
                + (
                    f", {overhead:+.1f} % wall overhead"
                    if overhead is not None
                    else ""
                )
            )
    if document.get("incomplete"):
        print(
            f"bench INTERRUPTED: partial snapshot "
            f"({len(document['cases'])} case(s)) written to {out}",
            file=sys.stderr,
        )
        return 130
    print(f"bench snapshot written to {out}")
    if document.get("errors"):
        for failure in document["errors"]:
            print(f"FAILED case {failure['name']}:\n{failure['error']}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
