"""Seeded randomized-workload differential fuzzing across FTLs.

:func:`random_trace` generates a reproducible host trace (mixed
sequential/random reads and writes over a hot/cold-skewed logical
space), :func:`run_fuzz` replays it through several FTL variants with
the runtime invariant checker attached and compares the final logical
state digests -- all FTLs must agree on every (LPN, content) pair.

Every outcome is a pure function of ``(seed, ops, config knobs)``, so
a failing report is replayed by rerunning with the printed seed:

    repro-ssd fuzz --seed <seed> --ops <ops> --check=strict

CI runs a fixed-seed smoke of this on two FTLs (the ``check-fuzz``
job); see docs/TESTING.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.errors import InvariantViolation
from repro.check.invariants import CheckConfig
from repro.ssd.config import SSDConfig
from repro.workloads.base import READ, WRITE, IORequest, Trace

#: FTL variants fuzzed when the caller does not choose
DEFAULT_FTLS = ("page", "vert", "cube", "oracle", "dftl")


def random_trace(
    logical_pages: int,
    n_ops: int,
    seed: int,
    *,
    read_fraction: float = 0.5,
    hot_fraction: float = 0.2,
    hot_weight: float = 0.6,
    max_pages: int = 8,
    name: Optional[str] = None,
) -> Trace:
    """A seeded random host trace mixing access patterns.

    ``hot_fraction`` of the logical space receives ``hot_weight`` of the
    accesses (skew forces GC and coalescing); request lengths are
    uniform in ``[1, max_pages]``; reads/writes interleave at
    ``read_fraction``.  Deterministic for a given argument tuple.
    """
    if logical_pages < 1:
        raise ValueError("logical_pages must be >= 1")
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    rng = random.Random(seed)
    hot_pages = max(1, int(logical_pages * hot_fraction))
    requests: List[IORequest] = []
    for _ in range(n_ops):
        op = READ if rng.random() < read_fraction else WRITE
        region = hot_pages if rng.random() < hot_weight else logical_pages
        n_pages = rng.randint(1, max_pages)
        lpn = rng.randrange(region)
        n_pages = min(n_pages, logical_pages - lpn)
        requests.append(IORequest(op, lpn, n_pages))
    return Trace(
        name=name or f"fuzz-s{seed}",
        logical_pages=logical_pages,
        requests=requests,
    )


@dataclass
class FuzzReport:
    """Outcome of one differential fuzz run."""

    seed: int
    ops: int
    ftls: List[str]
    #: final-state digest per FTL (absent when the FTL's run failed)
    digests: Dict[str, str] = field(default_factory=dict)
    #: full checker report per FTL
    reports: Dict[str, dict] = field(default_factory=dict)
    #: first invariant violation per failing FTL, rendered
    violations: Dict[str, str] = field(default_factory=dict)
    #: human-readable differential mismatches
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed} ops={self.ops} "
            f"ftls={','.join(self.ftls)}: "
            + ("OK" if self.ok else "FAILED")
        ]
        for ftl in self.ftls:
            if ftl in self.violations:
                lines.append(f"  {ftl}: VIOLATION {self.violations[ftl]}")
            elif ftl in self.digests:
                report = self.reports.get(ftl, {})
                oracle = report.get("oracle", {})
                lines.append(
                    f"  {ftl}: digest={self.digests[ftl][:16]} "
                    f"reads_verified={oracle.get('reads_verified', 0)} "
                    f"deep_scans={report.get('deep_scans', 0)}"
                )
        for mismatch in self.mismatches:
            lines.append(f"  MISMATCH {mismatch}")
        return "\n".join(lines)


def run_fuzz(
    seed: int = 7,
    ops: int = 400,
    ftls: Sequence[str] = DEFAULT_FTLS,
    *,
    level: str = "strict",
    config: Optional[SSDConfig] = None,
    faults=None,
    queue_depth: int = 8,
    prefill: float = 0.4,
) -> FuzzReport:
    """Replay one seeded random trace through every FTL under the
    invariant checker and diff the final logical state.

    Returns a :class:`FuzzReport`; a violation in one FTL is captured
    there (the remaining FTLs still run) and cross-FTL digest
    disagreements are listed in ``mismatches``.
    """
    from repro.api import run_spec
    from repro.specs import HostSpec, RunOptions, SimulationSpec

    if config is None:
        config = SSDConfig.small(logical_fraction=0.4)
    if faults is not None:
        if isinstance(faults, str):
            from repro.faults import get_campaign

            faults = get_campaign(faults)
        config = config.with_faults(faults)
    trace = random_trace(config.logical_pages, ops, seed)
    report = FuzzReport(seed=seed, ops=ops, ftls=list(ftls))
    check = CheckConfig(level=level) if level == "on" else CheckConfig.strict()
    for ftl in ftls:
        try:
            result = run_spec(
                SimulationSpec(
                    config=config,
                    workload=trace,
                    ftl=ftl,
                    host=HostSpec(queue_depth=queue_depth),
                    options=RunOptions(check=check),
                    prefill=prefill,
                    seed=seed,
                )
            )
        except InvariantViolation as violation:
            report.violations[ftl] = str(violation)
            continue
        report.reports[ftl] = result.check
        report.digests[ftl] = result.check["state_digest"]
    digests = sorted(set(report.digests.values()))
    if len(digests) > 1:
        by_digest: Dict[str, List[str]] = {}
        for ftl, digest in report.digests.items():
            by_digest.setdefault(digest, []).append(ftl)
        rendered = "; ".join(
            f"{digest[:16]}: {','.join(sorted(ftl_names))}"
            for digest, ftl_names in sorted(by_digest.items())
        )
        report.mismatches.append(
            f"final logical state diverged across FTLs ({rendered})"
        )
    return report
