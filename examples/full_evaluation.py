"""Regenerate the paper's Fig. 17 evaluation table, standalone.

Runs all six workloads against pageFTL / vertFTL / cubeFTL at a chosen
aging state and prints the normalized IOPS table -- the same data the
benchmark suite produces, but as a plain script whose scale is easy to
tweak.

Run:  python examples/full_evaluation.py [pe] [retention_months] [requests]
e.g.  python examples/full_evaluation.py 2000 12 6000
"""

import sys
import time

from repro.analysis.tables import format_table
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.api import run_spec
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.workloads import WORKLOAD_GENERATORS

FTLS = ("page", "vert", "cube")


def main(pe: int = 0, retention: float = 0.0, n_requests: int = 6000) -> None:
    geometry = SSDGeometry(
        n_channels=2, chips_per_channel=4, blocks_per_chip=48,
        block=BlockGeometry(),
    )
    config = SSDConfig(geometry=geometry).with_aging(AgingState(pe, retention))
    print(f"aging: {pe} P/E + {retention} months retention | "
          f"{n_requests} requests/workload | QD 32\n")
    rows = []
    for workload in WORKLOAD_GENERATORS:
        start = time.time()
        iops = {}
        for ftl in FTLS:
            spec = SimulationSpec(
                config=config,
                workload=WorkloadSpec(workload, n_requests=n_requests),
                ftl=ftl,
                host=HostSpec(queue_depth=32),
                warmup_requests=n_requests // 3,
                prefill=0.9,
                seed=7,
            )
            stats = run_spec(spec).stats
            iops[stats.ftl_name] = stats.iops
        base = iops["pageFTL"]
        rows.append([
            workload,
            f"{base:.0f}",
            f"{iops['vertFTL'] / base:.2f}",
            f"{iops['cubeFTL'] / base:.2f}",
            f"{time.time() - start:.0f}s",
        ])
        print(f"  {workload}: done")
    print()
    print(format_table(
        ["workload", "pageFTL IOPS", "vertFTL (norm)", "cubeFTL (norm)", "wall"],
        rows,
    ))


if __name__ == "__main__":
    args = sys.argv[1:]
    pe = int(args[0]) if len(args) > 0 else 0
    retention = float(args[1]) if len(args) > 1 else 0.0
    n_requests = int(args[2]) if len(args) > 2 else 6000
    main(pe, retention, n_requests)
