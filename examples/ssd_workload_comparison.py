"""Compare pageFTL, vertFTL, and cubeFTL on a full SSD simulation.

Replays one of the paper's six workloads against the three FTLs at a
chosen aging state and prints IOPS (normalized over pageFTL), latency
percentiles, and the operation counters that explain the difference --
a single-workload slice of the paper's Fig. 17.

Run:  python examples/ssd_workload_comparison.py [workload] [pe] [retention_months]
e.g.  python examples/ssd_workload_comparison.py Proxy 2000 12
"""

import sys

from repro.analysis.tables import format_table
from repro.api import run_spec
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig


def main(workload: str = "OLTP", pe: int = 0, retention: float = 0.0) -> None:
    geometry = SSDGeometry(
        n_channels=2, chips_per_channel=4, blocks_per_chip=48,
        block=BlockGeometry(),
    )
    config = SSDConfig(geometry=geometry).with_aging(AgingState(pe, retention))
    print(f"workload={workload}, aging={pe} P/E + {retention} months, "
          f"device={geometry.total_bytes / 2**30:.1f} GiB\n")

    rows = []
    base_iops = None
    for ftl in ("page", "vert", "cube"):
        spec = SimulationSpec(
            config=config,
            workload=WorkloadSpec(workload, n_requests=8000),
            ftl=ftl,
            host=HostSpec(queue_depth=32),
            warmup_requests=2500,
            prefill=0.9,
            seed=7,
        )
        stats = run_spec(spec).stats
        if base_iops is None:
            base_iops = stats.iops
        counters = stats.counters
        total_programs = counters.flash_programs + counters.gc_programs
        rows.append([
            stats.ftl_name,
            f"{stats.iops:.0f}",
            f"{stats.iops / base_iops:.2f}",
            f"{counters.mean_t_prog_us:.0f}",
            f"{counters.mean_num_retry:.2f}",
            f"{100 * counters.follower_programs / max(1, total_programs):.0f} %",
            f"{stats.write_latency.percentile(90):.0f}",
            f"{stats.read_latency.percentile(90):.0f}",
        ])
    print(format_table(
        ["FTL", "IOPS", "norm", "tPROG us", "retries/read", "followers",
         "write p90 us", "read p90 us"],
        rows,
    ))


if __name__ == "__main__":
    workload = sys.argv[1] if len(sys.argv) > 1 else "OLTP"
    pe = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    retention = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    main(workload, pe, retention)
