"""Follow an SSD across its lifetime: fresh to end of life.

Sweeps the aging state (P/E cycles and retention) and shows how the
device-level effects the paper characterizes translate into system-level
behaviour:

- read retries appear and grow (Section 2.3 / Fig. 14's premise),
- the spare margin S_M -- and with it the follower speedup -- shrinks,
- pageFTL's IOPS collapse while cubeFTL degrades far more gracefully.

Run:  python examples/aging_lifecycle.py
"""

from repro.analysis.ascii_plot import series_chart
from repro.analysis.tables import format_table
from repro.core.maxloop import DEFAULT_MARGIN_TABLE, spare_margin
from repro.nand.chip import NandChip
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.api import run_spec
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig

STAGES = [
    ("fresh", AgingState(0, 0.0)),
    ("1K P/E", AgingState(1000, 0.0)),
    ("2K P/E", AgingState(2000, 0.0)),
    ("2K + 1 mo", AgingState(2000, 1.0)),
    ("2K + 6 mo", AgingState(2000, 6.0)),
    ("2K + 1 yr", AgingState(2000, 12.0)),
]


def device_level() -> None:
    print("== device level: margins and retries over the lifetime ==")
    chip = NandChip(chip_id=0, n_blocks=2, env_shift_prob=0.0)
    rows = []
    for label, aging in STAGES:
        ber_ep1 = chip.reliability.ber_ep1(0, 0, 24, 0, aging)
        s_m = spare_margin(ber_ep1)
        margin = DEFAULT_MARGIN_TABLE.margin_mv(s_m)
        drift = chip.retry_model.stable_optimal(0, 0, 24, aging)
        rows.append([label, f"{ber_ep1:.2e}", f"{s_m:.2f}",
                     f"{margin:.0f}", drift])
    print(format_table(
        ["stage", "BER_EP1", "S_M", "margin mV", "optimal offset"], rows
    ))


def system_level() -> None:
    print("\n== system level: IOPS under the Proxy workload ==")
    geometry = SSDGeometry(n_channels=2, chips_per_channel=4,
                           blocks_per_chip=32, block=BlockGeometry())
    series = {"pageFTL": [], "cubeFTL": []}
    xs = list(range(len(STAGES)))
    rows = []
    for label, aging in STAGES:
        config = SSDConfig(geometry=geometry).with_aging(aging)
        iops = {}
        for ftl in ("page", "cube"):
            spec = SimulationSpec(
                config=config,
                workload=WorkloadSpec("Proxy", n_requests=4000),
                ftl=ftl,
                host=HostSpec(queue_depth=32),
                warmup_requests=1000,
                prefill=0.9,
                seed=7,
            )
            stats = run_spec(spec).stats
            iops[ftl] = stats.iops
        series["pageFTL"].append(iops["page"])
        series["cubeFTL"].append(iops["cube"])
        rows.append([label, f"{iops['page']:.0f}", f"{iops['cube']:.0f}",
                     f"{iops['cube'] / iops['page']:.2f}"])
    print(format_table(["stage", "pageFTL", "cubeFTL", "gain"], rows))
    print()
    print(series_chart(xs, series, width=48, height=10))
    print("            (x axis: lifetime stage index)")


if __name__ == "__main__":
    device_level()
    system_level()
