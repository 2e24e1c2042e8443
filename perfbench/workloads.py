"""The benchmark's workloads, each a list of named simulation runs.

Every workload runs on the same device: 2 channels x 4 chips, 16 blocks
per chip, the paper's 48-layer x 4-WL TLC block.  The benchmark seed
generates the host request streams.  The host is a closed loop of 32
outstanding requests (the paper's setting).  ``tiny=True`` shrinks blocks to 8 h-layers and
request counts tenfold, for the benchmark's own tests.

The simulator is imported inside the functions: the parent process of
``perfbench/run.py`` only needs the workload names.
"""

from __future__ import annotations


#: closed-loop host requests kept outstanding
QUEUE_DEPTH = 32

#: workload name -> why it is in the benchmark (one line each)
WORKLOADS = {
    "oltp-steady": (
        "cubeFTL OLTP at prefill 0.85: write bursts keep GC, the write buffer "
        "and WAM/OPM busy; reads never retry"
    ),
    "web-aged": (
        "cubeFTL Web at 2K P/E + 1 year: Zipf reads go through read-retry and "
        "the ORT while GC nearly idles"
    ),
    "fig17-matrix": (
        "page/vert/cube x six workloads at prefill 0.9 via run_many, the Fig. "
        "17 matrix: prefill and trace set-up dominate"
    ),
}

#: requests per hot-set draw, and draws per run, of the single-run workloads
SEGMENT = 500
SEGMENTS = 40
#: requests per Fig. 17 cell
MATRIX_REQUESTS = 1000

MATRIX_FTLS = ("page", "vert", "cube")
MATRIX_WORKLOADS = ("Mail", "Web", "Proxy", "OLTP", "Rocks", "Mongo")


def device_config(aging=None, tiny: bool = False):
    """The benchmark device (an ``SSDConfig``); ``aging`` defaults to
    fresh.  The chip model keeps its default seed: the benchmark seed
    varies the host streams, not the silicon."""
    from repro.nand.geometry import BlockGeometry, SSDGeometry
    from repro.nand.reliability import AgingState
    from repro.ssd.config import SSDConfig

    block = BlockGeometry(n_layers=8) if tiny else BlockGeometry()
    geometry = SSDGeometry(
        n_channels=2, chips_per_channel=4, blocks_per_chip=16, block=block
    )
    return SSDConfig(geometry=geometry, aging=aging or AgingState())


def _spec(config, ftl, workload, n_requests, warmup, prefill, seed):
    """``workload`` is a registry name or a pre-built ``Trace``."""
    from repro.specs import HostSpec, SimulationSpec, WorkloadSpec

    if isinstance(workload, str):
        workload = WorkloadSpec(workload, n_requests=n_requests)
    return SimulationSpec(
        config=config,
        workload=workload,
        ftl=ftl,
        host=HostSpec(queue_depth=QUEUE_DEPTH),
        warmup_requests=warmup,
        prefill=prefill,
        seed=seed,
    )


def _segmented(config, workload: str, seed: int, name: str, segment: int):
    """One stream of SEGMENTS back-to-back ``workload`` segments, each
    generated with its own seed derived from ``seed``."""
    from repro.parallel import derive_seed
    from repro.workloads.base import Trace

    trace = Trace(workload, config.logical_pages)
    for index in range(SEGMENTS):
        # only the device, workload and seed shape a generated trace
        part = _spec(config, "cube", workload, segment, 0, 0.0, derive_seed(seed, f"{name}/{index}"))
        for request in part.build_trace().requests:
            trace.append(request)
    return trace


def run_specs(name: str, seed: int, tiny: bool = False) -> list:
    """The runs (``RunSpec`` list) that make up workload ``name`` for ``seed``."""
    from repro.nand.reliability import AgingState
    from repro.parallel import RunSpec

    scale = 10 if tiny else 1
    segment = SEGMENT // scale
    if name in ("oltp-steady", "web-aged"):
        # one run whose stream redraws its hot set every SEGMENT requests.
        # One draw fixes one hot set (Web: a few very hot files on one or
        # two chips), so latency percentiles would swing with the seed;
        # forty draws per run average that out.  The first two segments
        # are warm-up.
        if name == "oltp-steady":
            config, workload = device_config(tiny=tiny), "OLTP"
        else:
            config, workload = device_config(AgingState(2000, 12.0), tiny=tiny), "Web"
        trace = _segmented(config, workload, seed, name, segment)
        spec = _spec(config, "cube", trace, len(trace), 2 * segment, 0.85, seed)
        return [RunSpec(name=name, spec=spec, seed=seed)]
    if name == "fig17-matrix":
        config = device_config(tiny=tiny)
        # cell seeds are derived from (seed, cell name) by run_many
        return [
            RunSpec(
                name=f"{ftl}/{workload}",
                spec=_spec(config, ftl, workload, MATRIX_REQUESTS // scale, 0, 0.9, seed),
            )
            for ftl in MATRIX_FTLS
            for workload in MATRIX_WORKLOADS
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
