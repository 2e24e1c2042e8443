"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`install` replaces public functions of each simulator layer with
wrappers that time every call.  Nothing under ``src/`` changes: methods
are replaced on their classes and module functions on their modules
before any simulator object exists, so every call made through an
attribute lookup passes through a wrapper.  Spans are aggregated per
(layer, phase) in memory; a layer's self time is its span time minus
the time covered by wrapped calls it made.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple

SETUP = "setup"
REPLAY = "replay"

#: FTL hooks the benchmark times; each is wrapped on every FTL class
#: that defines it (none of them calls its parent's version)
FTL_HOOKS = (
    "allocate_wl",
    "program_params",
    "after_program",
    "read_params",
    "after_read",
)


class LayerTracer:
    """Aggregated spans: calls and self time per (layer, phase)."""

    def __init__(self) -> None:
        self.phase = SETUP
        #: time covered by wrapped children, one entry per open span
        self._open = []
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: lowest free-block count any chip reached after a block was taken
        self.free_min: Optional[int] = None
        self.prefill_pages = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        open_spans = self._open
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (name, self.phase)
                calls[key] += 1
                self_s[key] += elapsed - open_spans.pop()
                total_s[key] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def exclude(self, seconds: float) -> None:
        """Drop ``seconds`` of benchmark bookkeeping from the enclosing
        span's self time, as if a child span had covered it."""
        if self._open:
            self._open[-1] += seconds

    def table(self) -> Dict[str, dict]:
        """``{"<layer>.<phase>": {"calls", "self_s", "total_s"}}``."""
        return {
            f"{name}.{phase}": {
                "calls": self.calls[(name, phase)],
                "self_s": self.self_s[(name, phase)],
                "total_s": self.total_s[(name, phase)],
            }
            for name, phase in sorted(self.calls)
        }


def _replace(tracer: LayerTracer, owner, attribute: str, name: str) -> None:
    setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))


def install(tracer: LayerTracer) -> None:
    """Wrap every benchmarked layer function of the simulator in spans.

    Call once per process, before any simulator object is built.
    """
    import repro.api
    import repro.ssd.host
    from repro.core.opm import OptimalParameterManager
    from repro.core.wam import WLAllocationManager
    from repro.ftl import BaseFTL, BlockManager, CubeFTL, PageFTL, PageMapper, VertFTL
    from repro.nand.chip import NandChip
    from repro.sim.engine import Engine
    from repro.sim.resources import FifoResource
    from repro.specs import SimulationSpec
    from repro.ssd.controller import SSDSimulation
    from repro.ssd.write_buffer import WriteBuffer

    plain = [
        (repro.api, "run_many", "api.run_many"),
        (repro.api, "run_spec", "api.run_spec"),
        (SimulationSpec, "build_trace", "workloads.build_trace"),
        (SSDSimulation, "__init__", "ssd.controller.build"),
        (Engine, "run", "sim.engine"),
        (FifoResource, "submit", "sim.resources.submit"),
        (BaseFTL, "submit", "ftl.submit"),
        (PageMapper, "lookup", "ftl.mapping.lookup"),
        (PageMapper, "bind", "ftl.mapping.bind"),
        (PageMapper, "invalidate_lpn", "ftl.mapping.invalidate_lpn"),
        (BlockManager, "select_victim", "ftl.blockmgr.select_victim"),
        (WriteBuffer, "admit", "ssd.write_buffer.admit"),
        (WriteBuffer, "pop_group", "ssd.write_buffer.pop_group"),
        (WriteBuffer, "complete", "ssd.write_buffer.complete"),
        (WLAllocationManager, "allocate", "core.wam.allocate"),
        (OptimalParameterManager, "follower_params", "core.opm.follower_params"),
        (OptimalParameterManager, "check_program", "core.opm.check_program"),
        (OptimalParameterManager, "read_params", "core.opm.read_params"),
        (OptimalParameterManager, "note_read", "core.opm.note_read"),
        (NandChip, "program_wl", "nand.program_wl"),
        (NandChip, "read_page", "nand.read_page"),
        (NandChip, "erase_block", "nand.erase_block"),
    ]
    for owner, attribute, name in plain:
        _replace(tracer, owner, attribute, name)
    for cls in (BaseFTL, PageFTL, VertFTL, CubeFTL):
        for hook in FTL_HOOKS:
            if hook in vars(cls):
                _replace(tracer, cls, hook, f"ftl.{hook}")

    take_free = tracer.wrap("ftl.blockmgr.take_free", BlockManager.take_free)

    @functools.wraps(BlockManager.take_free)
    def take_free_observed(blocks, chip_id, *args, **kwargs):
        block = take_free(blocks, chip_id, *args, **kwargs)
        free = blocks.free_count(chip_id)
        if tracer.phase == REPLAY and (tracer.free_min is None or free < tracer.free_min):
            tracer.free_min = free
        return block

    BlockManager.take_free = take_free_observed

    prefill = tracer.wrap("ssd.controller.prefill", SSDSimulation.prefill)

    @functools.wraps(SSDSimulation.prefill)
    def prefill_counted(sim, *args, **kwargs):
        pages = prefill(sim, *args, **kwargs)
        tracer.prefill_pages += pages
        return pages

    SSDSimulation.prefill = prefill_counted

    replay = tracer.wrap("ssd.host.replay", repro.ssd.host.replay)

    @functools.wraps(repro.ssd.host.replay)
    def replay_phase(*args, **kwargs):
        tracer.phase = REPLAY
        try:
            return replay(*args, **kwargs)
        finally:
            tracer.phase = SETUP

    repro.ssd.host.replay = replay_phase
