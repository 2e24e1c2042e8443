"""Opt-in runtime invariant checker for the whole FTL stack.

The :class:`InvariantChecker` attaches to a built
:class:`~repro.ssd.controller.SSDSimulation` through the same
pointer-test hook points the tracer and telemetry use: with no checker
attached every hook site is a single ``is None`` comparison and the
simulation is bit-for-bit the unchecked run.  With a checker attached
it watches, per event:

- **clock monotonicity** -- the event engine may never dispatch an
  event earlier than the previous one (``engine.monitor`` hook);
- **block lifecycle legality** -- free -> active (open) -> full ->
  erased -> free, with retirement terminal, and a block may only return
  to the free pool (or retire) with zero valid pages
  (``BlockManager.observer`` hook);
- **free-pool accounting** -- the pool's length must equal the number
  of FREE lifecycle states after every transition;
- **data integrity** -- every completed read is verified end-to-end
  against the :class:`~repro.check.oracle.DataIntegrityOracle` shadow
  store (including through program-fail rewrites, conservative
  re-reads, and GC relocation).

On top of the per-event hooks, :meth:`check_deep` audits the global
structures -- L2P/P2L bijection and valid-page accounting
(:meth:`~repro.ftl.mapping.PageMapper.audit`), block-state vs. mapper
cross-accounting, and write-buffer version accounting
(:meth:`~repro.ssd.write_buffer.WriteBuffer.check_invariants`).  The
cadence is the difference between the two check levels: ``"on"`` runs
the deep audit once at finalization, ``"strict"`` additionally runs it
after every erase/retirement and every
:attr:`~CheckConfig.deep_every_completions` host completions.

Every violation raises a structured
:class:`~repro.check.errors.InvariantViolation` naming the offending
LPN / PPN / chip / block, stamped with the engine timestamp and -- when
request tracing is active -- the last few trace spans, and is exported
as a telemetry counter (``check_violations_total``) when a
:class:`~repro.obs.registry.TelemetryRegistry` is attached.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.check.errors import InvariantViolation
from repro.check.oracle import DataIntegrityOracle
from repro.ftl.blockmgr import BlockState

#: legal block lifecycle transitions (free -> open -> full -> erased;
#: a grown-bad FREE block may retire directly; retirement is terminal)
_LEGAL_TRANSITIONS = {
    (BlockState.FREE, BlockState.ACTIVE),
    (BlockState.ACTIVE, BlockState.FULL),
    (BlockState.FULL, BlockState.FREE),
    (BlockState.FULL, BlockState.RETIRED),
    (BlockState.FREE, BlockState.RETIRED),
}


@dataclass(frozen=True)
class CheckConfig:
    """Knobs of one checker instance.

    ``level`` is ``"on"`` (per-event hooks plus one deep audit at
    finalization) or ``"strict"`` (deep audits also after every erase /
    retirement and every ``deep_every_completions`` host completions).
    """

    level: str = "on"
    #: deep-audit every N host request completions (0 = only at
    #: finalization); strict defaults to 64
    deep_every_completions: int = 0
    #: deep-audit after every erase / retirement transition
    deep_on_erase: bool = False
    #: how many of the most recent trace spans a violation report
    #: carries when tracing is active
    span_tail: int = 8
    #: keep the full final logical view (LPN -> tag) in the report --
    #: useful for differential diffing, costs memory on large devices
    capture_state: bool = False

    def __post_init__(self) -> None:
        if self.level not in ("on", "strict"):
            raise ValueError(f"unknown check level {self.level!r}")
        if self.deep_every_completions < 0:
            raise ValueError("deep_every_completions must be >= 0")
        if self.span_tail < 0:
            raise ValueError("span_tail must be >= 0")

    @classmethod
    def strict(cls, **overrides) -> "CheckConfig":
        defaults = dict(
            level="strict", deep_every_completions=64, deep_on_erase=True
        )
        defaults.update(overrides)
        return cls(**defaults)


def parse_check_level(value) -> Optional[CheckConfig]:
    """Normalize the public ``check=`` argument.

    ``None`` / ``False`` / ``"off"`` disable checking entirely;
    ``True`` / ``"on"`` enable the base level; ``"strict"`` enables the
    strict cadence; a :class:`CheckConfig` passes through unchanged.
    """
    if value is None or value is False or value == "off":
        return None
    if value is True or value == "on":
        return CheckConfig()
    if value == "strict":
        return CheckConfig.strict()
    if isinstance(value, CheckConfig):
        return value
    raise ValueError(
        f"check must be None/'off', True/'on', 'strict' or a CheckConfig, "
        f"got {value!r}"
    )


class _SpanTail:
    """Trace-sink wrapper keeping the last N spans for violation
    reports while forwarding every span to the real sink unchanged."""

    def __init__(self, inner, maxlen: int) -> None:
        self.inner = inner
        self.recent = deque(maxlen=maxlen)

    def emit(self, span) -> None:
        self.recent.append(span)
        self.inner.emit(span)

    def close(self) -> None:
        self.inner.close()


class InvariantChecker:
    """Composable runtime invariants over one simulation.

    Build it and hand it to :class:`~repro.ssd.controller.SSDSimulation`
    (``checker=``), or set a spec's ``check`` option, and it raises
    :class:`InvariantViolation` the moment the stack becomes
    inconsistent.  ``context`` (seed, FTL, workload...) is embedded in
    every report so a violating run is directly replayable.
    """

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.config = config or CheckConfig()
        self.context: Dict[str, object] = {}
        self.oracle = DataIntegrityOracle(self._report)
        self.violations = 0
        self.violations_by_invariant: Dict[str, int] = {}
        self.completions = 0
        self.deep_scans = 0
        self.events_checked = 0
        self._last_event_us: Optional[float] = None
        self._retired: set = set()
        self._span_tail: Optional[_SpanTail] = None
        self._violations_counter = None
        # bound by attach()
        self._sim = None
        self._engine = None
        self._ftl = None

    # -- wiring ----------------------------------------------------------

    def attach(self, sim) -> None:
        """Bind to a built simulation: install the engine monitor, the
        block-lifecycle observer, the trace tail, and the telemetry
        instruments."""
        self._sim = sim
        self._engine = sim.controller.engine
        self._ftl = sim.ftl
        self._engine.monitor = self._on_engine_event
        self._ftl.blocks.observer = self
        tracer = sim.controller.tracer
        if tracer is not None and self.config.span_tail > 0:
            self._span_tail = _SpanTail(tracer.sink, self.config.span_tail)
            tracer.sink = self._span_tail
        registry = getattr(sim, "telemetry", None)
        if registry is not None:
            self._violations_counter = registry.counter(
                "check_violations_total",
                "invariant violations detected by the runtime checker",
                labelnames=("invariant",),
            )
            scans = registry.gauge(
                "check_deep_scans", "deep invariant audits performed"
            )
            verified = registry.gauge(
                "check_reads_verified",
                "completed reads verified against the shadow store",
            )
            registry.add_collector(
                lambda: (
                    scans.set(self.deep_scans),
                    verified.set(
                        self.oracle.reads_verified
                        + self.oracle.buffer_reads_verified
                    ),
                )
            )
        else:
            self._violations_counter = None

    # -- violation reporting ---------------------------------------------

    def _report(self, violation: InvariantViolation) -> None:
        """Enrich, count, export, and raise one violation."""
        self.violations += 1
        name = violation.invariant
        self.violations_by_invariant[name] = (
            self.violations_by_invariant.get(name, 0) + 1
        )
        if self._violations_counter is not None:
            self._violations_counter.labels(invariant=name).inc()
        if violation.time_us is None and self._engine is not None:
            violation.time_us = self._engine.now
        if not violation.context:
            violation.context = dict(self.context)
        if self._span_tail is not None and not violation.recent_spans:
            violation.recent_spans = [
                span.to_dict() for span in self._span_tail.recent
            ]
        raise InvariantViolation(
            violation.invariant,
            violation.message,
            lpn=violation.lpn,
            ppn=violation.ppn,
            chip=violation.chip,
            block=violation.block,
            time_us=violation.time_us,
            context=violation.context,
            recent_spans=violation.recent_spans,
            details=violation.details,
        )

    # -- engine hook -----------------------------------------------------

    def _on_engine_event(self, time_us: float) -> None:
        self.events_checked += 1
        last = self._last_event_us
        if last is not None and time_us < last:
            self._report(
                InvariantViolation(
                    "clock_monotonicity",
                    f"event dispatched at {time_us:.3f}us after an event "
                    f"at {last:.3f}us (clock moved backwards)",
                    time_us=time_us,
                    details={"previous_us": last},
                )
            )
        self._last_event_us = time_us

    # -- block lifecycle hooks (BlockManager.observer protocol) ----------

    def on_block_transition(
        self, chip_id: int, block: int, old: BlockState, new: BlockState
    ) -> None:
        if (chip_id, block) in self._retired:
            self._report(
                InvariantViolation(
                    "block_lifecycle",
                    f"retired block re-entered service as {new.value} "
                    "(retirement is terminal)",
                    chip=chip_id,
                    block=block,
                )
            )
        if (old, new) not in _LEGAL_TRANSITIONS:
            self._report(
                InvariantViolation(
                    "block_lifecycle",
                    f"illegal transition {old.value} -> {new.value}",
                    chip=chip_id,
                    block=block,
                )
            )
        # kind-aware: a translation block's valid pages live in the
        # FTL's translation mapper, not the L2P (block_valid_count
        # dispatches; the observer fires before mark_free resets the
        # kind, so the audit sees the outgoing kind's mapper)
        if new in (BlockState.FREE, BlockState.RETIRED):
            valid = self._ftl.block_valid_count(chip_id, block)
            if valid != 0:
                self._report(
                    InvariantViolation(
                        "block_lifecycle",
                        f"block became {new.value} holding {valid} valid "
                        "pages (data would be lost)",
                        chip=chip_id,
                        block=block,
                        details={"valid_pages": valid},
                    )
                )
        if new is BlockState.RETIRED:
            self._retired.add((chip_id, block))
        blocks = self._ftl.blocks
        pool = blocks.free_count(chip_id)
        free_states = blocks.counts(chip_id)[BlockState.FREE]
        if pool != free_states:
            self._report(
                InvariantViolation(
                    "free_pool_accounting",
                    f"free pool holds {pool} blocks but {free_states} "
                    "blocks are in the FREE state",
                    chip=chip_id,
                    block=block,
                    details={"pool": pool, "free_states": free_states},
                )
            )
        if self.config.deep_on_erase and old is BlockState.FULL and new in (
            BlockState.FREE,
            BlockState.RETIRED,
        ):
            self.check_deep()

    def on_block_failing(self, chip_id: int, block: int) -> None:
        if (chip_id, block) in self._retired:
            self._report(
                InvariantViolation(
                    "block_lifecycle",
                    "retired block flagged failing (retirement is terminal)",
                    chip=chip_id,
                    block=block,
                )
            )

    # -- datapath hooks (called from BaseFTL) ----------------------------

    def on_host_write(self, lpn: int, tag: object) -> None:
        self.oracle.record_write(lpn, tag)

    def on_buffer_read(self, lpn: int, data: object) -> None:
        self.oracle.verify_buffer_read(lpn, data)

    def on_unmapped_read(self, lpn: int) -> None:
        self.oracle.verify_unmapped_read(lpn)

    def pin_read(self, lpn: int) -> Optional[object]:
        """Capture the expected tag of a flash read at issue time."""
        return self.oracle.expected(lpn)

    def on_flash_read(
        self, lpn: int, ppn: int, expected: Optional[object], result
    ) -> None:
        self.oracle.verify_flash_read(
            lpn, ppn, expected, result.data, result.correctable
        )

    def on_request_complete(self, spec, now_us: float) -> None:
        self.completions += 1
        every = self.config.deep_every_completions
        if every and self.completions % every == 0:
            self.check_deep()

    def on_prefill(self, n_pages: int) -> None:
        """Prefill wrote LPNs ``0..n_pages-1`` (tag = LPN) outside the
        timed datapath; seed the shadow store to match."""
        self.oracle.seed_prefilled(n_pages)

    # -- deep audits -----------------------------------------------------

    def check_deep(self) -> None:
        """Audit the global structures: mapping bijection, block/mapper
        cross-accounting, and write-buffer version accounting."""
        self.deep_scans += 1
        self._audit_mapping()
        self._audit_blocks()
        self._audit_buffer()

    # kept as a public alias: tests corrupt state and ask for a verdict
    check_now = check_deep

    def _audit_mapping(self) -> None:
        for name, mapper in self._ftl.mappers().items():
            finding = mapper.audit()
            if finding is not None:
                message = finding.pop("message")
                if name != "l2p":
                    message = f"{name}: {message}"
                self._report(
                    InvariantViolation(
                        "mapping_bijection",
                        message,
                        lpn=finding.pop("lpn", None),
                        ppn=finding.pop("ppn", None),
                        chip=finding.pop("chip", None),
                        block=finding.pop("block", None),
                        details=finding,
                    )
                )
        finding = self._ftl.audit_variant()
        if finding is not None:
            self._report(
                InvariantViolation(
                    "variant_invariant",
                    finding.pop("message"),
                    lpn=finding.pop("lpn", None),
                    ppn=finding.pop("ppn", None),
                    chip=finding.pop("chip", None),
                    block=finding.pop("block", None),
                    details=finding,
                )
            )

    def _audit_blocks(self) -> None:
        blocks = self._ftl.blocks
        geometry = self._ftl.geometry
        for chip_id in range(geometry.n_chips):
            counts = blocks.counts(chip_id)
            pool = blocks.free_count(chip_id)
            if pool != counts[BlockState.FREE]:
                self._report(
                    InvariantViolation(
                        "free_pool_accounting",
                        f"free pool holds {pool} blocks but "
                        f"{counts[BlockState.FREE]} blocks are FREE",
                        chip=chip_id,
                    )
                )
            for block in range(geometry.blocks_per_chip):
                state = blocks.state(chip_id, block)
                if state in (BlockState.FREE, BlockState.RETIRED):
                    valid = self._ftl.block_valid_count(chip_id, block)
                    if valid != 0:
                        self._report(
                            InvariantViolation(
                                "valid_page_accounting",
                                f"{state.value} block holds {valid} valid "
                                "pages",
                                chip=chip_id,
                                block=block,
                                details={"valid_pages": valid},
                            )
                        )

    def _audit_buffer(self) -> None:
        try:
            self._ftl.buffer.check_invariants()
        except ValueError as error:
            self._report(
                InvariantViolation("write_buffer_versions", str(error))
            )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable checker state at a quiescent barrier.

        Covers the oracle (shadow store included), the accumulated
        counters, the retired-block memory, and the last event
        timestamp.  Wiring (engine monitor, block observer, span tail,
        telemetry instruments) is rebuilt by ``attach`` on the restored
        simulation; ``config`` and ``context`` travel with the
        checkpoint header, not here.
        """
        return {
            "oracle": self.oracle.state_dict(),
            "violations": self.violations,
            "violations_by_invariant": dict(self.violations_by_invariant),
            "completions": self.completions,
            "deep_scans": self.deep_scans,
            "events_checked": self.events_checked,
            "last_event_us": self._last_event_us,
            "retired": sorted(self._retired),
            "context": dict(self.context),
        }

    def load_state_dict(self, state: dict) -> None:
        self.oracle.load_state_dict(state["oracle"])
        self.violations = state["violations"]
        self.violations_by_invariant = dict(state["violations_by_invariant"])
        self.completions = state["completions"]
        self.deep_scans = state["deep_scans"]
        self.events_checked = state["events_checked"]
        self._last_event_us = state["last_event_us"]
        self._retired = {tuple(item) for item in state["retired"]}
        self.context = dict(state["context"])

    # -- finalization ----------------------------------------------------

    def logical_view(self) -> Dict[int, object]:
        """The final logical state: LPN -> content tag, merging the
        flash (via the mapping) with any still-buffered copies."""
        ftl = self._ftl
        geometry = ftl.geometry
        chips = self._sim.controller.chips
        view: Dict[int, object] = {}
        for lpn in range(ftl.config.logical_pages):
            if ftl.buffer.contains(lpn):
                view[lpn] = ftl.buffer.latest_data(lpn)
                continue
            ppn = ftl.mapper.lookup(lpn)
            if ppn == -1:
                continue
            chip_id, address = geometry.ppn_to_address(ppn)
            view[lpn] = chips[chip_id].peek_tag(
                address.block, address.layer, address.wl, address.page
            )
        return view

    def state_digest(self) -> str:
        """Deterministic digest of :meth:`logical_view` -- two runs that
        agree on every (LPN, tag) pair agree on the digest."""
        digest = hashlib.sha256()
        for lpn, tag in sorted(self.logical_view().items()):
            digest.update(f"{lpn}:{tag!r};".encode())
        return digest.hexdigest()

    def finalize(self) -> dict:
        """Run the end-of-run deep audit and produce the check report."""
        self.check_deep()
        report = {
            "level": self.config.level,
            "context": dict(self.context),
            "completions": self.completions,
            "events_checked": self.events_checked,
            "deep_scans": self.deep_scans,
            "violations": self.violations,
            "violations_by_invariant": dict(self.violations_by_invariant),
            "oracle": self.oracle.stats(),
            "mapped_lpns": self._ftl.mapper.mapped_lpn_count(),
            "state_digest": self.state_digest(),
        }
        if self.config.capture_state:
            report["logical_view"] = self.logical_view()
        return report
