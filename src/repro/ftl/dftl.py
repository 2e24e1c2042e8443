"""DFTL: demand-paged page mapping with a bounded cached mapping table.

All other FTLs in the reproduction hold the full L2P table in
controller RAM, which is dishonest at TB-class capacities -- a 4 TB
drive needs ~4 GB of mapping table.  :class:`DFTL` models the classic
demand-paging design (Gupta et al., ASPLOS'09) on top of the pageFTL
allocation policy:

- a **CMT** (cached mapping table) holds at most ``cmt_capacity``
  per-LPN entries under LRU replacement, each carrying a dirty bit;
- the full table lives in **translation pages** on flash, one page per
  ``mappings_per_tpage`` consecutive LPNs, kept in dedicated
  translation blocks (``BlockManager`` kind ``"trans"``);
- the **GTD** (global translation directory) maps each translation
  virtual page number (TVPN) to the flash page currently holding it --
  here a second :class:`~repro.ftl.mapping.PageMapper` instance, which
  also provides valid-page accounting and the bijection audit for
  translation blocks;
- a CMT **miss** on a host read costs a translation-page flash read
  before the data read can issue; a **dirty eviction** writes the
  evicted entry's translation page back (read-modify-write), marking
  every co-resident dirty entry of the same TVPN clean (batched
  writeback);
- translation blocks fill up with superseded pages and are reclaimed
  by the base GC state machine: once the FULL translation blocks' live
  pages would fit in fewer blocks, the emptiest one becomes the chip's
  GC victim, and its pages move by copyback, one WL each.

The *authoritative* L2P state is :attr:`~repro.ftl.base.BaseFTL.mapper`
(the union of CMT and flash-resident entries a real controller can
reconstruct); the CMT determines only *when* translation flash traffic
occurs.  Flash translation pages therefore carry marker content, not
serialized entries -- exactly like data pages carry content tags rather
than bytes -- and SPOR recovery rebuilds both tables from per-page OOB
records (data pages record ``(lpn, seq)`` with ``lpn >= 0``, translation
pages record ``(-(tvpn+1), tseq)``).  This makes the CMT a *pure cache*
by construction: changing ``cmt_capacity`` changes latency and
translation traffic, never any read result -- a property the
metamorphic suite in ``tests/ftl/test_dftl_properties.py`` enforces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.wam import Allocation, SequentialCursor
from repro.ftl.base import _GCJob
from repro.ftl.blockmgr import DATA_KIND, TRANS_KIND, BlockState, OutOfSpaceError
from repro.ftl.mapping import UNMAPPED, PageMapper
from repro.ftl.pageftl import PageFTL
from repro.nand.errors import ProgramFailError
from repro.nand.geometry import PageAddress
from repro.nand.read_retry import ReadParams
from repro.ssd.config import SSDConfig
from repro.ssd.write_buffer import BufferEntry


@dataclass
class DftlStats:
    """Translation-path counters (kept apart from
    :class:`~repro.ftl.base.FTLCounters` so the shared result schema is
    untouched for the RAM-resident FTLs)."""

    cmt_hits: int = 0
    cmt_misses: int = 0
    cmt_evictions_clean: int = 0
    cmt_evictions_dirty: int = 0
    trans_reads: int = 0
    trans_read_retries: int = 0
    trans_recovered_pages: int = 0
    trans_programs: int = 0
    trans_program_fails: int = 0
    trans_gc_reads: int = 0
    trans_gc_programs: int = 0
    trans_gc_erases: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class DFTL(PageFTL):
    """Demand-paged mapping FTL (bounded CMT + flash translation pages)."""

    name = "dftl"

    def __init__(
        self,
        config: SSDConfig,
        controller,
        *,
        cmt_capacity: int = 64,
        mappings_per_tpage: int = 64,
    ) -> None:
        super().__init__(config, controller)
        if cmt_capacity < 1:
            raise ValueError("cmt_capacity must be >= 1")
        if mappings_per_tpage < 1:
            raise ValueError("mappings_per_tpage must be >= 1")
        self.cmt_capacity = cmt_capacity
        self.mappings_per_tpage = mappings_per_tpage
        logical = config.logical_pages
        self.n_tpages = (logical + mappings_per_tpage - 1) // mappings_per_tpage
        #: GTD + translation-block valid-page accounting: TVPN -> PPN of
        #: the current flash copy of that translation page
        self.tmapper = PageMapper(config.geometry, self.n_tpages)
        #: LPN -> dirty flag, LRU order (oldest first)
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self._trans_cursors: Dict[int, Optional[SequentialCursor]] = {
            chip: None for chip in range(config.geometry.n_chips)
        }
        #: TVPN -> writebacks not yet landed (covers the audit window
        #: between a dirty eviction and its translation-page bind)
        self._inflight_trans: Dict[int, int] = {}
        self._inflight_trans_programs = 0
        #: TVPNs with a *deferred* writeback queued; later writebacks of
        #: the same TVPN coalesce onto it (the page is rebuilt from the
        #: authoritative table when the program finally issues, so one
        #: deferred writeback serves any number of evictions)
        self._deferred_wb: set = set()
        #: OOB ordering for translation pages; deliberately separate from
        #: ``_write_seq`` -- data-page sequence numbers double as content
        #: tags, so sharing one counter would make dftl's data content
        #: diverge from the RAM-resident FTLs on identical traces
        self._trans_seq = 0
        self.dftl_stats = DftlStats()

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _tvpn_of(self, lpn: int) -> int:
        return lpn // self.mappings_per_tpage

    def _home_chip(self, tvpn: int) -> int:
        return tvpn % self.geometry.n_chips

    def cmt_occupancy(self) -> int:
        return len(self._cmt)

    # ------------------------------------------------------------------
    # checker introspection (kind-aware dispatch)
    # ------------------------------------------------------------------

    def mappers(self) -> Dict[str, PageMapper]:
        return {"l2p": self.mapper, "translation": self.tmapper}

    def kind_mapper(self, kind: str) -> PageMapper:
        return self.tmapper if kind == TRANS_KIND else self.mapper

    def audit_variant(self) -> Optional[dict]:
        """DFTL deep invariants.

        1. the CMT never exceeds its configured capacity;
        2. kind segregation: data blocks hold no valid translation
           pages and translation blocks hold no valid data pages;
        3. lookup completeness: every mapped LPN is resolvable -- its
           entry is CMT-resident, or its translation page is flash
           resident, or that page's writeback is in flight.
        """
        if len(self._cmt) > self.cmt_capacity:
            return {
                "message": (
                    f"CMT holds {len(self._cmt)} entries but capacity is "
                    f"{self.cmt_capacity}"
                ),
                "occupancy": len(self._cmt),
                "capacity": self.cmt_capacity,
            }
        geometry = self.geometry
        for chip_id in range(geometry.n_chips):
            for block in range(geometry.blocks_per_chip):
                kind = self.blocks.kind_of(chip_id, block)
                other = self.tmapper if kind == DATA_KIND else self.mapper
                leaked = other.valid_count(chip_id, block)
                if leaked:
                    held = "translation" if kind == DATA_KIND else "data"
                    return {
                        "message": (
                            f"{kind} block holds {leaked} valid {held} "
                            "pages (kind segregation broken)"
                        ),
                        "chip": chip_id,
                        "block": block,
                        "valid_pages": leaked,
                    }
        per_tpage = self.mappings_per_tpage
        logical = self.config.logical_pages
        cmt = self._cmt
        for tvpn in set(
            int(lpn) // per_tpage for lpn in self.mapper.mapped_lpns()
        ):
            if self.tmapper.lookup(tvpn) != UNMAPPED:
                continue
            if tvpn in self._inflight_trans:
                continue
            for lpn in range(
                tvpn * per_tpage, min((tvpn + 1) * per_tpage, logical)
            ):
                if self.mapper.lookup(lpn) != UNMAPPED and lpn not in cmt:
                    return {
                        "message": (
                            f"mapped LPN {lpn} is neither CMT-resident nor "
                            f"covered by a flash translation page "
                            f"(TVPN {tvpn})"
                        ),
                        "lpn": lpn,
                        "tvpn": tvpn,
                    }
        return None

    # ------------------------------------------------------------------
    # CMT maintenance
    # ------------------------------------------------------------------

    def _cmt_note_update(self, lpn: int) -> None:
        """The LPN's mapping changed (host write landing or GC rebind):
        its CMT entry becomes/remains dirty and most-recently-used."""
        cmt = self._cmt
        cmt[lpn] = True
        cmt.move_to_end(lpn)
        self._cmt_evict_overflow()

    def _cmt_fill(self, lpn: int) -> None:
        """Install the entry a read miss fetched (clean unless a write
        raced the fetch and already re-dirtied it)."""
        cmt = self._cmt
        if lpn in cmt:
            cmt.move_to_end(lpn)
            return
        cmt[lpn] = False
        self._cmt_evict_overflow()

    def _cmt_evict_overflow(self) -> None:
        cmt = self._cmt
        stats = self.dftl_stats
        per_tpage = self.mappings_per_tpage
        while len(cmt) > self.cmt_capacity:
            victim, dirty = cmt.popitem(last=False)
            if not dirty:
                stats.cmt_evictions_clean += 1
                continue
            stats.cmt_evictions_dirty += 1
            tvpn = victim // per_tpage
            # batched writeback: the new translation page carries every
            # dirty co-resident entry of the same TVPN, so those entries
            # become clean without their own future writeback
            for other, other_dirty in cmt.items():
                if other_dirty and other // per_tpage == tvpn:
                    cmt[other] = False
            self._writeback(tvpn)

    # ------------------------------------------------------------------
    # write path: every mapping change dirties the CMT
    # ------------------------------------------------------------------

    def _bind_host_pages(
        self, chip_id: int, allocation: Allocation, entries: List[BufferEntry]
    ) -> None:
        super()._bind_host_pages(chip_id, allocation, entries)
        latest = self.buffer.latest_version
        for entry in entries:
            if entry.version == latest(entry.lpn):
                self._cmt_note_update(entry.lpn)

    def _bind_gc_pages(
        self,
        chip_id: int,
        allocation: Allocation,
        gc_payload: List[Tuple[int, object, int]],
    ) -> None:
        base_ppn = self.geometry.wl_ppn(
            chip_id,
            allocation.block,
            allocation.address.layer,
            allocation.address.wl,
        )
        for page_index, (lpn, _tag, old_ppn) in enumerate(gc_payload):
            if self.mapper.lookup(lpn) != old_ppn:
                continue  # host rewrote the page during migration
            if self.buffer.contains(lpn):
                self.mapper.invalidate_lpn(lpn)
                # the fresher buffered copy re-enters the CMT (dirty)
                # when it binds; until then the LPN is unmapped
                self._cmt.pop(lpn, None)
                continue
            self.mapper.bind(lpn, base_ppn + page_index)
            self._cmt_note_update(lpn)

    # ------------------------------------------------------------------
    # read path: demand paging
    # ------------------------------------------------------------------

    def _translate_read(self, lpn: int, active) -> None:
        cmt = self._cmt
        stats = self.dftl_stats
        if lpn in cmt:
            stats.cmt_hits += 1
            cmt.move_to_end(lpn)
            self._mapped_read(lpn, active)
            return
        stats.cmt_misses += 1
        tvpn = self._tvpn_of(lpn)
        tppn = self.tmapper.lookup(tvpn)
        if tppn == UNMAPPED:
            # only reachable while this TVPN's first writeback is in
            # flight (lookup completeness): the entry still lives in
            # controller RAM, so resolution is free
            self._cmt_fill(lpn)
            self._mapped_read(lpn, active)
            return
        chip_id, address = self.geometry.ppn_to_address(tppn)

        def on_result(result) -> None:
            if result is None:
                # unrecoverable translation page: rewrite it from the
                # authoritative table rather than serving stale mappings
                self._recover_tpage(tvpn, tppn)
            self._cmt_fill(lpn)
            self._mapped_read(lpn, active)

        self._trans_flash_read(
            chip_id,
            address,
            on_result,
            attempts_left=self.config.read_recovery_attempts,
            use_bus=True,
        )

    def _trans_flash_read(
        self,
        chip_id: int,
        address: PageAddress,
        on_result: Callable[[Optional[object]], None],
        attempts_left: int,
        use_bus: bool,
        conservative: bool = False,
    ) -> None:
        """One translation-page read: die sense (with retries), then the
        channel transfer for demand fetches (GC migrations stay
        on-chip).  Uncorrectable results under a fault campaign get the
        same bounded conservative re-reads as data pages; a page that
        stays unreadable reports ``None`` (the caller rewrites it from
        the authoritative table -- never a silent stale mapping)."""
        stats = self.dftl_stats

        def job():
            params = (
                ReadParams()
                if conservative
                else self.read_params(chip_id, address.block, address.layer)
            )
            result = self.controller.chip(chip_id).read_page(
                address.block, address.layer, address.wl, address.page, params
            )
            return result.t_read_us, result

        def on_done(result) -> None:
            stats.trans_reads += 1
            stats.trans_read_retries += result.num_retry
            if self.faults is not None and not result.correctable:
                if attempts_left > 0:
                    self._trans_flash_read(
                        chip_id, address, on_result,
                        attempts_left - 1, use_bus, conservative=True,
                    )
                else:
                    self._finish_trans_read(chip_id, None, on_result, use_bus)
                return
            self._finish_trans_read(chip_id, result, on_result, use_bus)

        self.controller.chip_resource(chip_id).submit(job, on_done)

    def _finish_trans_read(
        self, chip_id: int, result, on_result, use_bus: bool
    ) -> None:
        if not use_bus:
            on_result(result)
            return
        transfer = self.config.timing.transfer_us(
            self.geometry.block.page_size_bytes
        )
        self.controller.bus_resource(chip_id).submit(
            lambda: (transfer, None), lambda _ignored: on_result(result)
        )

    def _recover_tpage(self, tvpn: int, tppn: int) -> None:
        """A translation page is unreadable: persist a fresh copy from
        the authoritative mapping table."""
        self.dftl_stats.trans_recovered_pages += 1
        if self.tmapper.lookup(tvpn) != tppn:
            return  # a concurrent writeback already replaced it
        self._writeback(tvpn)

    # ------------------------------------------------------------------
    # translation-page writeback
    # ------------------------------------------------------------------

    def _writeback(self, tvpn: int) -> None:
        """Persist a translation page (dirty eviction or recovery).

        The TVPN is marked in flight immediately -- lookup completeness
        holds through allocation deferrals and program-fail retries --
        and unmarked only when a copy lands and binds."""
        self._inflight_trans[tvpn] = self._inflight_trans.get(tvpn, 0) + 1
        self._issue_writeback(self._home_chip(tvpn), tvpn)

    def _unmark_inflight(self, tvpn: int) -> None:
        count = self._inflight_trans[tvpn] - 1
        if count:
            self._inflight_trans[tvpn] = count
        else:
            del self._inflight_trans[tvpn]

    def _issue_writeback(self, chip_id: int, tvpn: int) -> None:
        allocation = self._trans_allocate(chip_id)
        if allocation is None:
            if tvpn in self._deferred_wb:
                # a deferred writeback of this TVPN is already queued;
                # it will persist the (authoritative) latest state
                self._unmark_inflight(tvpn)
            else:
                self._deferred_wb.add(tvpn)

                def retry() -> None:
                    self._deferred_wb.discard(tvpn)
                    self._issue_writeback(chip_id, tvpn)

                self._space_waiters.append(retry)
            self._maybe_gc(chip_id)
            return
        old_ppn = self.tmapper.lookup(tvpn)
        if old_ppn == UNMAPPED:
            self._program_tpage(chip_id, allocation, tvpn)
            return
        # read-modify-write: the page's entries outside the CMT must be
        # carried over, so the old copy is fetched before the program
        old_chip, old_address = self.geometry.ppn_to_address(old_ppn)

        def after_read(_result) -> None:
            self._program_tpage(chip_id, allocation, tvpn)

        self._trans_flash_read(
            old_chip, old_address, after_read,
            attempts_left=0, use_bus=True,
        )

    def _tpage_payload(self, tvpn: int) -> Tuple[list, Optional[list]]:
        """Content and OOB of a fresh copy of a translation page: a
        marker in page 0, the rest of the WL padded."""
        pad = [None] * (self.geometry.block.pages_per_wl - 1)
        self._trans_seq += 1
        data = [("tpage", tvpn, self._trans_seq)] + pad
        oob = [(-(tvpn + 1), self._trans_seq)] + pad if self._store_oob else None
        return data, oob

    def _program_tpage(
        self,
        chip_id: int,
        allocation: Allocation,
        tvpn: int,
        old_ppn: Optional[int] = None,
    ) -> None:
        """Program one translation page (page 0 of a WL, padded).

        A writeback (``old_ppn`` None) crosses the channel and binds in
        the GTD when it lands.  A GC migration of the copy at
        ``old_ppn`` stays on-chip (copyback style, like data GC), binds
        only if no writeback superseded that copy meanwhile, and then
        advances the chip's GC job."""
        is_gc = old_ppn is not None
        data, oob = self._tpage_payload(tvpn)
        self._inflight_trans_programs += 1

        def job():
            params, _squeeze = self.program_params(chip_id, allocation)
            try:
                result = self.controller.chip(chip_id).program_wl(
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                    params=params,
                    data=data,
                    oob=oob,
                )
            except ProgramFailError as fail:
                return fail.t_us, None
            return result.t_prog_us, result

        def retry() -> None:
            if is_gc:
                self._migrate_tpage(chip_id, tvpn, old_ppn)
            else:
                self._issue_writeback(chip_id, tvpn)

        def on_done(result) -> None:
            self._inflight_trans_programs -= 1
            if result is None:
                self.dftl_stats.trans_program_fails += 1
                self.note_program_fail(chip_id, allocation.block)
                retry()
                self._maybe_gc(chip_id)
                return
            if self.blocks.is_failing(chip_id, allocation.block):
                # a sibling program on this block failed while ours was
                # in flight; the block is leaving service
                retry()
                return
            ppn = self.geometry.wl_ppn(
                chip_id,
                allocation.block,
                allocation.address.layer,
                allocation.address.wl,
            )
            if is_gc:
                self.dftl_stats.trans_gc_programs += 1
                if self.tmapper.lookup(tvpn) == old_ppn:
                    self.tmapper.bind(tvpn, ppn)
            else:
                self.dftl_stats.trans_programs += 1
                self.tmapper.bind(tvpn, ppn)
                self._unmark_inflight(tvpn)
            self._maybe_mark_full(chip_id, allocation.block)
            if is_gc:
                self._gc_continue(chip_id)
            else:
                self._maybe_gc(chip_id)

        def submit(_ignored=None) -> None:
            self.controller.chip_resource(chip_id).submit(job, on_done)

        if is_gc:
            submit()
            return
        transfer = self.config.timing.transfer_us(
            self.geometry.block.page_size_bytes
        )
        self.controller.bus_resource(chip_id).submit(
            lambda: (transfer, None), submit
        )

    def _trans_allocate(
        self, chip_id: int, for_gc: bool = False
    ) -> Optional[Allocation]:
        """A WL in the chip's translation block, or ``None`` when a
        writeback must wait for an erase: a fresh block would be the
        reserved one, or the WL is one a translation GC job (whose
        destination is this block too) still needs to stay covered."""
        cursor = self._trans_cursors[chip_id]
        if cursor is None or cursor.exhausted:
            if not for_gc and not self.blocks.can_take(chip_id, for_gc=False):
                return None
            block = self._take_free_block(chip_id, TRANS_KIND, for_gc)
            cursor = SequentialCursor(block, self.geometry.block)
            self._trans_cursors[chip_id] = cursor
        elif not for_gc:
            job = self._gc_jobs[chip_id]
            # + 1: the page being read out has left ``pending`` already
            if job is not None and job.kind == TRANS_KIND and not (
                self.blocks.gc_covered(
                    chip_id, cursor.free_wls() - 1, len(job.pending) + 1
                )
            ):
                return None
        return cursor.take()

    def discard_block(self, chip_id: int, block: int) -> None:
        super().discard_block(chip_id, block)
        cursor = self._trans_cursors[chip_id]
        if cursor is not None and cursor.block == block:
            self._trans_cursors[chip_id] = None

    def on_block_erased(self, chip_id: int, block: int) -> None:
        super().on_block_erased(chip_id, block)
        # called while the GC job that erased the block is still set
        job = self._gc_jobs[chip_id]
        if job.kind == TRANS_KIND and (
            self.blocks.state(chip_id, block) is BlockState.FREE
        ):
            self.dftl_stats.trans_gc_erases += 1

    # ------------------------------------------------------------------
    # translation-block garbage collection (base state machine hooks)
    # ------------------------------------------------------------------

    def _gc_victim(self, chip_id: int) -> Optional[int]:
        """The emptiest translation block when it is failing or the
        FULL translation blocks' live pages would fit in fewer blocks.
        Otherwise the data victim -- except under pool pressure, where
        the translation block wins if it needs fewer WLs moved."""
        blocks = self.blocks
        full = blocks.full_blocks(chip_id, kind=TRANS_KIND)
        if not full:
            return super()._gc_victim(chip_id)
        geometry = self.geometry.block
        victim = blocks.select_victim(chip_id, self.tmapper, kind=TRANS_KIND)
        live = sum(self.tmapper.valid_count(chip_id, block) for block in full)
        if (
            blocks.is_failing(chip_id, victim)
            or live <= (len(full) - 1) * geometry.wls_per_block
        ):
            return victim
        data_victim = super()._gc_victim(chip_id)
        if blocks.free_count(chip_id) >= self.config.gc_trigger_blocks:
            return data_victim
        # one translation page per WL versus pages_per_wl data pages
        trans_wls = self.tmapper.valid_count(chip_id, victim)
        if data_victim is None:
            return victim if trans_wls < geometry.wls_per_block else None
        data_wls = -(
            -self.mapper.valid_count(chip_id, data_victim) // geometry.pages_per_wl
        )
        return victim if trans_wls < data_wls else data_victim

    def _gc_space(self, chip_id: int, job: _GCJob) -> Tuple[int, int]:
        if job.kind != TRANS_KIND:
            return super()._gc_space(chip_id, job)
        # one translation page per WL, into the chip's translation block
        cursor = self._trans_cursors[chip_id]
        return (0 if cursor is None else cursor.free_wls()), len(job.pending)

    def _gc_migrate(self, chip_id: int, job: _GCJob) -> bool:
        if job.kind != TRANS_KIND:
            return super()._gc_migrate(chip_id, job)
        while job.pending:
            ppn, tvpn = job.pending.pop(0)
            if self.tmapper.lookup(tvpn) != ppn:
                continue  # superseded by a writeback during migration
            _chip, address = self.geometry.ppn_to_address(ppn)

            def on_read(_result, tvpn: int = tvpn, ppn: int = ppn) -> None:
                # content authority is the RAM table; even an
                # uncorrectable copy migrates as a fresh marker page
                self.dftl_stats.trans_gc_reads += 1
                self._migrate_tpage(chip_id, tvpn, ppn)

            # copyback-style: the migration read stays on-chip
            self._trans_flash_read(
                chip_id, address, on_read, attempts_left=0, use_bus=False
            )
            return True
        return False

    def _migrate_tpage(self, chip_id: int, tvpn: int, old_ppn: int) -> None:
        if self.tmapper.lookup(tvpn) != old_ppn:
            self._gc_continue(chip_id)
            return
        allocation = self._trans_allocate(chip_id, for_gc=True)
        self._program_tpage(chip_id, allocation, tvpn, old_ppn)

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------

    def after_prefill(self, n_pages: int) -> None:
        """Persist translation pages for the prefilled range (untimed,
        like the prefill itself).  The CMT starts cold: the first timed
        accesses pay real translation reads."""
        if n_pages == 0:
            return
        for tvpn in range((n_pages - 1) // self.mappings_per_tpage + 1):
            self._program_tpage_untimed(tvpn)

    def _program_tpage_untimed(self, tvpn: int) -> None:
        """Synchronous, zero-time translation-page program (prefill and
        SPOR rebuild); retries program failures on fresh WLs."""
        geometry = self.geometry
        n_chips = geometry.n_chips
        home = self._home_chip(tvpn)
        while True:
            allocation = None
            chip_id = home
            for offset in range(n_chips):
                chip_id = (home + offset) % n_chips
                allocation = self._trans_allocate(chip_id)
                if allocation is not None:
                    break
            if allocation is None:
                raise OutOfSpaceError(
                    f"no free WL for translation page {tvpn}"
                )
            data, oob = self._tpage_payload(tvpn)
            params, _squeeze = self.program_params(chip_id, allocation)
            try:
                self.controller.chip(chip_id).program_wl(
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                    params=params,
                    data=data,
                    oob=oob,
                )
            except ProgramFailError:
                self.note_program_fail(chip_id, allocation.block)
                continue
            self.tmapper.bind(
                tvpn,
                geometry.wl_ppn(
                    chip_id,
                    allocation.block,
                    allocation.address.layer,
                    allocation.address.wl,
                ),
            )
            self._maybe_mark_full(chip_id, allocation.block)
            return

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def variant_state_dict(self) -> dict:
        if self._inflight_trans_programs or self._inflight_trans:
            raise RuntimeError(
                "DFTL not quiescent: translation writebacks in flight"
            )
        state = super().variant_state_dict()
        state["dftl"] = {
            "cmt": [[lpn, dirty] for lpn, dirty in self._cmt.items()],
            "tmapper": self.tmapper.state_dict(),
            "trans_cursors": {
                chip: (cursor.state_dict() if cursor is not None else None)
                for chip, cursor in self._trans_cursors.items()
            },
            "trans_seq": self._trans_seq,
            "stats": asdict(self.dftl_stats),
        }
        return state

    def load_variant_state(self, state: dict) -> None:
        super().load_variant_state(state)
        dftl = state["dftl"]
        self._cmt = OrderedDict(
            (int(lpn), bool(dirty)) for lpn, dirty in dftl["cmt"]
        )
        self.tmapper.load_state_dict(dftl["tmapper"])
        self._trans_cursors = {
            chip: (
                SequentialCursor.from_state(cursor_state, self.geometry.block)
                if cursor_state is not None
                else None
            )
            for chip, cursor_state in dftl["trans_cursors"].items()
        }
        self._trans_seq = dftl["trans_seq"]
        self.dftl_stats = DftlStats(**dftl["stats"])
        self._inflight_trans = {}
        self._inflight_trans_programs = 0

    # ------------------------------------------------------------------
    # SPOR recovery
    # ------------------------------------------------------------------

    def _post_spor_reset(self) -> None:
        super()._post_spor_reset()
        self._cmt = OrderedDict()
        self._trans_cursors = {
            chip: None for chip in range(self.geometry.n_chips)
        }
        self._inflight_trans = {}
        self._inflight_trans_programs = 0

    def _spor_translation(
        self, winners: Dict[int, Tuple[int, int]], records: int
    ) -> dict:
        """Rebuild the GTD from the winning translation-page records.

        Any TVPN whose mapped LPNs survived but whose translation page
        did not (e.g. writes acknowledged with dirty CMT entries at the
        cut) gets a fresh translation page written during recovery, so
        lookup completeness holds with the CMT starting empty.
        """
        for tvpn in sorted(winners):
            self.tmapper.bind(tvpn, winners[tvpn][1])
        self._trans_seq = max((seq for seq, _ppn in winners.values()), default=0)
        per_tpage = self.mappings_per_tpage
        synthesized = 0
        for tvpn in sorted(
            set(int(lpn) // per_tpage for lpn in self.mapper.mapped_lpns())
        ):
            if self.tmapper.lookup(tvpn) == UNMAPPED:
                self._program_tpage_untimed(tvpn)
                synthesized += 1
        # GC is normally (re)armed by program/erase completions, but a
        # recovered device can come up with every chip flush-ineligible
        # (one free block, no active cursor) -- on a RAM-table FTL that
        # slack block is enough, here the translation blocks consumed
        # it.  Kick GC now so the first replayed write has somewhere to
        # go; on a healthy pool this is a no-op.
        for chip_id in range(self.geometry.n_chips):
            self._maybe_gc(chip_id)
        return {
            "trans_records": records,
            "trans_pages": len(winners),
            "synthesized_tpages": synthesized,
            "max_trans_seq": self._trans_seq,
        }
