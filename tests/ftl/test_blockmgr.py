"""Tests for the block lifecycle manager."""

import pytest

from repro.ftl.blockmgr import (
    GC_RESERVE_BLOCKS,
    TRANS_KIND,
    BlockManager,
    BlockState,
    OutOfSpaceError,
    _FreePool,
)
from repro.ftl.mapping import PageMapper


@pytest.fixture
def manager(ssd_geometry):
    return BlockManager(ssd_geometry)


@pytest.fixture
def mapper(ssd_geometry):
    return PageMapper(ssd_geometry, ssd_geometry.total_pages // 2)


class TestLifecycle:
    def test_all_free_initially(self, manager, ssd_geometry):
        assert manager.free_count(0) == ssd_geometry.blocks_per_chip
        assert manager.state(0, 0) is BlockState.FREE

    def test_take_free_activates(self, manager):
        block = manager.take_free(0)
        assert manager.state(0, block) is BlockState.ACTIVE
        assert manager.free_count(0) == manager.geometry.blocks_per_chip - 1

    def test_full_and_free_cycle(self, manager):
        block = manager.take_free(0)
        manager.mark_full(0, block)
        assert manager.state(0, block) is BlockState.FULL
        manager.mark_free(0, block)
        assert manager.state(0, block) is BlockState.FREE

    def test_mark_full_requires_active(self, manager):
        with pytest.raises(ValueError):
            manager.mark_full(0, 0)

    def test_mark_free_requires_not_free(self, manager):
        with pytest.raises(ValueError):
            manager.mark_free(0, 0)

    def test_exhaustion(self, manager, ssd_geometry):
        for _ in range(ssd_geometry.blocks_per_chip):
            manager.take_free(0)
        with pytest.raises(OutOfSpaceError):
            manager.take_free(0)

    def test_chips_independent(self, manager, ssd_geometry):
        manager.take_free(0)
        assert manager.free_count(1) == ssd_geometry.blocks_per_chip

    def test_counts(self, manager, ssd_geometry):
        block = manager.take_free(0)
        manager.mark_full(0, block)
        counts = manager.counts(0)
        assert counts[BlockState.FULL] == 1
        assert counts[BlockState.FREE] == ssd_geometry.blocks_per_chip - 1


class TestFreePool:
    def test_fifo_order(self):
        pool = _FreePool(range(6))
        assert [pool.take_fifo() for _ in range(6)] == list(range(6))

    def test_fifo_order_survives_keyed_removals(self):
        pool = _FreePool(range(8))
        pool.remove(0)
        pool.remove(3)
        assert pool.take_min(key=lambda b: 0) == 1  # oldest wins ties
        assert [pool.take_fifo() for _ in range(len(pool))] == [2, 4, 5, 6, 7]

    def test_keyed_take_picks_minimum(self):
        pool = _FreePool(range(5))
        erase_counts = {0: 9, 1: 2, 2: 7, 3: 2, 4: 5}
        # blocks 1 and 3 tie on the key; the older (1) wins
        assert pool.take_min(key=erase_counts.__getitem__) == 1
        assert pool.take_min(key=erase_counts.__getitem__) == 3

    def test_recycled_block_goes_to_the_back(self):
        pool = _FreePool(range(3))
        block = pool.take_fifo()
        pool.append(block)
        assert [pool.take_fifo() for _ in range(3)] == [1, 2, 0]

    def test_double_append_rejected(self):
        pool = _FreePool(range(3))
        with pytest.raises(ValueError):
            pool.append(1)

    def test_compaction_preserves_contents(self):
        pool = _FreePool(range(64))
        for block in range(0, 64, 2):
            pool.remove(block)
        pool.check_invariants()
        for block in range(0, 64, 2):
            pool.append(block)
        pool.check_invariants()
        assert len(pool) == 64
        assert sorted(pool) == list(range(64))

    def test_heavy_churn_stays_consistent(self):
        pool = _FreePool(range(16))
        for round_no in range(50):
            taken = [pool.take_fifo() for _ in range(8)]
            for block in taken:
                pool.append(block)
            pool.check_invariants()
        assert len(pool) == 16


class TestFailingBlocks:
    def test_mark_failing_requires_full(self, manager):
        block = manager.take_free(0)
        with pytest.raises(ValueError):
            manager.mark_failing(0, block)  # still ACTIVE
        manager.mark_full(0, block)
        manager.mark_failing(0, block)
        assert manager.is_failing(0, block)
        assert manager.failing_count(0) == 1
        assert manager.failing_blocks(0) == [block]

    def test_failing_block_prioritized_as_victim(self, manager, mapper, ssd_geometry):
        a = manager.take_free(0)
        b = manager.take_free(0)
        manager.mark_full(0, a)
        manager.mark_full(0, b)
        per_block = ssd_geometry.block.pages_per_block
        # block a is empty (the cheapest victim); block b is fully valid
        # but failing -- it must still be taken first
        for page in range(per_block):
            mapper.bind(page, b * per_block + page)
        manager.mark_failing(0, b)
        assert manager.select_victim(0, mapper) == b

    def test_mark_free_clears_failing(self, manager):
        block = manager.take_free(0)
        manager.mark_full(0, block)
        manager.mark_failing(0, block)
        manager.mark_free(0, block)
        assert not manager.is_failing(0, block)

    def test_retire_clears_failing_and_records_reason(self, manager):
        block = manager.take_free(0)
        manager.mark_full(0, block)
        manager.mark_failing(0, block)
        manager.retire(0, block, reason="program_fail")
        assert not manager.is_failing(0, block)
        assert manager.grown_bad_table(0) == {block: "program_fail"}

    def test_retire_active_block_is_an_error(self, manager):
        block = manager.take_free(0)
        with pytest.raises(ValueError, match="active"):
            manager.retire(0, block)


class TestVictimSelection:
    def test_greedy_min_valid(self, manager, mapper, ssd_geometry):
        a = manager.take_free(0)
        b = manager.take_free(0)
        manager.mark_full(0, a)
        manager.mark_full(0, b)
        per_block = ssd_geometry.block.pages_per_block
        # block a: 2 valid pages; block b: 1 valid page
        mapper.bind(0, a * per_block)
        mapper.bind(1, a * per_block + 1)
        mapper.bind(2, b * per_block)
        assert manager.select_victim(0, mapper) == b

    def test_no_victim_raises(self, manager, mapper):
        with pytest.raises(OutOfSpaceError):
            manager.select_victim(0, mapper)

    def test_active_blocks_not_victims(self, manager, mapper):
        manager.take_free(0)  # active, never marked full
        with pytest.raises(OutOfSpaceError):
            manager.select_victim(0, mapper)


class TestGCReserve:
    """The one rule for a chip's last free blocks."""

    @staticmethod
    def _down_to_reserve(manager):
        while manager.free_count(0) > GC_RESERVE_BLOCKS:
            manager.mark_full(0, manager.take_free(0, for_gc=False))

    @pytest.mark.parametrize("kind", ["data", TRANS_KIND])
    def test_host_or_writeback_take_at_reserve_refused(self, manager, kind):
        self._down_to_reserve(manager)
        assert not manager.can_take(0, for_gc=False)
        with pytest.raises(OutOfSpaceError, match="free=1"):
            manager.take_free(0, kind=kind, for_gc=False)
        assert manager.free_count(0) == GC_RESERVE_BLOCKS

    def test_gc_destination_take_at_reserve_succeeds(self, manager):
        self._down_to_reserve(manager)
        assert manager.can_take(0, for_gc=True)
        block = manager.take_free(0, for_gc=True)
        assert manager.state(0, block) is BlockState.ACTIVE
        assert manager.free_count(0) == 0
        assert not manager.can_take(0, for_gc=True)

    def test_uncovered_gc_job_does_not_start(self, manager, ssd_geometry):
        wls = ssd_geometry.block.wls_per_block
        self._down_to_reserve(manager)
        # the reserved block covers any victim's live pages
        assert manager.gc_covered(0, dest_wls=0, needed_wls=wls)
        manager.take_free(0, for_gc=True)
        # with the pool empty only the destination cursor's WLs count
        assert not manager.gc_covered(0, dest_wls=wls - 1, needed_wls=wls)
        assert manager.gc_covered(0, dest_wls=wls, needed_wls=wls)

    def test_retired_victim_leaves_reserve_intact(self, manager):
        self._down_to_reserve(manager)
        victim = manager.full_blocks(0)[0]
        manager.mark_failing(0, victim)
        manager.retire(0, victim, reason="program_fail")
        # retiring frees nothing, and takes nothing from the reserve
        assert manager.free_count(0) == GC_RESERVE_BLOCKS
        assert not manager.can_take(0, for_gc=False)
        assert manager.can_take(0, for_gc=True)

    def test_describe_counts_state_by_kind(self, manager, ssd_geometry):
        data = manager.take_free(0, for_gc=False)
        manager.mark_full(0, data)
        manager.take_free(0, kind=TRANS_KIND, for_gc=False)
        free = ssd_geometry.blocks_per_chip - 2
        assert manager.describe(0) == (
            f"active/trans=1 free={free} full/data=1"
        )
