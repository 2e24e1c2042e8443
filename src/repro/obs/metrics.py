"""Time-sliced metrics sampling driven by the event engine.

A :class:`MetricsSampler` snapshots the simulated SSD every
``interval_us`` of *simulated* time: completed requests (for interval
IOPS), write-buffer utilization (the WAM's mu signal), free-block
counts, GC and erase activity, the leader/follower WL mix, VFY-skip
savings and the ORT hit rate.  Samples are cumulative where the
underlying counters are cumulative; :func:`repro.obs.analyze.metrics_timeline`
differentiates them into per-interval rates.

The sampler rides on :meth:`repro.sim.engine.Engine.every` through
:class:`PeriodicSampler`, the one periodic-sampling loop, so with no
sampler attached the event sequence is bit-for-bit the run without
metrics; with one attached, its events only *read* state, and it is
stopped at the last host completion so the engine clock (and therefore
IOPS / latency statistics) is never advanced past the real workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class MetricsSample:
    """One snapshot of the simulated SSD.

    Counter-like fields are cumulative since the start of the measured
    run; gauge-like fields (buffer occupancy, free blocks) are
    instantaneous.
    """

    #: absolute engine time of the snapshot (us)
    t_us: float
    #: host requests completed so far (includes warmup completions)
    completed_requests: int
    #: write-buffer utilization mu (occupied slots / capacity)
    buffer_utilization: float
    #: staged + in-flight pages occupying buffer slots
    buffer_occupancy: int
    #: free blocks summed over all chips
    free_blocks: int
    #: host pages read / written so far
    host_read_pages: int
    host_write_pages: int
    #: flash operation counters (cumulative)
    flash_reads: int
    flash_programs: int
    gc_reads: int
    gc_programs: int
    erases: int
    #: program mix (cumulative)
    leader_programs: int
    follower_programs: int
    reprograms: int
    #: verify operations skipped thanks to monitored parameters
    vfy_skipped: int
    #: read-retry counters (cumulative)
    read_retries: int
    retried_reads: int
    #: accumulated die service time (us, cumulative)
    program_time_us: float
    read_time_us: float
    #: ORT statistics (zero for PS-unaware FTLs without a table)
    ort_entries: int
    ort_hits: int
    ort_misses: int

    @property
    def ort_hit_rate(self) -> float:
        total = self.ort_hits + self.ort_misses
        return self.ort_hits / total if total else 0.0

    @property
    def follower_fraction(self) -> float:
        total = self.leader_programs + self.follower_programs
        return self.follower_programs / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "t_us": self.t_us,
            "completed_requests": self.completed_requests,
            "buffer_utilization": self.buffer_utilization,
            "buffer_occupancy": self.buffer_occupancy,
            "free_blocks": self.free_blocks,
            "host_read_pages": self.host_read_pages,
            "host_write_pages": self.host_write_pages,
            "flash_reads": self.flash_reads,
            "flash_programs": self.flash_programs,
            "gc_reads": self.gc_reads,
            "gc_programs": self.gc_programs,
            "erases": self.erases,
            "leader_programs": self.leader_programs,
            "follower_programs": self.follower_programs,
            "follower_fraction": self.follower_fraction,
            "reprograms": self.reprograms,
            "vfy_skipped": self.vfy_skipped,
            "read_retries": self.read_retries,
            "retried_reads": self.retried_reads,
            "program_time_us": self.program_time_us,
            "read_time_us": self.read_time_us,
            "ort_entries": self.ort_entries,
            "ort_hits": self.ort_hits,
            "ort_misses": self.ort_misses,
            "ort_hit_rate": self.ort_hit_rate,
        }


class PeriodicSampler:
    """Records taken every ``interval_us`` of simulated time.

    The one periodic-sampling loop: :class:`MetricsSampler` and
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` differ only in
    what ``_take`` appends to ``records``.  The host replay loop starts
    every sampler of a run before the first request, stops them at the
    last host completion and finalizes them after the run.  Subclasses
    provide ``engine`` and ``_take``.
    """

    def __init__(self, interval_us: float) -> None:
        if interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        self.interval_us = interval_us
        self.records: list = []
        #: returns the host requests completed so far (set by ``start``)
        self.completed_fn: Optional[Callable[[], int]] = None
        self._recurring = None
        self._taken_us: Optional[float] = None

    def start(self, completed_fn: Optional[Callable[[], int]] = None) -> None:
        """Take the t=start record and begin periodic recording."""
        self.completed_fn = completed_fn
        self._record()
        self._recurring = self.engine.every(self.interval_us, self._record)

    def stop(self) -> None:
        """Cancel the pending sampling event (the engine clock will not
        advance to it)."""
        if self._recurring is not None:
            self._recurring.stop()
            self._recurring = None

    def finalize(self) -> list:
        """Stop sampling and take the end-of-run record, replacing a
        periodic record taken at the same instant so the final record
        always aligns with the final statistics."""
        self.stop()
        if self.records and self._taken_us == self.engine.now:
            self._drop_last()
        self._record()
        return self.records

    def _record(self) -> None:
        self._take()
        self._taken_us = self.engine.now

    def _drop_last(self) -> None:
        self.records.pop()


class MetricsSampler(PeriodicSampler):
    """Periodic :class:`MetricsSample` snapshots of an FTL-attached SSD
    simulation.

    Parameters
    ----------
    ftl:
        The running FTL (gives access to counters, buffer, block
        manager, and -- via ``ftl.opm`` when present -- the ORT).
    interval_us:
        Simulated time between snapshots.
    """

    def __init__(self, ftl, interval_us: float) -> None:
        super().__init__(interval_us)
        self.ftl = ftl

    @property
    def engine(self):
        return self.ftl.controller.engine

    def _take(self) -> None:
        ftl = self.ftl
        controller = ftl.controller
        counters = ftl.counters
        blocks = ftl.blocks
        buffer = ftl.buffer
        opm = getattr(ftl, "opm", None)
        ort = opm.ort if opm is not None else None
        free_blocks = sum(
            blocks.free_count(chip) for chip in range(ftl.geometry.n_chips)
        )
        self.records.append(
            MetricsSample(
                t_us=controller.engine.now,
                completed_requests=(
                    self.completed_fn() if self.completed_fn is not None else 0
                ),
                buffer_utilization=buffer.utilization,
                buffer_occupancy=buffer.occupancy,
                free_blocks=free_blocks,
                host_read_pages=counters.host_read_pages,
                host_write_pages=counters.host_write_pages,
                flash_reads=counters.flash_reads,
                flash_programs=counters.flash_programs,
                gc_reads=counters.gc_reads,
                gc_programs=counters.gc_programs,
                erases=counters.erases,
                leader_programs=counters.leader_programs,
                follower_programs=counters.follower_programs,
                reprograms=counters.reprograms,
                vfy_skipped=counters.vfy_skipped,
                read_retries=counters.read_retries,
                retried_reads=counters.retried_reads,
                program_time_us=counters.program_time_us,
                read_time_us=counters.read_time_us,
                ort_entries=len(ort) if ort is not None else 0,
                ort_hits=ort.hits if ort is not None else 0,
                ort_misses=ort.misses if ort is not None else 0,
            )
        )
