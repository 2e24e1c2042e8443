"""Host replay: one loop that issues a trace under three host models.

:func:`replay` is the only host loop in the simulator.  The host keeps
a FIFO of requests waiting for a queue slot; a completion frees a slot
and issues the head of that FIFO.  The ``mode`` (the string
:attr:`repro.specs.HostSpec.mode` computes) decides only how requests
reach the FIFO and where their latency starts:

``"closed"``
    The whole trace waits from the start, so ``queue_depth`` requests
    are outstanding at all times and each completion issues the next
    request.  Arrival timestamps, if any, are ignored.  Latency is
    measured from issue to completion.

``"ncq"``
    Requests *arrive* at their trace timestamps.  An arrival finding a
    free slot issues immediately; an arrival finding all
    ``queue_depth`` slots busy waits in FIFO order for a completion
    (backpressure).  Latency is measured from **arrival** to
    completion, so queue-full wait time is part of the reported latency
    -- the host-visible number.

``"unbounded"``
    NCQ with no slot limit: every request issues exactly at its
    arrival timestamp regardless of completions.  Under overload the
    backlog grows without bound and latencies reflect pure queueing
    delay.

The first ``warmup_requests`` completions are simulated but excluded
from IOPS and latency statistics in every mode -- they bring the WAM's
active blocks, the OPM's monitored parameters and the ORT into steady
state.  Per-tenant statistics (:class:`~repro.ssd.stats.TenantStats`)
are kept whenever the trace carries tenant tags.

Checkpointing (:mod:`repro.persist`) runs the closed loop in segments:
with ``segment_requests`` set, the trace is issued that many requests
at a time and each slice drains the event queue before the next one
starts.  The drained instant is the quiescent barrier at which
``on_barrier(accounting)`` fires (after every slice but the last);
``resume_accounting`` -- an ``accounting`` dict loaded from a
checkpoint -- restores that bookkeeping and skips the requests it
counts as completed.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.ssd.stats import SimulationStats, TenantStats
from repro.workloads.base import IORequest, Trace

#: replay modes :func:`replay` accepts
REPLAY_MODES = ("closed", "ncq", "unbounded")


def replay(
    sim,
    trace: Trace,
    *,
    mode: str = "closed",
    queue_depth: Optional[int] = 32,
    warmup_requests: int = 0,
    max_events: Optional[int] = None,
    samplers: Sequence = (),
    segment_requests: Optional[int] = None,
    on_barrier: Optional[Callable[[dict], None]] = None,
    resume_accounting: Optional[dict] = None,
) -> SimulationStats:
    """Replay a trace through a simulation under one host model.

    ``samplers`` are periodic samplers
    (:class:`~repro.obs.metrics.PeriodicSampler`), started in order
    before the first request, stopped at the last host completion and
    finalized after the run.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(f"mode must be one of {REPLAY_MODES}")
    if trace.logical_pages > sim.config.logical_pages:
        raise ValueError("trace logical space exceeds the SSD's")
    if mode == "unbounded":
        queue_depth = float("inf")
    elif queue_depth is None or queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    if not 0 <= warmup_requests < len(trace):
        raise ValueError("warmup_requests must be < len(trace)")
    if mode != "closed" and not trace.has_arrivals:
        raise ValueError(
            f"{mode} replay needs arrival times on every request; "
            "stamp the trace with workloads.base.with_arrivals (or load "
            "a recorded trace that carries timestamps)"
        )
    if segment_requests is not None and (
        segment_requests < 1 or mode != "closed" or samplers
    ):
        # periodic samplers stop re-arming once the queue drains, so
        # they would go silent after the first slice
        raise ValueError(
            "segment_requests must be >= 1, on a closed loop without "
            "metrics sampling"
        )

    engine = sim.controller.engine
    submit = sim.ftl.submit
    requests = trace.requests
    n_requests = len(requests)
    stats = SimulationStats(ftl_name=sim.ftl.name, workload=trace.name)
    tenants = None
    if trace.tenants:
        tenants = stats.tenants = {name: TenantStats() for name in trace.tenants}
    #: requests arrived (open loop) or issued (closed loop) and not yet
    #: completed, keyed by ``id(request)``; named by the stall diagnostic
    pending: Dict[int, IORequest] = {}
    #: arrival instant of each open-loop request not yet completed; a
    #: closed-loop request has none, its latency starts at issue
    arrived_us: Dict[int, float] = {}
    waiting: deque = deque()
    outstanding = 0
    completed = 0
    start_us = engine.now
    measure_start = start_us if warmup_requests == 0 else None
    if resume_accounting is not None:
        completed = resume_accounting["completed"]
        measure_start = resume_accounting["measure_start"]
        start_us = resume_accounting["start_us"]
        stats.read_latency.extend(resume_accounting["read_latency"])
        stats.write_latency.extend(resume_accounting["write_latency"])
    progress = sim.progress

    def issue(request: IORequest) -> None:
        nonlocal outstanding
        outstanding += 1
        pending[id(request)] = request
        submit(request, on_complete)

    def arrive(request: IORequest) -> None:
        pending[id(request)] = request
        arrived_us[id(request)] = engine.now
        if outstanding < queue_depth:
            issue(request)
        else:
            waiting.append(request)

    def on_complete(active, now_us: float) -> None:
        nonlocal outstanding, completed, measure_start
        request = active.spec
        pending.pop(id(request), None)
        latency = now_us - arrived_us.pop(id(request), active.issued_us)
        outstanding -= 1
        completed += 1
        if progress is not None:
            progress(completed, n_requests, now_us)
        if completed == warmup_requests:
            measure_start = now_us
        elif completed > warmup_requests:
            if request.is_read:
                stats.read_latency.add(latency)
            else:
                stats.write_latency.add(latency)
            if tenants is not None and request.tenant is not None:
                tenant = tenants[request.tenant]
                tenant.completed_requests += 1
                if request.is_read:
                    tenant.read_latency.add(latency)
                else:
                    tenant.write_latency.add(latency)
        if completed == n_requests:
            # stop re-arming so sampling never advances the clock past
            # the last host completion (it would distort IOPS)
            for sampler in samplers:
                sampler.stop()
        if waiting and outstanding < queue_depth:
            issue(waiting.popleft())

    if mode != "closed":
        for request in requests:
            engine.schedule_at(
                start_us + request.arrival_us, partial(arrive, request)
            )
    for sampler in samplers:
        sampler.start(lambda: completed)
    position = completed
    while True:
        end = n_requests
        if segment_requests is not None:
            end = min(position + segment_requests, n_requests)
        if mode == "closed":
            waiting.extend(requests[position:end])
            while waiting and outstanding < queue_depth:
                issue(waiting.popleft())
        engine.run(max_events=max_events, profiler=sim.profiler)
        if (outstanding or waiting) and max_events is None:
            _stall(sim, pending, completed)
        position = end
        if position >= n_requests:
            break
        if on_barrier is not None:
            on_barrier(
                {
                    "completed": completed,
                    "measure_start": measure_start,
                    "start_us": start_us,
                    "read_latency": stats.read_latency.sample_list(),
                    "write_latency": stats.write_latency.sample_list(),
                }
            )
    if measure_start is None:
        measure_start = start_us
    stats.duration_us = engine.now - measure_start
    stats.completed_requests = completed - warmup_requests
    stats.counters = sim.ftl.counters
    stats.recovery = sim.ftl.recovery
    for sampler in samplers:
        sampler.finalize()
    return stats


def _stall(sim, pending: Dict[int, IORequest], completed: int) -> None:
    """The event queue drained with host requests still pending: log
    the structured diagnostic and raise."""
    from repro.ssd.controller import SimulationStalledError, _stall_message

    sim._log_stall(completed, pending)
    raise SimulationStalledError(_stall_message(completed, pending))


__all__ = ["REPLAY_MODES", "replay"]
