"""Crash-isolated process pool behind :func:`repro.api.run_many`.

Private to ``run_many``.  The unit of work is a :class:`_Shard`: a
named, picklable call.  :func:`_run_shards` executes up to ``jobs``
shards concurrently, each in its own ``multiprocessing.Process``, and
returns one :class:`_Outcome` per shard **in input order** -- never in
completion order.  Combined with the rule that a run's seed derives
only from its name (see :mod:`repro.parallel.seeds`), this makes a
batch a pure function of its spec list: bit-for-bit identical for any
worker count and any scheduling of the workers.

Isolation is per-shard, not per-pool.  ``concurrent.futures`` pools
treat an abnormally dying worker as fatal for the whole pool
(``BrokenProcessPool``); here a shard whose process segfaults, is
OOM-killed, or raises simply yields an ``ok=False`` outcome carrying the
error, and every other shard still completes.

Each shard is timed where it executes: an outcome carries the wall
clock around its call and the peak RSS of the process that ran it.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class _Shard:
    """One unit of work: ``fn(**kwargs)`` in a worker process.

    ``fn`` must be picklable (a module-level function) and whatever it
    returns must pickle back.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Outcome:
    """Result slot for one shard, ok or not.

    ``error`` is the worker's formatted traceback when the shard raised,
    or an exit-code note when the process died without reporting
    (segfault, OOM kill).  ``relaunches`` counts the attempts that
    hard-died before this outcome (see ``retries``); ``cached`` marks an
    outcome loaded from a sweep checkpoint directory instead of run.
    """

    name: str
    ok: bool
    result: Any = None
    error: Optional[str] = None
    relaunches: int = 0
    cached: bool = False
    #: wall-clock seconds around the call, where it ran
    wall_clock_s: Optional[float] = None
    #: peak resident set size (KB) of the process that ran it
    peak_rss_kb: Optional[int] = None


class ShardsInterrupted(KeyboardInterrupt):
    """The user interrupted a batch (SIGINT / Ctrl-C).

    ``batch`` is the partial :class:`~repro.api.BatchResult`: runs that
    never ran are ``None`` in ``batch.results`` (and absent from
    ``batch.errors``), so callers can persist what completed -- the CLI
    sweep writes it with ``"incomplete": true`` -- before exiting with
    status 130.  Worker processes still running at the interrupt are
    terminated.
    """

    def __init__(self, batch) -> None:
        done = sum(result is not None for result in batch.results)
        super().__init__(f"interrupted with {done} run(s) complete")
        self.batch = batch


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX host
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KB on Linux, bytes on macOS
    scale = 1024 if sys.platform == "darwin" else 1
    return int(usage.ru_maxrss // scale)


def _call(shard: _Shard) -> _Outcome:
    """Run one shard in this process, timed."""
    started = time.perf_counter()
    result = shard.fn(**shard.kwargs)
    return _Outcome(
        shard.name,
        True,
        result,
        wall_clock_s=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
    )


def _shard_main(shard: _Shard, conn, log_level: Optional[str] = None) -> None:
    """Worker entry point: run the shard, report through the pipe.

    The pipe carries zero or more ``("progress", payload)`` heartbeats
    (emitted through the process-wide progress sink, see
    :mod:`repro.parallel.progress`) followed by exactly one terminal
    ``("ok", outcome)`` / ``("error", traceback)`` message.

    ``log_level`` re-creates the parent's ``--log-level`` configuration
    in this fresh interpreter (spawned workers otherwise default to
    warnings-only and drop the parent's requested diagnostics).
    """
    if log_level is not None:
        from repro.obs.log import configure_logging

        configure_logging(log_level)
    from repro.parallel.progress import set_progress_sink

    set_progress_sink(lambda payload: conn.send(("progress", payload)))
    try:
        conn.send(("ok", _call(shard)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_inline(shards: Sequence[_Shard], on_outcome, heartbeat) -> List[_Outcome]:
    from repro.parallel.progress import set_progress_sink

    outcomes = []
    for index, shard in enumerate(shards):
        if index:
            # a finished shard's simulation lives in reference cycles
            # (chip <-> lookup tables, FTL <-> controller) that only a
            # full collection frees; without one, dead simulations pile
            # up across the batch
            gc.collect()
        if heartbeat is not None:
            set_progress_sink(
                lambda payload, name=shard.name: heartbeat(name, payload)
            )
        try:
            outcome = _call(shard)
        except Exception:
            outcome = _Outcome(shard.name, False, error=traceback.format_exc())
        finally:
            if heartbeat is not None:
                set_progress_sink(None)
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(index, outcome)
    return outcomes


def _run_shards(
    shards: Sequence[_Shard],
    jobs: int = 1,
    on_outcome: Optional[Callable[[int, _Outcome], None]] = None,
    retries: int = 0,
    heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> List[_Outcome]:
    """Run shards with up to ``jobs`` worker processes.

    Returns outcomes aligned with ``shards`` (input order).  With
    ``jobs <= 1`` the shards run inline in this process -- same outcome
    semantics, no subprocess overhead -- which is also the reference
    behaviour parallel runs must reproduce bit-for-bit.

    ``on_outcome`` (if given) is called with ``(index, outcome)`` as
    each shard lands, in *completion* order; it runs in this process and
    must not raise.

    ``retries`` relaunches a shard whose worker *hard-died* (exited
    without reporting: segfault, OOM kill) up to that many times, with
    the identical shard -- and therefore the identical seed, so a
    retried shard that succeeds is bit-identical to one that succeeded
    first try.  Shards that *raised* are not retried (a deterministic
    simulation raises again).

    ``heartbeat`` (if given) receives ``(shard_name, payload)`` for each
    live-progress message a running shard emits (see
    :mod:`repro.parallel.progress`); like ``on_outcome`` it runs in
    this process and must not raise.  Workers also inherit this
    process's ``--log-level`` configuration (see
    :func:`repro.obs.log.configured_level`), so shard diagnostics are
    not silently dropped.

    A SIGINT (Ctrl-C) terminates the remaining workers and re-raises;
    the shards that landed before it have reached ``on_outcome``.
    """
    from repro.obs.log import configured_level

    if jobs <= 1 or len(shards) <= 1:
        return _run_inline(shards, on_outcome, heartbeat)
    log_level = configured_level()

    # spawn (not fork): workers start from a clean interpreter, so shard
    # results cannot depend on state the parent accumulated -- the same
    # property that keeps reruns and different worker counts identical
    ctx = mp.get_context("spawn")
    outcomes: List[Optional[_Outcome]] = [None] * len(shards)
    pending = list(enumerate(shards))  # input order; workers pull from front
    active: Dict[Any, tuple] = {}  # recv conn -> (index, shard, process)
    attempts: Dict[int, int] = {}  # index -> relaunches so far

    def _launch() -> None:
        while pending and len(active) < jobs:
            index, shard = pending.pop(0)
            recv, send = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_shard_main, args=(shard, send, log_level), daemon=True
            )
            process.start()
            # the child holds its own handle; keeping ours open would
            # make recv block forever after a worker dies mid-shard
            send.close()
            active[recv] = (index, shard, process)

    try:
        _launch()
        while active:
            for conn in _wait_connections(list(active)):
                index, shard, process = active[conn]
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = None, None
                if status == "progress":
                    # live heartbeat: the shard is still running, keep
                    # its connection registered and read on
                    if heartbeat is not None:
                        heartbeat(shard.name, payload)
                    continue
                del active[conn]
                conn.close()
                process.join()
                if status == "ok":
                    outcome = payload
                elif status == "error":
                    outcome = _Outcome(shard.name, False, error=payload)
                elif attempts.get(index, 0) < retries:
                    # hard death: relaunch the identical shard (same
                    # seed) at the front of the queue
                    attempts[index] = attempts.get(index, 0) + 1
                    pending.insert(0, (index, shard))
                    continue
                else:
                    outcome = _Outcome(
                        shard.name,
                        False,
                        error=(
                            f"worker died without reporting "
                            f"(exit code {process.exitcode})"
                        ),
                    )
                outcome.relaunches = attempts.get(index, 0)
                outcomes[index] = outcome
                if on_outcome is not None:
                    on_outcome(index, outcome)
            _launch()
    except KeyboardInterrupt:
        for _conn, (_index, _shard, process) in active.items():
            process.terminate()
        for _conn, (_index, _shard, process) in active.items():
            process.join()
        raise
    return outcomes  # type: ignore[return-value]
