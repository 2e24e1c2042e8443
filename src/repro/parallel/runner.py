"""Crash-isolated process-pool shard runner.

The unit of work is a :class:`ShardSpec`: a named, picklable call.  The
runner executes up to ``jobs`` shards concurrently, each in its own
``multiprocessing.Process``, and returns one :class:`ShardOutcome` per
spec **in input order** -- never in completion order.  Combined with the
rule that a shard's seed derives only from its name (see
:mod:`repro.parallel.seeds`), this makes the merged output of a run a
pure function of the spec list: bit-for-bit identical for any worker
count and any scheduling of the workers.

Isolation is per-shard, not per-pool.  ``concurrent.futures`` pools
treat an abnormally dying worker as fatal for the whole pool
(``BrokenProcessPool``); here a shard whose process segfaults, is
OOM-killed, or raises simply yields an ``ok=False`` outcome carrying the
error, and every other shard still completes.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ShardSpec:
    """One unit of parallel work.

    ``fn`` must be picklable (a module-level function) and is invoked as
    ``fn(**kwargs)`` in the worker process; whatever it returns must
    pickle back.  ``name`` identifies the shard in reports and is the
    sole input (besides the base seed) to its seed derivation.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ShardOutcome:
    """Result slot for one shard, ok or not.

    ``error`` is a human-readable failure description -- the worker's
    formatted traceback when the shard raised, or an exit-code note when
    the process died without reporting (segfault, OOM kill).

    ``retried`` records provenance: the outcome came from a relaunch
    after an earlier attempt's worker hard-died (see the ``retries``
    parameter of :func:`run_shards`).  ``cached`` marks an outcome
    loaded from a sweep checkpoint directory instead of being run (see
    :func:`repro.persist.run_shards_resumable`).
    """

    name: str
    ok: bool
    result: Any = None
    error: Optional[str] = None
    retried: bool = False
    cached: bool = False


class ShardsInterrupted(KeyboardInterrupt):
    """The user interrupted a shard run (SIGINT / Ctrl-C).

    Carries the shards that *did* complete (``outcomes``, input order)
    so callers can persist partial results -- the CLI sweep writes them
    with ``"incomplete": true`` -- before exiting with status 130.
    Worker processes still running at the interrupt are terminated.
    """

    def __init__(self, outcomes: List[ShardOutcome]) -> None:
        super().__init__(f"interrupted with {len(outcomes)} shards complete")
        self.outcomes = outcomes


def _shard_main(spec: ShardSpec, conn, log_level: Optional[str] = None) -> None:
    """Worker entry point: run the shard, report through the pipe.

    The pipe carries zero or more ``("progress", payload)`` heartbeats
    (emitted through the process-wide progress sink, see
    :mod:`repro.parallel.progress`) followed by exactly one terminal
    ``("ok", result)`` / ``("error", traceback)`` message.

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
        result = spec.fn(**spec.kwargs)
        conn.send(("ok", result))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_inline(
    specs: Sequence[ShardSpec], on_progress, heartbeat=None
) -> List[ShardOutcome]:
    from repro.parallel.progress import set_progress_sink

    outcomes = []
    for index, spec in enumerate(specs):
        if index:
            # a finished shard's simulation lives in reference cycles
            # (chip <-> lookup tables, FTL <-> controller) that only a
            # full collection frees; without one, dead simulations pile
            # up across the batch
            gc.collect()
        if heartbeat is not None:
            set_progress_sink(
                lambda payload, name=spec.name: heartbeat(name, payload)
            )
        try:
            outcomes.append(ShardOutcome(spec.name, True, spec.fn(**spec.kwargs)))
        except KeyboardInterrupt:
            raise ShardsInterrupted(outcomes)
        except Exception:
            outcomes.append(
                ShardOutcome(spec.name, False, error=traceback.format_exc())
            )
        finally:
            if heartbeat is not None:
                set_progress_sink(None)
        if on_progress is not None:
            on_progress(outcomes[-1])
    return outcomes


def run_shards(
    specs: Sequence[ShardSpec],
    jobs: int = 1,
    on_progress: Optional[Callable[[ShardOutcome], None]] = None,
    retries: int = 0,
    registry=None,
    heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> List[ShardOutcome]:
    """Run shards with up to ``jobs`` worker processes.

    Returns outcomes aligned with ``specs`` (input order).  With
    ``jobs <= 1`` the shards run inline in this process -- same outcome
    semantics, no subprocess overhead -- which is also the reference
    behaviour parallel runs must reproduce bit-for-bit.

    ``on_progress`` (if given) is called with each :class:`ShardOutcome`
    as it lands, in *completion* order; it runs in this process and must
    not raise.

    ``retries`` relaunches a shard whose worker *hard-died* (exited
    without reporting: segfault, OOM kill) up to that many times, with
    the identical spec -- and therefore the identical derived seed, so a
    retried shard that succeeds is bit-identical to one that succeeded
    first try.  Shards that *raised* are not retried (a deterministic
    simulation raises again).  Each relaunch bumps the
    ``shard_retries_total`` counter on ``registry`` (a
    :class:`~repro.obs.registry.TelemetryRegistry`, optional) and marks
    the shard's eventual outcome ``retried=True``.

    ``heartbeat`` (if given) receives ``(shard_name, payload)`` for each
    live-progress message a running shard emits (see
    :mod:`repro.parallel.progress`); like ``on_progress`` it runs in
    this process and must not raise.  Workers also inherit this
    process's ``--log-level`` configuration (see
    :func:`repro.obs.log.configured_level`), so shard diagnostics are
    not silently dropped.

    A SIGINT (Ctrl-C) terminates the remaining workers and raises
    :class:`ShardsInterrupted` carrying the completed outcomes.
    """
    from repro.obs.log import configured_level

    retry_counter = None
    if registry is not None:
        retry_counter = registry.counter(
            "shard_retries_total",
            "shards relaunched after a worker died without reporting",
        )
    if jobs <= 1 or len(specs) <= 1:
        return _run_inline(specs, on_progress, heartbeat=heartbeat)
    log_level = configured_level()

    # spawn (not fork): workers start from a clean interpreter, so shard
    # results cannot depend on state the parent accumulated -- the same
    # property that keeps reruns and different worker counts identical
    ctx = mp.get_context("spawn")
    outcomes: List[Optional[ShardOutcome]] = [None] * len(specs)
    pending = list(enumerate(specs))  # input order; workers pull from front
    active: Dict[Any, tuple] = {}  # recv conn -> (index, spec, process)
    attempts: Dict[int, int] = {}  # index -> relaunches so far

    def _launch() -> None:
        while pending and len(active) < jobs:
            index, spec = pending.pop(0)
            recv, send = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_shard_main, args=(spec, send, log_level), daemon=True
            )
            process.start()
            # the child holds its own handle; keeping ours open would
            # make recv block forever after a worker dies mid-shard
            send.close()
            active[recv] = (index, spec, process)

    try:
        _launch()
        while active:
            for conn in _wait_connections(list(active)):
                index, spec, process = active[conn]
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = None, None
                if status == "progress":
                    # live heartbeat: the shard is still running, keep
                    # its connection registered and read on
                    if heartbeat is not None:
                        heartbeat(spec.name, payload)
                    continue
                del active[conn]
                conn.close()
                process.join()
                if status == "ok":
                    outcome = ShardOutcome(spec.name, True, payload)
                elif status == "error":
                    outcome = ShardOutcome(spec.name, False, error=payload)
                elif attempts.get(index, 0) < retries:
                    # hard death: relaunch the identical spec (same
                    # derived seed) at the front of the queue
                    attempts[index] = attempts.get(index, 0) + 1
                    if retry_counter is not None:
                        retry_counter.inc()
                    pending.insert(0, (index, spec))
                    continue
                else:
                    outcome = ShardOutcome(
                        spec.name,
                        False,
                        error=(
                            f"worker died without reporting "
                            f"(exit code {process.exitcode})"
                        ),
                    )
                outcome.retried = attempts.get(index, 0) > 0
                outcomes[index] = outcome
                if on_progress is not None:
                    on_progress(outcome)
            _launch()
    except KeyboardInterrupt:
        for _conn, (_index, _spec, process) in active.items():
            process.terminate()
        for _conn, (_index, _spec, process) in active.items():
            process.join()
        raise ShardsInterrupted(
            [outcome for outcome in outcomes if outcome is not None]
        )
    return outcomes  # type: ignore[return-value]
