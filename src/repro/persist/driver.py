"""Segmented checkpoint/resume driver for :func:`repro.api.run_spec`.

Checkpointing rides on the *quiescent barrier* contract of the host
loop, :func:`repro.ssd.host.replay` with ``segment_requests``: the trace
is replayed ``checkpoint_every`` host requests at a time, each segment
runs to full event-queue drain, and the drained instant between segments
is where every component's ``state_dict()`` is captured -- no in-flight
programs, no pending host writes, no active GC, empty FIFO queues.  The
component ``state_dict()`` methods *assert* that quiescence, so a
checkpoint can never silently capture a half-finished operation.

Resume builds a fresh simulation (skipping prefill -- the chips' full
media state is in the checkpoint), loads every component, and continues
the remaining segments with the carried-over accounting.  Because both
the straight-through checkpointing run and the resumed run drain at the
same request boundaries, they replay the identical event sequence:
results and ``state_digest`` are byte-identical (the resume-equivalence
property pinned by ``tests/persist``).

The segment drains themselves are a (deterministic) scheduling change
relative to an un-segmented run, so resume equivalence is defined
between checkpoint-enabled runs; a checkpoint-*off* run stays
bit-identical to builds without this module entirely.
"""

from __future__ import annotations

import os

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.specs import SimulationSpec, SpecError, check_level_name
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import Trace


def capture_state(sim: SSDSimulation, accounting: dict) -> dict:
    """One quiescent-barrier snapshot of every stateful component.

    Must be called with the engine fully drained; the component
    ``state_dict()`` implementations raise otherwise.
    """
    controller = sim.controller
    return {
        "engine": controller.engine.state_dict(),
        "chips": [chip.state_dict() for chip in controller.chips],
        "chip_resources": [
            res.state_dict() for res in controller._chip_resources
        ],
        "bus_resources": [
            res.state_dict() for res in controller._bus_resources
        ],
        "ftl": sim.ftl.state_dict(),
        "injector": (
            controller.faults.state_dict()
            if controller.faults is not None
            else None
        ),
        "checker": (
            sim.checker.state_dict() if sim.checker is not None else None
        ),
        "accounting": accounting,
    }


def restore_state(sim: SSDSimulation, state: dict) -> None:
    """Load a :func:`capture_state` snapshot into a freshly built,
    *unprefilled* simulation.  Wiring (observers, telemetry hooks,
    report callbacks) is whatever the fresh build attached; only state
    is replaced."""
    controller = sim.controller
    controller.engine.load_state_dict(state["engine"])
    for chip, chip_state in zip(controller.chips, state["chips"]):
        chip.load_state_dict(chip_state)
    for res, res_state in zip(
        controller._chip_resources, state["chip_resources"]
    ):
        res.load_state_dict(res_state)
    for res, res_state in zip(
        controller._bus_resources, state["bus_resources"]
    ):
        res.load_state_dict(res_state)
    sim.ftl.load_state_dict(state["ftl"])
    if state["injector"] is not None:
        if controller.faults is None:
            raise CheckpointError(
                "checkpoint carries fault-injector state but the config "
                "has no fault campaign"
            )
        controller.faults.load_state_dict(state["injector"])
    if state["checker"] is not None and sim.checker is not None:
        sim.checker.load_state_dict(state["checker"])


def run_checkpointed(spec: SimulationSpec):
    """Run one spec with checkpointing and/or from a checkpoint.

    Reached through :func:`repro.api.run_spec` whenever the spec's
    options set ``checkpoint_every`` or ``resume_from``.

    With ``resume_from=None``: a fresh run that writes one checkpoint
    directory under ``checkpoint_dir`` after every ``checkpoint_every``
    completed host requests (never after the final segment -- the run's
    result *is* the final state).

    With ``resume_from=PATH``: rebuild from that checkpoint and run the
    remaining requests.  The header is authoritative for the host queue
    depth, ``warmup_requests``, ``checkpoint_every`` and the check level
    (they must match the original run for resume equivalence); the
    config, ``ftl``, workload, seed and request count must match the
    header and are validated.  Further checkpoints continue into
    ``checkpoint_dir`` (default: the directory containing
    ``resume_from``).  ``ftl_kwargs`` are not persisted and must be
    re-passed verbatim.

    The spec is embedded in every checkpoint header under the ``"spec"``
    key, so a checkpoint directory is self-describing: ``repro-ssd
    simulate --spec`` can resume it without re-stating the run
    parameters.
    """
    from repro.api import SimulationResult, build_simulation
    from repro.obs.registry import TelemetryRegistry

    options = spec.options
    if options.resume_from is not None:
        return _resume(spec)

    checkpoint_every = options.checkpoint_every
    checkpoint_dir = options.checkpoint_dir
    if checkpoint_every is None or checkpoint_every < 1:
        raise ValueError("checkpoint_every must be an integer >= 1")
    if checkpoint_dir is None:
        raise ValueError("checkpoint_dir is required when checkpointing")
    check_level = check_level_name(options.check)
    trace = spec.build_trace()
    registry = TelemetryRegistry() if options.telemetry else None
    sim, checker = build_simulation(
        spec, check_level, trace.name, telemetry=registry
    )
    if spec.prefill > 0:
        sim.prefill(spec.prefill)
    base_header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint(spec.config),
        "ftl": spec.ftl,
        "workload": trace.name,
        "seed": spec.seed,
        "n_requests": len(trace),
        "queue_depth": spec.host.queue_depth,
        "warmup_requests": spec.warmup_requests,
        "checkpoint_every": checkpoint_every,
        "check": check_level,
    }
    try:
        base_header["spec"] = spec.to_dict()
    except SpecError:
        # in-code constructions (pre-built Trace, custom timing or
        # campaign objects) have no file form; the header simply
        # stays spec-less
        pass

    def on_barrier(accounting: dict) -> None:
        header = dict(base_header)
        header["segment"] = accounting["completed"] // checkpoint_every
        header["completed"] = accounting["completed"]
        header["clock_us"] = float(sim.controller.engine.now)
        write_checkpoint(
            checkpoint_dir, header, capture_state(sim, accounting)
        )

    stats = replay(
        sim,
        trace,
        queue_depth=spec.host.queue_depth,
        warmup_requests=spec.warmup_requests,
        segment_requests=checkpoint_every,
        on_barrier=on_barrier,
    )
    check_report = checker.finalize() if checker is not None else None
    return SimulationResult(
        stats=stats,
        telemetry=registry.snapshot() if registry is not None else None,
        check=check_report,
    )


def _resume(spec: SimulationSpec):
    from repro.api import SimulationResult, build_simulation

    resume_from = spec.options.resume_from
    if spec.options.telemetry:
        raise ValueError(
            "telemetry is not supported on resume (registry collectors "
            "are not serializable); re-run straight-through instead"
        )
    header, state = load_checkpoint(resume_from)
    fingerprint = config_fingerprint(spec.config)
    if header["config_fingerprint"] != fingerprint:
        raise CheckpointError(
            f"{resume_from}: config fingerprint mismatch "
            f"(checkpoint {header['config_fingerprint'][:12]}..., "
            f"passed config {fingerprint[:12]}...)"
        )
    if header["ftl"] != spec.ftl:
        raise CheckpointError(
            f"{resume_from}: checkpoint is for ftl={header['ftl']!r}, "
            f"got {spec.ftl!r}"
        )
    # a pre-built Trace carries its own stream; a generated one must be
    # regenerated from the original seed
    if not isinstance(spec.workload, Trace) and spec.seed != header["seed"]:
        raise CheckpointError(
            f"{resume_from}: checkpoint seed {header['seed']} != "
            f"passed seed {spec.seed}"
        )
    trace = spec.build_trace()
    if trace.name != header["workload"] or len(trace) != header["n_requests"]:
        raise CheckpointError(
            f"{resume_from}: checkpoint is for workload "
            f"{header['workload']!r} x {header['n_requests']}, got "
            f"{trace.name!r} x {len(trace)}"
        )
    checkpoint_every = header["checkpoint_every"]
    out_dir = spec.options.checkpoint_dir or os.path.dirname(
        os.path.abspath(resume_from)
    )
    sim, checker = build_simulation(spec, header["check"], trace.name)
    # no prefill: the checkpoint carries the full media state
    restore_state(sim, state)
    base_header = {
        key: header[key]
        for key in header
        if key not in ("segment", "completed", "clock_us")
    }

    def on_barrier(accounting: dict) -> None:
        next_header = dict(base_header)
        next_header["segment"] = accounting["completed"] // checkpoint_every
        next_header["completed"] = accounting["completed"]
        next_header["clock_us"] = float(sim.controller.engine.now)
        write_checkpoint(out_dir, next_header, capture_state(sim, accounting))

    stats = replay(
        sim,
        trace,
        queue_depth=header["queue_depth"],
        warmup_requests=header["warmup_requests"],
        segment_requests=checkpoint_every,
        on_barrier=on_barrier,
        resume_accounting=state["accounting"],
    )
    check_report = checker.finalize() if checker is not None else None
    return SimulationResult(stats=stats, check=check_report)
