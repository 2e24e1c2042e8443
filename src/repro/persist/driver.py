"""Checkpoint/resume for :func:`repro.api.run_spec`.

A checkpointed or resumed run takes the same build, replay and finalize
path as any other; :class:`Checkpointing` changes two of its steps.  The
trace is replayed ``checkpoint_every`` host requests at a time
(:func:`repro.ssd.host.replay` with ``segment_requests``): each segment
runs to full event-queue drain, and the drained instant between segments
-- the *quiescent barrier* -- is where every component's ``state_dict()``
is captured: no in-flight programs, no pending host writes, no active
GC, empty FIFO queues.  The component ``state_dict()`` methods *assert*
that quiescence, so a checkpoint can never silently capture a
half-finished operation.

Resume runs :func:`restore_state` in place of prefill (the chips' full
media state is in the checkpoint) and continues the remaining segments
with the carried-over accounting.  Because both the straight-through
checkpointing run and the resumed run drain at the same request
boundaries, they replay the identical event sequence: results and
``state_digest`` are byte-identical (the resume-equivalence property
pinned by ``tests/persist``).

The segment drains themselves are a (deterministic) scheduling change
relative to an un-segmented run, so resume equivalence is defined
between checkpoint-enabled runs; a checkpoint-*off* run stays
bit-identical to builds without this module entirely.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.specs import SimulationSpec, SpecError, check_level_name
from repro.ssd.controller import SSDSimulation
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


class Checkpointing:
    """The checkpoint side of one :func:`repro.api.run_spec` run; owns
    the header format.

    A fresh run (``resume_from=None``) writes one checkpoint under
    ``checkpoint_dir`` after every ``checkpoint_every`` completed host
    requests (never after the final segment -- the run's result *is* the
    final state).  Every header embeds the spec under ``"spec"``, so
    ``repro-ssd simulate --spec`` can resume a checkpoint unaided.

    A resume (``resume_from=PATH``) checks the config, ``ftl``, seed,
    workload and request count against that checkpoint's header, which
    is authoritative for the queue depth, ``warmup_requests``,
    ``checkpoint_every`` and check level (:attr:`spec` carries them).
    Further checkpoints go to ``checkpoint_dir`` (default: the directory
    holding ``resume_from``).  ``ftl_kwargs`` are not persisted and must
    be re-passed verbatim.
    """

    def __init__(self, spec: SimulationSpec) -> None:
        options = spec.options
        #: the spec to build and replay (header-authoritative on resume)
        self.spec = spec
        #: the :func:`capture_state` snapshot to resume from, else None
        self.state: Optional[dict] = None
        if options.resume_from is None:
            if options.checkpoint_every is None or options.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be an integer >= 1")
            if options.checkpoint_dir is None:
                raise ValueError("checkpoint_dir is required when checkpointing")
            self.out_dir = options.checkpoint_dir
            # "workload" and "n_requests" join once the trace is built
            self.header = {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "config_fingerprint": config_fingerprint(spec.config),
                "ftl": spec.ftl,
                "seed": spec.seed,
                "queue_depth": spec.host.queue_depth,
                "warmup_requests": spec.warmup_requests,
                "checkpoint_every": options.checkpoint_every,
                "check": check_level_name(options.check),
            }
            try:
                self.header["spec"] = spec.to_dict()
            except SpecError:
                # in-code constructions (pre-built Trace, custom timing
                # or campaign objects) have no file form; the header
                # simply stays spec-less
                pass
            return
        resume_from = options.resume_from
        if options.telemetry:
            raise ValueError(
                "telemetry is not supported on resume (registry collectors "
                "are not serializable); re-run straight-through instead"
            )
        header, self.state = load_checkpoint(resume_from)
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
        # a pre-built Trace carries its own stream; a generated one must
        # be regenerated from the original seed
        if not isinstance(spec.workload, Trace) and spec.seed != header["seed"]:
            raise CheckpointError(
                f"{resume_from}: checkpoint seed {header['seed']} != "
                f"passed seed {spec.seed}"
            )
        self.out_dir = options.checkpoint_dir or os.path.dirname(
            os.path.abspath(resume_from)
        )
        self.header = {
            key: value
            for key, value in header.items()
            if key not in ("segment", "completed", "clock_us")
        }
        self.spec = replace(
            spec,
            host=replace(spec.host, queue_depth=header["queue_depth"]),
            warmup_requests=header["warmup_requests"],
            options=replace(options, check=header["check"]),
        )

    def replay_kwargs(self, sim: SSDSimulation, trace: Trace) -> dict:
        """The segmenting arguments of :func:`repro.ssd.host.replay` for
        ``trace`` on ``sim``: one checkpoint per barrier, and on resume
        the carried-over accounting.  Checks a resumed stream against
        the header first."""
        header = self.header
        if self.state is None:
            header["workload"] = trace.name
            header["n_requests"] = len(trace)
        elif trace.name != header["workload"] or len(trace) != header["n_requests"]:
            raise CheckpointError(
                f"{self.spec.options.resume_from}: checkpoint is for workload "
                f"{header['workload']!r} x {header['n_requests']}, got "
                f"{trace.name!r} x {len(trace)}"
            )
        every = header["checkpoint_every"]

        def on_barrier(accounting: dict) -> None:
            completed = accounting["completed"]
            write_checkpoint(
                self.out_dir,
                dict(
                    header,
                    segment=completed // every,
                    completed=completed,
                    clock_us=float(sim.controller.engine.now),
                ),
                capture_state(sim, accounting),
            )

        resumed = self.state["accounting"] if self.state is not None else None
        return {
            "segment_requests": every,
            "on_barrier": on_barrier,
            "resume_accounting": resumed,
        }
