"""Stable high-level entry point: describe a run, execute it, observe it.

A run is one :class:`~repro.specs.SimulationSpec`; :func:`run_spec` is
the one executor every front end goes through (CLI, benchmarks,
examples, notebooks): it builds the SSD, prefills it, replays the
spec's stream, and optionally attaches the :mod:`repro.obs` tracer,
metrics sampler, telemetry registry and invariant checker.  Everything
it returns is packed into a :class:`SimulationResult`, so callers never
reach into the simulation objects themselves -- the facade is the
compatibility surface; the internals behind it are free to move::

    spec = SimulationSpec(
        config=SSDConfig(),
        workload=WorkloadSpec("OLTP", n_requests=2000),
        ftl="cube",
        options=RunOptions(trace="memory"),
        seed=7,
    )
    result = run_spec(spec)

:func:`run_many` runs a batch of named specs
(:class:`~repro.parallel.RunSpec`) across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.check import InvariantChecker
    from repro.parallel import RunSpec

from repro.obs.metrics import MetricsSample
from repro.obs.profile import WallClockProfiler
from repro.obs.registry import TelemetryRegistry
from repro.obs.trace import InMemorySink, JsonlSink, Span, Tracer
from repro.specs import SimulationSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.stats import SimulationStats


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    stats: SimulationStats
    #: recorded spans when ``trace="memory"`` was requested, else None
    spans: Optional[List[Span]] = None
    #: metrics timeline when ``metrics_interval`` was set, else None
    metrics: Optional[List[MetricsSample]] = None
    #: path of the written JSONL trace when ``trace`` was a path
    trace_path: Optional[str] = None
    #: registry snapshot when ``telemetry=True`` was requested, else None
    telemetry: Optional[dict] = None
    #: wall-clock section attribution when ``profile=True``, else None
    profile: Optional[dict] = None
    #: invariant-checker report when ``check=`` was requested, else None
    #: (violation counts, oracle stats, and the ``state_digest`` of the
    #: final logical state for differential comparisons)
    check: Optional[dict] = None
    #: path of the written run-artifact directory when ``artifact_dir``
    #: was set, else None (see :mod:`repro.obs.artifact`)
    artifact: Optional[str] = None

    @property
    def iops(self) -> float:
        return self.stats.iops

    def to_dict(self) -> dict:
        """The schema-v2 result dict (same as ``stats.to_dict()``)."""
        return self.stats.to_dict()

    def breakdown(self) -> str:
        """Per-stage-group latency decomposition of the recorded trace."""
        from repro.obs.analyze import breakdown_report, load_trace

        if self.spans is not None:
            return breakdown_report(self.spans)
        if self.trace_path is not None:
            return breakdown_report(load_trace(self.trace_path))
        raise ValueError("run with trace='memory' or trace=PATH first")

    def telemetry_report(self) -> str:
        """ASCII heatmaps/histograms of the device telemetry snapshot."""
        from repro.obs.analyze import telemetry_report

        if self.telemetry is None:
            raise ValueError("run with telemetry=True first")
        return telemetry_report(self.telemetry)


def _device_config(config: SSDConfig, check_config) -> SSDConfig:
    """The config a run's device is built from under ``check_config``."""
    if check_config is not None and not config.store_tags:
        # the data-integrity oracle reads content tags back; forcing
        # store_tags on changes only what the chips *remember*, never
        # any timing or random draw, so checked and unchecked runs stay
        # event-for-event identical
        return replace(config, store_tags=True)
    return config


def _prefill_key(spec: SimulationSpec) -> Optional[tuple]:
    """What the prefilled device of ``spec`` depends on, or None when
    the run must prefill for real (see :mod:`repro.parallel.prefill`).

    The seed, workload, warm-up and host reach only the replay.  Runs
    with a telemetry registry prefill for real because the device
    collectors count prefill programs; resumed runs restore their
    checkpoint instead, and checkpointed runs keep the cost of a whole
    run in their host time.
    """
    from repro.check import parse_check_level

    options = spec.options
    if (
        spec.prefill == 0
        or options.telemetry
        or options.artifact_dir is not None
        or options.checkpoint_every is not None
        or options.resume_from is not None
    ):
        return None
    ftl_kwargs = tuple(sorted(spec.ftl_kwargs.items()))
    if not all(
        isinstance(value, (bool, int, float, str, type(None)))
        for _, value in ftl_kwargs
    ):
        # a list from a JSON spec does not hash, and an object argument
        # (a caller-built OPM) carries state no image captures
        return None
    check_config = parse_check_level(options.check)
    return (
        _device_config(spec.config, check_config),
        spec.ftl,
        ftl_kwargs,
        spec.prefill,
        # a checker's oracle is part of the captured state
        check_config,
    )


def build_simulation(
    spec: SimulationSpec, check, workload: str, **wiring
) -> Tuple[SSDSimulation, Optional["InvariantChecker"]]:
    """Build the (unprefilled) simulation a spec runs on.

    ``check`` is any ``check=`` value (see
    :func:`repro.check.parse_check_level`); when it enables checking,
    an :class:`~repro.check.InvariantChecker` is attached, its report
    context naming ``workload``.  ``wiring`` (``tracer``, ``telemetry``,
    ``profiler``) passes through to
    :class:`~repro.ssd.controller.SSDSimulation`.
    """
    from repro.check import InvariantChecker, parse_check_level

    checker = None
    check_config = parse_check_level(check)
    config = _device_config(spec.config, check_config)
    if check_config is not None:
        checker = InvariantChecker(check_config)
        checker.context.update(
            ftl=spec.ftl,
            workload=workload,
            seed=spec.seed,
            check=check_config.level,
        )
    sim = SSDSimulation(
        config, ftl=spec.ftl, checker=checker, **wiring, **spec.ftl_kwargs
    )
    return sim, checker


def run_spec(spec: SimulationSpec) -> SimulationResult:
    """Build, prefill (or restore), and run the simulation one spec
    describes.

    Every option lives on the spec (:class:`~repro.specs.RunOptions`):
    ``trace`` (``"memory"`` or a JSONL path), ``metrics_interval``,
    ``telemetry``, ``profile``, ``check``, ``max_events``, the
    checkpoint group ``checkpoint_every`` / ``checkpoint_dir`` /
    ``resume_from`` (see :class:`repro.persist.driver.Checkpointing`)
    and ``artifact_dir`` / ``artifact_every`` (see
    :mod:`repro.obs.artifact`).  All off by default, and an off option
    leaves the run bit-for-bit the bare run.
    """
    host = spec.host
    options = spec.options
    checkpoints = None
    if options.checkpoint_every is not None or options.resume_from is not None:
        incompatible = {
            "trace": options.trace,
            "profile": options.profile or None,
            "metrics_interval": options.metrics_interval,
            "open_loop": host.mode if host.mode != "closed" else None,
            "max_events": options.max_events,
            "tenants": host.tenants or None,
            "artifact_dir": options.artifact_dir,
        }
        bad = sorted(key for key, value in incompatible.items() if value)
        if bad:
            raise ValueError(
                f"checkpointing is incompatible with {', '.join(bad)} "
                "(see docs/PERSISTENCE.md)"
            )
        from repro.persist.driver import Checkpointing, restore_state

        checkpoints = Checkpointing(spec)
        # on resume the header is authoritative for the queue depth,
        # warm-up and check level
        spec = checkpoints.spec
        host, options = spec.host, spec.options

    artifacts = options.artifact_dir is not None
    tracer: Optional[Tracer] = None
    sink = None
    if options.trace is not None:
        sink = (
            InMemorySink() if options.trace == "memory"
            else JsonlSink(options.trace)
        )
        tracer = Tracer(sink)
    exemplars = None
    if artifacts:
        from repro.obs.exemplars import ExemplarRecorder
        from repro.obs.trace import NullSink

        # exemplars ride the span stream: give an artifact-only run a
        # tracer over a null sink, and wrap whichever sink is active so
        # the requested trace output is unchanged byte for byte
        if tracer is None:
            tracer = Tracer(NullSink())
        exemplars = ExemplarRecorder(tracer.sink, seed=spec.seed)
        tracer.sink = exemplars
        tracer.exemplars = exemplars
    # artifacts always embed a telemetry time-series, even when the
    # caller did not ask for result.telemetry
    registry = (
        TelemetryRegistry() if (options.telemetry or artifacts) else None
    )
    profiler = WallClockProfiler() if options.profile else None
    if profiler is not None:
        profiler.push("setup")
    sim, checker = build_simulation(
        spec,
        options.check,
        spec.workload_name,
        tracer=tracer,
        telemetry=registry,
        profiler=profiler,
    )
    # the periodic samplers, in start order: metrics, then time series
    samplers = []
    metrics = recorder = None
    if options.metrics_interval is not None:
        from repro.obs.metrics import MetricsSampler

        metrics = MetricsSampler(sim.ftl, options.metrics_interval)
        samplers.append(metrics)
    if artifacts:
        from repro.obs.timeseries import (
            DEFAULT_INTERVAL_US,
            TimeSeriesRecorder,
        )

        recorder = TimeSeriesRecorder(
            registry,
            sim.controller.engine,
            interval_us=options.artifact_every or DEFAULT_INTERVAL_US,
        )
        samplers.append(recorder)
    # live progress is independent of artifacts: any run may report to
    # the process-wide sink the shard pool installed (None otherwise)
    from repro.parallel.progress import get_progress_sink, make_progress_hook

    progress_sink = get_progress_sink()
    if progress_sink is not None:
        sim.progress = make_progress_hook(progress_sink)
    if checkpoints is not None and checkpoints.state is not None:
        # no prefill: the checkpoint carries the full media state
        restore_state(sim, checkpoints.state)
    elif spec.prefill > 0:
        from repro.parallel.prefill import get_prefill_images

        images = get_prefill_images()
        if images is not None:
            images.prefill(sim, spec.prefill, _prefill_key(spec))
        else:
            sim.prefill(spec.prefill)
    trace = spec.build_trace()
    if profiler is not None:
        profiler.pop()
    segmenting = (
        checkpoints.replay_kwargs(sim, trace) if checkpoints is not None else {}
    )
    from repro.ssd.host import replay

    try:
        stats = replay(
            sim,
            trace,
            mode=host.mode,
            queue_depth=host.queue_depth,
            warmup_requests=spec.warmup_requests,
            max_events=options.max_events,
            samplers=samplers,
            **segmenting,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if metrics is not None:
        stats.metrics = metrics.records
    # finalize before the telemetry snapshot so collected gauges include
    # the end-of-run deep audit
    check_report = checker.finalize() if checker is not None else None
    profile_report = profiler.to_dict() if profiler is not None else None
    artifact_path = None
    if artifacts:
        from repro.obs.artifact import write_artifact

        artifact_path = write_artifact(
            options.artifact_dir,
            spec,
            stats,
            timeseries=recorder,
            exemplars=exemplars,
            telemetry=registry.snapshot(),
            profile=profile_report,
            check=check_report,
        )
    return SimulationResult(
        stats=stats,
        spans=sink.spans if isinstance(sink, InMemorySink) else None,
        metrics=stats.metrics,
        trace_path=(
            options.trace if options.trace not in (None, "memory") else None
        ),
        # result.telemetry keeps its opt-in shape: artifact runs embed
        # the snapshot in the artifact without changing --json output
        telemetry=(
            registry.snapshot()
            if registry is not None and options.telemetry
            else None
        ),
        profile=profile_report,
        check=check_report,
        artifact=artifact_path,
    )


@dataclass
class BatchResult:
    """What :func:`run_many` produced for a batch of named runs.

    ``results`` is aligned with the input specs (input order, not
    completion order); a failed run leaves ``None`` there and an entry
    in ``errors`` (so does a run an interrupt stopped before it ran, but
    without the entry).  ``telemetry`` is the combined registry snapshot
    merged across the specs that requested telemetry (see
    :func:`repro.parallel.merge.merge_snapshots` for the per-kind merge
    semantics), or ``None`` when no spec did.  ``wall_clock_s`` and
    ``peak_rss_kb`` hold, per run, the host time around the run alone
    and the peak RSS of the process that ran it (``None`` for a failed
    run).
    """

    names: List[str]
    results: List[Optional[SimulationResult]]
    errors: Dict[str, str] = field(default_factory=dict)
    telemetry: Optional[dict] = None
    #: names of runs relaunched after a worker hard-died (``retries=``)
    retried: List[str] = field(default_factory=list)
    #: names of runs loaded from a sweep checkpoint dir instead of run
    cached: List[str] = field(default_factory=list)
    wall_clock_s: List[Optional[float]] = field(default_factory=list)
    peak_rss_kb: List[Optional[int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def result_for(self, name: str) -> SimulationResult:
        result = self.results[self.names.index(name)]
        if result is None:
            raise KeyError(
                f"run {name!r} failed: {self.errors.get(name, 'unknown error')}"
            )
        return result


def _batch_result(names: List[str], outcomes: list) -> BatchResult:
    """Fold per-run outcomes (``None`` for a run that never ran) into a
    :class:`BatchResult`."""
    from repro.parallel.merge import merge_snapshots

    batch = BatchResult(names=names, results=[])
    relaunches = 0
    for outcome in outcomes:
        landed = outcome is not None
        batch.results.append(outcome.result if landed and outcome.ok else None)
        batch.wall_clock_s.append(outcome.wall_clock_s if landed else None)
        batch.peak_rss_kb.append(outcome.peak_rss_kb if landed else None)
        if not landed:
            continue
        if not outcome.ok:
            batch.errors[outcome.name] = outcome.error or "unknown error"
        if outcome.relaunches:
            batch.retried.append(outcome.name)
        if outcome.cached:
            batch.cached.append(outcome.name)
        else:
            relaunches += outcome.relaunches
    telemetered = [
        r.telemetry for r in batch.results if r is not None and r.telemetry is not None
    ]
    if batch.retried:
        registry = TelemetryRegistry()
        registry.counter(
            "shard_retries_total",
            "shards relaunched after a worker died without reporting",
        ).inc(relaunches)
        telemetered.append(registry.snapshot())
    batch.telemetry = merge_snapshots(telemetered) if telemetered else None
    return batch


def run_many(
    specs: Sequence["RunSpec"],
    jobs: int = 1,
    base_seed: int = 7,
    on_progress: Optional[Callable[[str, bool], None]] = None,
    retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    on_heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> BatchResult:
    """Run a batch of :class:`~repro.parallel.RunSpec` runs across up to
    ``jobs`` worker processes.

    The batch result is a pure function of ``(specs, base_seed)``: each
    spec's seed is its pinned ``seed`` or ``derive_seed(base_seed,
    spec.name)``, runs are crash-isolated (a dying worker fails only
    its own run), and results come back in spec order.  ``jobs=1`` runs
    everything inline and is the reference the parallel path reproduces
    bit-for-bit.  Inline runs that share a prefill key (device config,
    FTL, ``ftl_kwargs``, prefill fraction and check level) prefill once
    and restore that device for the rest (see
    :mod:`repro.parallel.prefill`); the results are the same.

    ``on_progress`` (if given) is called with ``(name, ok)`` as each run
    finishes, in completion order.  ``on_heartbeat`` (if given) receives
    ``(name, payload)`` live-progress messages while runs are still in
    flight -- ``payload`` carries ``completed``/``total`` request counts
    and the run's simulated-time watermark ``sim_us`` (see
    :mod:`repro.parallel.progress`).

    ``retries`` relaunches runs whose worker hard-died (same spec, same
    seed); the names of retried runs land in ``BatchResult.retried`` and
    the ``shard_retries_total`` counter in ``BatchResult.telemetry``.
    ``checkpoint_dir`` makes the batch resumable (see
    :mod:`repro.persist.manifest`): completed runs are saved there as
    they land, and a rerun with the same specs and base seed loads them
    (``BatchResult.cached``) and runs only the rest.  A SIGINT raises
    :class:`~repro.parallel.ShardsInterrupted` carrying the partial
    :class:`BatchResult`.
    """
    from repro.parallel.experiments import execute_run_spec, resolve_seed
    from repro.parallel.prefill import prefill_images
    from repro.parallel.runner import ShardsInterrupted, _run_shards, _Shard

    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate RunSpec names {duplicates}: the name is the run's "
            "seed-derivation identity, so it must be unique per run"
        )
    outcomes: list = [None] * len(specs)
    if checkpoint_dir is not None:
        from repro.persist.manifest import load_outcomes, save_outcome

        outcomes = load_outcomes(checkpoint_dir, names, base_seed)
        for outcome in outcomes:
            if outcome is not None and on_progress is not None:
                on_progress(outcome.name, outcome.ok)
    todo = [index for index, outcome in enumerate(outcomes) if outcome is None]

    def landed(position: int, outcome) -> None:
        outcomes[todo[position]] = outcome
        if checkpoint_dir is not None and outcome.ok:
            save_outcome(checkpoint_dir, outcome)
        if on_progress is not None:
            on_progress(outcome.name, outcome.ok)

    shards = [
        _Shard(
            specs[index].name,
            execute_run_spec,
            {"spec": specs[index], "seed": resolve_seed(specs[index], base_seed)},
        )
        for index in todo
    ]
    # inline runs that share a prefill key share one prefill image;
    # spawned workers each prefill their own device
    keys = [_prefill_key(specs[index].spec) for index in todo] if jobs <= 1 else []
    try:
        with prefill_images(keys):
            _run_shards(
                shards, jobs=jobs, on_outcome=landed, retries=retries,
                heartbeat=on_heartbeat,
            )
    except KeyboardInterrupt:
        raise ShardsInterrupted(_batch_result(names, outcomes)) from None
    return _batch_result(names, outcomes)


@dataclass
class TenantScenarioResult:
    """A multi-tenant run plus the per-tenant solo baselines.

    ``shared`` is the all-tenants-together run; ``solo[name]`` replays
    exactly tenant *name*'s stream alone on an identical device (same
    derived seeds, same partition, same arrival process -- the
    per-tenant seed rule guarantees the stream is bit-identical with or
    without the other tenants present).  The difference between the two
    is, by construction, pure cross-tenant interference.
    """

    shared: SimulationResult
    solo: Dict[str, SimulationResult]

    def interference_matrix(self) -> Dict[str, dict]:
        """Per-tenant solo-vs-shared comparison.

        Each row: solo/shared p99 (reads and writes pooled), the p99
        slowdown factor (>= 1 means the tenant is slower when sharing),
        and solo/shared IOPS.
        """
        matrix: Dict[str, dict] = {}
        shared_tenants = self.shared.stats.tenants or {}
        for name, solo_result in self.solo.items():
            solo_slice = (solo_result.stats.tenants or {}).get(name)
            shared_slice = shared_tenants.get(name)
            if solo_slice is None or shared_slice is None:
                continue
            solo_p99 = solo_slice.p99_us
            shared_p99 = shared_slice.p99_us
            matrix[name] = {
                "solo_p99_us": solo_p99,
                "shared_p99_us": shared_p99,
                "p99_slowdown": (shared_p99 / solo_p99) if solo_p99 > 0 else 0.0,
                "solo_iops": solo_slice.iops(solo_result.stats.duration_us),
                "shared_iops": shared_slice.iops(self.shared.stats.duration_us),
            }
        return matrix

    def to_dict(self) -> dict:
        return {
            "scenario": self.shared.to_dict(),
            "solo": {
                name: result.to_dict() for name, result in self.solo.items()
            },
            "interference": self.interference_matrix(),
        }


def run_tenant_scenario(
    spec: SimulationSpec,
    jobs: int = 1,
    on_heartbeat: Optional[Callable[[str, dict], None]] = None,
) -> TenantScenarioResult:
    """Run a multi-tenant spec plus one solo baseline per tenant.

    The shared run and the N solo runs are independent simulations (N+1
    runs total), sharded across up to ``jobs`` workers.  Every run pins
    the scenario's own seed, so the tenant streams in the solo runs are
    bit-identical to their shared-run counterparts and the resulting
    :meth:`~TenantScenarioResult.interference_matrix` isolates
    cross-tenant interference.
    """
    from repro.parallel import RunSpec

    if not spec.host.tenants:
        raise ValueError("run_tenant_scenario needs a spec with host.tenants")
    run_specs = [RunSpec(name="shared", spec=spec, seed=spec.seed)]
    for tenant in spec.host.tenants:
        solo_spec = replace(
            spec, host=replace(spec.host, tenants=(tenant,))
        )
        run_specs.append(
            RunSpec(name=f"solo:{tenant.name}", spec=solo_spec, seed=spec.seed)
        )
    batch = run_many(
        run_specs, jobs=jobs, base_seed=spec.seed, on_heartbeat=on_heartbeat
    )
    if not batch.ok:
        failures = "; ".join(
            f"{name}: {error}" for name, error in sorted(batch.errors.items())
        )
        raise RuntimeError(f"tenant scenario runs failed: {failures}")
    return TenantScenarioResult(
        shared=batch.result_for("shared"),
        solo={
            tenant.name: batch.result_for(f"solo:{tenant.name}")
            for tenant in spec.host.tenants
        },
    )
