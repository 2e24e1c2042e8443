"""Command-line interface.

Ten subcommands cover the common flows::

    repro-ssd characterize --chips 4 --blocks 8
        run the Section 3 study and print Delta-H / Delta-V summaries

    repro-ssd simulate --ftl cube --workload OLTP --pe 2000 --retention 12
        replay one workload against one FTL and print the stats

    repro-ssd compare --workload Proxy --pe 2000 --retention 12
        replay one workload against pageFTL / vertFTL / cubeFTL / DFTL and
        print the normalized comparison (one Fig. 17 slice)

    repro-ssd sweep --ftls page,cube --workloads OLTP,Proxy \\
            --aging 0:0 2000:12 --jobs 4
        run the cross product of FTLs x workloads x aging states (x fault
        campaigns), sharded over worker processes; each cell's seed is
        derived only from the base seed and the cell's name, so the sweep
        output is identical for any --jobs value

    repro-ssd fuzz --seed 7 --ops 400 --check=strict
        replay one seeded random workload through several FTLs under the
        runtime invariant checker and diff their final logical state

    repro-ssd tenants --rate 20000 --json scenario.json
        run a multi-tenant scenario (shared device plus per-tenant solo
        baselines) and print the interference matrix

    repro-ssd contract --workload trace:msr.csv
        score a workload or recorded trace against the unwritten flash
        contract (alignment, sequentiality, locality, death-time grouping)

    repro-ssd spor --ftl cube --workload OLTP --spor-at 20000
        cut power mid-run, recover the FTL from per-page OOB metadata,
        and verify the recovered device against the shadow-store oracle

    repro-ssd report runs/<run_id>
        render the ASCII dashboard of a run artifact written with
        --artifacts (latency CDF, telemetry sparklines, tail exemplars)

    repro-ssd diff runs/<a> runs/<b>
        compare two run artifacts metric by metric with tolerance
        verdicts (exit 1 on regression, 2 on schema mismatch)

Every flag is declared once, in :data:`_FLAGS`; each subcommand lists
the flags it takes with its own defaults in :data:`_COMMANDS`.  Every
run-taking subcommand turns its flags into one
:class:`~repro.specs.SimulationSpec` through :func:`_spec_from_args`.
``simulate``, ``sweep`` and ``tenants`` accept ``--spec FILE`` with a
JSON/TOML spec in place of the run flags; the run-option flags
(``--trace``, ``--metrics-interval``, ``--telemetry``, ``--profile``,
``--check``, ``--checkpoint``/``--checkpoint-every``, ``--resume``,
``--artifacts``, ``--artifact-every``) apply on top of either form.
Everywhere a workload name is accepted, a ``trace:<path>`` reference
replays a recorded block trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.api import run_spec
from repro.faults import CAMPAIGNS, get_campaign
from repro.ftl import FTL_NAMES
from repro.nand.reliability import AgingState
from repro.obs.log import LEVELS, configure_logging, get_logger, log_event
from repro.specs import (
    HostSpec,
    SimulationSpec,
    TenantSpec,
    WorkloadSpec,
    load_spec_file,
)
from repro.ssd.config import SSDConfig
from repro.workloads import WORKLOAD_GENERATORS, is_trace_path

# fixed name so `python -m repro.cli` and the installed entry point
# emit identical logger= fields
logger = get_logger("repro.cli")


def _workload_arg(value: str) -> str:
    """Accept a registry workload name or a ``trace:<path>`` reference."""
    if is_trace_path(value) or value in WORKLOAD_GENERATORS:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown workload {value!r}; choose from "
        f"{sorted(WORKLOAD_GENERATORS)} or a trace:<path> reference"
    )


#: every optional flag: its argparse keywords except ``default``, which
#: each subcommand sets in ``_COMMANDS``.  Help text is %-formatted by
#: argparse, so a literal percent sign must be written ``%%``.
_FLAGS = {
    "--log-level": dict(
        choices=LEVELS,
        help="threshold for structured 'REPRO key=value' diagnostics on "
        "stderr (default: %(default)s)",
    ),
    # -- the run --------------------------------------------------------
    "--spec": dict(
        metavar="FILE",
        help="take the run from a SimulationSpec JSON/TOML file (see "
        "docs/WORKLOADS.md) in place of the run flags; the run-option "
        "flags (--trace, --metrics-interval, --telemetry, --profile, "
        "--check, --checkpoint, --resume, --artifacts, --artifact-every) "
        "still apply on top of it",
    ),
    "--workload": dict(
        type=_workload_arg,
        metavar="NAME",
        help="workload name "
        f"({', '.join(sorted(WORKLOAD_GENERATORS))}) or a "
        "trace:<path> reference to a recorded block trace "
        "(default: %(default)s)",
    ),
    "--ftl": dict(choices=FTL_NAMES, help="FTL variant (default: %(default)s)"),
    "--cmt-capacity": dict(
        type=int,
        metavar="ENTRIES",
        help="dftl only: cached-mapping-table capacity in L2P entries "
        "(default: the FTL's built-in 64)",
    ),
    "--pe": dict(type=int, help="pre-cycled P/E count"),
    "--retention": dict(type=float, help="retention months"),
    "--requests": dict(
        type=int, help="host requests in the stream (default: %(default)s)"
    ),
    "--warmup": dict(
        type=int,
        help="leading requests left out of the statistics "
        "(default: %(default)s)",
    ),
    "--queue-depth": dict(
        type=int, help="host queue depth (default: %(default)s)"
    ),
    "--blocks-per-chip": dict(
        type=int,
        help="blocks per chip of the 2-channel x 4-chip device "
        "(default: %(default)s)",
    ),
    "--prefill": dict(
        type=float,
        help="fraction of the logical space written before the run "
        "(default: %(default)s)",
    ),
    "--seed": dict(
        type=int,
        help="run seed; sweep runs each cell with derive_seed(seed, "
        "cell_name), and fuzz reproduces a failing report from it "
        "(default: %(default)s)",
    ),
    "--faults": dict(
        choices=sorted(CAMPAIGNS),
        help="fault-injection campaign (default: %(default)s)",
    ),
    # -- run options ----------------------------------------------------
    "--check": dict(
        nargs="?",
        const="on",
        choices=["on", "strict"],
        help="attach the runtime invariant checker (bare --check: "
        "per-event invariants + data-integrity oracle + one deep "
        "audit at the end; --check=strict: also deep-audit after "
        "every erase and periodically); any violation aborts with "
        "the offending LPN/PPN/block and timestamp",
    ),
    "--trace": dict(
        metavar="PATH",
        help="stream a request-lifecycle span trace (JSONL) to PATH and "
        "print the per-stage latency breakdown",
    ),
    "--metrics-interval": dict(
        metavar="US",
        type=float,
        help="sample time-sliced metrics every US simulated microseconds "
        "and print the timeline",
    ),
    "--telemetry": dict(
        action="store_true",
        help="record device telemetry (per-die busy time, queue depths, "
        "per-h-layer retries / tPROG, ORT hits); simulate prints the "
        "heatmaps, and --json output embeds the snapshot",
    ),
    "--profile": dict(
        action="store_true",
        help="attribute host wall-clock time to subsystems (FTL, NAND "
        "model, event queue, tracing) and print the table",
    ),
    "--checkpoint": dict(
        metavar="DIR",
        help="write a resumable checkpoint into DIR every "
        "--checkpoint-every completed requests (see docs/PERSISTENCE.md)",
    ),
    "--checkpoint-every": dict(
        metavar="N",
        type=int,
        help="checkpoint cadence in completed host requests "
        "(default: %(default)s; only with --checkpoint)",
    ),
    "--resume": dict(
        metavar="CKPT",
        help="resume from a checkpoint directory (ckpt_NNNNNNNN); the "
        "continued run is byte-identical to the uninterrupted one",
    ),
    "--artifacts": dict(
        metavar="DIR",
        help="write a self-contained run artifact (spec, result, latency "
        "grids, telemetry time-series, tail exemplars, typed manifest) "
        "per run under DIR, plus a sweep.json index for sweep; inspect "
        "them with 'repro-ssd report' and 'repro-ssd diff'",
    ),
    "--artifact-every": dict(
        metavar="US",
        type=float,
        help="telemetry time-series window in simulated microseconds "
        "for the artifact (default: 1000)",
    ),
    # -- command-specific -----------------------------------------------
    "--json": dict(
        metavar="PATH", help="also write the command's results as JSON to PATH"
    ),
    "--chips": dict(type=int),
    "--blocks": dict(type=int),
    "--report": dict(
        metavar="PATH",
        help="write a full markdown characterization report to PATH",
    ),
    "--ops": dict(
        type=int,
        help="host requests in the generated trace (default: %(default)s)",
    ),
    "--ftls": dict(
        help="comma-separated FTL variants, any of "
        f"{'/'.join(FTL_NAMES)} (default: %(default)s)",
    ),
    "--workloads": dict(
        help="comma-separated workload names (default: %(default)s)"
    ),
    "--aging": dict(
        nargs="+",
        metavar="PE:MONTHS",
        help="aging states as PE:MONTHS pairs, e.g. --aging 0:0 2000:12 "
        "(default: fresh only)",
    ),
    "--jobs": dict(
        type=int,
        help="worker processes to shard the runs across; results are "
        "identical for any value (default: %(default)s)",
    ),
    "--checkpoint-dir": dict(
        metavar="DIR",
        help="save per-cell results into DIR as they complete; an "
        "interrupted sweep rerun with the same DIR (and the same cells "
        "and seed) reruns only the unfinished cells",
    ),
    "--retries": dict(
        type=int,
        metavar="N",
        help="relaunch a cell whose worker hard-died (segfault, OOM "
        "kill) up to N times with the same derived seed "
        "(default: %(default)s)",
    ),
    "--requests-per-tenant": dict(
        type=int,
        help="requests per tenant stream in the built-in scenario "
        "(default: %(default)s)",
    ),
    "--rate": dict(
        type=float,
        help="per-tenant arrival rate in IOPS for the built-in "
        "scenario (default: %(default)s)",
    ),
    "--spor-at": dict(
        metavar="US",
        type=float,
        help="simulated microsecond of the power cut (default: the "
        "'spor' campaign's instant)",
    ),
    "--html": dict(
        metavar="PATH",
        help="also write the dashboard as a single self-contained HTML "
        "page to PATH",
    ),
    "--tolerance": dict(
        type=float,
        help="relative change beyond which a worse gated metric is a "
        "regression (default: %(default)s)",
    ),
}

#: the run flags of the single-run commands (simulate, compare, spor)
_RUN_FLAGS = {
    "--workload": "OLTP",
    "--pe": 0,
    "--retention": 0.0,
    "--requests": 8000,
    "--warmup": 2500,
    "--queue-depth": 32,
    "--blocks-per-chip": 48,
    "--prefill": 0.9,
    "--seed": 7,
    "--faults": "none",
    "--check": None,
}

#: subcommand -> (help, {flag: default})
_COMMANDS = {
    "characterize": (
        "run the Section 3 process-characterization study",
        {"--chips": 4, "--blocks": 8, "--report": None},
    ),
    "simulate": (
        "replay a workload on one FTL",
        {
            "--ftl": "cube", "--cmt-capacity": None, "--spec": None,
            "--json": None, "--trace": None, "--metrics-interval": None,
            "--telemetry": False, "--profile": False, "--checkpoint": None,
            "--checkpoint-every": 1000, "--resume": None,
            "--artifacts": None, "--artifact-every": None, **_RUN_FLAGS,
        },
    ),
    "compare": (
        "replay a workload on pageFTL, vertFTL, cubeFTL and DFTL",
        _RUN_FLAGS,
    ),
    "fuzz": (
        "differential fuzz: replay one seeded random workload through "
        "several FTLs under the invariant checker and diff the final "
        "logical state",
        {
            "--seed": 7, "--ops": 400, "--ftls": "page,vert,cube,oracle,dftl",
            "--faults": "none", "--queue-depth": 8, "--prefill": 0.4,
        },
    ),
    "sweep": (
        "run an FTL x workload x aging (x faults) cross product across "
        "worker processes",
        {
            "--spec": None, "--ftls": "page,vert,cube", "--workloads": "OLTP",
            "--aging": ["0:0"], "--jobs": 1, "--requests": 2000,
            "--warmup": 500, "--queue-depth": 32, "--blocks-per-chip": 16,
            "--prefill": 0.5, "--seed": 7, "--telemetry": False,
            "--json": None, "--checkpoint-dir": None, "--retries": 0,
            "--artifacts": None,
        },
    ),
    "tenants": (
        "run a multi-tenant scenario (shared device + per-tenant solo "
        "baselines) and print the interference matrix",
        {
            "--spec": None, "--requests-per-tenant": 2000, "--rate": 20000.0,
            "--ftl": "cube", "--queue-depth": 32, "--blocks-per-chip": 48,
            "--prefill": 0.9, "--seed": 7, "--jobs": 1, "--json": None,
            "--artifacts": None,
        },
    ),
    "report": (
        "render the ASCII dashboard of one run-artifact directory "
        "(latency CDF, telemetry sparklines, slowest-span exemplars, "
        "telemetry deltas)",
        {"--html": None},
    ),
    "diff": (
        "compare two run artifacts metric by metric with tolerance "
        "verdicts (exit 0 clean, 1 regression, 2 schema mismatch)",
        {"--tolerance": 0.10},
    ),
    "contract": (
        "score a workload or trace against the unwritten flash contract "
        "(alignment, sequentiality, locality, death-time grouping)",
        {"--workload": "OLTP", "--requests": 8000, "--blocks-per-chip": 48,
         "--seed": 7, "--json": None},
    ),
    "spor": (
        "sudden-power-off drill: run a workload, cut power mid-run, "
        "recover the FTL from per-page OOB metadata, and verify the "
        "recovered device against the shadow-store oracle",
        {"--ftl": "cube", "--spor-at": None, "--json": None, **_RUN_FLAGS},
    ),
}


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for flag, default in defaults.items():
        parser.add_argument(flag, default=default, **_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="cubeFTL reproduction: characterization and SSD simulation",
    )
    _add_flags(parser, {"--log-level": "warning"})
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (text, defaults) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=text)
        _add_flags(commands[name], defaults)
    # the two flags whose meaning differs from the shared declaration
    commands["sweep"].add_argument(
        "--faults",
        nargs="+",
        choices=sorted(CAMPAIGNS),
        default=["none"],
        help="fault campaigns to sweep over (default: none)",
    )
    commands["fuzz"].add_argument(
        "--check",
        nargs="?",
        const="strict",
        choices=["on", "strict"],
        default="strict",
        help="checker level (default: strict)",
    )
    commands["report"].add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="artifact directory written by --artifacts (runs/<run_id>)",
    )
    commands["diff"].add_argument(
        "run_a", metavar="RUN_A", help="baseline artifact directory"
    )
    commands["diff"].add_argument(
        "run_b", metavar="RUN_B", help="candidate artifact directory"
    )
    return parser


#: run-option flag -> the RunOptions field it sets
_OPTION_FLAGS = {
    "trace": "trace",
    "metrics_interval": "metrics_interval",
    "telemetry": "telemetry",
    "profile": "profile",
    "check": "check",
    "checkpoint": "checkpoint_dir",
    "resume": "resume_from",
    "artifacts": "artifact_dir",
    "artifact_every": "artifact_every",
}


def _spec_from_args(args: argparse.Namespace, **fields) -> SimulationSpec:
    """The one run a subcommand's parsed flags describe.

    ``--spec FILE`` is loaded as written.  Otherwise the run flags the
    subcommand has build the spec, and ``fields`` supply the
    :class:`SimulationSpec` fields it derives itself (sweep's workload,
    tenants' host); a flag the subcommand lacks keeps the spec default.
    Either way, every run-option flag the user gave overrides the
    spec's :class:`~repro.specs.RunOptions` field (``--checkpoint-every``
    only together with ``--checkpoint``).
    """
    flags = vars(args)

    def given(**names) -> dict:
        return {key: flags[flag] for key, flag in names.items() if flag in flags}

    if flags.get("spec"):
        spec = load_spec_file(args.spec)
    else:
        geometry = dataclasses.replace(
            SSDConfig().geometry, blocks_per_chip=args.blocks_per_chip
        )
        faults = flags.get("faults", "none")
        config = SSDConfig(
            geometry=geometry,
            aging=AgingState(**given(pe_cycles="pe", retention_months="retention")),
            # sweep's --faults is a list of campaigns it crosses itself
            faults=get_campaign(faults) if isinstance(faults, str) else None,
        )
        if "workload" in flags:
            fields.setdefault(
                "workload", WorkloadSpec(args.workload, n_requests=args.requests)
            )
        fields.setdefault("host", HostSpec(**given(queue_depth="queue_depth")))
        if flags.get("cmt_capacity") is not None:
            if args.ftl != "dftl":
                raise SystemExit("--cmt-capacity only applies to --ftl dftl")
            fields["ftl_kwargs"] = {"cmt_capacity": args.cmt_capacity}
        spec = SimulationSpec(
            config=config,
            **given(ftl="ftl", warmup_requests="warmup", prefill="prefill",
                    seed="seed"),
            **fields,
        )
    options = {
        field: flags[flag]
        for flag, field in _OPTION_FLAGS.items()
        if flags.get(flag) is not None and flags.get(flag) is not False
    }
    if "checkpoint_dir" in options:
        options["checkpoint_every"] = args.checkpoint_every
    return spec.with_options(**options)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.characterization import experiments as exp
    from repro.characterization.harness import CharacterizationStudy, StudyConfig

    study = CharacterizationStudy(
        StudyConfig(n_chips=args.chips, blocks_per_chip=args.blocks)
    )
    print(f"blocks: {study.config.total_blocks}, WLs: {study.config.total_wls}")
    intra = exp.fig5_intra_layer_ber(study, AgingState(2000, 12.0))
    rows = [
        [name, stats["layer"], f"{stats['delta_h']:.4f}"]
        for name, stats in intra.items()
    ]
    print("\nintra-layer similarity (2K P/E + 1 yr):")
    print(format_table(["h-layer", "index", "Delta-H"], rows))
    inter = exp.fig6_inter_layer_ber(
        study, [AgingState(0, 0), AgingState(2000, 12.0)]
    )
    print("\ninter-layer variability:")
    rows = [
        [f"{pe} P/E + {ret} mo", f"{stats['delta_v']:.2f}"]
        for (pe, ret), stats in inter.items()
    ]
    print(format_table(["condition", "Delta-V"], rows))
    if args.report:
        from repro.characterization.report import build_report

        with open(args.report, "w") as handle:
            handle.write(build_report(study))
        print(f"\nfull report written to {args.report}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = run_spec(spec)
    stats = result.stats
    print(stats.summary())
    if stats.tenants:
        rows = [
            [
                name,
                str(tenant.completed_requests),
                f"{tenant.iops(stats.duration_us):.0f}",
                f"{tenant.p99_us:.0f}",
            ]
            for name, tenant in sorted(stats.tenants.items())
        ]
        print(format_table(["tenant", "requests", "IOPS", "p99 us"], rows))
    counters = stats.counters
    print(
        f"programs: {counters.flash_programs} host + {counters.gc_programs} GC "
        f"(followers {counters.follower_programs}, reprograms {counters.reprograms}); "
        f"mean tPROG {counters.mean_t_prog_us:.0f} us; "
        f"retries/read {counters.mean_num_retry:.2f}; erases {counters.erases}"
    )
    recovery = stats.recovery
    if recovery is not None and recovery.any():
        log_event(
            logger,
            "warning",
            "fault_recovery",
            program_fails=recovery.program_fails,
            erase_fails=recovery.erase_fails,
            blocks_retired=recovery.blocks_retired,
            scrubs=recovery.scrubs,
            ort_invalidations=recovery.ort_invalidations,
            recovered_reads=recovery.recovered_reads,
            uncorrectable=recovery.uncorrectable_after_recovery,
        )
    if result.artifact is not None:
        print(f"artifact written to {result.artifact}")
    if args.resume:
        print(f"resumed from {args.resume}")
    if args.checkpoint:
        every = args.checkpoint_every
        if spec.options.resume_from is not None:
            from repro.persist import read_header

            # a resume keeps the cadence its checkpoint header records
            every = read_header(spec.options.resume_from)["checkpoint_every"]
        print(f"checkpoints in {args.checkpoint} (every {every} requests)")
    if args.trace:
        from repro.obs.analyze import breakdown_report, load_trace

        print(f"\ntrace written to {args.trace}")
        print(breakdown_report(load_trace(args.trace)))
    if args.metrics_interval is not None and result.metrics:
        from repro.obs.analyze import metrics_report

        print()
        print(metrics_report(result.metrics))
    if args.telemetry:
        print()
        print(result.telemetry_report())
    if args.profile:
        from repro.obs.profile import profile_report

        print()
        print(profile_report(result.profile))
    if args.check is not None and result.check is not None:
        oracle = result.check["oracle"]
        print(
            f"check[{result.check['level']}]: 0 violations; "
            f"{oracle['reads_verified'] + oracle['buffer_reads_verified']} "
            f"reads verified, {result.check['deep_scans']} deep audits, "
            f"digest {result.check['state_digest'][:16]}"
        )
    if args.json:
        import json

        payload = stats.to_dict()
        if args.telemetry:
            payload["telemetry"] = result.telemetry
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"stats written to {args.json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    rows = []
    base = None
    for ftl in ("page", "vert", "cube", "dftl"):
        stats = run_spec(dataclasses.replace(spec, ftl=ftl)).stats
        if base is None:
            base = stats.iops
        rows.append(
            [
                stats.ftl_name,
                f"{stats.iops:.0f}",
                f"{stats.iops / base:.2f}",
                f"{stats.counters.mean_t_prog_us:.0f}",
                f"{stats.counters.mean_num_retry:.2f}",
                f"{stats.write_latency.percentile(90):.0f}",
                f"{stats.read_latency.percentile(90):.0f}",
            ]
        )
    print(
        format_table(
            ["FTL", "IOPS", "norm", "tPROG us", "retries/read",
             "write p90 us", "read p90 us"],
            rows,
        )
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import run_fuzz

    ftls = [f for f in args.ftls.split(",") if f]
    if not ftls:
        raise SystemExit("fuzz needs at least one FTL")
    report = run_fuzz(
        seed=args.seed,
        ops=args.ops,
        ftls=ftls,
        level=args.check,
        faults=get_campaign(args.faults),
        queue_depth=args.queue_depth,
        prefill=args.prefill,
    )
    print(report.summary())
    if not report.ok:
        print(
            f"reproduce with: repro-ssd fuzz --seed {args.seed} "
            f"--ops {args.ops} --ftls {args.ftls} --check={args.check}",
            file=sys.stderr,
        )
        return 1
    return 0


def _sweep_specs(args: argparse.Namespace):
    """RunSpecs for the sweep's cross product, in deterministic order.

    Each cell's name encodes every swept dimension, and the name is all
    the seed derivation sees -- so a cell keeps its seed (and its
    results) when other cells are added to or removed from the sweep.
    """
    from repro.parallel import RunSpec

    ftls = [f for f in args.ftls.split(",") if f]
    agings = []
    for pair in args.aging:
        try:
            pe_text, months_text = pair.split(":", 1)
            agings.append(AgingState(int(pe_text), float(months_text)))
        except ValueError:
            raise SystemExit(
                f"bad --aging value {pair!r} (expected PE:MONTHS, e.g. 2000:12)"
            )
    # a spec file brings its own stream; otherwise each --workloads name is one
    streams = [None] if args.spec else [
        WorkloadSpec(name, n_requests=args.requests)
        for name in args.workloads.split(",")
        if name
    ]
    bases = [_spec_from_args(args, workload=stream) for stream in streams]
    specs = []
    for ftl, base, aging, fault in itertools.product(
        ftls, bases, agings, args.faults
    ):
        name = (
            f"{ftl}-{base.workload_name}"
            f"-pe{aging.pe_cycles}-ret{aging.retention_months:g}"
        )
        if fault != "none":
            name += f"-{fault}"
        cell = dataclasses.replace(
            base,
            ftl=ftl,
            config=base.config.with_aging(aging).with_faults(get_campaign(fault)),
        )
        specs.append(RunSpec(name=name, spec=cell))
    return specs


def _heartbeat_printer(n_runs: int):
    """A live single-line progress display for batched runs.

    Returns ``(heartbeat, clear)``: ``heartbeat(name, payload)`` feeds a
    shard's latest ``completed``/``total``/``sim_us`` watermark and
    redraws an aggregate status line on stderr (``\\r``-rewritten on a
    tty, plain lines otherwise); ``clear()`` ends the line so normal
    output continues cleanly.  Display only -- the wall-clock ETA never
    feeds back into any simulation.
    """
    import time

    state: dict = {}
    started = time.monotonic()
    is_tty = sys.stderr.isatty()

    def heartbeat(name: str, payload: dict) -> None:
        state[name] = payload
        done = sum(p.get("completed", 0) for p in state.values())
        total = sum(p.get("total", 0) for p in state.values())
        watermark = max(
            (p.get("sim_us", 0.0) for p in state.values()), default=0.0
        )
        eta = ""
        elapsed = time.monotonic() - started
        if 0 < done < total and elapsed > 0:
            eta = f", ETA {elapsed * (total - done) / done:.0f}s"
        line = (
            f"[{len(state)}/{n_runs} shards] {done}/{total} requests, "
            f"sim t={watermark:.0f}us{eta}"
        )
        if is_tty:
            print(f"\r{line}\x1b[K", end="", file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    def clear() -> None:
        if is_tty and state:
            print(file=sys.stderr)
            state.clear()

    return heartbeat, clear


def _partial_sweep_payload(specs, outcomes, base_seed):
    """Sweep JSON for an interrupted run: whatever completed, flagged
    ``"incomplete": true`` so downstream tooling never mistakes it for
    a full sweep."""
    from repro.parallel import resolve_seed

    by_name = {outcome.name: outcome for outcome in outcomes}
    runs = []
    for spec in specs:
        outcome = by_name.get(spec.name)
        runs.append(
            {
                "name": spec.name,
                "seed": resolve_seed(spec, base_seed),
                "ftl": spec.spec.ftl,
                "workload": spec.spec.workload_name,
                "stats": (
                    outcome.result.stats.to_dict()
                    if outcome is not None and outcome.ok
                    else None
                ),
                "error": outcome.error if outcome is not None else None,
            }
        )
    return {"base_seed": base_seed, "incomplete": True, "runs": runs}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import run_many
    from repro.parallel import ShardsInterrupted, resolve_seed

    specs = _sweep_specs(args)
    if not specs:
        raise SystemExit("sweep is empty: no FTLs or workloads selected")
    print(f"sweep: {len(specs)} cell(s), {args.jobs} job(s)")
    heartbeat, clear_heartbeat = _heartbeat_printer(len(specs))

    def progress(name: str, ok: bool) -> None:
        clear_heartbeat()
        print(f"  {name}: {'done' if ok else 'FAILED'}", flush=True)

    try:
        batch = run_many(
            specs,
            jobs=args.jobs,
            base_seed=args.seed,
            on_progress=progress,
            retries=args.retries,
            checkpoint_dir=args.checkpoint_dir,
            on_heartbeat=heartbeat,
        )
    except ShardsInterrupted as interrupt:
        clear_heartbeat()
        done = len(interrupt.outcomes)
        print(
            f"\ninterrupted: {done}/{len(specs)} cell(s) complete",
            file=sys.stderr,
        )
        if args.json:
            import json

            payload = _partial_sweep_payload(
                specs, interrupt.outcomes, args.seed
            )
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(
                f"partial sweep results written to {args.json}",
                file=sys.stderr,
            )
        if args.checkpoint_dir:
            print(
                f"rerun with --checkpoint-dir {args.checkpoint_dir} to "
                "finish the remaining cells",
                file=sys.stderr,
            )
        return 130
    clear_heartbeat()
    if args.artifacts:
        from repro.obs.artifact import write_sweep_manifest

        cells = {
            spec.name: (result.artifact if result is not None else None)
            for spec, result in zip(specs, batch.results)
        }
        index = write_sweep_manifest(args.artifacts, cells, args.seed)
        print(f"sweep artifact index written to {index}")
    rows = []
    for spec, result in zip(specs, batch.results):
        if result is None:
            rows.append([spec.name, str(resolve_seed(spec, args.seed)),
                         "FAILED", "-", "-", "-"])
            continue
        stats = result.stats
        rows.append(
            [
                spec.name,
                str(resolve_seed(spec, args.seed)),
                f"{stats.iops:.0f}",
                f"{stats.read_latency.percentile(99):.0f}",
                f"{stats.write_latency.percentile(99):.0f}",
                f"{stats.counters.mean_num_retry:.2f}",
            ]
        )
    print(
        format_table(
            ["cell", "seed", "IOPS", "read p99 us", "write p99 us",
             "retries/read"],
            rows,
        )
    )
    if args.json:
        import json

        payload = {
            "base_seed": args.seed,
            "runs": [
                {
                    "name": spec.name,
                    "seed": resolve_seed(spec, args.seed),
                    "ftl": spec.spec.ftl,
                    "workload": spec.spec.workload_name,
                    "stats": result.stats.to_dict() if result else None,
                    "error": batch.errors.get(spec.name),
                    "retried": spec.name in batch.retried,
                    "cached": spec.name in batch.cached,
                }
                for spec, result in zip(specs, batch.results)
            ],
        }
        if batch.telemetry is not None:
            payload["telemetry"] = batch.telemetry
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"sweep results written to {args.json}")
    if batch.errors:
        for name, error in batch.errors.items():
            print(f"FAILED cell {name}:\n{error}", file=sys.stderr)
        return 1
    return 0


def _builtin_tenants(args: argparse.Namespace):
    """The built-in 4-tenant mixed scenario: OLTP, Mail, Web, and Proxy
    streams at the same arrival rate, each confined to one quarter of the
    logical space."""
    names = ("OLTP", "Mail", "Web", "Proxy")
    return tuple(
        TenantSpec(
            name=name.lower(),
            workload=WorkloadSpec(name, n_requests=args.requests_per_tenant),
            rate_iops=args.rate,
            partition=(index * 0.25, (index + 1) * 0.25),
        )
        for index, name in enumerate(names)
    )


def _cmd_tenants(args: argparse.Namespace) -> int:
    from repro.api import run_tenant_scenario

    builtin = HostSpec(
        queue_depth=args.queue_depth, tenants=_builtin_tenants(args)
    )
    spec = _spec_from_args(args, host=builtin)
    if not spec.host.tenants:
        raise SystemExit(
            f"spec {args.spec} has no host.tenants; the tenants "
            "command needs a multi-tenant spec"
        )
    print(
        f"scenario: {', '.join(t.name for t in spec.host.tenants)} "
        f"(ftl={spec.ftl}, queue depth {spec.host.queue_depth}, "
        f"seed {spec.seed})"
    )
    heartbeat, clear_heartbeat = _heartbeat_printer(
        1 + len(spec.host.tenants)
    )
    result = run_tenant_scenario(spec, jobs=args.jobs, on_heartbeat=heartbeat)
    clear_heartbeat()
    if args.artifacts:
        written = [result.shared] + [
            result.solo[t.name] for t in spec.host.tenants
        ]
        paths = [r.artifact for r in written if r.artifact is not None]
        print(f"{len(paths)} run artifact(s) written under {args.artifacts}")
    shared = result.shared.stats
    print(shared.summary())
    matrix = result.interference_matrix()
    rows = [
        [
            name,
            f"{row['solo_iops']:.0f}",
            f"{row['shared_iops']:.0f}",
            f"{row['solo_p99_us']:.0f}",
            f"{row['shared_p99_us']:.0f}",
            f"{row['p99_slowdown']:.2f}x",
        ]
        for name, row in sorted(matrix.items())
    ]
    print("\ninterference vs solo baselines:")
    print(
        format_table(
            ["tenant", "solo IOPS", "shared IOPS", "solo p99 us",
             "shared p99 us", "p99 slowdown"],
            rows,
        )
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        print(f"scenario results written to {args.json}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.artifact import load_artifact, validate_artifact
    from repro.obs.report import render_html, render_report

    problems = validate_artifact(args.run_dir)
    if problems:
        for problem in problems:
            print(f"invalid artifact: {problem}", file=sys.stderr)
        return 2
    artifact = load_artifact(args.run_dir)
    text = render_report(artifact)
    print(text)
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html(artifact, report=text))
        print(f"\nHTML report written to {args.html}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diffing import (
        SchemaDriftError,
        compare_artifacts,
        format_artifact_diff,
    )

    try:
        report = compare_artifacts(
            args.run_a, args.run_b, tolerance=args.tolerance
        )
    except (SchemaDriftError, FileNotFoundError, ValueError) as error:
        print(f"diff failed: {error}", file=sys.stderr)
        return 2
    print("\n".join(format_artifact_diff(report)))
    return 1 if report["problems"] else 0


def _cmd_contract(args: argparse.Namespace) -> int:
    from repro.obs.contract import analyze_contract, contract_report

    trace = _spec_from_args(args).build_trace()
    scores = analyze_contract(trace)
    print(contract_report(scores))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(scores, handle, indent=2, sort_keys=True)
        print(f"contract scores written to {args.json}")
    return 0


def _cmd_spor(args: argparse.Namespace) -> int:
    from repro.persist import run_spor_campaign

    campaign = get_campaign("spor" if args.faults == "none" else args.faults)
    spor_at = args.spor_at
    if spor_at is None:
        spor_at = campaign.spor_at_us
    if spor_at is None:
        raise SystemExit(
            f"campaign {campaign.name!r} has no SPOR instant; pass --spor-at"
        )
    campaign = dataclasses.replace(campaign, spor_at_us=spor_at)
    spec = _spec_from_args(args)
    report = run_spor_campaign(
        dataclasses.replace(spec, config=spec.config.with_faults(campaign))
    )
    print(
        f"SPOR at {report.spor_at_us:.0f} us: "
        f"{report.completed_before}/{report.issued_before} issued requests "
        f"acked before the cut; lost window {report.lost_writes} write(s), "
        f"{report.dropped_reads} read(s) dropped"
    )
    recovery = report.recovery
    print(
        f"recovery: {recovery['mapped_lpns']} LPNs rebuilt from "
        f"{recovery['oob_records']} OOB records, "
        f"{recovery['full_blocks']} block(s) sealed FULL, "
        f"max seq {recovery['max_seq']}"
    )
    oracle = report.check["oracle"]
    verdict = "CLEAN" if report.clean else "VIOLATIONS"
    print(
        f"verification: {verdict}; "
        f"{oracle['reads_verified'] + oracle['buffer_reads_verified']} reads "
        f"verified post-recovery, {report.check['violations']} violation(s), "
        f"mapper audit {'clean' if report.audit is None else report.audit}"
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"SPOR report written to {args.json}")
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(args.log_level)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "tenants":
        return _cmd_tenants(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "contract":
        return _cmd_contract(args)
    if args.command == "spor":
        return _cmd_spor(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
