"""The metric catalogue and how each metric is derived from repetitions.

End-to-end metrics come from untraced repetitions (median over them);
per-layer metrics come from traced repetitions.  ``BENCHMARK.json``
lists exactly these names, units and directions.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

#: (name, unit, better, bound): what a user of the simulator sees.  Host
#: times get the largest bound allowed: on a shared 2-core host they
#: drift by up to a quarter within minutes (see README.md)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("host_req_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_iops", "1/s", "higher", 0.1),
    ("sim_read_p50_us", "us", "lower", 0.25),
    ("sim_read_p99_us", "us", "lower", 0.25),
    ("sim_write_p50_us", "us", "lower", 0.15),
    ("sim_write_p99_us", "us", "lower", 0.25),
]

#: layers timed in the replay phase: ``<layer>.calls`` and ``<layer>.self_s``
REPLAY_SPANS = (
    "ssd.host.replay",
    "sim.resources.submit",
    "ftl.submit",
    "ftl.allocate_wl",
    "ftl.program_params",
    "ftl.after_program",
    "ftl.read_params",
    "ftl.after_read",
    "ftl.mapping.lookup",
    "ftl.mapping.bind",
    "ftl.mapping.invalidate_lpn",
    "ftl.blockmgr.select_victim",
    "ftl.blockmgr.take_free",
    "ssd.write_buffer.admit",
    "ssd.write_buffer.pop_group",
    "ssd.write_buffer.complete",
    "core.wam.allocate",
    "core.opm.follower_params",
    "core.opm.check_program",
    "core.opm.read_params",
    "core.opm.note_read",
    "nand.program_wl",
    "nand.read_page",
    "nand.erase_block",
)

#: layers timed in the set-up phase (device build, prefill, trace
#: generation): ``<layer>.setup.calls`` and ``<layer>.setup.self_s``
SETUP_SPANS = (
    "workloads.build_trace",
    "ssd.controller.build",
    "ssd.controller.prefill",
    "ftl.allocate_wl",
    "ftl.program_params",
    "ftl.after_program",
    "ftl.mapping.bind",
    "ftl.blockmgr.take_free",
    "core.wam.allocate",
    "nand.program_wl",
)

#: (name, unit, better) of the per-layer metrics that are not span totals
LAYER_SCALARS = [
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_req", "events/req", "lower"),
    ("sim.engine.peak_pending", "count", "lower"),
    ("sim.resources.chip_util", "ratio", "higher"),
    ("ssd.controller.prefill.pages", "count", "lower"),
    ("ftl.erases", "count", "lower"),
    ("ftl.gc_programs", "count", "lower"),
    ("ftl.write_amp", "ratio", "lower"),
    ("ftl.blockmgr.free_min", "blocks", "higher"),
    ("ssd.write_buffer.hit_rate", "ratio", "higher"),
    ("core.wam.follower_frac", "ratio", "higher"),
    ("core.ort.hit_rate", "ratio", "higher"),
    ("nand.retries_per_read", "retries/read", "lower"),
    ("nand.tprog_mean_us", "us", "lower"),
    ("sim.read_samples", "count", "higher"),
    ("sim.write_samples", "count", "higher"),
    ("api.run_many.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_catalogue() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in REPLAY_SPANS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for layer in SETUP_SPANS:
        out += [
            (f"{layer}.setup.calls", "count", "lower"),
            (f"{layer}.setup.self_s", "s", "lower"),
        ]
    return out + LAYER_SCALARS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_values(timed: List[dict]) -> Dict[str, float]:
    """End-to-end metrics: host numbers as medians over the timed
    repetitions, simulated numbers from their (identical) results."""
    host = {
        "wall_s": [rep["host"]["wall_s"] for rep in timed],
        "setup_s": [rep["host"]["setup_s"] for rep in timed],
        "host_req_per_s": [rep["requests"] / rep["host"]["replay_s"] for rep in timed],
        "cpu_s": [rep["host"]["cpu_s"] for rep in timed],
        "peak_rss_mb": [rep["host"]["peak_rss_mb"] for rep in timed],
    }
    values = {name: statistics.median(samples) for name, samples in host.items()}
    sim = timed[0]["sim"]
    for name, _unit, _better, _bound in END_TO_END:
        if name not in values:
            values[name] = sim[name]
    return values


def per_layer_values(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: span times as medians over the traced
    repetitions, counts and ratios from their (identical) results."""

    def span(key: str, field: str) -> float:
        return statistics.median(rep["layers"].get(key, {}).get(field, 0.0) for rep in traced)

    values: Dict[str, float] = {}
    for layer in REPLAY_SPANS:
        values[f"{layer}.calls"] = span(f"{layer}.replay", "calls")
        values[f"{layer}.self_s"] = span(f"{layer}.replay", "self_s")
    for layer in SETUP_SPANS:
        values[f"{layer}.setup.calls"] = span(f"{layer}.setup", "calls")
        values[f"{layer}.setup.self_s"] = span(f"{layer}.setup", "self_s")
    rep = traced[0]
    sim = rep["sim"]
    programs = sim["flash_programs"] + sim["gc_programs"]
    flash_reads = sim["flash_reads"] + sim["gc_reads"]
    traced_wall = statistics.median(r["host"]["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["host"]["wall_s"] for r in untraced)
    values.update(
        {
            "sim.engine.self_s": span("sim.engine.replay", "self_s"),
            "sim.engine.events": sim["engine_events"],
            "sim.engine.events_per_req": _ratio(sim["engine_events"], rep["requests"]),
            "sim.engine.peak_pending": sim["engine_peak_pending"],
            "sim.resources.chip_util": _ratio(sim["chip_busy_us"], sim["chip_time_us"]),
            "ssd.controller.prefill.pages": rep["prefill_pages"],
            "ftl.erases": sim["erases"],
            "ftl.gc_programs": sim["gc_programs"],
            "ftl.write_amp": _ratio(programs, sim["flash_programs"]),
            "ftl.blockmgr.free_min": min(
                value for value in (sim["free_blocks_min"], rep["free_min"]) if value is not None
            ),
            "ssd.write_buffer.hit_rate": _ratio(sim["buffer_read_hits"], sim["host_read_pages"]),
            "core.wam.follower_frac": _ratio(
                sim["wam_followers"], sim["wam_leaders"] + sim["wam_followers"]
            ),
            "core.ort.hit_rate": _ratio(sim["ort_hits"], sim["ort_lookups"]),
            "nand.retries_per_read": _ratio(sim["read_retries"], flash_reads),
            "nand.tprog_mean_us": _ratio(sim["program_time_us"], programs),
            "sim.read_samples": sim["sim_read_samples"],
            "sim.write_samples": sim["sim_write_samples"],
            "api.run_many.overhead_s": span("api.run_many.setup", "self_s"),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    return values


def cross_check(rep: dict) -> List[str]:
    """Compare a traced repetition's span counts with the simulator's
    own counters; a mismatch means a call escaped the wrappers."""
    sim = rep["sim"]
    layers = rep["layers"]

    def calls(key: str) -> int:
        return layers.get(key, {}).get("calls", 0)

    expected = {
        "nand.program_wl.replay": sim["leader_programs"] + sim["follower_programs"],
        "nand.erase_block.replay": sim["erases"],
        "ftl.submit.replay": rep["requests"],
    }
    return [
        f"{key}: {calls(key)} calls, counters say {want}"
        for key, want in expected.items()
        if calls(key) != want
    ]
