"""Windowed telemetry time-series: periodic registry snapshots, delta-compressed.

A :class:`TimeSeriesRecorder` snapshots a
:class:`~repro.obs.registry.TelemetryRegistry` every ``interval_us`` of
*simulated* time through the same
:class:`~repro.obs.metrics.PeriodicSampler` loop as the
:class:`~repro.obs.metrics.MetricsSampler`: with no recorder attached
the event sequence is bit-for-bit the run without one; with one
attached its events only *read* state, and it is stopped at the last
host completion so the engine clock never advances past the real
workload.

Each snapshot is flattened to scalar keys
(:func:`flatten_snapshot`) and stored as a *delta window*: the first
window carries every key, later windows carry only the keys whose value
changed.  Long runs over multi-billion-op horizons therefore pay for
what moved, not for the whole instrument catalog per window.
:func:`expand_records` inverts the compression for analysis and report
rendering.

Determinism is part of the contract (the run-artifact suite asserts
byte-identical ``timeseries.jsonl`` files for identical seeded runs):
keys are sorted, label values stringified the same way the registry
snapshot stringifies them, and no wall-clock value ever enters a
record.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.metrics import PeriodicSampler

#: default snapshot cadence when ``artifact_every`` is not given (us)
DEFAULT_INTERVAL_US = 1000.0


def flatten_snapshot(snapshot: dict) -> Dict[str, float]:
    """Flatten a registry snapshot into sorted scalar ``key -> value``.

    Key layout: ``name{label=value,...}.field`` where ``field`` is
    ``value`` for counters/gauges and ``count`` / ``sum`` /
    ``bucket[<edge>]`` for histograms.  Unlabelled instruments omit the
    ``{...}`` part.  The result iterates in sorted key order.
    """
    flat: Dict[str, float] = {}
    for name in sorted(snapshot):
        described = snapshot[name]
        for row in described.get("series", []):
            labels = row.get("labels")
            if labels:
                label_part = ",".join(
                    f"{key}={labels[key]}" for key in sorted(labels)
                )
                prefix = f"{name}{{{label_part}}}"
            else:
                prefix = name
            if "value" in row:
                flat[f"{prefix}.value"] = row["value"]
            else:
                flat[f"{prefix}.count"] = row["count"]
                flat[f"{prefix}.sum"] = row["sum"]
                for edge, count in row.get("buckets", {}).items():
                    flat[f"{prefix}.bucket[{edge}]"] = count
    return {key: flat[key] for key in sorted(flat)}


def expand_records(records: Iterable[dict]) -> Tuple[List[float], List[Dict[str, float]]]:
    """Invert the delta compression: ``(timestamps, full windows)``.

    Every returned window carries the complete key set known at that
    time (keys appearing mid-run -- new label combinations -- are absent
    from earlier windows, exactly as they were absent from the live
    registry).
    """
    times: List[float] = []
    windows: List[Dict[str, float]] = []
    current: Dict[str, float] = {}
    for record in records:
        current = dict(current)
        current.update(record["values"])
        times.append(record["t_us"])
        windows.append(current)
    return times, windows


class TimeSeriesRecorder(PeriodicSampler):
    """Engine-driven periodic registry snapshots with delta compression.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.TelemetryRegistry` to snapshot
        (collectors run on every snapshot, so collected gauges are
        point-in-time correct).
    engine:
        The event engine driving simulated time.
    interval_us:
        Simulated microseconds between windows.

    ``records`` holds the delta windows:
    ``{"t_us": ..., "full": ..., "values": {...}}``.
    """

    def __init__(self, registry, engine, interval_us: float = DEFAULT_INTERVAL_US) -> None:
        super().__init__(interval_us)
        self.registry = registry
        self.engine = engine
        self._last: Dict[str, float] = {}

    def _drop_last(self) -> None:
        # rebuild the "previous" view without the dropped window so the
        # replacement's delta is computed against the same base
        self.records.pop()
        _, windows = expand_records(self.records)
        self._last = windows[-1] if windows else {}

    def _take(self) -> None:
        flat = flatten_snapshot(self.registry.snapshot())
        if not self.records:
            delta = flat
            full = True
        else:
            delta = {
                key: value
                for key, value in flat.items()
                if self._last.get(key) != value
            }
            full = False
        self.records.append(
            {"t_us": self.engine.now, "full": full, "values": delta}
        )
        self._last = flat
