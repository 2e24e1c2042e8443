"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

They run every workload at a tiny size on a held-out seed (one not used
while the benchmark was tuned), check the metric catalogue against
``BENCHMARK.json``, and check the traced run against the simulator's
own counters.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from perfbench import metrics
from perfbench.run import ROOT, child, gate
from perfbench.workloads import WORKLOADS

#: a seed no tuning run used
HELD_OUT_SEED = 90417

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_directions():
    catalogue = [entry[:3] for entry in metrics.END_TO_END] + metrics.per_layer_catalogue()
    names = [name for name, _unit, _better in catalogue]
    assert len(names) == len(set(names))
    for name, unit, better in catalogue:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("lower", "higher"), name


def test_manifest_matches_the_catalogue():
    manifest = _manifest()
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == list(WORKLOADS.items())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == metrics.per_layer_catalogue()
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_reps(request):
    """One timed, one traced and one checked tiny repetition of a
    workload, each in its own child process as in a real run."""
    deadline = time.monotonic() + 600
    return tuple(
        child(request.param, HELD_OUT_SEED, mode, deadline, tiny=True)
        for mode in ("timed", "traced", "check")
    )


def test_workload_completes_at_tiny_size(tiny_reps):
    timed, traced, checked = tiny_reps
    assert gate([timed, traced], [traced], checked) == []
    values = metrics.end_to_end_values([timed])
    assert all(values[name] > 0 for name, *_ in metrics.END_TO_END)
    assert set(metrics.per_layer_values([traced], [timed])) == {
        name for name, _unit, _better in metrics.per_layer_catalogue()
    }


def test_workload_stresses_its_layers(tiny_reps):
    timed, traced, _checked = tiny_reps
    layer = metrics.per_layer_values([traced], [timed])
    if timed["workload"] == "oltp-steady":
        assert layer["ftl.erases"] > 0 and layer["ftl.write_amp"] > 1
        assert layer["nand.retries_per_read"] == 0
    elif timed["workload"] == "web-aged":
        assert layer["nand.retries_per_read"] > 0.3
        assert layer["ftl.erases"] <= 8
    else:
        host = timed["host"]
        assert host["setup_s"] > host["wall_s"] / 2


def test_counter_cross_check(tiny_reps):
    _timed, traced, _checked = tiny_reps
    assert metrics.cross_check(traced) == []
    assert traced["layers"]["nand.program_wl.replay"]["calls"] > 0
    broken = json.loads(json.dumps(traced))
    broken["layers"]["nand.program_wl.replay"]["calls"] -= 1
    assert metrics.cross_check(broken)


def test_bare_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web-aged",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_prints_every_end_to_end_metric(capsys):
    from perfbench.run import main

    assert main(["--workload", "oltp-steady", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "0", "--trace", "0", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for name, unit, *_ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
