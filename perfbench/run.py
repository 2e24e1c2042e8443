"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload oltp-steady --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh child process (``perfbench.rep``), one
at a time, so its CPU time and peak memory are its own.  ``--trace 0``
repeats untraced runs for ``--seconds`` (at least two) and reports
the end-to-end metrics as medians; ``--trace 1`` alternates traced and
untraced runs and reports the per-layer metrics.  Either way one
invariant-checked pass follows, outside the measured time.  The last
line of standard output is the JSON result; details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: make the ``perfbench`` package importable
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: untraced repetitions per run, at least
MIN_REPS = 2
#: an invocation must finish within this many seconds
BUDGET_S = 175.0


class RepFailed(RuntimeError):
    """A child repetition exited abnormally or ran out of time."""


def child(workload: str, seed: int, mode: str, deadline: float, tiny: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    command = [
        sys.executable, "-m", "perfbench.rep",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if tiny:
        command.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed(f"{mode} repetition not started: out of time")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(reps: List[dict], traced: List[dict], checked: dict) -> List[str]:
    """Every correctness problem the repetitions show (empty = correct)."""
    problems = []
    for rep in reps + [checked]:
        label = f"{rep['mode']} repetition"
        for name, error in rep["errors"].items():
            problems.append(f"{label}: run {name} raised: {error.strip().splitlines()[-1]}")
        if rep["completed"] != rep["requests"]:
            problems.append(f"{label}: {rep['completed']} of {rep['requests']} requests completed")
        for finding in rep["audit_failures"]:
            problems.append(f"{label}: mapper audit: {finding}")
        if rep.get("sim", {}).get("uncorrectable_after_recovery"):
            problems.append(f"{label}: reads uncorrectable after recovery")
    simulated = [rep.get("sim") for rep in reps + [checked]]
    if any(sim != simulated[0] for sim in simulated):
        problems.append("simulated metrics differ between repetitions or modes")
    for name, report in checked.get("check", {}).items():
        if report["violations"] or report["data_loss_escapes"]:
            problems.append(
                f"check pass, run {name}: {report['violations']} violations, "
                f"{report['data_loss_escapes']} data-loss escapes"
            )
    for rep in traced:
        problems += [f"traced repetition: {msg}" for msg in metrics.cross_check(rep)]
    return problems


def failed_requests(rep: dict) -> int:
    sim = rep.get("sim", {})
    escapes = sum(
        report["data_loss_escapes"] for report in rep.get("check", {}).values()
    )
    return (
        rep["requests"] - rep["completed"]
        + sim.get("uncorrectable_after_recovery", 0)
        + escapes
    )


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result object to print."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    timed: List[dict] = []
    traced: List[dict] = []
    min_reps = 1 if trace else MIN_REPS
    while len(timed) < min_reps or time.monotonic() - start < seconds:
        if trace:
            traced.append(child(workload, seed, "traced", deadline, tiny))
        timed.append(child(workload, seed, "timed", deadline, tiny))
    checked = child(workload, seed, "check", deadline, tiny)
    reps = timed + traced
    problems = gate(reps, traced, checked)
    for rep in reps:
        print(f"{rep['mode']}: {json.dumps(rep['host'])}", file=sys.stderr)
    for name, report in checked["check"].items():
        print(f"check {name}: state_digest {report['state_digest']}", file=sys.stderr)
    if traced:
        print(json.dumps({"spans": traced[0]["layers"]}, indent=1), file=sys.stderr)
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    all_reps = reps + [checked]
    result = {
        "correct": not problems,
        "attempted": sum(rep["requests"] for rep in all_reps),
        "failed": sum(failed_requests(rep) for rep in all_reps),
        "metrics": {},
    }
    if all("sim" in rep for rep in reps):  # else every run of a rep raised
        if trace:
            values = metrics.per_layer_values(traced, timed)
            catalogue = metrics.per_layer_catalogue()
        else:
            values = metrics.end_to_end_values(timed)
            catalogue = metrics.END_TO_END
        result["metrics"] = {
            entry[0]: {"value": values[entry[0]], "unit": entry[1]} for entry in catalogue
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken device and traces (tests only)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    except RepFailed as error:
        print(f"repetition failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
