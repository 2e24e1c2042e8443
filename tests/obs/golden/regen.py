#!/usr/bin/env python
"""Regenerate the golden trace after an *intentional* model change::

    PYTHONPATH=src python tests/obs/golden/regen.py

Keep the parameters in lockstep with ``tests/obs/test_golden_trace.py``.
"""

import os

from repro.api import run_spec
from repro.specs import HostSpec, RunOptions, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig

if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace.jsonl")
    run_spec(
        SimulationSpec(
            config=SSDConfig.small(logical_fraction=0.4),
            workload=WorkloadSpec("OLTP", n_requests=120),
            ftl="cube",
            host=HostSpec(queue_depth=8),
            options=RunOptions(trace=path),
            prefill=0.4,
            seed=7,
        )
    )
    print(f"regenerated {path}")
