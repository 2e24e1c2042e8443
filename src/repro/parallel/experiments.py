"""Named runs for :func:`repro.api.run_many`.

:class:`RunSpec` names one simulation run (a benchmark case, one cell of
a parameter sweep, one fault campaign) declaratively, so it pickles into
a worker process; :func:`execute_run_spec` is the module-level call a
worker makes.  A spec runs with the seed :func:`resolve_seed` gives it,
through the fixed derivation rule when the spec does not pin one:

    spec.seed if spec.seed is not None else derive_seed(base_seed, spec.name)

Seeds therefore depend only on (base_seed, name) -- never on worker
count or run-to-worker assignment -- which is what makes sweep results
bit-for-bit reproducible under any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.parallel.seeds import derive_seed
from repro.specs import SimulationSpec


@dataclass(frozen=True)
class RunSpec:
    """One named simulation run: a :class:`~repro.specs.SimulationSpec`
    plus the name that identifies it in a batch.

    ``seed=None`` (the default) means "derive from the base seed and my
    name"; pin an explicit seed to opt out (the benchmark harness does,
    to stay comparable with its committed baselines).  Either way the
    run is ``spec`` with its seed replaced by the resolved one.
    """

    name: str
    spec: SimulationSpec
    seed: Optional[int] = None


def execute_run_spec(spec: RunSpec, seed: int):
    """Worker entry point: run one spec, return its SimulationResult."""
    # looked up at call time, so a patched repro.api.run_spec is honoured
    from repro.api import run_spec

    return run_spec(replace(spec.spec, seed=seed))


def resolve_seed(spec: RunSpec, base_seed: int) -> int:
    """The seed a spec runs with (pinned, or derived from its name)."""
    return spec.seed if spec.seed is not None else derive_seed(base_seed, spec.name)
