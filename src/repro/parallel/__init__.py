"""Parallel experiment execution: isolate, merge, reproduce.

:func:`repro.api.run_many` is the one way to run a batch of named runs
(benchmark cases, fault campaigns, parameter sweeps, resumed sweeps):
it runs them across worker processes with per-run crash isolation and
returns exactly what a serial run would have produced.  This package
holds its parts:

- :mod:`~repro.parallel.experiments` -- ``RunSpec``: a picklable
  description of one named run, and ``resolve_seed``.
- :mod:`~repro.parallel.seeds` -- the fixed seed-derivation rule
  (``derive_seed``): a run's seed depends only on the base seed and the
  run's name.
- :mod:`~repro.parallel.runner` -- the process pool private to
  ``run_many``: one process per in-flight run, a dying worker yields a
  failed run instead of killing the batch, results always return in
  input order; ``ShardsInterrupted`` carries the partial batch of an
  interrupted one.
- :mod:`~repro.parallel.merge` -- ``merge_snapshots``: fold per-run
  telemetry registries into one combined snapshot.
- :mod:`~repro.parallel.progress` -- the process-wide live-progress
  sink: running workers stream ``completed``/``total``/``sim_us``
  heartbeats back over their result pipes for the CLI status line.
- :mod:`~repro.parallel.prefill` -- prefill images: an inline batch
  prefills once per device and restores that state for the other runs
  on it.

Together these give the reproducibility contract stated in the docs:
the merged output of a batch is bit-for-bit identical for any worker
count and any completion order.
"""

from repro.parallel.experiments import RunSpec, resolve_seed
from repro.parallel.merge import merge_snapshots
from repro.parallel.progress import (
    get_progress_sink,
    make_progress_hook,
    set_progress_sink,
)
from repro.parallel.runner import ShardsInterrupted
from repro.parallel.seeds import derive_seed

__all__ = [
    "RunSpec",
    "ShardsInterrupted",
    "derive_seed",
    "get_progress_sink",
    "make_progress_hook",
    "merge_snapshots",
    "resolve_seed",
    "set_progress_sink",
]
