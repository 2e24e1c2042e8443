"""repro: reproduction of "Exploiting Process Similarity of 3D Flash Memory
for High Performance SSDs" (Shim et al., MICRO 2019).

The package is organized as:

- :mod:`repro.nand` -- a mechanistic 3D NAND flash device model (geometry,
  reliability surfaces, ISPP program engine, read-retry engine, ECC, chip).
- :mod:`repro.core` -- the paper's contribution: process-similarity-aware
  parameter monitoring and reuse (OPM, WAM, VFY skipping, MaxLoop reduction,
  program orders, the optimal-read-offset table).
- :mod:`repro.sim` -- a discrete-event simulation engine.
- :mod:`repro.ssd` -- SSD-level substrate (config, controller, write buffer,
  statistics).
- :mod:`repro.ftl` -- page-level FTLs: ``pageFTL`` (baseline), ``vertFTL``
  (inter-layer-variability baseline) and ``cubeFTL`` (PS-aware).
- :mod:`repro.workloads` -- synthetic trace generators for the six evaluated
  workloads (Mail, Web, Proxy, OLTP, Rocks, Mongo).
- :mod:`repro.characterization` -- the Section 3 characterization study.
- :mod:`repro.analysis` -- CDF / percentile / normalization helpers.
- :mod:`repro.obs` -- request-lifecycle tracing and time-sliced metrics.
- :mod:`repro.specs` -- :class:`~repro.specs.SimulationSpec`, the one
  description of a run.
- :mod:`repro.api` -- the stable facade: :func:`~repro.api.run_spec`
  executes one spec, :func:`~repro.api.run_many` a batch.

The convenience re-exports below resolve lazily so that subpackages can be
imported independently.
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.0.0"

_EXPORTS = {
    "BlockGeometry": "repro.nand.geometry",
    "SSDGeometry": "repro.nand.geometry",
    "PageAddress": "repro.nand.geometry",
    "WLAddress": "repro.nand.geometry",
    "NandTiming": "repro.nand.timing",
    "ReliabilityModel": "repro.nand.reliability",
    "AgingState": "repro.nand.reliability",
    "NandChip": "repro.nand.chip",
    "SSDConfig": "repro.ssd.config",
    "PageFTL": "repro.ftl",
    "VertFTL": "repro.ftl",
    "CubeFTL": "repro.ftl",
    "make_ftl": "repro.ftl",
    "SSDSimulation": "repro.ssd.controller",
    "SimulationResult": "repro.api",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(import_module(module_name), name)


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover - static-analysis convenience
    from repro.api import SimulationResult
    from repro.ftl import CubeFTL, PageFTL, VertFTL, make_ftl
    from repro.nand.chip import NandChip
    from repro.nand.geometry import BlockGeometry, PageAddress, SSDGeometry, WLAddress
    from repro.nand.reliability import AgingState, ReliabilityModel
    from repro.nand.timing import NandTiming
    from repro.ssd.config import SSDConfig
    from repro.ssd.controller import SSDSimulation
