"""Flash translation layers.

- :class:`PageFTL` -- the PS-unaware page-mapping baseline.
- :class:`VertFTL` -- the inter-layer-variability baseline (conservative
  offline V_final-only adjustment, after Hung et al. [13]).
- :class:`CubeFTL` -- the paper's PS-aware FTL (OPM + WAM + MOS); with
  ``wam_enabled=False`` it becomes the cubeFTL- ablation of Section 6.3.
- :class:`DFTL` -- demand-paged mapping (bounded CMT, translation pages
  in flash) over the pageFTL allocation policy.
"""

from repro.ftl.base import BaseFTL, FTLCounters
from repro.ftl.mapping import PageMapper, UNMAPPED
from repro.ftl.blockmgr import BlockManager, BlockState, OutOfSpaceError
from repro.ftl.pageftl import PageFTL
from repro.ftl.vertftl import VertFTL
from repro.ftl.cubeftl import CubeFTL
from repro.ftl.oracleftl import OracleFTL
from repro.ftl.dftl import DFTL

_FTL_REGISTRY = {
    "page": PageFTL,
    "pageftl": PageFTL,
    "vert": VertFTL,
    "vertftl": VertFTL,
    "cube": CubeFTL,
    "cubeftl": CubeFTL,
    "oracle": OracleFTL,
    "oracleftl": OracleFTL,
    "dftl": DFTL,
}

#: the FTL names ``make_ftl`` (and the CLI's ``--ftl``) accept
FTL_NAMES = ("page", "vert", "cube", "cube-", "oracle", "dftl")


def make_ftl(name, config, controller, **kwargs):
    """Instantiate an FTL by name: one of :data:`FTL_NAMES` ("page",
    "vert", "cube", "cube-", "oracle", "dftl"), case-insensitive, or
    the long forms "pageftl", "vertftl", "cubeftl", "cubeftl-" and
    "oracleftl".

    ``"cube-"`` yields cubeFTL with the WAM disabled (horizontal-first
    allocation), the paper's cubeFTL- configuration.
    """
    key = name.lower()
    if key in ("cube-", "cubeftl-"):
        return CubeFTL(config, controller, wam_enabled=False, **kwargs)
    try:
        cls = _FTL_REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown FTL {name!r}") from None
    return cls(config, controller, **kwargs)


__all__ = [
    "BaseFTL",
    "FTLCounters",
    "PageMapper",
    "UNMAPPED",
    "BlockManager",
    "BlockState",
    "OutOfSpaceError",
    "PageFTL",
    "VertFTL",
    "CubeFTL",
    "OracleFTL",
    "DFTL",
    "FTL_NAMES",
    "make_ftl",
]
