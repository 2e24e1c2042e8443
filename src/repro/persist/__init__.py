"""Durability for simulations: checkpoint/restore, SPOR, resumable sweeps.

Three independent layers (see docs/PERSISTENCE.md):

- **Checkpoint/restore** (:mod:`repro.persist.checkpoint`,
  :mod:`repro.persist.driver`): versioned on-disk snapshots of a running
  simulation at quiescent barriers, with byte-identical resume --
  surfaced as the ``checkpoint_every`` / ``checkpoint_dir`` /
  ``resume_from`` options of a spec run through
  :func:`repro.api.run_spec`, and as ``repro-ssd simulate
  --checkpoint/--resume``.  :mod:`repro.parallel.prefill` holds the same
  snapshots in memory so an inline batch prefills once per device.
- **SPOR** (:mod:`repro.persist.spor`): sudden-power-off injection at a
  simulated instant plus OOB-based FTL recovery, verified end-to-end by
  the shadow-store oracle.
- **Resumable sweeps** (:mod:`repro.persist.manifest`): the manifest +
  per-run result directory behind ``run_many(..., checkpoint_dir=...)``
  and ``repro-ssd sweep --checkpoint-dir``, so an interrupted sweep
  reruns only unfinished runs.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_header,
    validate_header,
    write_checkpoint,
)
from repro.persist.driver import capture_state, restore_state
from repro.persist.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestMismatch,
    load_manifest,
    shard_result_path,
    write_manifest,
)
from repro.persist.spor import SporReport, run_spor_campaign

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestMismatch",
    "SporReport",
    "capture_state",
    "config_fingerprint",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "load_manifest",
    "read_header",
    "restore_state",
    "run_spor_campaign",
    "shard_result_path",
    "validate_header",
    "write_checkpoint",
    "write_manifest",
]
