"""Resumable sweeps: manifest + per-run result files.

A sweep checkpoint directory (``run_many(..., checkpoint_dir=DIR)``,
``repro-ssd sweep --checkpoint-dir DIR``) holds

- ``manifest.json`` -- the sweep's identity: schema version, base seed,
  and the ordered run-name list.  A rerun must present the identical
  identity; anything else is a :class:`ManifestMismatch` (silently
  mixing results from two different sweeps is exactly the bug this
  guards against).
- ``shard_<name>_<digest>.pkl`` -- one pickled outcome per
  *successfully completed* run, written as each run lands.

On a rerun :func:`repro.api.run_many` loads every saved outcome
(:func:`load_outcomes`, marked ``cached``), runs only the unfinished
runs, and keeps saving as they complete (:func:`save_outcome`) -- so
an interrupted sweep (Ctrl-C, crash, power loss) costs only the runs
that had not finished.  Failed runs are *not* saved: a rerun retries
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from typing import List, Optional, Sequence

#: 2: outcomes carry relaunch counts and the host wall clock / peak RSS
MANIFEST_SCHEMA_VERSION = 2
MANIFEST_NAME = "manifest.json"

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


class ManifestMismatch(ValueError):
    """The checkpoint directory belongs to a different sweep."""


def shard_result_path(checkpoint_dir: str, name: str) -> str:
    """Filesystem path of one run's saved outcome.

    The filename embeds a digest of the exact run name, so names that
    only differ in sanitized-away characters can never collide.
    """
    slug = _UNSAFE_RE.sub("_", name)[:80]
    digest = hashlib.sha256(name.encode()).hexdigest()[:10]
    return os.path.join(checkpoint_dir, f"shard_{slug}_{digest}.pkl")


def write_manifest(
    checkpoint_dir: str, names: Sequence[str], base_seed: int
) -> None:
    os.makedirs(checkpoint_dir, exist_ok=True)
    payload = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "base_seed": base_seed,
        "shards": list(names),
    }
    tmp_path = os.path.join(checkpoint_dir, f".{MANIFEST_NAME}.tmp")
    with open(tmp_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_path, os.path.join(checkpoint_dir, MANIFEST_NAME))


def load_manifest(checkpoint_dir: str) -> Optional[dict]:
    path = os.path.join(checkpoint_dir, MANIFEST_NAME)
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def load_outcomes(
    checkpoint_dir: str, names: Sequence[str], base_seed: int
) -> List[Optional[object]]:
    """The saved outcome of each named run (``None`` where there is
    none yet), after checking -- or writing -- the manifest."""
    manifest = load_manifest(checkpoint_dir)
    if manifest is None:
        write_manifest(checkpoint_dir, names, base_seed)
    elif (
        manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION
        or manifest.get("shards") != list(names)
        or manifest.get("base_seed") != base_seed
    ):
        raise ManifestMismatch(
            f"{checkpoint_dir}: existing manifest does not match this "
            "sweep (different runs, base seed, or schema); use a fresh "
            "checkpoint directory"
        )
    outcomes: List[Optional[object]] = []
    for name in names:
        outcome = None
        path = shard_result_path(checkpoint_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                outcome = pickle.load(fh)
            outcome.cached = True
        outcomes.append(outcome)
    return outcomes


def save_outcome(checkpoint_dir: str, outcome) -> None:
    """Atomically save one successful run's outcome."""
    path = shard_result_path(checkpoint_dir, outcome.name)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as fh:
        pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp_path, path)
