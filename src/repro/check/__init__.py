"""Opt-in runtime correctness tooling for the simulator.

- :class:`~repro.check.invariants.InvariantChecker` -- composable
  runtime invariants (mapping bijection, block lifecycle, free-pool and
  valid-page accounting, write-buffer versions, clock monotonicity)
  attached through the same pointer-test hook points the obs layer
  uses, so checks off means bit-for-bit the unchecked run.
- :class:`~repro.check.oracle.DataIntegrityOracle` -- a shadow store
  verifying every completed read end-to-end.
- :mod:`repro.check.fuzz` -- seeded randomized-workload differential
  fuzzing across FTLs (kept out of this namespace to avoid importing
  the full API stack; ``from repro.check import fuzz`` explicitly).

Enable via the ``check`` option of a spec
(``SimulationSpec(options=RunOptions(check="strict"), ...)`` run through
:func:`repro.api.run_spec`) or the CLI ``--check`` / ``repro-ssd fuzz``.
"""

from repro.check.errors import InvariantViolation
from repro.check.invariants import (
    CheckConfig,
    InvariantChecker,
    parse_check_level,
)
from repro.check.oracle import DataIntegrityOracle, ShadowStore

__all__ = [
    "CheckConfig",
    "DataIntegrityOracle",
    "InvariantChecker",
    "InvariantViolation",
    "ShadowStore",
    "parse_check_level",
]
