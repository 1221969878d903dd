"""The paper's primary contribution: timestamp-based isolation checkers.

- :mod:`repro.core.chronos` — **Chronos**, the offline SI checker
  (Algorithm 2): sort all start/commit timestamps, simulate execution in
  timestamp order, check SESSION / INT / EXT / NOCONFLICT on the fly.
- :mod:`repro.core.chronos_ser` — **Chronos-SER**: the same simulation in
  commit-timestamp order for serializability (no NOCONFLICT, start
  timestamps ignored).
- :mod:`repro.core.aion` — **Aion**, the online SI checker (Algorithm 3):
  incremental checking under out-of-order arrival with timestamp-versioned
  structures, EXT re-checking with timeouts, and conservative GC.  Its one
  batch kernel and per-op reference are parameterized by an axiom profile
  (:class:`~repro.core.kernel.AxiomProfile`, SI or SER).
- :mod:`repro.core.aion_ser` — **Aion-SER**, the online SER checker:
  Aion under the SER profile.
- :mod:`repro.core.sharded` — **ShardedAion**, the sharded, batch-oriented
  ingestion frontend with Aion-identical verdicts.
- :mod:`repro.core.reference` — a slow replay oracle used by the test
  suite to validate Aion differentially against Chronos.

All checkers consume :class:`repro.histories.History` /
:class:`repro.histories.Transaction` values and report
:class:`repro.core.violations.Violation` records; they never terminate at
the first violation (§III-B2).
"""

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos, ChronosReport, GcMode
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import ReferenceOnlineChecker
from repro.core.sharded import ShardedAion, shard_of
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    IntViolation,
    SessionViolation,
    TimestampOrderViolation,
    Violation,
)

__all__ = [
    "Aion",
    "AionConfig",
    "AionSer",
    "Axiom",
    "CheckResult",
    "Chronos",
    "ChronosReport",
    "ChronosSer",
    "ConflictViolation",
    "ExtViolation",
    "GcMode",
    "IntViolation",
    "ReferenceOnlineChecker",
    "SessionViolation",
    "ShardedAion",
    "TimestampOrderViolation",
    "Violation",
    "shard_of",
]
