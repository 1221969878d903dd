"""Aion-SER — the online timestamp-based serializability checker (§VI).

Serializability in commit-timestamp order simplifies the online problem:
start timestamps are ignored and NOCONFLICT is not needed, so the checker
keeps only the versioned frontier and the external-read index.  A
transaction's snapshot point is its *commit* timestamp, and an external
read must return the value of the greatest version *strictly below* that
point (the serial predecessor).

Out-of-order arrival still destabilizes EXT: a transaction slotting into
the middle of the serial order changes the predecessor of later readers.
Re-checking mirrors Aion's step ③ with the boundary adjusted: a version
inserted at ``cts`` affects readers with snapshot points in
``(cts, next-version]`` — the upper bound is inclusive because the reader
committing exactly at the next version is that version's own writer and
reads strictly below itself.

Those are the only differences, so Aion-SER is :class:`Aion` under the
SER :class:`~repro.core.kernel.AxiomProfile`: one batch kernel, one per-op
reference, and the same GC, spill, reload and reporting serve both
levels.

Like Cobra, Aion-SER is an online SER checker, but it needs no fence
transactions and keeps checking past violations (Fig 12a/25).
"""

from __future__ import annotations

from repro.core.aion import Aion
from repro.core.kernel import SER_PROFILE

__all__ = ["AionSer"]


class AionSer(Aion):
    """Online SER checker over key-value histories."""

    profile = SER_PROFILE
