"""Seeded inputs for the three workloads, built once and cached.

Each input function turns ``(seed, seconds)`` into the exact bytes the system
under test will receive plus the verdict it must reach, and stores both
under ``.perfbench_out/inputs/``.  Generation runs the repo's simulated
database and is slow (tens of seconds), so it happens before any timed
phase and is reused when the same seed and size come round again.

Every stream is a whole history: cutting an arrival stream mid-history
leaves reads of writers that were never sent, which the checker rightly
reports as EXT violations that the reference never sees.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import OUT, canon_result, tick_frames, violation_identity, write_json

from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.db.engine import IsolationLevel
from repro.db.faults import HistoryFaultInjector, LiveFaultInjector
from repro.histories.model import History, Transaction
from repro.histories.serialization import save_history, save_history_packed
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

#: Cached inputs are keyed by this file's content, so a changed input function
#: never reuses what an older one wrote.
_VERSION = hashlib.sha1(Path(__file__).read_bytes()).hexdigest()[:12]


@dataclass(frozen=True)
class Sizes:
    """Workload sizes derived from the run length ``seconds``.

    A run makes several passes over one online stream, each against a
    fresh daemon, or several offline checks of one history (see
    ``run.PASSES``); the sizes put a run's measured time near ``seconds``
    on a 2-core host.
    """

    si_txns: int
    ser_txns: int
    offline_txns: int

    @classmethod
    def for_seconds(cls, seconds: int) -> "Sizes":
        return cls(
            # Whole 500-txn frames, four scrapes a pass; 30,000 at 25 s
            # is enough for two GC cycles at the 20,000 threshold.
            si_txns=max(2_000, (1_200 * seconds) // 2_000 * 2_000),
            # Two fifths of the run per pass, at 1,500 tps: six daemon
            # GC cycles a pass at 25 s, eighteen a run, so no one pause
            # sets the p99.
            ser_txns=SER_TPS * seconds * 2 // 5,
            # 15,000 at 25 s: a check long enough to time (~0.3 s).
            offline_txns=max(1_000, 600 * seconds),
        )


#: si-replay: the Fig 12b stream (24 sessions, 8 ops/txn, 1000 zipfian
#: keys, 50% reads) in the collector's arrival order, one INT probe per
#: 20 transactions.
SI_SPEC = dict(n_sessions=24, ops_per_txn=8, n_keys=1000, read_ratio=0.5,
               distribution="zipfian")
SI_FRAME = 500
SI_SCRAPES = 4
SI_PROBE_EVERY = 20
#: ser-live: write-heavy SER traffic on a 200-key hotspot, one INT probe
#: per 7 transactions: over 6,000 probes a run, sixty beyond the p99.
SER_SPEC = dict(n_sessions=50, ops_per_txn=8, n_keys=200, read_ratio=0.2,
                distribution="hotspot", isolation=IsolationLevel.SER)
SER_TPS = 1_500
SER_TICK = 0.010
SER_PROBE_EVERY = 7
#: offline-si: the Table I default point, with labelled faults.
OFFLINE_SPEC = dict(n_sessions=50, ops_per_txn=15, n_keys=1000, read_ratio=0.5,
                    distribution="zipfian")
OFFLINE_FAULTS = 10


def input_dir(workload: str, seed: int, sizes: Sizes) -> Path:
    size = {"si-replay": sizes.si_txns, "ser-live": sizes.ser_txns,
            "offline-si": sizes.offline_txns}[workload]
    return OUT / "inputs" / f"{workload}-s{seed}-n{size}-{_VERSION}"


def ensure(workload: str, seed: int, sizes: Sizes) -> Path:
    """The input directory for this workload and seed, built if missing."""
    path = input_dir(workload, seed, sizes)
    if (path / "meta.json").is_file():
        return path
    tmp = path.with_name(path.name + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    MAKERS[workload](tmp, seed, sizes)
    shutil.rmtree(path, ignore_errors=True)
    tmp.rename(path)
    return path


def _history(spec: Dict[str, Any], n: int, seed: int) -> History:
    return generate_default_history(WorkloadSpec(n_transactions=n, seed=seed, **spec))


def inject_probes(txns: List[Transaction], every: int, seed: int,
                  dues: Optional[List[float]] = None) -> List[list]:
    """One ``LiveFaultInjector.inject_int`` probe per ``every`` transactions.

    Mutates ``txns`` in place and returns ``[identity, index, due]`` per
    probe, ``due`` taken from ``dues`` (None for a closed loop, where a
    probe is due when its frame is sent).  INT is transaction-local and
    reported on receipt, so probes change no other verdict.
    """
    injector = LiveFaultInjector(seed=seed)
    probes = []
    for lo in range(0, len(txns), every):
        chunk = txns[lo : lo + every]
        label = injector.inject_int(chunk)
        txns[lo : lo + every] = chunk
        if label is not None:
            (tid,) = label.tids
            index = lo + next(i for i, t in enumerate(chunk) if t.tid == tid)
            probes.append([violation_identity(label.axiom.value, tid, label.key), index,
                           None if dues is None else dues[index]])
    return probes


def build_si_replay(path: Path, seed: int, sizes: Sizes) -> None:
    history = _history(SI_SPEC, sizes.si_txns, seed)
    collector = HistoryCollector(
        batch_size=SI_FRAME, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=seed
    )
    txns = [txn for _, txn in collector.schedule(history)]
    probes = inject_probes(txns, SI_PROBE_EVERY, seed)
    scrape_every = len(txns) // SI_SCRAPES
    frames = [
        {"first": lo, "count": min(SI_FRAME, len(txns) - lo), "send_at": None,
         "scrape": (lo + SI_FRAME) % scrape_every == 0 and lo + SI_FRAME < len(txns)}
        for lo in range(0, len(txns), SI_FRAME)
    ]
    save_history_packed(txns, path / "stream.rpch")
    write_json(path / "meta.json", {
        "workload": "si-replay",
        "txns": len(txns),
        "frames": frames,
        "probes": probes,
        "reference": canon_result(Chronos().check_transactions(txns)),
    })


def build_ser_live(path: Path, seed: int, sizes: Sizes) -> None:
    history = _history(SER_SPEC, sizes.ser_txns, seed)
    # One 15-txn collector batch per tick: a smooth 1,500 tps whose
    # per-transaction N(100 ms, 10 ms) delays reorder neighbours.
    collector = HistoryCollector(
        batch_size=round(SER_TPS * SER_TICK), arrival_tps=SER_TPS,
        delay_model=NormalDelay(100, 10), seed=seed,
    )
    arrivals = collector.schedule(history).arrivals
    txns = [txn for _, txn in arrivals]
    dues = [at - arrivals[0][0] for at, _ in arrivals]
    probes = inject_probes(txns, SER_PROBE_EVERY, seed, dues)
    frames = [
        {"first": indices[0], "count": len(indices), "send_at": send_at, "scrape": False}
        for send_at, indices in tick_frames(dues, SER_TICK)
    ]
    save_history_packed(txns, path / "stream.rpch")
    write_json(path / "meta.json", {
        "workload": "ser-live",
        "txns": len(txns),
        "tick": SER_TICK,
        "frames": frames,
        "probes": probes,
        "reference": canon_result(ChronosSer().check_transactions(txns)),
    })


def build_offline_si(path: Path, seed: int, sizes: Sizes) -> None:
    injector = HistoryFaultInjector(_history(OFFLINE_SPEC, sizes.offline_txns, seed), seed=seed)
    labels = injector.inject_mix(OFFLINE_FAULTS)
    history = injector.build()
    save_history(history, path / "history.jsonl")
    write_json(path / "meta.json", {
        "workload": "offline-si",
        "txns": len(history),
        "labels": [
            {"axiom": label.axiom.value, "tids": list(label.tids), "key": label.key}
            for label in labels
        ],
        "reference": canon_result(Chronos().check(history)),
    })


MAKERS = {
    "si-replay": build_si_replay,
    "ser-live": build_ser_live,
    "offline-si": build_offline_si,
}
