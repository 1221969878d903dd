"""Shared pieces of the benchmark: paths, statistics, verdict canon, host.

The statistics and accounting here need no daemon, so ``selftest.py``
pins them down directly: the percentile rule, open-loop due-time and
lateness accounting, probe-to-push matching, pass selection, the
canonical JSON form of a verdict set and label matching for injected
faults.  The host side (fingerprint, steal, peak RSS) reads ``/proc``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Generated inputs and run artefacts (spans, daemon logs); gitignored.
OUT = ROOT / ".perfbench_out"

#: Latency limit per workload: a probe pushed later than this after its
#: due time counts as missed.  ser-live offers a load the daemon can
#: sustain, so its limit is the paper's EXT timeout (§IV-A), the longest a
#: user of the online checker is promised to wait for a verdict.
#: si-replay saturates the daemon on purpose; its probe latency is queue
#: depth over throughput, so there a probe fails only if never pushed.
DETECT_LIMIT_S = {"si-replay": math.inf, "ser-live": 5.0}
#: Percentiles reported, highest first; see :func:`tail_percentile`.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A pass during which the host stole more CPU time than this share is
#: replaced when the run's budget allows (see :func:`run_passes`).  On a
#: 2-core host, ser-live passes at 2-5% steal read a p99 about a sixth
#: higher than passes at under 0.5%.
STEAL_LIMIT_PCT = 2.0
#: How a +inf latency (missed probe) is written into the JSON result.
INF_REPORTED = 1e9


def use_src() -> None:
    """Import ``repro`` from the checkout's ``src`` tree, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path, and
    temporary files (the daemon's GC spill segments) inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def _rank(n: int, p: float) -> int:
    # The epsilon keeps 99.9% of 10,000 at rank 9,990, not 9,991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile slot."""
    return n - _rank(n, p)


def tail_percentile(values: Iterable[float]) -> Tuple[Optional[float], Optional[float]]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(p, value)``, or ``(None, None)`` when even the median has
    fewer than ten samples above it.  A tail percentile read from fewer
    samples than that is one outlier, not a distribution.
    """
    ordered = sorted(values)
    for p in PERCENTILE_LADDER:
        if samples_beyond(len(ordered), p) >= 10:
            return p, nearest_rank(ordered, p)
    return None, None


def percentile_or_none(values: Sequence[float], p: float) -> Optional[float]:
    """``p``-th percentile if the sample supports it (ten beyond), else None."""
    if samples_beyond(len(values), p) < 10:
        return None
    return nearest_rank(sorted(values), p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------


def tick_frames(dues: Sequence[float], tick: float) -> List[Tuple[float, List[int]]]:
    """Group items by due time into ``tick``-wide windows.

    Returns ``(send_at, indices)`` per non-empty window, in order: window
    ``k`` holds the items due in ``[k*tick, (k+1)*tick)`` and is sent at
    its end, ``(k+1)*tick``, once all of them are due.  ``dues`` must be
    ascending and non-negative.
    """
    frames: List[Tuple[float, List[int]]] = []
    current = -1
    for index, due in enumerate(dues):
        if due < 0:
            raise ValueError("due times must be non-negative")
        k = int(due // tick)
        if k < current:
            raise ValueError("due times must be ascending")
        if k != current:
            frames.append(((k + 1) * tick, []))
            current = k
        frames[-1][1].append(index)
    return frames


def lateness(scheduled: Sequence[float], actual: Sequence[float]) -> List[float]:
    """How late each send left versus its schedule (never negative)."""
    return [max(0.0, a - s) for s, a in zip(scheduled, actual)]


def late_p99(late: Sequence[float]) -> float:
    """p99 of per-frame lateness; 0 for a closed loop, which has no schedule."""
    return nearest_rank(sorted(late), 99.0) if late else 0.0


def match_probes(
    probes: Dict[str, float],
    pushes: Sequence[Tuple[str, float]],
    limit: float,
) -> Dict[str, Any]:
    """Match pushed verdicts to probes; latency runs from the probe's due time.

    ``probes`` maps a probe's verdict identity to its due time (seconds,
    on the generator clock) and ``pushes`` lists ``(identity, received
    at)`` in arrival order.  A probe counts once, at its first push; a
    probe never pushed, or pushed more than ``limit`` after its due
    time, counts as +inf and as failed.  Pushes matching no probe, and
    repeat pushes of one probe, are returned as ``unexpected`` and
    ``duplicates``.
    """
    latency: Dict[str, float] = {}
    duplicates: List[str] = []
    unexpected: List[str] = []
    for identity, received in pushes:
        due = probes.get(identity)
        if due is None:
            unexpected.append(identity)
        elif identity in latency:
            duplicates.append(identity)
        else:
            latency[identity] = received - due
    samples: List[float] = []
    failed = 0
    for identity in probes:
        value = latency.get(identity)
        if value is None or value > limit:
            samples.append(math.inf)
            failed += 1
        else:
            samples.append(value)
    return {
        "samples": samples,
        "failed": failed,
        "duplicates": duplicates,
        "unexpected": unexpected,
    }


# ----------------------------------------------------------------------
# Verdict canon
# ----------------------------------------------------------------------


def canon_record(record: Tuple) -> str:
    """One :func:`repro.core.reference.normalize_violations` record as JSON."""
    return json.dumps(
        [sorted(part) if isinstance(part, frozenset) else part for part in record],
        separators=(",", ":"),
    )


def canon_result(result: Any) -> List[str]:
    """A check result as a sorted list of canonical verdict records."""
    from repro.core.reference import normalize_violations

    return sorted(canon_record(record) for record in normalize_violations(result))


def violation_identity(axiom: str, tid: int, key: str) -> str:
    """The identity under which a probe and its pushed verdict meet."""
    return f"{axiom}:{tid}:{key}"


def record_tids(record: str) -> Tuple[str, Set[int]]:
    """``(axiom, tids)`` of one canonical verdict record."""
    parts = json.loads(record)
    axiom, who = parts[0], parts[1]
    return axiom, set(who) if isinstance(who, list) else {who}


def undetected_labels(labels: Sequence[Dict[str, Any]], verdicts: Sequence[str]) -> List[Dict]:
    """Injected fault labels with no verdict of their axiom on their tids."""
    found: Dict[str, Set[int]] = {}
    for record in verdicts:
        axiom, tids = record_tids(record)
        found.setdefault(axiom, set()).update(tids)
    return [
        label
        for label in labels
        if not found.get(label["axiom"], set()) & set(label["tids"])
    ]


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------


#: Iterations of the calibration loop.
CALIB_ITERATIONS = 200_000
#: The host speed short timings (offline load and check, daemon set-up)
#: are reported at, as a calibration loop rate in kilo-iterations per
#: second: about a 2-core cloud host's fast phases.  See
#: :func:`at_reference_speed`.
REFERENCE_KOPS = 4_000.0


def calibration_seconds() -> float:
    """One run of a fixed pure-Python integer/dict loop, seconds."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc] = i
    return time.perf_counter() - t0


def calibration_kops(loops: int = 5) -> float:
    """The calibration loop's rate, kilo-iterations per second.

    The best of ``loops`` runs: a host fingerprint that puts absolute
    figures from different hosts (and noisy neighbours on one host) in
    proportion.
    """
    best = min(calibration_seconds() for _ in range(loops))
    return CALIB_ITERATIONS / best / 1000.0


def at_reference_speed(seconds: float, calib_seconds: Sequence[float]) -> float:
    """``seconds`` as a host running at :data:`REFERENCE_KOPS` would take.

    ``calib_seconds`` are calibration loops run just before and just
    after the timed work.  A shared host's single-thread speed drifts by
    a third over minutes, and slows the loop and the work alike; scaling
    by the loop's mean time cancels the drift, which a sub-second timing
    cannot average out.
    """
    kops = CALIB_ITERATIONS / statistics.fmean(calib_seconds) / 1000.0
    return seconds * kops / REFERENCE_KOPS


def host_fingerprint() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "calib_kops": round(calibration_kops(), 1),
    }


def cpu_steal() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks since boot, from ``/proc/stat``.

    Steal is time a virtual CPU was runnable but the hypervisor ran
    someone else: on a shared host, the first suspect when figures move.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_passes(
    run: Callable[[], Dict[str, Any]],
    wanted: int,
    extra: int,
    on_time: Callable[[Dict[str, Any]], bool] = lambda result: True,
    budget_s: float = math.inf,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Run measurement passes until ``wanted`` clean ones, or ``extra`` more.

    No extra pass starts once ``budget_s`` seconds have gone by.

    A pass is clean when the host stole at most :data:`STEAL_LIMIT_PCT`
    of CPU time while it ran (recorded as ``steal_pct``) and ``on_time``
    accepts it.  A pass ``on_time`` rejects is never kept.  Of the rest,
    the ``wanted`` least-disturbed are kept: a neighbour taking a core
    for a few seconds slows a pass by far more than any change under
    test, and says nothing about the program.  Returns ``(kept,
    discarded)``; ``kept`` may be short only when passes ran late.
    """
    passes: List[Dict[str, Any]] = []
    clean = 0
    deadline = time.monotonic() + budget_s
    while clean < wanted and (
        len(passes) < wanted
        or (len(passes) < wanted + extra and time.monotonic() < deadline)
    ):
        before = cpu_steal()
        result = run()
        steal, total = (a - b for a, b in zip(cpu_steal(), before))
        result["steal_pct"] = 100.0 * steal / max(1, total)
        result["on_time"] = on_time(result)
        passes.append(result)
        clean += result["on_time"] and result["steal_pct"] <= STEAL_LIMIT_PCT
    usable = sorted((r for r in passes if r["on_time"]), key=lambda r: r["steal_pct"])
    kept = usable[:wanted]
    return kept, [r for r in passes if not any(r is k for k in kept)]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class GcPauses:
    """Interpreter collections seen through ``gc.callbacks``: gen-2 count
    and every pause."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pauses: List[float] = []
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._start)
        if info.get("generation") == 2:
            self.gen2 += 1


def finite(value: float) -> float:
    return INF_REPORTED if math.isinf(value) else value


def read_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, data: Any) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)
