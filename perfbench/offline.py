"""One offline check in a fresh interpreter: the path ``repro check`` takes.

Usage (from ``run.py``)::

    python perfbench/offline.py HISTORY_JSONL RESULT_JSON --trace 0|1

Loads the JSONL history with ``load_history``, checks it with
``Chronos().check``, and writes the timings, the ``ChronosReport``
stages, the canonical verdict set, the process's peak RSS, and the
times of the calibration loop run before the load, between load and
check, and after the check, which put each timing at the reference host
speed.  Each check gets its own interpreter: transactions whose lazily
derived fields an earlier pass had filled check about twice as fast,
which no user of ``repro check`` ever sees.  With ``--trace 1`` interpreter GC pauses are
also timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import common

common.use_src()

from common import (  # noqa: E402
    GcPauses,
    calibration_seconds,
    canon_result,
    vm_hwm_mb,
    write_json,
)

from repro.core.chronos import Chronos  # noqa: E402
from repro.histories.serialization import load_history  # noqa: E402


def main(argv) -> int:
    history_path, result_path = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    pauses = GcPauses()
    if traced:
        gc.callbacks.append(pauses)
    calib = [calibration_seconds()]
    t0 = time.perf_counter()
    history = load_history(history_path)
    t1 = time.perf_counter()
    calib.append(calibration_seconds())
    t2 = time.perf_counter()
    checker = Chronos()
    result = checker.check(history)
    t3 = time.perf_counter()
    calib.append(calibration_seconds())
    if traced:
        gc.callbacks.remove(pauses)
    report = checker.report
    write_json(result_path, {
        "txns": len(history),
        "load_s": t1 - t0,
        "check_s": t3 - t2,
        "calib_s": calib,
        "sort_s": report.sort_seconds,
        "chronos_check_s": report.check_seconds,
        "gc_s": report.gc_seconds,
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "verdicts": canon_result(result),
        "pygc": {"gen2": pauses.gen2, "pause_max_s": max(pauses.pauses, default=0.0)},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
