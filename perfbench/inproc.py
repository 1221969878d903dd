"""In-process replay of a workload's exact frames, for the per-layer ledger.

Usage (from ``run.py``)::

    python perfbench/inproc.py INPUT_DIR RESULT_JSON --trace 0|1 [--scraped-at N,N,...]

Drives the checker the daemon would build through the calls the daemon
makes, in its order, one fresh interpreter per pass: per submit frame
``decode_frame_payload`` → ``receive_many`` → ``poll``, then
``suggest_gc_ts``/``collect_below`` once resident state reaches the
daemon's GC threshold, and ``estimated_bytes`` where the closed loop
scrapes ``/metrics``: once as many transactions are checked as the
daemon had checked when the scrape reached it (``--scraped-at``).  The
daemon serves most scrapes from its ``stats_bytes_ttl`` cache, which a
replay cannot know, so the walks' time is also reported apart.  The frames are encoded first, outside the timed
loop, because encoding is the client's work.  With ``--trace 1`` every
call is a span, under one ``frame`` span per submit frame, and
interpreter GC pauses are timed through ``gc.callbacks``.  The untraced
pass only reports its wall time: the baseline for ``daemon.share`` and
``trace.overhead_pct``.

ser-live runs on a virtual clock set to each frame's send time, so EXT
timers fire when they would have in the daemon; si-replay has no
schedule and runs on the real clock, as the daemon does.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import common

common.use_src()

from common import GcPauses, median, read_json, write_json  # noqa: E402
from loadgen import DAEMON_FLAGS  # noqa: E402
from tracing import Tracer, durations  # noqa: E402

from repro.histories.serialization import iter_history_packed  # noqa: E402
from repro.online.clock import SimClock  # noqa: E402
from repro.service import ServiceConfig  # noqa: E402
from repro.service.framing import (  # noqa: E402
    HEADER_SIZE,
    decode_frame_header,
    decode_frame_payload,
    encode_submit_frame,
)


def daemon_config(flags: List[str]) -> ServiceConfig:
    """The ``ServiceConfig`` that ``repro serve`` builds from these flags."""
    options = dict(zip(flags[::2], flags[1::2]))
    return ServiceConfig(
        level=options.get("--level", "si"),
        timeout=float(options["--timeout"]),
        gc_threshold=int(options["--gc-threshold"]),
    )


def replay(meta: Dict[str, Any], stream: Path, tracer: Tracer,
           scraped_at: List[int]) -> Dict[str, Any]:
    config = daemon_config(DAEMON_FLAGS[meta["workload"]])
    virtual = meta["workload"] == "ser-live"
    clock = SimClock() if virtual else None
    checker = config.build_checker(clock=clock)
    checker.kernel_stats.sample_every = config.kernel_sample_every
    keep_recent = config.effective_gc_keep_recent
    txns = list(iter_history_packed(stream))
    plan = meta["frames"]
    span = tracer.span
    # The client's share, timed apart: the daemon only ever sees bytes.
    encoded = []
    for batch_id, frame in enumerate(plan, 1):
        with span("codec.encode", batch=batch_id):
            encoded.append(encode_submit_frame(
                txns[frame["first"] : frame["first"] + frame["count"]], batch_id
            ))
    del txns
    cycles: List[Dict[str, float]] = []
    resident_max = 0
    checked = 0
    sizeof_s = 0.0
    scrapes = sorted(scraped_at, reverse=True)
    t0 = time.perf_counter()
    for batch_id, (frame, data) in enumerate(zip(plan, encoded), 1):
        with span("frame", batch=batch_id):
            if virtual:
                clock.advance_to(frame["send_at"])
            with span("codec.decode", batch=batch_id):
                kind, _ = decode_frame_header(data[:HEADER_SIZE])
                batch = decode_frame_payload(kind, memoryview(data)[HEADER_SIZE:])["batch"]
            with span("kernel.receive_many", batch=batch_id):
                checker.receive_many(batch)
            with span("ext.poll", batch=batch_id):
                checker.poll()
            resident = checker.resident_txn_count
            resident_max = max(resident_max, resident)
            if resident >= config.gc_threshold:
                g0 = time.perf_counter()
                with span("gc.collect", batch=batch_id):
                    target = checker.suggest_gc_ts(keep_recent=keep_recent)
                    report = checker.collect_below(target) if target is not None else None
                if report is not None:
                    cycles.append({"seconds": time.perf_counter() - g0,
                                   "evicted": report.evicted_txns})
            checked += frame["count"]
            while scrapes and scrapes[-1] <= checked:
                scrapes.pop()
                w0 = time.perf_counter()
                with span("obs.sizeof", batch=batch_id):
                    checker.estimated_bytes()
                sizeof_s += time.perf_counter() - w0
    wall = time.perf_counter() - t0
    flips = checker.flipflop_stats.flips_per_pair
    checker.close()
    return {
        "wall_s": wall,
        "sizeof_s": sizeof_s,
        "txns": sum(frame["count"] for frame in plan),
        "frames": len(plan),
        "frame_bytes": sum(len(data) for data in encoded),
        "gc_cycles": cycles,
        "resident_max": resident_max,
        "flips": sum(count * n for count, n in flips.items()),
    }


def main(argv: List[str]) -> int:
    input_dir, result_path = Path(argv[0]), Path(argv[1])
    options = dict(zip(argv[2::2], argv[3::2]))
    traced = options.get("--trace") == "1"
    meta = read_json(input_dir / "meta.json")
    tracer = Tracer(enabled=traced)
    pauses = GcPauses()
    if traced:
        gc.callbacks.append(pauses)
    scraped_at = [int(n) for n in options["--scraped-at"].split(",")] \
        if options.get("--scraped-at") else []
    try:
        out = replay(meta, input_dir / "stream.rpch", tracer, scraped_at)
    finally:
        if traced:
            gc.callbacks.remove(pauses)
    if traced:
        spans = tracer.spans
        out["layers"] = {
            name: sum(durations(spans, name))
            for name in ("codec.encode", "codec.decode", "kernel.receive_many",
                         "ext.poll", "gc.collect", "obs.sizeof")
        }
        out["sizeof_ms"] = median(durations(spans, "obs.sizeof")) * 1e3
        out["pygc"] = {"gen2": pauses.gen2, "pause_max_s": max(pauses.pauses, default=0.0)}
        out["spans"] = spans
    write_json(result_path, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
