"""The load generator: one process, at most two threads, two connections.

Usage (from ``run.py``)::

    python perfbench/loadgen.py INPUT_DIR RESULT_JSON --trace 0|1 --passes K

For the workload named in ``INPUT_DIR/meta.json`` it runs ``K`` passes,
each against a freshly spawned daemon, over one v2 connection (plus
short-lived HTTP connections for ``/metrics``).  A reader thread takes
acks, pushed violations and the final ``drain`` reply off the socket,
so a push is timestamped when it arrives, whatever the sender is doing.

- **si-replay** is a closed loop: 500-txn acked frames, eight in flight,
  sent as fast as acks allow, with a ``/metrics`` scrape every
  ``scrape_every`` sent transactions.  A probe is due when its frame
  leaves.
- **ser-live** is an open loop: each 10 ms tick's due transactions go
  out as one pre-encoded frame at the tick's end, whatever the daemon is
  doing.  A probe is due at its scheduled arrival time.  A pass whose
  sends ran more than one tick late at p99 did not offer the intended
  load; it is discarded and run again.

Passes the host disturbed are replaced within a budget (see
``common.run_passes``).  Set-up time is sampled on every pass's daemon
plus enough extra spawn-and-shutdown daemons to make
:data:`SETUP_SAMPLES`, each at the reference host speed
(``Daemon.setup_at_reference_speed``).  With
``--trace 1`` the client-side calls are also recorded as spans.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common

common.use_src()

from common import (  # noqa: E402
    DETECT_LIMIT_S,
    OUT,
    canon_result,
    lateness,
    match_probes,
    read_json,
    run_passes,
    violation_identity,
    write_json,
)
from tracing import Tracer  # noqa: E402
from wire import Daemon, Wire, setup_only  # noqa: E402

from repro.histories.serialization import iter_history_packed  # noqa: E402
from repro.service.client import http_get_text  # noqa: E402
from repro.service.framing import encode_submit_frame  # noqa: E402
from repro.service.protocol import result_from_dict  # noqa: E402

WINDOW = 8
_PROCESSED = re.compile(r"^repro_processed_txns_total (\S+)$", re.M)
SETUP_SAMPLES = 9
#: Passes a run may add to replace ones the host disturbed, and the time
#: after which it adds none (see ``common.run_passes``).  ser-live also
#: replaces passes sent late, which a host whose neighbours steal a fifth
#: of its CPU makes common for a minute at a time, so it may try for
#: longer: a run must end within 180 s.
EXTRA_PASSES = {"si-replay": (2, 60.0), "ser-live": (6, 75.0)}

DAEMON_FLAGS = {
    "si-replay": ["--timeout", "5", "--gc-threshold", "20000"],
    "ser-live": ["--level", "ser", "--timeout", "5", "--gc-threshold", "5000"],
}


class Reader(threading.Thread):
    """Takes every message off the connection and timestamps it."""

    def __init__(self, wire: Wire, sizes: Dict[int, int], window: threading.Semaphore) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self.wire = wire
        self.sizes = sizes
        self.window = window
        self.acked: Dict[int, float] = {}
        self.refused: Dict[int, int] = {}
        self.pushes: List[tuple] = []
        self.drain_seq = -1
        self.drained: Dict[str, Any] = {}
        self.failure: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while True:
                message = self.wire.read()
                now = time.perf_counter()
                kind = message.get("type")
                seq = message.get("seq")
                if kind == "violation":
                    v = message["violation"]
                    self.pushes.append((violation_identity(v["axiom"], v["tid"], v.get("key", "")), now))
                elif kind == "ack" and seq in self.sizes:
                    self.acked[seq] = now
                    self.refused[seq] = self.sizes[seq] - message.get("enqueued", 0)
                    self.window.release()
                elif kind == "error" and seq in self.sizes:
                    self.refused[seq] = self.sizes[seq]
                    self.window.release()
                elif kind == "drained" and seq == self.drain_seq:
                    self.drained = dict(message, at=now)
                    return
        except BaseException as exc:  # re-raised by the main thread
            self.failure = exc
        finally:
            self.window.release(WINDOW)


def set_sender_priority(nice: int) -> None:
    """Set the calling thread's nice value, if the host allows it.

    On a 2-core host the daemon's threads and the open-loop sender share
    cores; a sender that waits for a time slice sends late, and its
    lateness would be charged to the daemon.  Nice values are per thread
    on Linux, so only the sender gains, and only while it sends: daemons
    are spawned at the default priority.  Without the privilege to raise
    priority the sender runs as it is, and its lateness is still measured.
    """
    try:
        os.setpriority(os.PRIO_PROCESS, 0, nice)
    except (AttributeError, OSError):
        pass


def scrape(daemon: Daemon, tracer: Tracer, seen: List[int]) -> float:
    """One ``GET /metrics`` on a fresh HTTP connection; seconds taken.

    A traced run also notes how many transactions the daemon had checked
    (into ``seen``), so the in-process replay can walk resident state at
    the same point of the stream.
    """
    with tracer.span("obs.scrape"):
        t0 = time.perf_counter()
        status, body = http_get_text(*daemon.http, "/metrics", timeout=120.0)
        elapsed = time.perf_counter() - t0
    if status != 200 or "repro_" not in body:
        raise RuntimeError(f"/metrics answered {status}")
    if tracer.enabled:
        seen.append(int(float(_PROCESSED.search(body).group(1))))
    return elapsed


def one_pass(meta: Dict[str, Any], txns: list, flags: List[str], log: Path,
             tracer: Tracer) -> Dict[str, Any]:
    closed = meta["workload"] == "si-replay"
    frames = meta["frames"]
    daemon = Daemon(flags, log)
    wire = None
    try:
        with tracer.span("daemon.setup"):
            wire = daemon.start()
        seqs = [wire.next_seq() for _ in frames]
        sizes = {seq: frame["count"] for seq, frame in zip(seqs, frames)}
        encoded: List[bytes] = []
        if not closed:
            # The open loop only sends: encoding ahead keeps it on time.
            encoded = [
                encode_submit_frame(txns[f["first"] : f["first"] + f["count"]], seq)
                for seq, f in zip(seqs, frames)
            ]
        wire.call({"type": "subscribe"}, "subscribed")
        window = threading.Semaphore(WINDOW)
        reader = Reader(wire, sizes, window)
        reader.start()
        # The sender must wake on time: a short switch interval keeps the
        # reader from holding the interpreter lock across a tick, and the
        # collector would only add pauses to a loop that allocates little.
        sys.setswitchinterval(0.0005)
        if not closed:
            set_sender_priority(-10)
        gc.collect()
        gc.disable()
        scrapes: List[float] = []
        scraped_at: List[int] = []
        sent_at: List[float] = []
        t0 = time.perf_counter() + (0.0 if closed else 0.05)
        for i, (seq, frame) in enumerate(zip(seqs, frames)):
            if closed:
                window.acquire()
                if reader.failure is not None:
                    break
                with tracer.span("codec.encode", batch=seq):
                    data = encode_submit_frame(
                        txns[frame["first"] : frame["first"] + frame["count"]], seq
                    )
            else:
                data = encoded[i]
                due = t0 + frame["send_at"]
                while (delay := due - time.perf_counter()) > 0:
                    time.sleep(delay)
            sent_at.append(time.perf_counter())
            wire.send(data)
            if frame.get("scrape"):
                scrapes.append(scrape(daemon, tracer, scraped_at))
        set_sender_priority(0)
        t_last_send = sent_at[-1]
        # The reader must know the drain's seq before the reply can arrive.
        reader.drain_seq = wire.next_seq()
        wire.request({"type": "drain"}, reader.drain_seq)
        reader.join(timeout=120.0)
        gc.enable()
        if reader.failure is not None or not reader.drained:
            raise RuntimeError(f"reader failed: {reader.failure or 'no drain reply'}")
        stats = wire.call({"type": "stats", "bytes": False}, "stats")["stats"]
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        gc.enable()
        set_sender_priority(0)
        final = daemon.stop(wire)
    if final is None:
        raise RuntimeError("daemon shut down without a final result")

    for seq, at in zip(seqs, sent_at):
        if seq in reader.acked:
            tracer.record("daemon.admit", at, reader.acked[seq], batch=seq)
    for _identity, at in reader.pushes:
        tracer.record("push.receive", at, at)
    drained_at = reader.drained["at"]
    tracer.record("daemon.drain", t_last_send, drained_at)
    firsts = [f["first"] for f in frames]
    dues = {}
    for identity, index, due in meta["probes"]:
        if due is None:  # closed loop: due when its frame left
            due = sent_at[bisect.bisect_right(firsts, index) - 1] - t0
        dues[identity] = t0 + due
    matched = match_probes(dues, reader.pushes, DETECT_LIMIT_S[meta["workload"]])
    unanswered = sum(sizes[s] for s in seqs if s not in reader.acked and s not in reader.refused)
    sent = sum(sizes.values())
    return {
        "sent": sent,
        "refused": sum(reader.refused.values()) + unanswered,
        "processed": reader.drained["processed"],
        "wall_s": drained_at - sent_at[0],
        "drain_tail_s": drained_at - t_last_send,
        "admit_s": [reader.acked[s] - at for s, at in zip(seqs, sent_at) if s in reader.acked],
        "scrape_s": scrapes,
        "scraped_at": scraped_at,
        "late_s": [] if closed else lateness([t0 + f["send_at"] for f in frames], sent_at),
        "detect_s": matched["samples"],
        "probes_failed": matched["failed"],
        "duplicate_pushes": len(matched["duplicates"]),
        "unexpected_pushes": len(matched["unexpected"]),
        "stats": stats,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": daemon.setup_at_reference_speed(),
        "verdicts": canon_result(result_from_dict(final)),
    }


def main(argv: List[str]) -> int:
    input_dir, result_path = Path(argv[0]), Path(argv[1])
    options = dict(zip(argv[2::2], argv[3::2]))
    traced = options.get("--trace") == "1"
    passes = int(options.get("--passes", "1"))
    meta = read_json(input_dir / "meta.json")
    flags = DAEMON_FLAGS[meta["workload"]]
    log = OUT / f"daemon-{meta['workload']}.log"
    log.write_bytes(b"")
    txns = list(iter_history_packed(input_dir / "stream.rpch"))
    tracer = Tracer(enabled=traced)
    kept, discarded = run_passes(
        lambda: one_pass(meta, txns, flags, log, tracer),
        passes,
        EXTRA_PASSES[meta["workload"]][0],
        on_time=lambda result: common.late_p99(result["late_s"]) <= meta.get("tick", math.inf),
        budget_s=EXTRA_PASSES[meta["workload"]][1],
    )
    setups = [r["setup_s"] for r in kept + discarded]
    setups += [setup_only(flags, log) for _ in range(SETUP_SAMPLES - len(setups))]
    write_json(result_path, {
        "passes": kept,
        "discarded": discarded,
        "setup_s": setups,
        "spans": tracer.spans,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
