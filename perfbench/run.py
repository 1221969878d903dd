"""The repo's benchmark: the online checker as deployed, and offline Chronos.

Run from the root of a checkout::

    python3 perfbench/run.py --workload si-replay --seed 1 --seconds 25 --trace 0

Inputs are generated from ``--seed`` and sized from ``--seconds`` (see
``inputs.Sizes``), cached under ``.perfbench_out/inputs``, and never
timed.  Each online pass runs ``python -m repro serve`` in its own
process and drives it from one load-generator process
(``loadgen.py``); each offline check runs in a fresh interpreter.

``si-replay``
    Closed loop against ``repro serve --timeout 5 --gc-threshold 20000``:
    500-txn acked v2 frames, eight in flight, as fast as acks allow, with
    a ``/metrics`` scrape every quarter of the stream.  The input is a
    Fig 12b SI history in ``HistoryCollector`` arrival order with one INT
    probe per 20 transactions.  Kernel, daemon GC, codec and the scrape's
    ``estimated_bytes`` walk all work hard, with frames at full size.
``ser-live``
    Open loop at 1,500 tps against ``repro serve --level ser --timeout 5
    --gc-threshold 5000``: each 10 ms tick's due transactions leave as one
    frame, one transaction in seven carries an INT probe.  Per-frame
    overhead sets p50; GC cycles and real-clock EXT timers set p99.
``offline-si``
    ``load_history`` then ``Chronos().check`` on a Table I history with
    labelled faults, as ``repro check`` runs them.  It bypasses the
    daemon, the wire, the Aion kernel and Aion GC.

End-to-end metrics (``--trace 0``).  A timing short enough to be
bracketed by calibration loops in its own process, an offline load or
check or a daemon's set-up, is reported at a reference host speed
(``common.at_reference_speed``): a shared host's single-thread speed
drifts by a third over minutes, and each such timing falls in one phase
of it.  Online passes last seconds and keep both cores busy; a loop run
beside them does not track the daemon's speed, so they are reported as
measured.  Online, each metric is the median over a run's passes, except
``detect_*``, read over the probes of all of them.  A pass during which
the host stole more than 2% of CPU time, or (ser-live) whose generator
ran late, is replaced while the run's budget of extra passes lasts, and
the least-disturbed passes are kept (``common.run_passes``).  Offline
timings are the median over the run's checks (see :func:`offline`).

- ``setup_s``: daemon spawn until its welcome arrives (median of nine
  spawns); offline, the ``load_history`` of the JSONL file.
- ``checked_tps``: transactions checked per second, first submit until
  the ``drain`` reply (on ser-live this is the offered rate as long as
  the daemon keeps up); offline, n over the ``check`` time.
- ``detect_p50_ms``, ``detect_p99_ms``: from a probe's due time (ser-live:
  its schedule; si-replay: when its frame left) until its pushed INT
  verdict arrives.  Offline every verdict arrives when the check returns,
  so both are the load-and-check time.
- ``peak_rss_mb``: VmHWM of the daemon, or of the offline interpreter.

A run fails (``"correct": false``, exit 1) when any verdict set differs
from the reference stored with the input, a probe is pushed twice or a
push matches no probe, an injected offline label goes undetected, or the
open-loop generator cannot stay within one tick.  ``attempted`` counts
transactions submitted (offline: checked); ``failed`` counts refused or
unchecked ones and probes missed or later than the workload's limit, so
``failed / attempted`` is the failed ratio.

With ``--trace 1`` the run reports the per-layer ledger
(:data:`LAYER_METRICS`) instead, from one traced pass plus an in-process
replay of the same frames (``inproc.py``), and prints which end-to-end
metric each layer metric should move.  A layer the workload bypasses
reads 0.  Spans go to ``.perfbench_out/trace-<workload>.json``.

The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common

from common import (
    DETECT_LIMIT_S,
    OUT,
    ROOT,
    child_env,
    finite,
    host_fingerprint,
    median,
    percentile_or_none,
    read_json,
    run_passes,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("si-replay", "ser-live", "offline-si")
#: Passes per run: online against a fresh daemon each, offline checks in
#: a fresh interpreter each.
PASSES = {"si-replay": 3, "ser-live": 3, "offline-si": 12}
#: Upper bound on any one child process; a run must end within 180 s.
CHILD_TIMEOUT = 150.0

_SI = "checked_tps@si-replay"
_P50 = "detect_p50_ms@ser-live"
_P99 = "detect_p99_ms@ser-live"
_RSS = "peak_rss_mb@si-replay"
_OFF = "setup_s, checked_tps@offline-si"

#: Per-layer ledger: (name, unit, better, end-to-end metric it should move).
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("codec.encode_us_per_txn", "us", "lower", f"{_SI}; {_P50}"),
    ("codec.decode_us_per_txn", "us", "lower", f"{_SI}; {_P50}"),
    ("codec.bytes_per_txn", "bytes", "lower", f"{_SI}; {_P50}"),
    ("daemon.admit_p50_ms", "ms", "lower", f"{_P50}; {_SI}"),
    ("daemon.admit_p99_ms", "ms", "lower", f"{_P50}; {_SI}"),
    ("daemon.queue_high_water", "txn", "lower", f"{_P50}; {_SI}"),
    ("daemon.drain_tail_ms", "ms", "lower", f"{_P50}; {_SI}"),
    ("daemon.share", "1", "lower", f"{_P50}; {_SI}"),
    ("kernel.us_per_txn", "us", "lower", f"{_SI}; {_P50}"),
    ("kernel.share", "1", "lower", f"{_SI}; {_P50}"),
    ("kernel.txns_per_batch", "txn", "higher", f"{_SI}; {_P50}"),
    ("kernel.route_ops", "count", "lower", f"{_SI}; {_P50}"),
    ("kernel.probe_reads", "count", "lower", f"{_SI}; {_P50}"),
    ("kernel.probe_writes", "count", "lower", f"{_SI}; {_P50}"),
    ("kernel.verdict_tracks", "count", "lower", f"{_SI}; {_P50}"),
    ("kernel.verdict_reevals", "count", "lower", f"{_SI}; {_P50}"),
    ("kernel.interval_scan_steps", "count", "lower", f"{_SI}; {_P50}"),
    ("ext.poll_us_per_txn", "us", "lower", _P99),
    ("ext.flips", "count", "lower", _P99),
    ("gc.cycles", "count", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.share", "1", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.pause_p50_ms", "ms", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.pause_max_ms", "ms", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.us_per_evicted_txn.first", "us", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.us_per_evicted_txn.last", "us", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("gc.resident_max", "txn", "lower", f"{_P99}; {_SI}; {_RSS}"),
    ("obs.scrape_p50_ms", "ms", "lower", _SI),
    ("obs.scrape_max_ms", "ms", "lower", _SI),
    ("obs.sizeof_ms", "ms", "lower", _SI),
    ("chronos.load_s", "s", "lower", _OFF),
    ("chronos.sort_s", "s", "lower", _OFF),
    ("chronos.check_s", "s", "lower", _OFF),
    ("chronos.gc_s", "s", "lower", _OFF),
    ("pygc.gen2_collections", "count", "lower", _P99),
    ("pygc.pause_max_ms", "ms", "lower", _P99),
    ("gen.late_p99_ms", "ms", "lower", "none (validity)"),
    ("host.cpu_count", "count", "higher", "none (context)"),
    ("host.calib_kops", "kops", "higher", "none (context)"),
    ("host.steal_pct", "%", "lower", "none (context)"),
    ("trace.overhead_pct", "%", "lower", "none (context)"),
    ("failed_ratio", "1", "lower", "none (validity)"),
]

#: End-to-end metrics, printed for every workload with --trace 0.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("checked_tps", "txn/s"),
    ("detect_p50_ms", "ms"),
    ("detect_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]


class RunFailed(RuntimeError):
    pass


def run_child(script: str, args: List[str], log: Path) -> None:
    """Run a benchmark script in a fresh interpreter and its own process
    group; on timeout the whole group (daemons included) is killed."""
    with log.open("ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT, env=child_env(), stdout=err, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's group goes with it: nothing it started outlives it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        raise RunFailed(f"{script} {'timed out' if code is None else f'exited {code}'}; see {log}")


def child_json(script: str, args: List[str], name: str, log: Path) -> Dict[str, Any]:
    path = OUT / name
    path.unlink(missing_ok=True)
    run_child(script, [*args[:1], str(path), *args[1:]], log)
    return read_json(path)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def online(workload: str, input_dir: Path, traced: bool, log: Path) -> Dict[str, Any]:
    """Passes against fresh daemons; each metric is the median over passes."""
    meta = read_json(input_dir / "meta.json")
    # A traced run needs one pass: it reports layers, not end-to-end medians.
    wanted = 1 if traced else PASSES[workload]
    out = child_json("loadgen.py", [str(input_dir), "--trace", str(int(traced)),
                                    "--passes", str(wanted)],
                     f"{workload}-loadgen.json", log)
    passes = out["passes"]
    problems: List[str] = []
    # Passes whose generator ran late are discarded and rerun; half the
    # wanted passes on time still make a median.
    if len(passes) < (wanted + 1) // 2:
        problems.append(f"only {len(passes)} of {wanted} passes kept the generator "
                        f"within one tick")
    probe_ids = {identity for identity, _index, _due in meta["probes"]}
    if {reference_identity(r) for r in meta["reference"]} != probe_ids:
        problems.append("the reference verdicts are not exactly the injected probes")
    attempted = failed = 0
    samples: List[float] = []
    notes = [f"setup_s: median of {len(out['setup_s'])} daemon spawns, each at "
             f"{common.REFERENCE_KOPS:g} calibration kops",
             f"detect_*: percentiles over the "
             f"{sum(len(r['detect_s']) for r in passes)} probes of {len(passes)} passes, "
             f"a fresh daemon each; other metrics: median over the passes"]
    for i, run in enumerate(passes):
        if run["verdicts"] != meta["reference"]:
            problems.append(f"pass {i}: final verdicts differ from the reference "
                            f"({len(run['verdicts'])} vs {len(meta['reference'])} records)")
        if run["unexpected_pushes"]:
            problems.append(f"pass {i}: {run['unexpected_pushes']} pushes match no probe")
        if run["duplicate_pushes"]:
            problems.append(f"pass {i}: {run['duplicate_pushes']} probes pushed twice")
        attempted += run["sent"]
        failed += run["refused"] + max(0, run["sent"] - run["processed"]) + run["probes_failed"]
        samples += [x * 1e3 for x in run["detect_s"]]
        notes.append(f"pass {i}: {len(run['detect_s'])} probe samples, "
                     f"{run['probes_failed']} missed "
                     f"or over {DETECT_LIMIT_S[workload]:g} s; generator lateness p99 "
                     f"{late_p99_ms(run):.3f} ms over {len(run['late_s'])} frames; "
                     f"host steal {run['steal_pct']:.1f}%")
    for run in out["discarded"]:
        notes.append(f"pass discarded: generator lateness p99 {late_p99_ms(run):.3f} ms, "
                     f"host steal {run['steal_pct']:.1f}%")
    if not passes:
        # Nothing on time to report: every transaction of the run failed.
        passes = out["discarded"]
        attempted = failed = sum(run["sent"] for run in passes)
        samples = [math.inf]
    # Pooled, the tail holds every daemon GC pause of the run, not the one
    # or two a single pass sees.
    p99 = percentile_or_none(samples, 99.0)
    if p99 is None:
        p, p99 = tail_percentile(samples)
        p99 = p99 if p99 is not None else max(samples)
        notes.append(f"{len(samples)} probes do not support p99; detect_p99_ms is p{p}")
    metrics = {
        "setup_s": median(out["setup_s"]),
        "checked_tps": median([r["processed"] / r["wall_s"] for r in passes]),
        "detect_p50_ms": finite(median(samples)),
        "detect_p99_ms": finite(p99),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes, "loadgen": out, "meta": meta}


def reference_identity(record: str) -> str:
    parts = json.loads(record)
    return common.violation_identity(parts[0], parts[1], parts[2] if len(parts) > 2 else "")


def late_p99_ms(run: Dict[str, Any]) -> float:
    return common.late_p99(run["late_s"]) * 1e3


def offline(input_dir: Path, traced: bool, log: Path) -> Dict[str, Any]:
    """Checks in fresh interpreters, timed at the reference host speed.

    A check lasts under a second, far shorter than the minutes-long
    phases in which a shared host runs one thread up to a third slower,
    so no statistic over one run's raw timings escapes the phase the run
    fell in.  Each check's times are therefore scaled by the calibration
    loops run around it (:func:`common.at_reference_speed`), and the run
    reports their median.  Offline, every verdict becomes known when the
    check returns, so a transaction's detection latency is the whole
    load-and-check time: ``detect_p50_ms`` and ``detect_p99_ms`` coincide.
    """
    meta = read_json(input_dir / "meta.json")
    history = str(input_dir / "history.jsonl")
    reps = [
        child_json("offline.py", [history, "--trace", str(int(traced))], "offline.json", log)
        for _ in range(PASSES["offline-si"])
    ]
    problems: List[str] = []
    missed = common.undetected_labels(meta["labels"], meta["reference"])
    if missed:
        problems.append(f"the reference misses {len(missed)} injected labels")
    for i, rep in enumerate(reps):
        if rep["verdicts"] != meta["reference"]:
            problems.append(f"check {i}: verdicts differ from the stored reference")
        missed = common.undetected_labels(meta["labels"], rep["verdicts"])
        if missed:
            problems.append(f"check {i}: missed {len(missed)} injected labels")
    # Each timing is scaled by the calibration loops on either side of it:
    # calib_s holds the loops before the load, between load and check,
    # and after the check.
    def scaled(stage: Callable[[Dict[str, Any]], float], loops: slice) -> float:
        return median([common.at_reference_speed(stage(r), r["calib_s"][loops]) for r in reps])

    metrics = {
        "setup_s": scaled(lambda r: r["load_s"], slice(0, 2)),
        "checked_tps": meta["txns"] / scaled(lambda r: r["check_s"], slice(1, 3)),
        "detect_p50_ms": scaled(lambda r: r["load_s"] + r["check_s"], slice(0, 3)) * 1e3,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    metrics["detect_p99_ms"] = metrics["detect_p50_ms"]
    kops = [common.CALIB_ITERATIONS / x / 1000.0 for r in reps for x in r["calib_s"]]
    return {
        "metrics": metrics,
        "attempted": meta["txns"] * len(reps),
        "failed": 0,
        "problems": problems,
        "notes": [f"{len(reps)} checks of {meta['txns']} txns, each in a fresh interpreter; "
                  f"times are their median at {common.REFERENCE_KOPS:g} calibration kops, "
                  f"peak_rss_mb their median; detect_* is load + check time",
                  f"as measured: check median {median([r['check_s'] for r in reps]):.4f} s, "
                  f"load median {median([r['load_s'] for r in reps]):.4f} s; calibration "
                  f"{min(kops):.0f}-{max(kops):.0f} kops, median {median(kops):.0f}"],
        "reps": reps,
        "meta": meta,
    }


# ----------------------------------------------------------------------
# Per-layer ledger
# ----------------------------------------------------------------------


def layer_ledger(workload: str, run: Dict[str, Any], input_dir: Path, host: Dict[str, Any],
                 log: Path) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    values = {name: 0.0 for name, *_ in LAYER_METRICS}
    values["host.cpu_count"] = float(host["cpu_count"])
    values["host.calib_kops"] = host["calib_kops"]
    values["host.steal_pct"] = run["steal_pct"]
    values["failed_ratio"] = run["failed"] / run["attempted"]
    if workload == "offline-si":
        reps = run["reps"]
        values["chronos.load_s"] = median([r["load_s"] for r in reps])
        values["chronos.sort_s"] = median([r["sort_s"] for r in reps])
        values["chronos.check_s"] = median([r["chronos_check_s"] for r in reps])
        values["chronos.gc_s"] = median([r["gc_s"] for r in reps])
        values["pygc.gen2_collections"] = median([r["pygc"]["gen2"] for r in reps])
        values["pygc.pause_max_ms"] = max(r["pygc"]["pause_max_s"] for r in reps) * 1e3
        plain = offline(input_dir, False, log)["reps"]
        base = median([r["load_s"] + r["check_s"] for r in plain])
        traced = median([r["load_s"] + r["check_s"] for r in reps])
        values["trace.overhead_pct"] = (traced / base - 1.0) * 100.0
        return values

    out = run["loadgen"]
    first = (out["passes"] or out["discarded"])[0]
    stats = first["stats"]
    kernel = stats["kernel"]
    scraped_at = ["--scraped-at", ",".join(map(str, first["scraped_at"]))] \
        if first["scraped_at"] else []
    plain = child_json("inproc.py", [str(input_dir), "--trace", "0", *scraped_at],
                       "inproc-0.json", log)
    traced = child_json("inproc.py", [str(input_dir), "--trace", "1", *scraped_at],
                        "inproc-1.json", log)
    txns = traced["txns"]
    layers = traced["layers"]
    admit = [s * 1e3 for s in first["admit_s"]]
    values.update({
        "codec.encode_us_per_txn": layers["codec.encode"] / txns * 1e6,
        "codec.decode_us_per_txn": layers["codec.decode"] / txns * 1e6,
        "codec.bytes_per_txn": traced["frame_bytes"] / txns,
        "daemon.admit_p50_ms": median(admit),
        "daemon.admit_p99_ms": percentile_or_none(admit, 99.0) or max(admit),
        "daemon.queue_high_water": float(stats["queue_high_water"]),
        "daemon.drain_tail_ms": first["drain_tail_s"] * 1e3,
        # The daemon caches the estimated_bytes walk; the replay walks at
        # every scrape, so its walks are left out of the comparison.
        "daemon.share": 1.0 - (plain["wall_s"] - plain["sizeof_s"]) / first["wall_s"],
        "kernel.us_per_txn": layers["kernel.receive_many"] / txns * 1e6,
        "kernel.share": layers["kernel.receive_many"] / traced["wall_s"],
        "kernel.txns_per_batch": kernel["txns"] / max(1, kernel["batches"]),
        "kernel.route_ops": float(kernel["route_ops"]),
        "kernel.probe_reads": float(kernel["probe_reads"]),
        "kernel.probe_writes": float(kernel["probe_writes"]),
        "kernel.verdict_tracks": float(kernel["verdict_tracks"]),
        "kernel.verdict_reevals": float(kernel["verdict_reevals"]),
        "kernel.interval_scan_steps": float(stats["interval_scan_steps"]),
        "ext.poll_us_per_txn": layers["ext.poll"] / txns * 1e6,
        "ext.flips": float(traced["flips"]),
        "gc.resident_max": float(traced["resident_max"]),
        "obs.sizeof_ms": traced["sizeof_ms"],
        "pygc.gen2_collections": float(traced["pygc"]["gen2"]),
        "pygc.pause_max_ms": traced["pygc"]["pause_max_s"] * 1e3,
        "gen.late_p99_ms": late_p99_ms(first),
        "trace.overhead_pct": (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0,
    })
    cycles = traced["gc_cycles"]
    if cycles:
        pauses = sorted(c["seconds"] * 1e3 for c in cycles)
        quarter = max(1, math.ceil(len(cycles) / 4))

        def us_per_evicted(part: List[Dict[str, float]]) -> float:
            evicted = sum(c["evicted"] for c in part)
            return sum(c["seconds"] for c in part) / evicted * 1e6 if evicted else 0.0

        values.update({
            "gc.cycles": float(len(cycles)),
            "gc.share": layers["gc.collect"] / traced["wall_s"],
            "gc.pause_p50_ms": median(pauses),
            "gc.pause_max_ms": pauses[-1],
            "gc.us_per_evicted_txn.first": us_per_evicted(cycles[:quarter]),
            "gc.us_per_evicted_txn.last": us_per_evicted(cycles[-quarter:]),
        })
    scrapes = [s * 1e3 for s in first["scrape_s"]]
    if scrapes:
        values["obs.scrape_p50_ms"] = median(scrapes)
        values["obs.scrape_max_ms"] = max(scrapes)
    (OUT / f"trace-{workload}.json").write_text(json.dumps({
        "client": out["spans"], "inproc": traced["spans"],
    }) + "\n", encoding="utf-8")
    return values


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    common.use_src()
    import inputs

    OUT.mkdir(exist_ok=True)
    log = OUT / f"run-{args.workload}.log"
    log.write_bytes(b"")
    host = host_fingerprint()
    input_dir = inputs.ensure(args.workload, args.seed, inputs.Sizes.for_seconds(args.seconds))
    traced = bool(args.trace)
    steal_before = common.cpu_steal()
    try:
        if args.workload == "offline-si":
            run = offline(input_dir, traced, log)
        else:
            run = online(args.workload, input_dir, traced, log)
        steal, total = (after - before for after, before in zip(common.cpu_steal(), steal_before))
        run["steal_pct"] = 100.0 * steal / max(1, total)
        run["notes"].append(f"host steal: {run['steal_pct']:.1f}% of CPU time while measuring")
        if traced:
            values = layer_ledger(args.workload, run, input_dir, host, log)
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
        else:
            values = run["metrics"]
            units = dict(END_TO_END)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        return 2

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; host cpu_count={host['cpu_count']} "
          f"python={host['python']} calib_kops={host['calib_kops']}")
    for note in run["notes"]:
        print(f"# {note}")
    print(f"# failed_ratio = {run['failed']}/{run['attempted']} = "
          f"{run['failed'] / run['attempted']:.6g}")
    if traced:
        for name, unit, _better, moves in LAYER_METRICS:
            print(f"# {name:30s} {values[name]:>14.6g} {unit:6s} moves {moves}")
    else:
        for name, unit in END_TO_END:
            print(f"# {name:14s} {values[name]:>14.6g} {unit}")
    for problem in run["problems"]:
        print(f"# WRONG: {problem}")
    correct = not run["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
