"""Tests for the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The unit tests pin the statistics and accounting the metrics rest on;
the end-to-end tests run every workload at its smallest size, untraced
and traced, and check the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected, rank",
    [(10_000, 99.9, 9_990), (1_000, 99.0, 990), (999, 95.0, 950), (200, 95.0, 190),
     (199, 90.0, 180), (100, 90.0, 90), (40, 75.0, 30), (20, 50.0, 10),
     (19, None, None), (0, None, None)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected, rank):
    p, value = common.tail_percentile(float(i) for i in range(1, n + 1))
    assert p == expected
    assert value == rank
    if expected is not None:
        assert common.samples_beyond(n, expected) >= 10


def test_percentile_or_none_refuses_an_unsupported_tail():
    values = [float(i) for i in range(1, 1_000)]
    assert common.percentile_or_none(values, 99.0) is None
    assert common.percentile_or_none(values + [1_000.0], 99.0) == 990.0


def test_nearest_rank_reads_from_the_sample():
    assert common.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert common.nearest_rank([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        common.nearest_rank([], 50.0)


# ----------------------------------------------------------------------
# Open-loop due times and lateness
# ----------------------------------------------------------------------


def test_tick_frames_send_each_window_at_its_end():
    dues = [0.0, 0.004, 0.0099, 0.010, 0.035]
    frames = common.tick_frames(dues, 0.010)
    assert [round(at, 6) for at, _ in frames] == [0.010, 0.020, 0.040]
    assert [indices for _, indices in frames] == [[0, 1, 2], [3], [4]]


def test_tick_frames_reject_unordered_or_negative_dues():
    with pytest.raises(ValueError):
        common.tick_frames([0.02, 0.01], 0.010)
    with pytest.raises(ValueError):
        common.tick_frames([-0.001], 0.010)


def test_lateness_is_send_minus_schedule_never_negative():
    assert common.lateness([1.0, 2.0, 3.0], [1.002, 1.999, 3.5]) == pytest.approx(
        [0.002, 0.0, 0.5]
    )


def test_detect_latency_runs_from_the_due_time_not_the_send():
    # Probe due at 1.000 s, held in a frame sent at 1.010 s, pushed at
    # 1.015 s: the batching wait belongs to the latency.
    result = common.match_probes({"INT:7:k": 1.000}, [("INT:7:k", 1.015)], 5.0)
    assert result["samples"] == [pytest.approx(0.015)]
    assert result["failed"] == 0


# ----------------------------------------------------------------------
# Probe-to-push matching
# ----------------------------------------------------------------------


def test_missed_and_late_probes_are_infinite_and_failed():
    probes = {"INT:1:a": 0.0, "INT:2:b": 0.0, "INT:3:c": 0.0}
    pushes = [("INT:1:a", 0.01), ("INT:2:b", 6.0)]
    result = common.match_probes(probes, pushes, 5.0)
    assert result["samples"][0] == pytest.approx(0.01)
    assert result["samples"][1:] == [math.inf, math.inf]
    assert result["failed"] == 2


def test_pushes_count_once_and_strays_are_reported():
    probes = {"INT:1:a": 0.0}
    pushes = [("INT:1:a", 0.5), ("INT:1:a", 0.7), ("EXT:9:z", 0.8)]
    result = common.match_probes(probes, pushes, math.inf)
    assert result["samples"] == [0.5]
    assert result["duplicates"] == ["INT:1:a"]
    assert result["unexpected"] == ["EXT:9:z"]


def test_no_limit_still_fails_a_probe_never_pushed():
    result = common.match_probes({"INT:1:a": 0.0}, [], math.inf)
    assert result["failed"] == 1


def fake_steal(monkeypatch, shares):
    """Make each pass see the given host steal share, in percent."""
    readings = []
    steal = total = 0
    for share in shares:
        readings.append((steal, total))
        steal, total = steal + share, total + 100
        readings.append((steal, total))
    monkeypatch.setattr(common, "cpu_steal", iter(readings).__next__)


def test_run_passes_stops_once_enough_passes_are_clean(monkeypatch):
    fake_steal(monkeypatch, [0, 1, 0])
    runs = iter(range(10))
    kept, discarded = common.run_passes(lambda: {"n": next(runs)}, 2, 3)
    assert [r["n"] for r in kept] == [0, 1] and discarded == []


def test_run_passes_keeps_the_least_disturbed_passes_on_time(monkeypatch):
    fake_steal(monkeypatch, [10, 1, 2, 8])
    runs = iter(range(10))
    kept, discarded = common.run_passes(
        lambda: {"n": next(runs)}, 2, 2, on_time=lambda r: r["n"] != 1
    )
    assert [r["n"] for r in kept] == [2, 3]
    assert sorted(r["n"] for r in discarded) == [0, 1]
    assert [r["steal_pct"] for r in kept] == [2.0, 8.0]


def test_timings_are_scaled_to_the_reference_host_speed():
    at_reference = common.CALIB_ITERATIONS / (common.REFERENCE_KOPS * 1000.0)
    assert common.at_reference_speed(2.0, [at_reference] * 2) == pytest.approx(2.0)
    # On a host running the loop at half speed, the work ran at half speed too.
    assert common.at_reference_speed(2.0, [2 * at_reference] * 3) == pytest.approx(1.0)
    assert common.at_reference_speed(2.0, [at_reference, 3 * at_reference]) == pytest.approx(1.0)


def test_labels_match_verdicts_by_axiom_and_tid():
    verdicts = ['["INT",5,"k","1","2"]', '["NOCONFLICT",[3,4],"k"]']
    labels = [
        {"axiom": "INT", "tids": [5], "key": "k"},
        {"axiom": "NOCONFLICT", "tids": [4, 8], "key": "k"},
        {"axiom": "EXT", "tids": [5], "key": "k"},
    ]
    assert common.undetected_labels(labels, verdicts) == [labels[2]]


def test_violation_identity_round_trips_through_the_canon():
    common.use_src()
    import run

    record = common.canon_record(("INT", 12, "k000003", "'a'", "'b'"))
    assert run.reference_identity(record) == common.violation_identity("INT", 12, "k000003")


# ----------------------------------------------------------------------
# BENCHMARK.json and the printed metrics agree
# ----------------------------------------------------------------------


def test_benchmark_json_names_every_printed_metric():
    import run

    assert [m["name"] for m in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in run.LAYER_METRICS
    ]


# ----------------------------------------------------------------------
# Tiny end-to-end runs
# ----------------------------------------------------------------------


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["si-replay", "ser-live", "offline-si"])
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = run_benchmark(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, "si-replay", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
