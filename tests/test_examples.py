"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; breaking one silently is worse
than a failing test.  The slowest scripts run with reduced settings via
environment knobs where they expose none, so the whole set stays fast.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "iot_offloading.py",
    "sealed_bid_ledger.py",
    "private_enclave_market.py",
    "challenge_and_settlement.py",
    "edge_federation.py",
    "observability_demo.py",
    "degraded_round_demo.py",
    "pipelined_runtime_demo.py",
    "telemetry_demo.py",
]

SLOW_EXAMPLES = [
    "online_market.py",
    "flexibility_tradeoffs.py",
]


def _run(name, timeout=240, env=None):
    path = os.path.join(EXAMPLES_DIR, name)
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=merged,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_example_runs(name):
    result = _run(name, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "OK" in result.stdout or "Reading:" in result.stdout


def test_degraded_round_demo_renders_flight_bundle(tmp_path):
    result = _run(
        "degraded_round_demo.py", env={"PYTHONHASHSEED": "0"}
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "triggered by QuorumError" in result.stdout
    assert "cli-0" in result.stdout
    assert result.stdout.rstrip().endswith("OK")


def test_sharding_sweep_reports_welfare_tradeoff(tmp_path):
    csv_path = str(tmp_path / "shard-sweep.csv")
    result = _run(
        "sharding_sweep.py",
        timeout=600,
        env={
            "DECLOUD_SWEEP_SIZES": "1000",
            "DECLOUD_SWEEP_CSV": csv_path,
        },
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "w-ratio" in result.stdout
    assert result.stdout.rstrip().endswith("OK")
    with open(csv_path) as handle:
        header = handle.readline()
    assert "welfare_ratio" in header and "spillover_trades" in header


def test_chaos_sweep_reports_monitor_alert_column():
    result = _run("chaos_sweep.py", timeout=600, env={"CHAOS_ROUNDS": "1"})
    assert result.returncode == 0, result.stderr[-2000:]
    assert "alerts" in result.stdout
    assert "passed all mechanism monitors" in result.stdout


def test_fault_free_chaos_sweep_produces_zero_monitor_alerts():
    from repro.sim.chaos import ChaosSpec, run_chaos_sweep

    spec = ChaosSpec(
        num_clients=4, num_providers=2, num_miners=3,
        rounds=1, seed=11, difficulty_bits=4,
    )
    points = run_chaos_sweep(
        spec, drop_rates=(0.0,), byzantine=False, monitored=True
    )
    assert [point.monitor_alerts for point in points] == [0]
    assert points[0].rounds_completed == 1
