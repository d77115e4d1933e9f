"""Sustained-traffic throughput: pipelined vs sequential runtime rounds.

Two kinds of measurement:

* **Virtual-clock throughput** (``test_pipelining_throughput_floor``,
  a plain test): rounds/sec on the deterministic scheduler's clock,
  pipelined vs the same reactor with pipelining off (one round after
  the other).  This is the committed regression gate for the
  structural win — overlapping round *N*+1's continuous arrivals with
  round *N*'s mine/verify/commit must buy at least 1.5x.
* **Wall-clock cost** (the ``benchmark`` tests): what a sustained run
  costs to *simulate* each way, gated by ``thresholds.json`` in the CI
  smoke job like every other bench.

Pipelining is pure schedule: both reactor runs must commit
bit-identical blocks, asserted here on every run.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.sustained import SustainedSpec, run_sustained

#: arrival cadence tuned so one round's arrival span roughly matches
#: the mine+verify+commit span — the regime pipelining exists for
BENCH_SPEC = SustainedSpec(
    num_clients=6,
    num_providers=3,
    num_miners=3,
    rounds=int(os.environ.get("DECLOUD_RUNTIME_ROUNDS", "").strip() or 8),
    seed=11,
    difficulty_bits=4,
    mean_interarrival=0.18,
)

#: committed floor for the pipelined vs sequential-schedule speedup
THROUGHPUT_FLOOR = 1.5


def test_pipelining_throughput_floor():
    pipelined = run_sustained(BENCH_SPEC, pipeline=True)
    sequential = run_sustained(BENCH_SPEC, pipeline=False)
    assert pipelined.rounds_committed == BENCH_SPEC.rounds
    assert sequential.rounds_committed == BENCH_SPEC.rounds
    assert pipelined.overlap_rounds == BENCH_SPEC.rounds - 1
    assert sequential.overlap_rounds == 0
    # schedule-only optimization: identical chains either way
    assert pipelined.block_hashes == sequential.block_hashes
    speedup = (
        pipelined.rounds_per_virtual_second
        / sequential.rounds_per_virtual_second
    )
    print(
        f"\nsustained throughput: pipelined "
        f"{pipelined.rounds_per_virtual_second:.3f} rounds/vs, sequential "
        f"{sequential.rounds_per_virtual_second:.3f} rounds/vs "
        f"({speedup:.2f}x)"
    )
    assert speedup >= THROUGHPUT_FLOOR


def test_bench_runtime_pipelined(benchmark):
    result = benchmark.pedantic(
        run_sustained,
        args=(BENCH_SPEC,),
        kwargs={"pipeline": True},
        rounds=1,
        iterations=1,
    )
    assert result.rounds_committed == BENCH_SPEC.rounds
    assert result.errors == []
    assert result.overlap_rounds == BENCH_SPEC.rounds - 1


def test_bench_runtime_sequential(benchmark):
    result = benchmark.pedantic(
        run_sustained,
        args=(BENCH_SPEC,),
        kwargs={"pipeline": False},
        rounds=1,
        iterations=1,
    )
    assert result.rounds_committed == BENCH_SPEC.rounds
    assert result.errors == []
    assert result.overlap_rounds == 0
    # same committed welfare and chain as the pipelined run of the spec
    pipelined = run_sustained(BENCH_SPEC, pipeline=True)
    assert result.welfare == pytest.approx(pipelined.welfare, abs=1e-9)
    assert result.block_hashes == pipelined.block_hashes
