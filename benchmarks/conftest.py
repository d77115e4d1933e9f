"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper figure on a reduced sweep (so the
suite completes in minutes) and asserts the figure's qualitative shape —
the reproduction contract is the *shape*, not the authors' absolute
numbers (their substrate was a testbed; ours is a simulator).

The sweep sizes honour environment overrides so CI can run a reduced
smoke pass (see ``.github/workflows/ci.yml``) without a parallel config:

    DECLOUD_BENCH_SIZES="25 50"   # sweep sizes (space/comma separated)
    DECLOUD_BENCH_SEEDS=2         # number of seeds per point
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Tuple

import pytest

from repro.experiments.sweeps import run_similarity_sweep, run_size_sweep


def _env_sizes(name: str, default: tuple) -> tuple:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return tuple(int(token) for token in raw.replace(",", " ").split())


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def paired_ratio(
    baseline: Callable[[], object],
    variant: Callable[[], object],
    pairs: int = 7,
) -> Tuple[float, float, float]:
    """``(median ratio, median baseline s, median variant s)`` over
    ``pairs`` back-to-back baseline/variant runs, alternating which side
    of a pair runs first.

    Each ratio divides two runs taken back to back, so a slow stretch of
    a shared runner scales both sides of it; the median then drops the
    pairs a stall split.  Whatever the first run of a pair leaves the
    second (warm caches, garbage to collect, allocator state) falls on
    the variant in even pairs and on the baseline in odd ones, so it
    does not sit in every ratio with the same sign.  Best-of-k of each
    side kept whichever side got the one quiet moment — an overhead gate
    whose true ratio sits near its ceiling read 1.09-1.13 against 1.10
    from run to run.
    """

    def timed(run: Callable[[], object]) -> float:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    ratios, base_s, variant_s = [], [], []
    for pair in range(pairs):
        if pair % 2:
            variant_t = timed(variant)
            base_t = timed(baseline)
        else:
            base_t = timed(baseline)
            variant_t = timed(variant)
        base_s.append(base_t)
        variant_s.append(variant_t)
        ratios.append(variant_t / max(base_t, 1e-9))
    return (
        statistics.median(ratios),
        statistics.median(base_s),
        statistics.median(variant_s),
    )


BENCH_SIZES = _env_sizes("DECLOUD_BENCH_SIZES", (25, 50, 100, 200))
BENCH_SEEDS = range(_env_int("DECLOUD_BENCH_SEEDS", 3))
BENCH_SIMILARITIES = (0.1, 0.5, 0.9)


@pytest.fixture(scope="session")
def size_points():
    """The Fig. 5a/5b/5c sweep, computed once per session."""
    return run_size_sweep(sizes=BENCH_SIZES, seeds=BENCH_SEEDS)


@pytest.fixture(scope="session")
def similarity_points():
    """The Fig. 5d/5f sweep (strict vs 80% flexible)."""
    return run_similarity_sweep(
        similarities=BENCH_SIMILARITIES, seeds=BENCH_SEEDS
    )
