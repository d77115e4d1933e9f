"""Soak: a node that commits 2,000 blocks holds what it held at 200.

ROADMAP item 7's memory leg.  ``NodeStore`` rolls history off every
``HORIZON`` commits (``repro.ledger.chain.HORIZON``); with every
per-round index following the same window, nothing a node
keeps grows with its age.  The soak drives the perfbench-sized market
(12 requests, three journaling miners) through ``DECLOUD_SOAK_BLOCKS``
blocks (default 2,000) and asserts:

* resident memory stays within ±2 MiB of its value at block 200,
  sampled every ``HORIZON`` blocks so each sample holds an equal window;
* every per-round index holds at most ``2 * HORIZON`` entries.

The gated reading is *trimmed* RSS: taken after ``gc.collect()`` and
``malloc_trim(0)``, so it measures what the node holds.  The process's
RSS just before that collection and trim (the previous sample's trim
is ``HORIZON`` blocks old by then) is printed next to it and is not
gated: glibc keeps freed chunks cached, and its dynamic mmap threshold
moves untrimmed RSS by ±1.5 MiB between samples (on a 2-vCPU Linux
host: −1.3 to +0.6 MiB from block 200 over 2,000 blocks, against
+0.9 MiB trimmed).

Run:  PYTHONPATH=src python -m pytest benchmarks/test_bench_retention.py -s
(Linux: reads ``/proc/self/statm``.)  The tier-1 structural twin is
``tests/test_store_retention.py``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import os
from typing import Tuple

import pytest

from repro.ledger.chain import HORIZON
from tests.test_store_retention import LockstepNode

BLOCKS = int(os.environ.get("DECLOUD_SOAK_BLOCKS", "2000"))
FROM_BLOCK = 200
BAND_MIB = 2.0


def _statm_rss_mib() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mib() -> Tuple[float, float]:
    """(untrimmed, trimmed) resident memory.  The trimmed reading comes
    after a full collection, with the C allocator's free pages handed
    back (``malloc_trim``): what the node holds, not which free chunks
    glibc happens to cache."""
    untrimmed = _statm_rss_mib()
    gc.collect()
    libc = ctypes.util.find_library("c")
    if libc:
        trim = getattr(ctypes.CDLL(libc), "malloc_trim", None)
        if trim is not None:
            trim(0)
    return untrimmed, _statm_rss_mib()


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc RSS"
)
def test_rss_is_flat_from_block_200_to_2000():
    node = LockstepNode(horizon=HORIZON, n_requests=12)
    samples = []
    untrimmed = []
    for block in range(1, BLOCKS + 1):
        node.commit_block()
        phase = block % HORIZON
        if block < FROM_BLOCK or phase not in (0, FROM_BLOCK % HORIZON):
            continue
        # the indexes peak just before a roll (phase 0); RSS is compared
        # at one phase of the roll cycle, so every sample holds a window
        # of the same size
        sizes = node.index_sizes()
        assert all(size <= 2 * HORIZON for size in sizes.values()), (
            block,
            sizes,
        )
        if phase:
            raw, trimmed = _rss_mib()
            untrimmed.append(raw)
            samples.append((block, round(trimmed, 2)))
            print(
                f"block {block}: rss {samples[-1][1]} MiB "
                f"(untrimmed {raw:.2f}), {sizes}"
            )
    print(
        "untrimmed rss drift from block 200 (not gated): "
        f"{min(untrimmed) - untrimmed[0]:+.2f} to "
        f"{max(untrimmed) - untrimmed[0]:+.2f} MiB"
    )
    baseline = samples[0][1]
    assert max(abs(rss - baseline) for _b, rss in samples) <= BAND_MIB, samples
