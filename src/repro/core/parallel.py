"""Process-pool clearing of independent mini-auctions.

Mini-auctions interact only through the participants they consume: an
auction whose requests and offers are disjoint from every earlier
auction's cannot observe whether those auctions ran before it.  That
makes the sequential clearing loop of Alg. 1 parallelizable by *waves*:
auction ``i`` is scheduled one level after the latest earlier auction it
shares a participant with, and auctions on the same level clear
concurrently.

Sequential clearing draws all randomization from one evidence-seeded RNG
stream, which serializes the auctions.  The scheduled path instead
derives an independent stream per auction from the evidence and the
auction's position (:func:`derive_auction_rng`) — still fully
deterministic and miner-reproducible, and *identical whether the wave
runs in-process or across a process pool*.  ``AuctionConfig`` gates the
behaviour: ``miniauction_workers == 0`` keeps the historical shared
stream; ``>= 1`` uses per-auction streams; ``> 1`` adds the pool.

The non-nesting invariant
-------------------------

One clearing tree uses at most **one** process pool.  All pooled
execution — the shard fan-out of :mod:`repro.core.sharding` and the
mini-auction waves here — goes through :func:`shared_pool`, which hands
nested requests the outermost lease instead of spawning a second
executor, so total workers stay capped at the outermost width (the shard
fan-out caps at ``ShardPlan.shard_workers``).  Code that already runs
*inside* a pool worker must never request a pool of its own: the shard
runner clamps the per-shard ``miniauction_workers`` to <= 1 before a
shard config crosses the pickle boundary, and :class:`PoolLease` refuses
to resurrect a lease inherited from a forked parent (the pid guard).
Pools are also created lazily — a schedule whose waves are all
single-auction never pays the worker-spawn cost.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.rng import block_evidence_rng
from repro.core.cluster_allocation import PairChecks
from repro.core.config import AuctionConfig
from repro.core.miniauctions import MiniAuction
from repro.core.pricing import pooled_prices_batch
from repro.core.trade_reduction import (
    ClearingResult,
    _live_allocations,
    clear_mini_auction,
)
from repro.market.bids import Offer, Request
# Telemetry plane: capture_task/merge_payload only touch repro.common and
# repro.obs.registry at import time, so this cannot cycle back into core.
from repro.obs.telemetry import TelemetryPayload, capture_task, merge_payload


def derive_auction_rng(evidence: bytes, index: int) -> random.Random:
    """Independent verifiable stream for the ``index``-th mini-auction."""
    return block_evidence_rng(evidence + b"/mini-auction/" + str(index).encode())


class PoolLease:
    """A lazily-spawned, reusable :class:`ProcessPoolExecutor` handle.

    ``get()`` spawns the executor on first call and returns ``None``
    when the platform refuses to spawn workers (sandboxes) — callers
    then fall back to in-process execution, which is bit-identical by
    the per-auction/per-shard RNG-stream construction.  ``fail()``
    abandons a pool whose ``map`` raised so later waves stop retrying
    it.  The lease carries the pid that created it: a forked worker
    inheriting the module global must not touch the parent's executor.
    """

    __slots__ = ("max_workers", "_pool", "_pid", "_failed")

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pid = os.getpid()
        self._failed = False

    def get(self) -> Optional[ProcessPoolExecutor]:
        """The executor, spawned on first use; ``None`` if unavailable."""
        if self._failed or self._pid != os.getpid():
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            except (OSError, PermissionError):  # pragma: no cover - sandboxed
                self._failed = True
                return None
        return self._pool

    def fail(self) -> None:
        """Abandon a broken pool; subsequent ``get()`` returns ``None``."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self._failed = True

    def close(self) -> None:
        if self._pool is not None and self._pid == os.getpid():
            self._pool.shutdown()
        self._pool = None


_CURRENT_LEASE: Optional[PoolLease] = None


@contextmanager
def shared_pool(max_workers: int) -> Iterator[PoolLease]:
    """Lease the clearing tree's single process pool.

    The outermost caller creates (and finally closes) the lease; nested
    callers are handed the *same* lease, so one pool serves both the
    shard fan-out and any inner mini-auction waves run by the parent
    process — the non-nesting invariant documented above.  Nested
    requests keep the outermost width: total workers never exceed what
    the outermost caller asked for.
    """
    global _CURRENT_LEASE
    current = _CURRENT_LEASE
    if current is not None and current._pid == os.getpid():
        yield current
        return
    lease = PoolLease(max_workers)
    _CURRENT_LEASE = lease
    try:
        yield lease
    finally:
        _CURRENT_LEASE = None
        lease.close()


def auction_participants(auction: MiniAuction) -> Set[str]:
    """Tagged participant ids of an auction (requests and offers)."""
    participants: Set[str] = set()
    for allocation in auction.allocations:
        cluster = allocation.cluster
        participants.update(f"r:{rid}" for rid in cluster.request_ids)
        participants.update(f"o:{oid}" for oid in cluster.offer_ids)
    return participants


def schedule_waves(auctions: Sequence[MiniAuction]) -> List[List[int]]:
    """Level-schedule auction indices: same wave => disjoint participants.

    Auction ``i`` lands one level below the deepest earlier auction it
    conflicts with, so executing waves in order reproduces the sequential
    consumed-participant evolution exactly.
    """
    participant_sets = [auction_participants(a) for a in auctions]
    levels: List[int] = []
    for i, participants in enumerate(participant_sets):
        level = 0
        for j in range(i):
            if participants & participant_sets[j]:
                level = max(level, levels[j] + 1)
        levels.append(level)
    waves: List[List[int]] = [[] for _ in range(max(levels, default=-1) + 1)]
    for i, level in enumerate(levels):
        waves[level].append(i)
    return waves


def _restrict(mapping: Dict[str, object], ids: Set[str]) -> Dict[str, object]:
    return {key: value for key, value in mapping.items() if key in ids}


def _clear_task(
    args: Tuple[
        MiniAuction,
        Dict[str, Request],
        Dict[str, Offer],
        Set[str],
        Set[str],
        AuctionConfig,
        bytes,
        int,
    ],
    pairs: Optional[PairChecks] = None,
) -> ClearingResult:
    """Worker body: clear one auction with its derived RNG stream.

    ``pairs`` is passed by in-process callers only; a pooled task gets
    none and builds its own.
    """
    (auction, requests, offers, consumed_requests, consumed_offers,
     config, evidence, index) = args
    return clear_mini_auction(
        auction, requests, offers, consumed_requests, consumed_offers,
        config, derive_auction_rng(evidence, index), pairs=pairs,
    )


def _clear_task_captured(
    args: tuple,
    pairs: Optional[PairChecks] = None,
) -> Tuple[Optional[ClearingResult], TelemetryPayload, Optional[BaseException]]:
    """Worker body under a local telemetry bundle (never observably dark).

    Runs :func:`_clear_task` inside :class:`~repro.obs.telemetry.capture_task`:
    the worker's metric deltas and trace records ship home with the
    result, *including on failure* — the payload arrives tagged
    ``aborted`` and the parent re-raises after merging it.
    """
    index = args[7]
    with capture_task(f"mini:{index}", "mini_auction") as cap:
        cap.set_value(_clear_task(args, pairs))
    return cap.value, cap.payload, cap.error


def _clear_wave_batched(
    tasks: Sequence[tuple], pairs: Optional[PairChecks]
) -> List[ClearingResult]:
    """In-process wave clearing with SBBA pricing batched over the wave.

    Auctions in a wave are participant-disjoint, so their live re-fits
    and Eq. (20) prices are independent: the vectorized engine computes
    every auction's pooled price in one :func:`pooled_prices_batch`
    call, then clears each auction with its precomputed price.
    Bit-identical to clearing the wave one auction at a time.
    """
    lives = [
        _live_allocations(t[0], t[1], t[2], t[3], t[4], t[5], pairs)
        for t in tasks
    ]
    pooled = pooled_prices_batch(lives)
    return [
        clear_mini_auction(
            t[0], t[1], t[2], t[3], t[4], t[5],
            derive_auction_rng(t[6], t[7]), live=live, pooled=price,
            pairs=pairs,
        )
        for t, live, price in zip(tasks, lives, pooled)
    ]


def clear_auctions_scheduled(
    auctions: Sequence[MiniAuction],
    request_by_id: Dict[str, Request],
    offer_by_id: Dict[str, Offer],
    consumed_requests: Set[str],
    consumed_offers: Set[str],
    config: AuctionConfig,
    evidence: bytes,
    obs: object = None,
    pairs: Optional[PairChecks] = None,
) -> List[ClearingResult]:
    """Clear every auction with per-auction RNG streams, wave by wave.

    Mutates ``consumed_requests``/``consumed_offers`` exactly as the
    sequential loop would; the returned results are in auction order.
    With ``miniauction_workers > 1`` waves of two or more auctions run in
    a process pool — spawned lazily at the *first* such wave (an
    all-single-auction schedule never pays worker startup) and shared
    with any enclosing :func:`shared_pool` lease (e.g. the shard
    fan-out).  If the platform refuses to spawn workers the wave falls
    back to in-process execution, which is bit-identical.

    When ``obs`` has opted into the telemetry plane
    (``Observability(telemetry=True)``), every task — pooled *or*
    in-process — runs under a worker-local bundle whose deltas merge
    back into ``obs`` under ``worker="mini"`` in wave order.  The
    capture decision depends only on the bundle and the schedule, never
    on the worker count or whether a pool actually spawned, so the
    merged trace is byte-identical across ``miniauction_workers`` >= 1.

    ``pairs`` is the enclosing clear's
    :class:`~repro.core.cluster_allocation.PairChecks`; it serves the
    in-process tasks only and never crosses the pickle boundary.
    """
    capture = (
        obs is not None
        and getattr(obs, "enabled", False)
        and getattr(obs, "telemetry", False)
    )
    if config.candidates is not None:
        # Candidate generators play no role in clearing and carry
        # transient state (stats, location maps) that must not cross
        # the process-pool pickle boundary.
        config = replace(config, candidates=None)
    results: List[ClearingResult] = [None] * len(auctions)  # type: ignore[list-item]
    may_pool = config.miniauction_workers > 1 and len(auctions) > 1
    with shared_pool(config.miniauction_workers) as lease:
        for wave in schedule_waves(auctions):
            tasks = []
            for index in wave:
                auction = auctions[index]
                request_ids = {
                    rid
                    for allocation in auction.allocations
                    for rid in allocation.cluster.request_ids
                }
                offer_ids = {
                    oid
                    for allocation in auction.allocations
                    for oid in allocation.cluster.offer_ids
                }
                tasks.append((
                    auction,
                    _restrict(request_by_id, request_ids),
                    _restrict(offer_by_id, offer_ids),
                    consumed_requests & request_ids,
                    consumed_offers & offer_ids,
                    config,
                    evidence,
                    index,
                ))
            pool = lease.get() if may_pool and len(wave) > 1 else None
            if capture:
                # Per-task capture replaces the batched fast path: the
                # clearing math is bit-identical either way (enforced by
                # the equivalence suite), and attribution needs one
                # bundle per task.
                if pool is not None:
                    try:
                        captured = list(pool.map(_clear_task_captured, tasks))
                    except (OSError, PermissionError):  # pragma: no cover
                        lease.fail()
                        captured = [
                            _clear_task_captured(t, pairs) for t in tasks
                        ]
                else:
                    captured = [_clear_task_captured(t, pairs) for t in tasks]
                first_error: Optional[BaseException] = None
                wave_results = []
                for value, payload, error in captured:
                    # Merge before any re-raise: failed tasks report too.
                    merge_payload(obs, payload, worker="mini")
                    if error is not None and first_error is None:
                        first_error = error
                    wave_results.append(value)
                if first_error is not None:
                    raise first_error
            elif pool is not None:
                try:
                    wave_results = list(pool.map(_clear_task, tasks))
                except (OSError, PermissionError):  # pragma: no cover
                    lease.fail()
                    wave_results = [_clear_task(task, pairs) for task in tasks]
            elif (
                config.engine == "vectorized"
                and config.enable_trade_reduction
                and tasks
            ):
                wave_results = _clear_wave_batched(tasks, pairs)
            else:
                wave_results = [_clear_task(task, pairs) for task in tasks]
            for index, result in zip(wave, wave_results):
                results[index] = result
                consumed_requests |= result.participant_requests
                consumed_offers |= result.participant_offers
    return results
