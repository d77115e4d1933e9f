"""Online (multi-block) market simulation.

Allocations happen in block rounds (paper §VI): bids submitted since the
previous block enter the next one; unallocated participants resubmit
automatically until their windows expire.  The simulator tracks per-round
metrics and client-perceived allocation delay — the "observed delay"
behind the system's online appearance.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ValidationError
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import AuctionOutcome
from repro.market.bids import Offer, Request
from repro.obs import ObservabilityLike, resolve as resolve_obs


@dataclass
class RoundRecord:
    """What happened in one block round."""

    index: int
    time: float
    n_requests: int
    n_offers: int
    outcome: AuctionOutcome

    @property
    def trades(self) -> int:
        return self.outcome.num_trades

    @property
    def welfare(self) -> float:
        return self.outcome.welfare


@dataclass
class OnlineResult:
    """Aggregated results of an online run."""

    rounds: List[RoundRecord] = field(default_factory=list)
    #: request id -> blocks waited before allocation
    allocation_delay: Dict[str, int] = field(default_factory=dict)
    expired_requests: List[str] = field(default_factory=list)

    @property
    def total_welfare(self) -> float:
        return sum(r.welfare for r in self.rounds)

    @property
    def total_trades(self) -> int:
        return sum(r.trades for r in self.rounds)

    @property
    def mean_delay_blocks(self) -> float:
        if not self.allocation_delay:
            return 0.0
        return sum(self.allocation_delay.values()) / len(self.allocation_delay)

    @property
    def served_fraction(self) -> float:
        served = len(self.allocation_delay)
        total = served + len(self.expired_requests)
        return served / total if total else 0.0


class OnlineSimulator:
    """Clears a timestamped bid stream in fixed-interval block rounds."""

    def __init__(
        self,
        config: Optional[AuctionConfig] = None,
        block_interval: float = 1.0,
        seed: int = 0,
        obs: Optional[ObservabilityLike] = None,
    ) -> None:
        if block_interval <= 0:
            raise ValidationError("block_interval must be positive")
        self.config = config or AuctionConfig()
        self.block_interval = block_interval
        self.seed = seed
        #: optional observability: per-epoch queue depth, arrival/expiry
        #: counters, and trade-ratio gauges (plus the auction's own
        #: round instrumentation and any attached monitor suite)
        self.obs = resolve_obs(obs)
        self._auction = DecloudAuction(self.config)

    def _evidence(self, round_index: int) -> bytes:
        return hashlib.sha256(
            f"online-{self.seed}-{round_index}".encode()
        ).digest()

    def run(
        self,
        requests: Sequence[Request],
        offers: Sequence[Offer],
        horizon: float,
    ) -> OnlineResult:
        """Simulate rounds at ``block_interval`` up to ``horizon``.

        A pending request stays in the pool (resubmission, §III-B) until
        matched or until its execution window can no longer host its
        duration; offers persist until their windows end.
        """
        result = OnlineResult()
        pending_requests: List[Request] = []
        pending_offers: List[Offer] = []
        arrivals_r = deque(sorted(requests, key=lambda r: r.submit_time))
        arrivals_o = deque(sorted(offers, key=lambda o: o.submit_time))
        first_seen: Dict[str, int] = {}

        obs = self.obs
        round_index = 0
        now = self.block_interval
        while now <= horizon + 1e-9:
            # Admit new arrivals.
            arrived_r = 0
            arrived_o = 0
            while arrivals_r and arrivals_r[0].submit_time <= now:
                request = arrivals_r.popleft()
                first_seen[request.request_id] = round_index
                pending_requests.append(request)
                arrived_r += 1
            while arrivals_o and arrivals_o[0].submit_time <= now:
                pending_offers.append(arrivals_o.popleft())
                arrived_o += 1

            # Expire what can no longer run.
            still_alive: List[Request] = []
            for request in pending_requests:
                if request.window.end - now >= request.duration:
                    still_alive.append(request)
                else:
                    result.expired_requests.append(request.request_id)
            expired = len(pending_requests) - len(still_alive)
            pending_requests = still_alive
            n_offers_before = len(pending_offers)
            pending_offers = [
                offer for offer in pending_offers if offer.window.end > now
            ]
            expired_offers = n_offers_before - len(pending_offers)

            if obs.enabled:
                obs.registry.inc("online_rounds_total")
                obs.registry.inc(
                    "online_arrivals_total", arrived_r, side="request"
                )
                obs.registry.inc(
                    "online_arrivals_total", arrived_o, side="offer"
                )
                obs.registry.inc(
                    "online_expired_total", expired, side="request"
                )
                obs.registry.inc(
                    "online_expired_total", expired_offers, side="offer"
                )
                obs.registry.set(
                    "online_queue_depth", len(pending_requests),
                    side="request",
                )
                obs.registry.set(
                    "online_queue_depth", len(pending_offers), side="offer"
                )

            outcome = self._auction.run(
                pending_requests,
                pending_offers,
                evidence=self._evidence(round_index),
                obs=obs,
            )
            result.rounds.append(
                RoundRecord(
                    index=round_index,
                    time=now,
                    n_requests=len(pending_requests),
                    n_offers=len(pending_offers),
                    outcome=outcome,
                )
            )

            matched_requests = {
                m.request.request_id for m in outcome.matches
            }
            for request_id in matched_requests:
                result.allocation_delay[request_id] = (
                    round_index - first_seen[request_id]
                )
            matched_offers = {m.offer.offer_id for m in outcome.matches}
            # Matched participants leave the pool; unmatched resubmit.
            pending_requests = [
                r
                for r in pending_requests
                if r.request_id not in matched_requests
            ]
            pending_offers = [
                o for o in pending_offers if o.offer_id not in matched_offers
            ]

            if obs.enabled:
                obs.registry.inc("online_trades_total", outcome.num_trades)
                queued = outcome.num_trades + len(pending_requests)
                obs.registry.set(
                    "online_last_trade_ratio",
                    outcome.num_trades / queued if queued else 0.0,
                )
                obs.tracer.event(
                    "online.round",
                    index=round_index,
                    trades=outcome.num_trades,
                    queued_requests=len(pending_requests),
                    queued_offers=len(pending_offers),
                    expired=expired,
                )

            round_index += 1
            now += self.block_interval
        return result
