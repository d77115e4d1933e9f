"""The allocation function miners execute and collectively verify.

Bridges the generic ledger (opaque plaintext bytes) to the DeCloud
auction: decode plaintexts into requests/offers, run the mechanism seeded
by the block evidence, and emit the deterministic JSON payload stored in
the block body.  Determinism is what makes peer verification by
re-execution possible, so inputs are canonically ordered before the
auction runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ValidationError
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import AuctionOutcome
from repro.market.bids import Offer, Request, decode_bid_payload


def decode_round(
    plaintexts: Dict[str, List[bytes]]
) -> Tuple[List[Request], List[Offer]]:
    """Decode and canonically order one round's bids.

    A plaintext that fails to decode invalidates only that participant's
    bid (they encrypted garbage — equivalent to not bidding), never the
    round.
    """
    requests: List[Request] = []
    offers: List[Offer] = []
    for sender_id in sorted(plaintexts):
        for raw in plaintexts[sender_id]:
            try:
                bid = decode_bid_payload(raw)
            except ValidationError:
                continue
            if isinstance(bid, Request):
                if bid.client_id == sender_id:
                    requests.append(bid)
            else:
                if bid.provider_id == sender_id:
                    offers.append(bid)
    requests.sort(key=lambda r: (r.submit_time, r.request_id))
    offers.sort(key=lambda o: (o.submit_time, o.offer_id))
    return requests, offers


#: Fewest (requests x offers) pairs a block needs before the allocator
#: clears it on the vectorized engine: below this, the NumPy kernels'
#: per-block set-up costs more than the scalar loops they replace.  The
#: smallest size at and above which the vectorized engine won on every
#: measured family (``generate_market`` and strong/weak-locality
#: ``generate_zone_market``, 6 to 968 pairs; docs/PERFORMANCE.md, "What
#: a round-sized block costs").
VECTORIZED_MIN_PAIRS = 441


class DecloudAllocator:
    """Callable handed to :class:`~repro.ledger.miner.Miner`.

    Stateless with respect to results (every call recomputes from its
    arguments); ``last_outcome`` is a convenience cache for the node that
    wants the rich object rather than the serialized payload.

    ``config.engine`` is an execution hint here: a block of fewer than
    :data:`VECTORIZED_MIN_PAIRS` pairs clears on the scalar reference
    engine whatever it says.  Both engines produce bit-identical
    outcomes (``tests/differential/``), so the route moves no payload,
    only the time a miner spends re-executing a round-sized block.
    """

    def __init__(self, config: Optional[AuctionConfig] = None) -> None:
        self.config = config or AuctionConfig()
        self._small_config = replace(self.config, engine="reference")
        self.last_outcome: Optional[AuctionOutcome] = None

    def __call__(
        self, plaintexts: Dict[str, List[bytes]], evidence: bytes
    ) -> Dict:
        requests, offers = decode_round(plaintexts)
        small = len(requests) * len(offers) < VECTORIZED_MIN_PAIRS
        auction = DecloudAuction(self._small_config if small else self.config)
        outcome = auction.run(requests, offers, evidence=evidence)
        self.last_outcome = outcome
        return outcome.to_payload()
