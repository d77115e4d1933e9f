"""The miner's allocator routes small blocks to the scalar engine.

:class:`~repro.protocol.allocator.DecloudAllocator` clears a block of
fewer than :data:`~repro.protocol.allocator.VECTORIZED_MIN_PAIRS`
(requests x offers) pairs on the reference engine whatever its config's
``engine`` says.  The route is only sound because both engines agree bit
for bit, so this suite checks, on seeded blocks from 2 pairs to well
past twice the threshold:

* the allocator's payload (as canonical JSON) and its ``last_outcome``
  equal what :class:`DecloudAuction` gives on *both* engines;
* degenerate blocks (one side empty, no feasible pair) come out the same
  way on the allocator and on both engines;
* the array kernels run exactly when a block reaches the threshold, so
  the route can neither vanish nor swallow large blocks unnoticed.
"""

from __future__ import annotations

import json

import pytest

from repro.core import clustering
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import canonical_outcome
from repro.cryptosim.hashing import canonical_json
from repro.protocol.allocator import VECTORIZED_MIN_PAIRS, DecloudAllocator
from repro.workloads.generators import generate_market, generate_zone_market
from tests.conftest import make_offer, make_request

EVIDENCE = b"route-evidence"
VECTORIZED = AuctionConfig(engine="vectorized")


def _plaintexts(requests, offers):
    """One round's plaintexts, keyed by the sender each bid names."""
    plaintexts = {}
    for bid in requests:
        plaintexts.setdefault(bid.client_id, []).append(bid.to_json())
    for bid in offers:
        plaintexts.setdefault(bid.provider_id, []).append(bid.to_json())
    return plaintexts


def _market(n_requests, n_offers, seed):
    return generate_market(n_requests, n_offers, seed=seed)


def _zone_market(n, seed, locality):
    requests, offers, _ = generate_zone_market(
        n, n_zones=2, seed=seed, kind="network", locality=locality
    )
    return requests, offers


#: (requests, offers) blocks from 2 pairs to past 2 x the threshold
BLOCKS = {
    "market-2x1": lambda: _market(2, 1, 3),
    "market-6x3": lambda: _market(6, 3, 3),
    "market-12x6": lambda: _market(12, 6, 3),
    "market-16x8": lambda: _market(16, 8, 4),
    "market-24x12": lambda: _market(24, 12, 5),
    "market-32x20": lambda: _market(32, 20, 3),
    "market-40x24": lambda: _market(40, 24, 4),
    "zone-strong-8": lambda: _zone_market(8, 3, "strong"),
    "zone-strong-16": lambda: _zone_market(16, 4, "strong"),
    "zone-strong-30": lambda: _zone_market(30, 3, "strong"),
    "zone-weak-12": lambda: _zone_market(12, 3, "weak"),
    "zone-weak-24": lambda: _zone_market(24, 5, "weak"),
}


def test_blocks_straddle_the_threshold():
    sizes = [len(r) * len(o) for r, o in (make() for make in BLOCKS.values())]
    assert min(sizes) == 2
    assert max(sizes) >= 2 * VECTORIZED_MIN_PAIRS
    assert any(size < VECTORIZED_MIN_PAIRS for size in sizes)
    assert sum(size >= VECTORIZED_MIN_PAIRS for size in sizes) >= 2


def _engine(engine, requests, offers):
    """``("outcome", canonical outcome, payload)`` as canonical JSON, or
    ``("error", type name)`` if the clear raised."""
    auction = DecloudAuction(AuctionConfig(engine=engine))
    try:
        outcome = auction.run(requests, offers, evidence=EVIDENCE)
    except Exception as exc:  # recorded: both sides must raise alike
        return "error", type(exc).__name__
    return (
        "outcome",
        canonical_json(canonical_outcome(outcome)),
        canonical_json(outcome.to_payload()),
    )


def _allocate(requests, offers):
    """:func:`_engine`'s triple for a vectorized-configured allocator: its
    ``last_outcome`` and the payload it hands the miner."""
    allocator = DecloudAllocator(VECTORIZED)
    try:
        payload = allocator(_plaintexts(requests, offers), EVIDENCE)
    except Exception as exc:
        return "error", type(exc).__name__
    return (
        "outcome",
        canonical_json(canonical_outcome(allocator.last_outcome)),
        canonical_json(payload),
    )


@pytest.mark.parametrize("name", list(BLOCKS))
def test_payload_and_outcome_equal_both_engines(name):
    requests, offers = BLOCKS[name]()
    allocated = _allocate(requests, offers)
    assert allocated[0] == "outcome"
    assert allocated == _engine("reference", requests, offers)
    assert allocated == _engine("vectorized", requests, offers)


def _zone_split():
    """Zone-0 requests against zone-1 offers of a strong-locality market:
    every resource type is zone-local, so no pair is feasible."""
    requests, offers = _zone_market(16, 3, "strong")
    return (
        [r for r in requests if r.location.startswith("zone-0/")],
        [o for o in offers if o.location.startswith("zone-1/")],
    )


DEGENERATE = {
    "no-offers": lambda: ([make_request(request_id="r0")], []),
    "no-requests": lambda: ([], [make_offer(offer_id="o0")]),
    "empty": lambda: ([], []),
    "no-feasible-pair": lambda: (
        [
            make_request(request_id=f"r{i}", resources={"gpu": 4.0})
            for i in range(3)
        ],
        [
            make_offer(offer_id=f"o{i}", resources={"cpu": 8.0})
            for i in range(2)
        ],
    ),
    "no-feasible-pair-zones": _zone_split,
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_blocks_come_out_the_same(name):
    requests, offers = DEGENERATE[name]()
    allocated = _allocate(requests, offers)
    assert allocated == _engine("reference", requests, offers)
    assert allocated == _engine("vectorized", requests, offers)
    if name.startswith("no-feasible-pair"):
        assert requests and offers
        assert json.loads(allocated[2])["matches"] == []


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of the vectorized best-offer-set kernel, by block size."""
    calls = []
    kernel = clustering.best_offer_sets

    def spy(ordered, offers, *args, **kwargs):
        calls.append(len(ordered) * len(offers))
        return kernel(ordered, offers, *args, **kwargs)

    monkeypatch.setattr(clustering, "best_offer_sets", spy)
    return calls


@pytest.mark.parametrize("name", list(BLOCKS))
def test_array_kernels_run_exactly_at_the_threshold(name, kernel_calls):
    requests, offers = BLOCKS[name]()
    pairs = len(requests) * len(offers)
    DecloudAllocator(VECTORIZED)(_plaintexts(requests, offers), EVIDENCE)
    expected = [pairs] if pairs >= VECTORIZED_MIN_PAIRS else []
    assert kernel_calls == expected


def test_the_threshold_itself_runs_the_kernels(kernel_calls):
    """One pair short of the threshold is scalar; the threshold is not."""
    requests, offers = _market(VECTORIZED_MIN_PAIRS, 1, 6)
    assert len(requests) * len(offers) == VECTORIZED_MIN_PAIRS
    allocator = DecloudAllocator(VECTORIZED)
    allocator(_plaintexts(requests[:-1], offers), EVIDENCE)
    assert kernel_calls == []
    allocator(_plaintexts(requests, offers), EVIDENCE)
    assert kernel_calls == [VECTORIZED_MIN_PAIRS]


def test_a_reference_allocator_never_runs_the_kernels(kernel_calls):
    requests, offers = BLOCKS["market-32x20"]()
    DecloudAllocator(AuctionConfig(engine="reference"))(
        _plaintexts(requests, offers), EVIDENCE
    )
    assert kernel_calls == []


def test_the_auction_itself_keeps_its_engine(kernel_calls):
    """Only the allocator routes: a vectorized DecloudAuction runs the
    array kernels on a 2-pair block too."""
    requests, offers = BLOCKS["market-2x1"]()
    DecloudAuction(VECTORIZED).run(requests, offers, evidence=EVIDENCE)
    assert kernel_calls == [2]
