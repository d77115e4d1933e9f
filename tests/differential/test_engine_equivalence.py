"""Differential oracle: vectorized engine == reference engine, bit for bit.

Hypothesis generates adversarial markets — tie-heavy grid amounts,
mixed flexibility regimes, degenerate windows, zero amounts, duplicated
bids — and every one must clear identically on both engines.  Market
sizes stay small so hundreds of examples run in seconds; the seeded
Google-trace/EC2 markets in ``test_seeded_markets`` cover realistic
structure at larger sizes.

Degraded rounds mirror the exposure protocol's failure semantics: a
seeded subset of bids never reveals and is excluded before clearing
(§III-B / the fault model of docs/SECURITY.md), so the engines are also
compared on every such survivor market.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.timewindow import TimeWindow
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.market.bids import Offer, Request
from repro.workloads.generators import generate_market

from tests.differential.conftest import assert_engines_agree, canonical_outcome

#: Grid values on purpose: exact float ties across participants are the
#: cases where only explicit tie-breaking keeps the engines aligned.
RESOURCE_TYPES = ("cpu", "ram", "disk", "gpu", "bw")
AMOUNTS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
GRID_BIDS = (0.25, 0.5, 1.0, 2.0, 4.0)
SUBMIT_TIMES = (0.0, 0.5, 1.0)

amounts = st.sampled_from(AMOUNTS)
bids = st.one_of(
    st.sampled_from(GRID_BIDS),
    st.floats(min_value=0.01, max_value=16.0, allow_nan=False),
)
sigmas = st.sampled_from((0.5, 0.9, 1.0))


@st.composite
def resource_vectors(draw, allow_zero=False):
    n_types = draw(st.integers(min_value=1, max_value=3))
    types = draw(
        st.lists(
            st.sampled_from(RESOURCE_TYPES),
            min_size=n_types,
            max_size=n_types,
            unique=True,
        )
    )
    vector = {t: draw(amounts) for t in types}
    if not allow_zero and all(v == 0.0 for v in vector.values()):
        vector[types[0]] = 1.0
    return vector


@st.composite
def requests(draw, index: int = 0):
    resources = draw(resource_vectors())
    significance = {
        t: draw(sigmas) for t in resources if draw(st.booleans())
    }
    start = draw(st.sampled_from((0.0, 1.0, 2.0)))
    duration = draw(st.sampled_from((1.0, 2.0, 4.0)))
    span = duration + draw(st.sampled_from((0.0, 2.0, 8.0)))
    return Request(
        request_id=f"r{index:02d}",
        client_id=f"c{draw(st.integers(min_value=0, max_value=6))}",
        submit_time=draw(st.sampled_from(SUBMIT_TIMES)),
        resources=resources,
        significance=significance,
        window=TimeWindow(start, start + span),
        duration=duration,
        bid=draw(bids),
        flexibility=draw(st.sampled_from((1.0, 0.8, 0.5))),
    )


@st.composite
def offers(draw, index: int = 0):
    start = draw(st.sampled_from((0.0, 1.0)))
    span = draw(st.sampled_from((4.0, 8.0, 24.0)))
    return Offer(
        offer_id=f"o{index:02d}",
        provider_id=f"p{draw(st.integers(min_value=0, max_value=4))}",
        submit_time=draw(st.sampled_from(SUBMIT_TIMES)),
        resources=draw(resource_vectors()),
        window=TimeWindow(start, start + span),
        bid=draw(bids),
    )


@st.composite
def markets(draw, max_requests: int = 10, max_offers: int = 8):
    n_requests = draw(st.integers(min_value=1, max_value=max_requests))
    n_offers = draw(st.integers(min_value=1, max_value=max_offers))
    return (
        [draw(requests(index=i)) for i in range(n_requests)],
        [draw(offers(index=j)) for j in range(n_offers)],
    )


CONFIGS = (
    AuctionConfig(),
    AuctionConfig(cluster_breadth=1),
    AuctionConfig(cluster_breadth=5),
    AuctionConfig(enable_mini_auctions=False),
    AuctionConfig(enable_randomization=False),
    AuctionConfig.benchmark(),
)


def _chain_market(num_bands=14, band_step=0.25, band_width=1.2):
    """Ladder of price-compatible clusters (exercises Alg. 3's DP/trees).

    Band ``k`` lives on its own resource type, so it forms its own
    cluster, with price range roughly ``[k*step, k*step + width]`` —
    consecutive bands overlap, so the bands chain into long
    price-compatible mini-auction paths.  Three offers against two
    requests per band leave an unused offer, giving every cluster a
    finite ``c_hat_{z'+1}`` pricing candidate.
    """
    requests_, offers_ = [], []
    for k in range(num_bands):
        rtype = f"t{k:02d}"
        low = band_step * k
        high = low + band_width
        for j in range(3):
            offers_.append(
                Offer(
                    offer_id=f"ch-o{k:02d}-{j}",
                    provider_id=f"chp-{k}-{j}",
                    submit_time=0.0,
                    resources={rtype: 1.0},
                    window=TimeWindow(0.0, 1.0),
                    bid=low + 0.05 * j,
                )
            )
        for i in range(2):
            requests_.append(
                Request(
                    request_id=f"ch-r{k:02d}-{i}",
                    client_id=f"chc-{k}-{i}",
                    submit_time=0.0,
                    resources={rtype: 1.0},
                    window=TimeWindow(0.0, 1.0),
                    duration=1.0,
                    bid=high - 0.05 * i,
                )
            )
    return requests_, offers_


def _single_trade_market(num_bands=8):
    """Isolated one-trade clusters: price ranges far apart, no chains.

    Every mini-auction holds exactly one tentative trade and no unused
    offer; the SBBA price comes from the winning request, whose client
    is then excluded — the whole auction reduces away.  The all-reduced
    edge is where sloppy pricing/reduction vectorization would diverge.
    """
    requests_, offers_ = [], []
    for k in range(num_bands):
        rtype = f"s{k:02d}"
        offers_.append(
            Offer(
                offer_id=f"st-o{k:02d}",
                provider_id=f"stp-{k}",
                submit_time=0.0,
                resources={rtype: 1.0},
                window=TimeWindow(0.0, 1.0),
                bid=10.0 * k + 1.0,
            )
        )
        requests_.append(
            Request(
                request_id=f"st-r{k:02d}",
                client_id=f"stc-{k}",
                submit_time=0.0,
                resources={rtype: 1.0},
                window=TimeWindow(0.0, 1.0),
                duration=1.0,
                bid=10.0 * k + 1.5,
            )
        )
    return requests_, offers_


def _tied_pricing_market():
    """Exact v_hat/c_hat ties everywhere, with surplus tied z'+1 offers.

    Two clusters with *identical* price ranges (so root selection and
    attachment tie on floats and must fall back to id-lexicographic
    keys), each with more identical offers than demand so the
    ``c_hat_{z'+1}`` pricing candidates tie across clusters too.
    """
    requests_, offers_ = [], []
    for rtype in ("tx", "ty"):
        for j in range(4):
            offers_.append(
                Offer(
                    offer_id=f"tp-o-{rtype}{j}",
                    provider_id=f"tpp-{rtype}{j}",
                    submit_time=0.0,
                    resources={rtype: 2.0},
                    window=TimeWindow(0.0, 4.0),
                    bid=1.0,
                )
            )
        for i in range(2):
            requests_.append(
                Request(
                    request_id=f"tp-r-{rtype}{i}",
                    client_id=f"tpc-{rtype}{i}",
                    submit_time=0.0,
                    resources={rtype: 2.0},
                    window=TimeWindow(0.0, 4.0),
                    duration=4.0,
                    bid=6.0,
                )
            )
    return requests_, offers_


class TestHypothesisMarkets:
    @given(market=markets(), evidence=st.binary(min_size=1, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_default_config(self, market, evidence):
        requests_, offers_ = market
        assert_engines_agree(requests_, offers_, evidence=evidence)

    @given(
        market=markets(max_requests=8, max_offers=6),
        config=st.sampled_from(CONFIGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_config_regimes(self, market, config):
        requests_, offers_ = market
        assert_engines_agree(requests_, offers_, config=config)

    @given(
        market=markets(max_requests=8, max_offers=6),
        drop_requests=st.sets(st.integers(min_value=0, max_value=7)),
        drop_offers=st.sets(st.integers(min_value=0, max_value=5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_degraded_rounds(self, market, drop_requests, drop_offers):
        """Fault-injected rounds: unrevealed bids are excluded up front."""
        requests_, offers_ = market
        survivors_r = [
            r for i, r in enumerate(requests_) if i not in drop_requests
        ]
        survivors_o = [
            o for j, o in enumerate(offers_) if j not in drop_offers
        ]
        assert_engines_agree(survivors_r, survivors_o, evidence=b"degraded")


class TestSeededMarkets:
    @pytest.mark.parametrize("size", [20, 60, 150])
    @pytest.mark.parametrize("flexibility", [1.0, 0.7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_google_trace_markets(self, size, flexibility, seed):
        requests_, offers_ = generate_market(
            size, seed=seed, flexibility=flexibility
        )
        assert_engines_agree(
            requests_, offers_, evidence=b"seeded-%d" % seed
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(
        filter(None, [
            f"breadth{c.cluster_breadth}",
            "" if c.enable_mini_auctions else "nomini",
            "" if c.enable_trade_reduction else "benchmark",
            "" if c.enable_randomization else "norandom",
        ])
    ))
    def test_config_sweep_on_seeded_market(self, config):
        requests_, offers_ = generate_market(80, seed=7)
        assert_engines_agree(requests_, offers_, config=config)


class TestBackHalfMarkets:
    """Cluster-chain-heavy and pricing-edge markets for the back-half
    kernels (batched normalization, vectorized Alg. 3)."""

    def test_chain_heavy_market(self):
        requests_, offers_ = _chain_market()
        digest = assert_engines_agree(
            requests_, offers_, evidence=b"chains",
        )
        assert digest["matches"]  # chains actually trade

    @pytest.mark.parametrize(
        "band_step,band_width", [(0.1, 2.0), (0.5, 0.6), (0.25, 0.11)]
    )
    def test_chain_overlap_regimes(self, band_step, band_width):
        """From one giant chain to hairline intervals (the greedy fit
        shaves 0.1 off the width, so 0.11 leaves near-zero intervals —
        maximal 1/(1+width) DP weights and predecessor ties)."""
        requests_, offers_ = _chain_market(
            band_step=band_step, band_width=band_width
        )
        assert_engines_agree(requests_, offers_, evidence=b"overlap")

    def test_single_trade_all_reduced(self):
        requests_, offers_ = _single_trade_market()
        digest = assert_engines_agree(
            requests_, offers_, evidence=b"single-trade",
        )
        # One-trade auctions price off their only winner, whose client
        # is excluded: everything reduces, nothing clears.
        assert digest["matches"] == []
        assert digest["reduced_requests"]

    def test_tied_virtual_bids(self):
        requests_, offers_ = _tied_pricing_market()
        assert_engines_agree(requests_, offers_, evidence=b"tied-pricing")

    def test_mixed_chain_and_seeded(self):
        """Chains grafted onto a realistic seeded market."""
        chain_r, chain_o = _chain_market(num_bands=8)
        seeded_r, seeded_o = generate_market(40, seed=13)
        assert_engines_agree(
            chain_r + seeded_r, chain_o + seeded_o, evidence=b"mixed"
        )


class TestIncrementalMatcher:
    def test_online_rounds_reuse_rows_bit_identically(self):
        """One auction instance across overlapping blocks (the online
        pattern) must equal fresh per-block clearing."""
        requests_, offers_ = generate_market(60, seed=5)
        incremental = DecloudAuction(AuctionConfig(engine="vectorized"))
        for round_index in range(4):
            # Overlapping participant pools: drop a sliding window.
            lo = round_index * 5
            block_r = requests_[lo : lo + 40]
            block_o = offers_[: len(offers_) - round_index * 3]
            evidence = b"online-%d" % round_index
            cached = canonical_outcome(
                incremental.run(block_r, block_o, evidence=evidence)
            )
            fresh = canonical_outcome(
                DecloudAuction(AuctionConfig(engine="reference")).run(
                    block_r, block_o, evidence=evidence
                )
            )
            assert cached == fresh


def test_bids_and_outcomes_do_not_depend_on_the_hash_seed():
    """Two interpreters with different string hashes must generate the
    same bid set and clear it to the same outcome on both engines: the
    float reductions over a pair's shared types walk them sorted, never
    in set order (three or more shared types are needed to see it)."""
    code = (
        "import hashlib, json\n"
        "from repro.core.auction import DecloudAuction\n"
        "from repro.core.config import AuctionConfig\n"
        "from repro.core.outcome import canonical_outcome\n"
        "from repro.workloads.generators import generate_market\n"
        "def digest(value):\n"
        "    text = json.dumps(value, sort_keys=True)\n"
        "    return hashlib.sha256(text.encode()).hexdigest()\n"
        "requests, offers = generate_market(400, seed=7)\n"
        "print(digest([bid.to_payload() for bid in requests + offers]))\n"
        "for engine in ('vectorized', 'reference'):\n"
        "    outcome = DecloudAuction(AuctionConfig(engine=engine)).run(\n"
        "        requests, offers, evidence=b'hash-seed')\n"
        "    print(digest(canonical_outcome(outcome)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1]
    _, vectorized, reference = outputs[0]
    assert vectorized == reference
