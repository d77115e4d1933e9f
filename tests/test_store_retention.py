"""A node holds a window, not its history.

Every ``horizon`` (``K``) commits a :class:`~repro.store.NodeStore`
rolls its history off: the chain keeps between ``K`` and ``2K`` blocks,
and every per-round index a node keeps follows the same window.
:class:`LockstepNode` is the node both this file's structural twin and
the soak in ``benchmarks/test_bench_retention.py`` drive: ``3K`` rounds
at a small ``K`` here, index sizes only, so a regression fails fast.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.common.errors import PrunedHistoryError
from repro.core.config import AuctionConfig
from repro.ledger.block import Block, BlockPreamble, KeyReveal
from repro.ledger.chain import HORIZON, Blockchain
from repro.ledger.miner import Miner
from repro.market.bids import Request
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.contracts import AllocationContract
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.protocol.settlement import (
    EscrowState,
    SettlementProcessor,
    TokenLedger,
)
from repro.runtime import Runtime
from repro.sim import chaos
from repro.store import NodeStore
from repro.store.snapshot import decode_snapshot
from repro.workloads.generators import generate_market


class LockstepNode:
    """Three journaling miners on a zero-delay bus, node 0 settling.

    Every block submits the same market afresh.  A block's escrows are
    released when the next block commits — its services ran for one
    block — so what the ledger holds is the obligations in flight plus
    the terminal escrows of the retained window.  With ``release=False``
    the node settles as the round workloads of ``perfbench`` do: every
    escrow stays held.
    """

    def __init__(
        self,
        horizon: int,
        n_requests: int = 4,
        seed: int = 3,
        release: bool = True,
    ):
        self.horizon = horizon
        self.release = release
        self.stores = [NodeStore.in_memory(horizon=horizon) for _ in range(3)]
        self.miners = [
            Miner(
                miner_id=f"m{index}",
                allocate=DecloudAllocator(AuctionConfig(engine="vectorized")),
                difficulty_bits=4,
                store=store,
            )
            for index, store in enumerate(self.stores)
        ]
        self.settlement = SettlementProcessor(ledger=TokenLedger())
        self.stores[0].attach(settlement=self.settlement)
        self.protocol = ExposureProtocol(
            miners=self.miners, store=self.stores[0]
        )
        requests, offers = generate_market(n_requests, seed=seed)
        self.bids = list(requests) + list(offers)
        self.participants: Dict[str, Participant] = {}
        for bid in self.bids:
            owner = self._owner(bid)
            self.participants.setdefault(
                owner,
                Participant(
                    participant_id=owner,
                    deterministic=True,
                    seal_seed=b"retention",
                ),
            )
        self._in_service: List[str] = []

    @staticmethod
    def _owner(bid) -> str:
        return bid.client_id if isinstance(bid, Request) else bid.provider_id

    def commit_block(self) -> None:
        for bid in self.bids:
            self.protocol.submit(self.participants[self._owner(bid)], bid)
        result = self.protocol.run_round(list(self.participants.values()))
        for escrow_id in self._in_service if self.release else ():
            self.settlement.complete(escrow_id)
        self._in_service = list(
            self.settlement.settle_block(
                result.outcome.matches,
                auto_fund=True,
                block_hash=result.block.hash(),
            ).values()
        )

    def index_sizes(self) -> Dict[str, int]:
        """Entries per per-round index, the largest over the fleet's
        miners, stores and participants.  A participant has no store:
        its disclosures follow ``HORIZON`` whatever the store's window."""
        settled = self.settlement._settled_blocks
        terminal = {
            escrow_id
            for escrow_id, escrow in self.settlement.ledger.escrows.items()
            if escrow.state is not EscrowState.HELD
        }
        in_window = {eid for m in settled.values() for eid in m.values()}
        return {
            "chain blocks": max(len(list(m.chain)) for m in self.miners),
            "journaled blocks": max(
                sum(1 for r in s.wal.replay() if r["type"] == "chain.append")
                for s in self.stores
            ),
            "preambles": max(len(m.preamble_inbox) for m in self.miners),
            "preamble txs": max(len(m._preamble_txs) for m in self.miners),
            "reveal inboxes": max(len(m.reveal_inbox) for m in self.miners),
            "unscreened stashes": max(len(m._unscreened) for m in self.miners),
            "rejected reveals": max(
                len(m.rejected_reveals) for m in self.miners
            ),
            "opened plaintexts": max(
                sum(1 for w in m._work.values() if w.plaintexts)
                for m in self.miners
            ),
            "cleared allocations": max(
                sum(len(w.cleared) for w in m._work.values())
                for m in self.miners
            ),
            "disclosed reveals": max(
                len(p._disclosed) for p in self.participants.values()
            ),
            "round markers": len(self.stores[0].round_phases),
            "settled blocks": len(settled),
            # terminal escrows are counted by the block that opened them;
            # one outside every retained block counts on its own
            "terminal escrow blocks": sum(
                1 for m in settled.values() if terminal & set(m.values())
            )
            + len(terminal - in_window),
        }


class TestStructuralTwin:
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_every_index_stays_inside_the_window(self, horizon):
        node = LockstepNode(horizon)
        for _ in range(3 * horizon + 1):
            node.commit_block()
            sizes = node.index_sizes()
            assert sizes.pop("disclosed reveals") <= 2 * HORIZON
            assert all(
                size <= 2 * horizon for size in sizes.values()
            ), sizes
        assert sizes["chain blocks"] >= horizon
        chain = node.miners[0].chain
        assert chain.anchor_height > 0
        assert len(chain) == 3 * horizon + 1
        live = node.stores[0].state_digest()
        recovered = node.stores[0].recover(difficulty_bits=4)
        assert recovered.state_digest() == live
        assert horizon <= len(list(recovered.chain)) <= 2 * horizon


class TestHeldEscrows:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 18: settle_block opens an escrow per match "
        "and no round path ends one, so every roll's snapshot re-encodes "
        "each escrow ever held",
    )
    def test_a_settling_node_rolls_a_snapshot_that_stops_growing(self):
        node = LockstepNode(horizon=1, release=False)
        held = []
        for _ in range(5):
            node.commit_block()
            state, _seq = decode_snapshot(node.stores[0].snapshots.latest())
            held.append(len(state["ledger"]["escrows"]))
        assert held[-1] > 0  # the market matches: there is something to hold
        past_window = held[2:]
        assert max(past_window) <= past_window[0], held


class TestParticipantWindow:
    def test_disclosures_are_forgotten_horizon_blocks_later(self):
        requests, _offers = generate_market(1, seed=3)
        bid = requests[0]
        participant = Participant(
            participant_id=bid.client_id, deterministic=True
        )
        preambles = []
        for height in range(3 * HORIZON):
            tx = participant.seal(bid)
            preamble = BlockPreamble(
                height=height,
                parent_hash="00" * 32,
                transactions=(tx,),
                timestamp=float(height),
            )
            assert len(participant.reveals_for(preamble)) == 1
            preambles.append(preamble)
            assert len(participant._disclosed) <= HORIZON + 1
        # a re-request inside the window is still answered
        assert participant.re_reveal(preambles[-HORIZON])
        assert not participant.re_reveal(preambles[0])


def _chain_with_history(blocks: int) -> Blockchain:
    node = LockstepNode(horizon=1, n_requests=2)
    for _ in range(blocks):
        node.commit_block()
    return node.miners[0].chain


class TestPrunedHistoryIsTyped:
    def test_chain_names_its_anchor_below_it(self):
        chain = _chain_with_history(4)
        assert chain.anchor_height >= 2
        tip = chain[len(chain) - 1]
        assert chain[-1] is tip
        with pytest.raises(PrunedHistoryError) as raised:
            chain[0]
        assert raised.value.anchor_height == chain.anchor_height
        assert raised.value.anchor_hash == chain.anchor_hash
        with pytest.raises(IndexError):
            chain[len(chain)]
        assert chain.find_block(tip.hash()) is tip
        with pytest.raises(PrunedHistoryError):
            chain.find_block(chain.anchor_hash)  # the newest pruned block

    def test_register_block_passes_it_on(self):
        chain = _chain_with_history(4)
        contract = AllocationContract(chain=chain)
        contract.register_block(chain[-1].hash(), {})
        with pytest.raises(PrunedHistoryError):
            contract.register_block(chain.anchor_hash, {})

    def test_an_unknown_hash_names_both_causes(self):
        # a pruned chain cannot tell a rolled-off block from one it never
        # saw: the error names both, and the anchor
        chain = _chain_with_history(4)
        contract = AllocationContract(chain=chain)
        forged = "ab" * 32
        lookups = (chain.find_block, lambda h: contract.register_block(h, {}))
        for lookup in lookups:
            with pytest.raises(
                PrunedHistoryError, match="unknown here, or rolled off"
            ) as raised:
                lookup(forged)
            assert raised.value.anchor_height == chain.anchor_height
        assert Blockchain(difficulty_bits=4).find_block(forged) is None

    def test_chaos_catch_up_passes_it_on(self):
        # a miner whose store lost everything must catch up from a best
        # chain that no longer holds height 0
        spec = chaos.ChaosSpec(
            num_clients=2, num_providers=1, rounds=4, seed=5, max_delay=0.0
        )
        stores = chaos._durable_stores(spec, None, snapshot_every=1)
        clients, providers = chaos._build_participants(spec, False)
        Runtime(chaos._chaos_miners(spec, False, stores)).run(
            [
                chaos._runtime_round_inputs(spec, clients, providers, index)
                for index in range(spec.rounds)
            ]
        )
        stores[1] = NodeStore.in_memory(horizon=1)
        with pytest.raises(PrunedHistoryError):
            chaos._restart_fleet(
                spec, False, stores, None, chaos.DurableRunResult()
            )


def _journaling_pair(store):
    """A journaling node and the store-less leader whose blocks it
    commits; neither runs an auction."""
    def miner(miner_id, **kwargs):
        return Miner(
            miner_id=miner_id,
            allocate=lambda plaintexts, evidence: {"bids": len(plaintexts)},
            difficulty_bits=4,
            **kwargs,
        )

    return miner("node", store=store), miner("leader")


def _commit(node, leader, blocks):
    for _ in range(blocks):
        preamble = leader.build_preamble()
        block = Block(preamble=preamble, body=leader.build_body(preamble, ()))
        leader.commit_block(block)
        if node is not None:
            node.commit_block(block)


def _assert_recovers(store, chain):
    live = store.state_digest()
    recovered = store.recover(difficulty_bits=4)
    assert recovered.state_digest() == live
    assert (len(recovered.chain), recovered.chain.tip_hash) == (
        len(chain),
        chain.tip_hash,
    )
    return recovered


class TestUnscreenedStashes:
    def test_a_flood_of_reveals_for_unknown_preambles_rolls_off(self):
        # any peer can send reveals for a preamble nobody announced; each
        # stash keeps only as long as the window it was stamped in
        node, leader = _journaling_pair(NodeStore.in_memory(horizon=HORIZON))
        flooded = []
        for height in range(3 * HORIZON):
            phash = f"{height:064x}"
            for index in range(4):
                reveal = KeyReveal(
                    sender_id="mallory",
                    txid=f"{index:064x}",
                    temp_key=bytes(32),
                    blind=bytes(32),
                )
                assert node.accept_reveal(phash, reveal) is False
            flooded.append(phash)
            _commit(node, leader, 1)
            assert len(node._unscreened) <= 2 * HORIZON
        assert node.chain.anchor_height >= HORIZON
        assert flooded[0] not in node._unscreened
        assert flooded[-1] in node._unscreened


class TestRejectedReveals:
    def test_a_flood_of_forged_reveals_rolls_off(self):
        # any peer can send reveals that fail screening; the evidence
        # keeps only as long as the window it was stamped in
        node, leader = _journaling_pair(NodeStore.in_memory(horizon=HORIZON))
        flooded = []
        for height in range(3 * HORIZON):
            preamble = leader.build_preamble()
            node.accept_preamble(preamble)
            for index in range(4):
                reveal = KeyReveal(
                    sender_id="mallory",
                    txid=f"{height:032x}{index:032x}",
                    temp_key=bytes(32),
                    blind=bytes(32),
                )
                assert node.accept_reveal(preamble.hash(), reveal) is False
                flooded.append(reveal)
            _commit(node, leader, 1)
            assert len(node.rejected_reveals) <= 4 * 2 * HORIZON
        assert node.chain.anchor_height >= HORIZON
        kept = [reveal for reveal, _reason in node.rejected_reveals]
        assert flooded[0] not in kept
        assert flooded[-1] in kept
        assert {reason for _, reason in node.rejected_reveals} == {
            "unknown txid"
        }


class TestRollNeverPassesTheSegment:
    """A roll prunes at most to the previous snapshot's height: the log
    segment recovery re-appends starts there."""

    def test_a_smaller_horizon_over_the_same_log_recovers(self):
        store = NodeStore.in_memory(horizon=4)
        node, leader = _journaling_pair(store)
        _commit(node, leader, 10)  # rolls at heights 4 and 8
        _assert_recovers(store, leader.chain)
        # the same log and snapshots, reopened under a horizon of 1: the
        # store is now 2 blocks past its last snapshot, more than K
        reopened = NodeStore(
            wal=store.wal, snapshots=store.snapshots, horizon=1
        )
        node = reopened.recover(difficulty_bits=4).make_miner(
            "node", node.allocate, store=reopened
        )
        for _ in range(3):
            _commit(node, leader, 1)
            recovered = _assert_recovers(reopened, leader.chain)
            assert recovered.chain.anchor_height == node.chain.anchor_height
        assert node.chain.anchor_height == len(node.chain) - 2

    def test_a_chain_attached_with_history_recovers(self):
        node, leader = _journaling_pair(None)
        _commit(node, leader, 5)
        # a fresh store journals the chain from its tip on; the first
        # roll's snapshot carries the history before it
        store = NodeStore.in_memory(horizon=2)
        store.attach(chain=node.chain, mempool=node.mempool)
        checked = 0
        for _ in range(6):
            _commit(node, leader, 1)
            if store.snapshots.latest() is not None:
                _assert_recovers(store, leader.chain)
                checked += 1
        assert checked >= 4
        assert node.chain.anchor_height > 5
