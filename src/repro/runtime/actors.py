"""Protocol actors: inbox-driven wrappers around miners and participants.

The lockstep :class:`~repro.protocol.exposure.ExposureProtocol` drives
every node from one synchronous loop.  Here each node is an *actor*: it
subscribes its node id to the protocol topics on the transport and
reacts to whatever lands in its inbox, in whatever order the seeded
scheduler delivers it.  The actors deliberately own **no** protocol
state machine — they wrap the very same :class:`~repro.ledger.miner.Miner`
and :class:`~repro.protocol.exposure.Participant` objects the lockstep
engine uses (Byzantine subclasses included), so the two engines can only
differ in *when* things happen, never in *what* a node does.

The one genuinely order-sensitive spot is preamble composition: a
lockstep mempool receives bids in submission order, but gossip permutes
arrivals.  :class:`MinerActor` therefore remembers the submission
``sequence`` stamped on every :class:`~repro.protocol.messages.BidSubmission`
and composes preambles in sequence order — restoring, by construction,
exactly the transaction order the lockstep engine sees.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
)

from repro.common.errors import ReproError
from repro.ledger import pow as pow_mod
from repro.ledger.block import BlockPreamble
from repro.ledger.miner import Miner
from repro.protocol import messages
from repro.protocol.exposure import Participant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.reactor import Runtime


class MinerActor:
    """A miner node reacting to gossip on its own inbox."""

    def __init__(self, runtime: "Runtime", miner: Miner) -> None:
        self.runtime = runtime
        self.miner = miner
        #: submission sequence per admitted txid (first claim wins);
        #: preambles are composed in this order
        self.sequence_of: Dict[str, int] = {}
        transport = runtime.transport
        node = miner.miner_id
        transport.subscribe_node(node, messages.TOPIC_BIDS, self.on_bid)
        transport.subscribe_node(node, messages.TOPIC_PREAMBLE, self.on_preamble)
        transport.subscribe_node(node, messages.TOPIC_REVEALS, self.on_reveal)
        transport.subscribe_node(node, messages.TOPIC_BLOCK, self.on_block)

    # -- inbox handlers -------------------------------------------------
    def on_bid(self, _sender: str, payload: messages.BidSubmission) -> None:
        tx = payload.transaction
        txid = tx.txid()
        if payload.sequence is not None:
            self.sequence_of.setdefault(txid, payload.sequence)
        try:
            self.miner.accept_transaction(tx)
        except ReproError:
            # A malformed or forged submission is the sender's problem;
            # it must not crash the receiving node.
            return
        self.runtime.note_admission(self.miner.miner_id, txid)

    def on_preamble(
        self, _sender: str, payload: messages.PreambleAnnouncement
    ) -> None:
        preamble = payload.preamble
        if not preamble.check_pow(self.miner.chain.difficulty_bits):
            self.runtime.note_bad_pow(self.miner.miner_id, preamble)
            return
        self.miner.accept_preamble(preamble)
        self.runtime.note_reveal(self.miner.miner_id, preamble.hash())

    def on_reveal(self, _sender: str, payload: messages.RevealMessage) -> None:
        self.miner.accept_reveal(payload.preamble_hash, payload.reveal)
        self.runtime.note_reveal(self.miner.miner_id, payload.preamble_hash)

    def on_block(self, _sender: str, payload: messages.BlockProposal) -> None:
        # Verification and commit are quorum-driven by the runtime (as in
        # the lockstep engine); the gossiped proposal itself needs no
        # reaction here.
        pass

    # -- composition ----------------------------------------------------
    def compose_preamble(
        self,
        allowed: Optional[AbstractSet[str]] = None,
        sequence_hint: Optional[Mapping[str, int]] = None,
    ) -> BlockPreamble:
        """Freeze this miner's next preamble in submission-sequence order.

        Mirrors :meth:`Miner.build_preamble` field for field, but orders
        the mempool snapshot by stamped submission sequence instead of
        local arrival order — gossip permutation must not leak into the
        preamble (its hash is the auction's randomization evidence).
        Transactions lacking a sequence (legacy senders) sort last, by
        txid for determinism.  ``allowed`` restricts the snapshot to one
        round's own sealed txids: a crash-recovered mempool may hold a
        pipelined neighbour round's admissions, which must land in that
        round's preamble, not this one's.  ``sequence_hint`` overrides
        the gossip-learned stamps: a recovered mempool can already hold
        a transaction everywhere, letting the round become minable
        before this miner's copy of the (redundant) gossip arrives — the
        runtime then supplies the authoritative submission order so the
        preamble stays schedule-invariant.
        """
        miner = self.miner
        pending = [
            tx
            for tx in miner.mempool.peek(len(miner.mempool))
            if allowed is None or tx.txid() in allowed
        ]
        stamps: Mapping[str, int] = (
            {**self.sequence_of, **sequence_hint}
            if sequence_hint
            else self.sequence_of
        )
        pending.sort(
            key=lambda tx: (
                stamps.get(tx.txid(), float("inf")),
                tx.txid(),
            )
        )
        txs = tuple(pending[: miner.max_block_txs])
        preamble = BlockPreamble(
            height=miner.chain.next_height,
            parent_hash=miner.chain.tip_hash,
            transactions=txs,
            timestamp=float(miner.chain.next_height),
        )
        nonce = pow_mod.solve(preamble.pow_payload(), miner.difficulty_bits)
        return preamble.with_nonce(nonce)


class ParticipantActor:
    """A bidder (client or provider) reacting to preambles and re-requests.

    One actor exists per participant *id*; durable scenarios rebuild
    participant objects per round under the same id, so the actor keeps
    every bound object and lets each answer for its own (disjoint)
    pending reveals — idempotent by construction.
    """

    def __init__(self, runtime: "Runtime", participant: Participant) -> None:
        self.runtime = runtime
        self.node_id = participant.participant_id
        self.participants: List[Participant] = [participant]
        transport = runtime.transport
        transport.subscribe_node(
            self.node_id, messages.TOPIC_PREAMBLE, self.on_preamble
        )
        transport.subscribe_node(
            self.node_id, messages.TOPIC_REVEAL_REQUEST, self.on_reveal_request
        )

    def bind(self, participant: Participant) -> None:
        if participant not in self.participants:
            self.participants.append(participant)

    def _send_reveals(
        self, preamble: BlockPreamble, reveals, attempt: int
    ) -> None:
        phash = preamble.hash()
        runtime = self.runtime
        for reveal in reveals:
            runtime.transport.broadcast(
                messages.TOPIC_REVEALS,
                messages.RevealMessage(
                    reveal=reveal,
                    preamble_hash=phash,
                    trace=runtime.obs.tracer.child_context(actor=self.node_id),
                ),
                sender=self.node_id,
                key=f"rv{attempt}-{phash[:16]}-{reveal.txid[:16]}",
            )

    def on_preamble(
        self, _sender: str, payload: messages.PreambleAnnouncement
    ) -> None:
        for participant in self.participants:
            reveals = participant.reveals_for(payload.preamble)
            if reveals:
                self._send_reveals(payload.preamble, reveals, attempt=0)

    def on_reveal_request(
        self, _sender: str, payload: messages.RevealRequest
    ) -> None:
        for participant in self.participants:
            # A participant whose preamble announcement was lost has not
            # disclosed yet: the re-request is its first sight of the
            # preamble, so it discloses (bids the preamble includes only)
            reveals = participant.re_reveal(payload.preamble, payload.txids)
            reveals += participant.reveals_for(payload.preamble)
            if reveals:
                self._send_reveals(
                    payload.preamble, reveals, attempt=payload.attempt
                )
