"""Protocol actors: inbox-driven wrappers around miners and participants.

Each node is an *actor*: it subscribes its node id to the protocol
topics on the transport and reacts to whatever lands in its inbox, in
whatever order the seeded scheduler delivers it.  The actors
deliberately own **no** protocol state machine — they wrap
:class:`~repro.ledger.miner.Miner` and
:class:`~repro.protocol.exposure.Participant` objects (Byzantine
subclasses included), so a schedule can change *when* things happen,
never *what* a node does.

The one genuinely order-sensitive spot is preamble composition: gossip
permutes arrivals.  :class:`MinerActor` therefore composes a preamble
in the submission order the reactor hands it, whatever order the bids
arrived in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping

from repro.common.errors import ReproError
from repro.ledger.block import BlockPreamble, KeyReveal
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
        miner.on_reveal_rejected = self.on_reveal_rejected
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
        # Verification and commit are quorum-driven by the runtime; the
        # gossiped proposal itself needs no reaction here.
        pass

    def on_reveal_rejected(self, reveal: KeyReveal, reason: str) -> None:
        """The miner screened a reveal out (forged key, unknown txid,
        undecryptable box): one Byzantine evidence event per rejection."""
        obs = self.runtime.obs
        if obs.enabled:
            obs.tracer.event(
                "byzantine.reveal_rejected",
                miner=self.miner.miner_id,
                sender=reveal.sender_id,
                txid=reveal.txid,
                reason=reason,
            )
            obs.registry.inc("protocol_byzantine_reveals_total", reason=reason)

    # -- composition ----------------------------------------------------
    def compose_preamble(
        self, sequence_hint: Mapping[str, int]
    ) -> BlockPreamble:
        """Freeze this miner's next preamble over one round's own bids.

        ``sequence_hint`` maps each txid the round sealed to its
        submission sequence.  :meth:`Miner.build_preamble`, but over the
        mempool's copies of those txids only, in that order: gossip
        permutation must not leak into the preamble (its hash is the
        auction's randomization evidence), and whatever else the mempool
        holds — an aborted round's leftovers, or a pipelined neighbour's
        admissions a crash-recovered store kept — is not this round's.
        """
        miner = self.miner
        pending = [
            tx
            for tx in miner.mempool.peek(len(miner.mempool))
            if tx.txid() in sequence_hint
        ]
        pending.sort(key=lambda tx: sequence_hint[tx.txid()])
        return miner.mine(pending[: miner.max_block_txs])


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
