"""The two-phase bid exposure protocol (paper §III, Fig. 2).

Phase 1 — *sealed bidding*: participants encrypt their requests/offers
with fresh temporary keys, sign them, and broadcast them to the miner
network.  The winning miner assembles the **preamble** (parent hash +
sealed bids + proof-of-work) and shares it.  No one — miner included —
can read any bid yet.

Phase 2 — *allocation and agreement*: participants whose bids appear in a
valid preamble broadcast their temporary keys.  The miner decrypts, runs
the DeCloud auction with the preamble hash as randomization evidence, and
shares the block **body** (keys + allocation suggestion).  Every other
miner re-executes the auction and accepts the block only on an exact
match; participants then accept or deny via the smart contract layer.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import (
    ByzantineFaultError,
    InsecureKeyWarning,
    ProtocolError,
    ReproError,
    RevealTimeoutError,
)
from repro.core.config import AuctionConfig
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.core.outcome import AuctionOutcome
from repro.cryptosim import schnorr
from repro.ledger.block import Block, BlockPreamble, KeyReveal
from repro.ledger.chain import HORIZON
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.network import BroadcastNetwork
from repro.ledger.transaction import SealedBidTransaction
from repro.market.bids import Offer, Request
from repro.protocol import messages
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.identity import IdentityRegistry


@dataclass
class Participant:
    """A client or provider with a signing identity and pending reveals.

    Protocol examples and deployments should pass ``fresh_key=True`` (a
    random, unforgeable key) and register the public key in an
    :class:`~repro.protocol.identity.IdentityRegistry` — that is the
    documented default for anything beyond a reproducible simulation.
    Simulations that *want* id-derived keys opt in with
    ``deterministic=True``; deriving them silently would let anyone
    recompute anyone's secret, so the silent fallback (kept for
    backwards compatibility) emits :class:`InsecureKeyWarning`.

    ``seal_seed`` additionally derives the temporary bid keys and nonces
    deterministically, making whole protocol rounds bit-reproducible —
    chaos experiments rely on this to replay identical fault scenarios.
    """

    participant_id: str
    keypair: schnorr.KeyPair = field(default=None)  # type: ignore[assignment]
    fresh_key: bool = False
    deterministic: bool = False
    seal_seed: Optional[bytes] = None
    _pending_reveals: Dict[str, KeyReveal] = field(default_factory=dict)
    #: reveals already disclosed for a preamble, with its height — kept
    #: for re-requests until ``HORIZON`` blocks have gone by
    _disclosed: Dict[str, Tuple[int, KeyReveal]] = field(
        default_factory=dict
    )
    _seal_counter: int = 0

    def __post_init__(self) -> None:
        if self.keypair is None:
            if self.fresh_key:
                self.keypair = schnorr.KeyPair.generate()
            else:
                if not self.deterministic:
                    warnings.warn(
                        f"participant {self.participant_id!r} uses an "
                        "id-derived keypair that anyone can recompute; pass "
                        "fresh_key=True for an unforgeable identity or "
                        "deterministic=True to acknowledge the simulation "
                        "trade-off",
                        InsecureKeyWarning,
                        stacklevel=2,
                    )
                self.keypair = schnorr.KeyPair.generate(
                    seed=self.participant_id.encode("utf-8")
                )

    def _next_seal_material(self) -> Dict[str, bytes]:
        """Temporary key/nonce for the next seal (seeded when requested)."""
        if self.seal_seed is None:
            return {}
        tag = (
            self.seal_seed
            + self.participant_id.encode("utf-8")
            + self._seal_counter.to_bytes(8, "big")
        )
        return {
            "temp_key": hashlib.sha256(b"tempkey" + tag).digest(),
            "nonce": hashlib.sha256(b"nonce" + tag).digest()[:16],
            "blind": hashlib.sha256(b"blind" + tag).digest(),
        }

    def seal(self, bid: Union[Request, Offer]) -> SealedBidTransaction:
        """Encrypt and sign one bid; the reveal is held until phase 2."""
        owner = (
            bid.client_id if isinstance(bid, Request) else bid.provider_id
        )
        if owner != self.participant_id:
            raise ProtocolError(
                f"participant {self.participant_id} cannot submit a bid "
                f"owned by {owner}"
            )
        return self._seal_bytes(bid.to_json())

    def _seal_bytes(self, plaintext: bytes) -> SealedBidTransaction:
        tx, reveal = make_sealed_bid(
            sender_id=self.participant_id,
            keypair=self.keypair,
            plaintext=plaintext,
            **self._next_seal_material(),
        )
        self._seal_counter += 1
        self._pending_reveals[tx.txid()] = reveal
        return tx

    def reveals_for(self, preamble: BlockPreamble) -> List[KeyReveal]:
        """Keys for this participant's bids included in ``preamble``.

        A rational participant only reveals keys for bids the (valid)
        preamble actually contains — revealing anything else would leak
        a live bid.  Disclosed reveals move out of the pending set (a
        second call returns nothing new) but stay available to
        :meth:`re_reveal` so lost gossip can be re-requested.
        """
        included = {tx.txid() for tx in preamble.transactions}
        stale = []
        for txid, (height, _reveal) in self._disclosed.items():
            if height >= preamble.height - HORIZON:
                break  # disclosed in (about) height order
            stale.append(txid)
        for txid in stale:
            del self._disclosed[txid]
        out: List[KeyReveal] = []
        for txid, reveal in list(self._pending_reveals.items()):
            if txid in included:
                out.append(reveal)
                self._disclosed[txid] = (preamble.height, reveal)
                del self._pending_reveals[txid]
        return out

    def re_reveal(
        self,
        preamble: BlockPreamble,
        txids: Optional[Iterable[str]] = None,
    ) -> List[KeyReveal]:
        """Re-disclose already-revealed keys for ``preamble``.

        Disclosure is idempotent — the keys left secrecy the moment
        :meth:`reveals_for` returned them, so answering a retry leaks
        nothing new.  ``txids`` narrows the answer to what the requester
        reports missing.
        """
        included = {tx.txid() for tx in preamble.transactions}
        if txids is not None:
            included &= set(txids)
        return [
            reveal
            for txid, (_height, reveal) in self._disclosed.items()
            if txid in included
        ]


#: re-gossips of one sealed bid before the runtime stops waiting for
#: every live mempool to admit it
SUBMIT_RETRIES = 2
#: leader re-requests for missing reveals before the still-sealed bids
#: are excluded
MAX_REVEAL_RETRIES = 2
#: growth of the runtime's reveal deadline per re-request
REVEAL_BACKOFF = 2.0


def leader_rotation(miners: Sequence[Miner], round_index: int) -> List[Miner]:
    """Round-robin proposer order for ``round_index``.

    Shared by the lockstep driver and the async runtime so the two
    engines can never disagree on who leads (or who falls back next)
    for a given round; the retry budgets above are shared the same way.
    """
    pivot = round_index % len(miners)
    return list(miners[pivot:]) + list(miners[:pivot])


@dataclass
class RoundResult:
    """Everything one protocol round produced."""

    block: Block
    outcome: AuctionOutcome
    accepted_by: List[str]
    #: sealed bids excluded because their keys never (validly) arrived
    excluded_txids: Tuple[str, ...] = ()
    #: miners whose proposals were rejected before one reached quorum
    failed_proposers: Tuple[str, ...] = ()


class ExposureProtocol:
    """Drives full rounds of the two-phase protocol over a synchronous bus.

    Every broadcast on the :class:`~repro.ledger.network.BroadcastNetwork`
    reaches every miner before it returns, so the only faults this
    driver meets are Byzantine ones — lossy networks, crashes and
    partitions are the :class:`~repro.runtime.Runtime`'s to replay.
    It still degrades gracefully under them:

    * **Reveal retry**: missing reveals are re-requested up to
      ``MAX_REVEAL_RETRIES`` times, after which the still-sealed bids
      are excluded and the auction runs on the surviving set (the
      paper's denial path).  Only when *every* bid stays sealed does the
      round abort with
      :class:`~repro.common.errors.RevealTimeoutError`.
    * **Quorum commit**: miners verify a proposed block first and append
      only once a majority of the network agrees, so a rejected proposal
      never leaves chains diverged.
    * **Leader fallback**: when the leader's body fails peer re-execution
      (equivocation, doctored allocation), the next miner rebuilds the
      body from the same preamble and reveal set; the round fails with
      :class:`~repro.common.errors.ByzantineFaultError` only if no
      proposer reaches quorum.
    """

    def __init__(
        self,
        miners: Sequence[Miner],
        network: Optional[BroadcastNetwork] = None,
        registry: Optional["IdentityRegistry"] = None,
        obs: Optional[ObservabilityLike] = None,
        store: Optional[object] = None,
    ) -> None:
        if not miners:
            raise ProtocolError("at least one miner is required")
        self.miners = list(miners)
        self.network = network or BroadcastNetwork()
        self.registry = registry
        #: optional observability bundle: the protocol emits the round
        #: span tree (seal -> round(mine, reveal, propose, verify,
        #: commit)), retry/exclusion/Byzantine events, and the ledger
        #: metrics (blocks mined, PoW iterations, block sizes).  Those
        #: spans are the phase clock: ``span_seconds(obs.tracer.records)``
        #: is the per-phase split across every round this protocol drives
        self.obs = resolve_obs(obs)
        #: optional durable store (``repro.store.NodeStore``): round phase
        #: transitions are journaled through it so recovery knows exactly
        #: how far an in-flight round progressed before a crash
        self.store = store
        self._round = 0
        #: global submission order, stamped onto every BidSubmission so
        #: order-sensitive consumers (the async runtime's miners) can
        #: reconstruct arrival order from permuted gossip
        self._submit_sequence = 0
        for miner in self.miners:
            self._subscribe_miner(miner)

    def _subscribe_miner(self, miner: Miner) -> None:
        def on_bid(_sender: str, payload) -> None:
            try:
                miner.accept_transaction(payload.transaction)
            except ReproError:
                # A malformed or forged submission is the sender's
                # problem; it must not crash the receiving node.
                pass

        def on_preamble(_sender: str, payload) -> None:
            miner.accept_preamble(payload.preamble)

        def on_reveal(_sender: str, payload) -> None:
            miner.accept_reveal(payload.preamble_hash, payload.reveal)

        self.network.subscribe(messages.TOPIC_BIDS, on_bid)
        self.network.subscribe(messages.TOPIC_PREAMBLE, on_preamble)
        self.network.subscribe(messages.TOPIC_REVEALS, on_reveal)

    def _journal_phase(self, round_index: int, phase: str, **extra) -> None:
        """Write one ``round.phase`` marker ahead of the transition."""
        if self.store is not None:
            self.store.log(
                "round.phase", round=round_index, phase=phase, **extra
            )

    @property
    def quorum(self) -> int:
        """Verifying majority over the whole miner set."""
        return len(self.miners) // 2 + 1

    # ------------------------------------------------------------------
    # Phase 1: sealed bidding
    # ------------------------------------------------------------------
    def submit(
        self, participant: Participant, bid: Union[Request, Offer]
    ) -> SealedBidTransaction:
        """Phase 1: seal a bid and gossip it to every miner.

        With an identity registry configured, the sender's public key is
        bound to its id on first contact and checked ever after —
        impersonating a registered id fails here, before any mempool.
        """
        with self.obs.tracer.span(
            "seal", participant=participant.participant_id
        ):
            tx = participant.seal(bid)
            if self.registry is not None:
                self.registry.check_or_register(
                    tx.sender_id, tx.sender_public
                )
            sequence = self._submit_sequence
            self._submit_sequence += 1
            self.network.broadcast(
                messages.TOPIC_BIDS,
                messages.BidSubmission(
                    transaction=tx,
                    trace=self.obs.tracer.child_context(
                        actor=participant.participant_id
                    ),
                    sequence=sequence,
                ),
                sender=participant.participant_id,
            )
        if self.obs.enabled:
            self.obs.registry.inc("protocol_seals_total")
        return tx

    # ------------------------------------------------------------------
    # Phase 2: reveal collection with retry
    # ------------------------------------------------------------------
    def _collect_reveals(
        self,
        leader: Miner,
        preamble: BlockPreamble,
        participants: Sequence[Participant],
    ) -> Tuple[KeyReveal, ...]:
        phash = preamble.hash()
        included: Set[str] = {tx.txid() for tx in preamble.transactions}
        for attempt in range(MAX_REVEAL_RETRIES + 1):
            inbox = leader.reveal_inbox.get(phash, {})
            missing = included - set(inbox)
            if not missing:
                break
            if attempt > 0 and self.obs.enabled:
                self.obs.tracer.event(
                    "reveal.retry", attempt=attempt, missing=len(missing)
                )
                self.obs.registry.inc("protocol_reveal_retries_total")
            for participant in participants:
                if attempt == 0:
                    reveals = participant.reveals_for(preamble)
                else:
                    reveals = participant.re_reveal(preamble, missing)
                for reveal in reveals:
                    self.network.broadcast(
                        messages.TOPIC_REVEALS,
                        messages.RevealMessage(
                            reveal=reveal,
                            preamble_hash=phash,
                            trace=self.obs.tracer.child_context(
                                actor=participant.participant_id
                            ),
                        ),
                        sender=participant.participant_id,
                    )
        return leader.collected_reveals(preamble)

    # ------------------------------------------------------------------
    # Full round
    # ------------------------------------------------------------------
    def run_round(
        self, participants: Sequence[Participant]
    ) -> RoundResult:
        """Mine one block end to end and return the verified outcome.

        The miner that "gets the block" rotates round-robin — consensus
        forks are out of scope (the paper builds on, not contributes to,
        the underlying consensus).

        With observability attached the round emits a ``round`` span
        containing ``mine``/``reveal``/``propose``/``verify``/``commit``
        children plus the degradation events (retries, exclusions,
        Byzantine rejections, fallbacks).  A round that aborts keeps
        its partial phase times: the phase that raised and the ``round``
        span itself close with ``status: "error"``, which
        :func:`~repro.obs.trace.span_seconds` counts under ``aborted``.
        """
        round_index = self._round
        flight = self.obs.flight if self.obs.enabled else None
        if flight is not None:
            flight.begin_round(round_index)
        try:
            with self.obs.tracer.span("round", index=round_index):
                try:
                    result = self._run_round(participants, round_index)
                except ReproError as exc:
                    self._journal_phase(
                        round_index, "aborted", error=type(exc).__name__
                    )
                    if self.obs.enabled:
                        self.obs.tracer.event(
                            "round.aborted", error=type(exc).__name__
                        )
                        self.obs.registry.inc(
                            "protocol_rounds_aborted_total",
                            reason=type(exc).__name__,
                        )
                    raise
        except ReproError as exc:
            # Dump after the round span closed so the bundle carries the
            # complete failing frame, error status included.
            if flight is not None:
                flight.dump(
                    trigger=type(exc).__name__,
                    error=str(exc),
                    round_index=round_index,
                )
            raise
        if flight is not None:
            flight.end_round(round_index)
        return result

    def _run_round(
        self, participants: Sequence[Participant], round_index: int
    ) -> RoundResult:
        obs = self.obs
        tracer = obs.tracer
        reg = obs.registry
        if obs.enabled:
            reg.inc("protocol_rounds_total")
        rotation = leader_rotation(self.miners, self._round)
        self._round += 1
        leader = rotation[0]
        self._journal_phase(round_index, "seal", leader=leader.miner_id)

        # Phase 1 completion: leader mines the preamble over sealed bids.
        self._journal_phase(round_index, "mine", leader=leader.miner_id)
        with tracer.span("mine", leader=leader.miner_id):
            preamble = leader.build_preamble()
        if obs.enabled:
            # Ledger-side metrics: what the miner committed and what the
            # proof-of-work cost (deterministic PoW scans from nonce 0,
            # so the winning nonce counts the iterations).
            reg.inc("ledger_blocks_mined_total")
            reg.inc("ledger_pow_iterations_total", preamble.pow_nonce + 1)
            reg.observe("ledger_block_txs", len(preamble.transactions))
            reg.observe("ledger_block_bytes", len(preamble.canonical_bytes))
        leader.accept_preamble(preamble)  # local knowledge, no gossip needed
        self.network.broadcast(
            messages.TOPIC_PREAMBLE,
            messages.PreambleAnnouncement(
                preamble=preamble,
                miner_id=leader.miner_id,
                trace=tracer.child_context(actor=leader.miner_id),
            ),
            sender=leader.miner_id,
        )

        # Peers validate the preamble's PoW before anyone reveals.
        for miner in self.miners:
            if not preamble.check_pow(miner.chain.difficulty_bits):
                raise ProtocolError("preamble failed proof-of-work check")

        # Phase 2: collect screened reveals; excluded bids stay sealed.
        self._journal_phase(round_index, "preamble", hash=preamble.hash())
        self._journal_phase(round_index, "reveal")
        rejected_before = [len(m.rejected_reveals) for m in self.miners]
        with tracer.span("reveal"):
            reveals = self._collect_reveals(leader, preamble, participants)
        revealed = {r.txid for r in reveals}
        excluded = tuple(
            tx.txid()
            for tx in preamble.transactions
            if tx.txid() not in revealed
        )
        if obs.enabled:
            reg.inc("protocol_reveals_total", len(reveals))
            # Byzantine evidence accumulated during this reveal phase:
            # reveals the miners screened out (forged keys, unknown
            # txids, undecryptable boxes) — one event per rejection.
            for miner, before in zip(self.miners, rejected_before):
                for reveal, reason in miner.rejected_reveals[before:]:
                    tracer.event(
                        "byzantine.reveal_rejected",
                        miner=miner.miner_id,
                        sender=reveal.sender_id,
                        txid=reveal.txid,
                        reason=reason,
                    )
                    reg.inc(
                        "protocol_byzantine_reveals_total", reason=reason
                    )
            # Exactly one exclusion event per bid whose key never
            # (validly) arrived — the trace-based suite pins this down.
            # Naming the sender makes the flight recorder's causal tree
            # point at the excluded *bidder*, not just an opaque txid.
            sender_of = {
                tx.txid(): tx.sender_id for tx in preamble.transactions
            }
            for txid in excluded:
                tracer.event(
                    "reveal.excluded", txid=txid, sender=sender_of[txid]
                )
            reg.inc("protocol_excluded_bids_total", len(excluded))
        if preamble.transactions and not reveals:
            if obs.enabled:
                tracer.event(
                    "reveal.timeout",
                    sealed=len(preamble.transactions),
                    retries=MAX_REVEAL_RETRIES,
                )
                reg.inc("protocol_reveal_timeouts_total")
            raise RevealTimeoutError(
                f"no valid key reveal arrived for any of the "
                f"{len(preamble.transactions)} sealed bids after "
                f"{MAX_REVEAL_RETRIES} retries"
            )

        # Proposal with fallback: the leader proposes first; if peers
        # reject its body, the next miner rebuilds from the same
        # preamble and reveal set.
        failed: List[str] = []
        for proposer in rotation:
            if failed and obs.enabled:
                tracer.event("round.fallback", proposer=proposer.miner_id)
            self._journal_phase(
                round_index, "propose", proposer=proposer.miner_id
            )
            with tracer.span("propose", proposer=proposer.miner_id):
                body = proposer.build_body(preamble, reveals)
                block = Block(preamble=preamble, body=body)
                self.network.broadcast(
                    messages.TOPIC_BLOCK,
                    messages.BlockProposal(
                        block=block,
                        miner_id=proposer.miner_id,
                        trace=tracer.child_context(actor=proposer.miner_id),
                    ),
                    sender=proposer.miner_id,
                )
            if obs.enabled:
                reg.inc("protocol_proposals_total")

            # Collective verification: every miner re-executes the
            # allocation; commit happens only after quorum agrees, so a
            # rejected proposal leaves no chain diverged.
            approving: List[Miner] = []
            self._journal_phase(round_index, "verify")
            with tracer.span("verify"):
                for miner in self.miners:
                    try:
                        miner.verify_block(block)
                    except ReproError:
                        continue
                    approving.append(miner)
            if len(approving) < self.quorum:
                failed.append(proposer.miner_id)
                if obs.enabled:
                    tracer.event(
                        "proposal.rejected",
                        proposer=proposer.miner_id,
                        approvals=len(approving),
                        quorum=self.quorum,
                    )
                    reg.inc("protocol_proposals_rejected_total")
                continue
            # the proposer's own clear of the block: read it before the
            # commit drops the round's work
            outcome = proposer.outcome_of(block) or AuctionOutcome()
            self._journal_phase(round_index, "commit")
            with tracer.span("commit"):
                for miner in approving:
                    miner.commit_block(block)
            self._journal_phase(
                round_index, "committed", hash=block.hash()
            )
            if obs.enabled:
                reg.inc("protocol_commits_total")
                reg.set("protocol_last_quorum", len(approving))
                if failed:
                    reg.inc("protocol_fallbacks_total")
                tracer.event(
                    "round.committed",
                    height=block.preamble.height,
                    approvals=len(approving),
                    excluded=len(excluded),
                )

            # Runtime mechanism monitors audit the committed block's
            # outcome — in strict mode a violated §IV invariant aborts
            # the round (caught above, traced, and flight-dumped).
            obs.check_outcome(
                outcome, source="protocol", round_index=round_index
            )
            return RoundResult(
                block=block,
                outcome=outcome,
                accepted_by=[m.miner_id for m in approving],
                excluded_txids=excluded,
                failed_proposers=tuple(failed),
            )
        raise ByzantineFaultError(
            "no block proposal reached quorum; rejected proposers: "
            + ", ".join(failed)
        )


def build_miner_network(
    num_miners: int,
    config: Optional[AuctionConfig] = None,
    difficulty_bits: int = 8,
    obs: Optional[ObservabilityLike] = None,
) -> ExposureProtocol:
    """Convenience factory: ``num_miners`` DeCloud miners on one bus."""
    miners = [
        Miner(
            miner_id=f"miner-{i}",
            allocate=DecloudAllocator(config),
            difficulty_bits=difficulty_bits,
        )
        for i in range(num_miners)
    ]
    return ExposureProtocol(miners=miners, obs=obs)
