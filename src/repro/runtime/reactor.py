"""The protocol host: rounds as interleaved state machines.

:class:`Runtime` drives the two-phase exposure protocol (paper §III)
over a :class:`~repro.runtime.transport.DeterministicTransport`, one
scheduler event at a time.  Each round advances seal → mine → reveal →
propose → verify → commit, journaled through WAL ``round.phase``
markers, and **rounds overlap**: the moment round *N*'s preamble
freezes its transaction selection, round *N+1*'s seal phase opens, so
sealing and admission-settling of the next block run concurrently with
mining, reveal collection, verification, and commit of the current one.
Mining itself stays serialized (a preamble needs its parent hash),
which is exactly the dependency the paper's chain imposes.  With
``pipeline=False`` round *N+1* opens only once round *N* is terminal.

It is the only host: :class:`~repro.protocol.exposure.ExposureProtocol`
is a façade that seals at ``submit`` and drives one
``Runtime(pipeline=False)`` round per ``run_round`` on a lossless
transport.  The schedule never reaches a committed block:

* the same ``Miner``/``Participant`` objects execute every protocol
  action (sealing, screening, allocation, verification);
* preambles are composed in stamped submission-sequence order, not in
  gossip arrival order;
* leader rotation, quorum, retry budgets, and proposer fallback are
  fixed rules (``leader_rotation`` and the retry constants).

Under a lossless plan a run's committed blocks are bit-identical to a
straight-line chain of ``Miner`` calls across *every* scheduler seed
(``tests/differential/test_runtime_equivalence.py``); under faults each
committed block equals the fault-free replay on its surviving bid set
(the contract the chaos harness checks on every point).

Virtual phase costs (:class:`RuntimeCosts`) give mining, reveal
deadlines, and verification nonzero width on the virtual clock so that
pipelining has something to overlap; wall-clock work (PoW, allocation)
still runs eagerly inside the owning event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import (
    ByzantineFaultError,
    ProtocolError,
    QuorumError,
    ReproError,
    RevealTimeoutError,
)
from repro.core.outcome import AuctionOutcome
from repro.faults.plan import FaultPlan
from repro.ledger.block import Block, BlockPreamble
from repro.ledger.miner import Miner
from repro.ledger.transaction import SealedBidTransaction
from repro.market.bids import Offer, Request
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.protocol import messages
from repro.protocol.exposure import (
    MAX_REVEAL_RETRIES,
    REVEAL_BACKOFF,
    SUBMIT_RETRIES,
    Participant,
    RoundResult,
    leader_rotation,
)
from repro.protocol.identity import IdentityRegistry
from repro.runtime.actors import MinerActor, ParticipantActor
from repro.runtime.scheduler import DeterministicScheduler
from repro.runtime.transport import DeterministicTransport

Bid = Union[Request, Offer]


@dataclass(frozen=True)
class RuntimeCosts:
    """Virtual-time widths of the protocol phases.

    These shape the schedule (and what pipelining can overlap); they
    never affect committed outcomes — the determinism suite runs the
    same market under different costs and checks identical blocks.
    """

    mine: float = 1.0
    reveal_deadline: float = 1.0
    propose: float = 0.25
    verify: float = 0.25
    commit: float = 0.25
    #: polling interval for submission admission (the gossip-settle check)
    submit_check: float = 0.25


@dataclass(frozen=True)
class RoundInput:
    """One round's traffic: who submits what, and when it arrives.

    ``offsets`` are virtual-time arrival offsets from the round's
    seal-open instant (default: everything arrives immediately).  The
    sustained driver spreads them to model continuous arrivals.
    """

    submissions: Tuple[Tuple[Participant, Bid], ...]
    offsets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.offsets is not None and len(self.offsets) != len(
            self.submissions
        ):
            raise ValueError("offsets must match submissions 1:1")


@dataclass
class RuntimeRound:
    """Terminal record of one round driven by the runtime."""

    index: int
    result: Optional[RoundResult] = None
    #: error type name when the round aborted
    error: str = ""
    seal_opened_at: float = 0.0
    finished_at: float = 0.0
    #: True when this round's seal opened while its predecessor was
    #: still in flight — the pipelining overlap the bench counts
    overlapped: bool = False
    #: the typed error ``error`` names, for a caller that raises it
    exception: Optional[ReproError] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def committed(self) -> bool:
        return self.result is not None


@dataclass
class RuntimeReport:
    """Everything one :meth:`Runtime.run` produced."""

    rounds: List[RuntimeRound]
    virtual_time: float
    overlap_rounds: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    messages_censored: int
    backpressure_deferrals: int

    @property
    def committed(self) -> List[RoundResult]:
        return [r.result for r in self.rounds if r.result is not None]

    @property
    def aborted(self) -> List[RuntimeRound]:
        return [r for r in self.rounds if r.result is None]

    @property
    def rounds_per_virtual_second(self) -> float:
        if self.virtual_time <= 0.0:
            return float("inf")
        return len(self.committed) / self.virtual_time


class Submission:
    """One submission's lifecycle inside a round."""

    __slots__ = ("participant", "bid", "tx", "txid", "sequence", "attempts",
                 "settled", "state", "trace")

    def __init__(self, participant: Participant, bid: Bid) -> None:
        self.participant = participant
        self.bid = bid
        self.tx: Optional[SealedBidTransaction] = None
        self.txid: Optional[str] = None
        self.sequence: Optional[int] = None
        self.attempts = 0
        self.settled = False
        self.state: Optional["_RoundState"] = None
        #: the seal span's context: every gossip attempt (and its fate)
        #: hangs under the sender's ``seal`` span
        self.trace = None

    def seal(
        self, registry: Optional[IdentityRegistry], obs: ObservabilityLike
    ) -> SealedBidTransaction:
        """Seal the bid and bind its sender's key: the one seal path.

        With an identity registry the sender's public key is bound to
        its id on first contact and checked ever after, so an
        impersonation fails here, before any mempool sees the bid.
        """
        sender = self.participant.participant_id
        with obs.tracer.span("seal", participant=sender):
            self.tx = self.participant.seal(self.bid)
            if registry is not None:
                registry.check_or_register(
                    self.tx.sender_id, self.tx.sender_public
                )
            self.trace = obs.tracer.child_context(actor=sender)
        self.txid = self.tx.txid()
        if obs.enabled:
            obs.registry.inc("protocol_seals_total")
        return self.tx


_TERMINAL = ("done", "aborted")


class _RoundState:
    __slots__ = (
        "index", "number", "offsets", "status", "entries", "outstanding",
        "leader", "preamble", "phash", "txids", "reveals", "excluded",
        "proposer_queue", "failed", "deadline_handle", "reveal_trace",
        "record",
    )

    def __init__(
        self,
        index: int,
        number: int,
        entries: List[Submission],
        offsets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        #: position in this run, and the global round number — the one
        #: leader rotation, fault keys, the WAL and the trace use
        self.index = index
        self.number = number
        self.offsets = offsets
        self.status = "pending"
        self.entries = entries
        for entry in self.entries:
            entry.state = self
        self.outstanding = len(self.entries)
        self.leader: Optional[Miner] = None
        self.preamble: Optional[BlockPreamble] = None
        self.phash: Optional[str] = None
        #: the preamble's txids, each reveal must open one
        self.txids: frozenset = frozenset()
        self.reveals: Tuple = ()
        self.excluded: Tuple[str, ...] = ()
        self.proposer_queue: List[Miner] = []
        self.failed: List[str] = []
        self.deadline_handle: Optional[int] = None
        #: the ``reveal`` span's context: the preamble announcement and
        #: every re-request hang under it
        self.reveal_trace = None
        self.record = RuntimeRound(index=index)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL


class Runtime:
    """Asynchronous, pipelined driver for the exposure protocol."""

    def __init__(
        self,
        miners: Sequence[Miner],
        plan: Optional[FaultPlan] = None,
        schedule_seed: object = 0,
        scheduler: Optional[DeterministicScheduler] = None,
        transport: Optional[DeterministicTransport] = None,
        registry: Optional[IdentityRegistry] = None,
        costs: Optional[RuntimeCosts] = None,
        obs: Optional[ObservabilityLike] = None,
        store: Optional[object] = None,
        start_round: int = 0,
        pipeline: bool = True,
        inbox_capacity: int = 64,
        on_commit: Optional[Callable[[int, RoundResult], None]] = None,
    ) -> None:
        if not miners:
            raise ReproError("at least one miner is required")
        self.miners = list(miners)
        self.scheduler = scheduler or DeterministicScheduler(seed=schedule_seed)
        self.transport = transport or DeterministicTransport(
            self.scheduler, plan=plan, inbox_capacity=inbox_capacity
        )
        self.registry = registry
        self.costs = costs or RuntimeCosts()
        self.obs = resolve_obs(obs)
        self._flight = self.obs.flight if self.obs.enabled else None
        self.store = store
        self.start_round = start_round
        self.pipeline = pipeline
        self.on_commit = on_commit
        if self.obs.enabled:
            self.transport.attach_obs(self.obs)
        self._miner_actors: Dict[str, MinerActor] = {
            m.miner_id: MinerActor(self, m) for m in self.miners
        }
        self._participant_actors: Dict[str, ParticipantActor] = {}
        self._sequence = 0
        self._states: List[_RoundState] = []
        self._state_by_phash: Dict[str, _RoundState] = {}
        self._entry_by_txid: Dict[str, Submission] = {}
        #: the caller's trace position when the run started
        self._trace = None

    # ------------------------------------------------------------------
    # Protocol rules
    # ------------------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Verifying majority over the *whole* miner set, live or not."""
        return len(self.miners) // 2 + 1

    def _live_miners(self) -> List[Miner]:
        return [
            m for m in self.miners if not self.transport.is_down(m.miner_id)
        ]

    def _journal_phase(self, state: _RoundState, phase: str, **extra) -> None:
        # markers carry the *global* round number so a continuation
        # runtime (start_round > 0) journals into the same sequence the
        # original run did — recovery keys its credit-or-replay decision
        # on these indices
        if self.store is not None:
            self.store.log(
                "round.phase", round=state.number, phase=phase, **extra
            )
        if self.obs.enabled:
            # The same boundary on the virtual clock: consecutive marks of
            # one round chain into its stall flame (repro.obs.report).
            self.obs.tracer.event(
                "runtime.phase",
                round=state.number,
                phase=phase,
                vt=self.scheduler.now,
            )

    def _phase_span(self, name: str, **attrs):
        """A phase span under the caller of :meth:`run` — the façade's
        ``round`` span — whichever delivery happened to trigger it."""
        return self.obs.tracer.from_context(self._trace, name, **attrs)

    def _actor_for(self, participant: Participant) -> ParticipantActor:
        actor = self._participant_actors.get(participant.participant_id)
        if actor is None:
            actor = ParticipantActor(self, participant)
            self._participant_actors[participant.participant_id] = actor
        else:
            actor.bind(participant)
        return actor

    # ------------------------------------------------------------------
    # Driver entry point
    # ------------------------------------------------------------------
    def run(self, rounds: Sequence[RoundInput]) -> RuntimeReport:
        """Drive every round to a terminal state and report.

        Aborted rounds are *recorded* (with the typed error that ended
        them) and the runtime moves on — sustained traffic does not stop
        because one block failed.  Non-protocol exceptions (notably a
        simulated crash from the durability harness) propagate to the
        caller's supervisor, exactly as a process death would.
        """
        return self._drive(
            [
                _RoundState(
                    index,
                    self.start_round + index,
                    [Submission(p, b) for p, b in round_input.submissions],
                    round_input.offsets,
                )
                for index, round_input in enumerate(rounds)
            ]
        )

    def run_sealed(
        self,
        entries: Sequence[Submission],
        participants: Sequence[Participant],
    ) -> RuntimeRound:
        """Drive one round over submissions sealed ahead of it.

        :meth:`ExposureProtocol.submit
        <repro.protocol.exposure.ExposureProtocol.submit>` seals each bid
        when it is called; this runs the round those bids feed.  Only
        ``participants`` answer the preamble: a sender left out keeps
        its keys, as a withholder would.
        """
        for participant in participants:
            self._actor_for(participant)
        state = _RoundState(0, self.start_round, list(entries))
        return self._drive([state]).rounds[0]

    def _drive(self, states: List[_RoundState]) -> RuntimeReport:
        self._states = states
        self._trace = self.obs.tracer.child_context()
        if self._states:
            self._open_seal(self._states[0])
        self.scheduler.run()
        for state in self._states:
            if not state.terminal:  # pragma: no cover - progress invariant
                raise ReproError(
                    f"runtime stalled: round {state.index} ended in "
                    f"status {state.status!r} with an idle scheduler"
                )
        transport = self.transport
        if self.obs.enabled:
            self.obs.registry.set(
                "runtime_virtual_seconds", self.scheduler.now
            )
        return RuntimeReport(
            rounds=[state.record for state in self._states],
            virtual_time=self.scheduler.now,
            overlap_rounds=sum(
                1 for state in self._states if state.record.overlapped
            ),
            messages_sent=transport.sent,
            messages_delivered=transport.delivered,
            messages_dropped=transport.dropped,
            messages_censored=transport.censored,
            backpressure_deferrals=transport.deferred,
        )

    # ------------------------------------------------------------------
    # Phase 1: seal + gossip settle
    # ------------------------------------------------------------------
    def _open_seal(self, state: _RoundState) -> None:
        previous = self._states[state.index - 1] if state.index else None
        state.record.seal_opened_at = self.scheduler.now
        state.record.overlapped = previous is not None and not previous.terminal
        state.status = "sealing"
        if self._flight is not None:
            self._flight.begin_round(state.number)
        if self.obs.enabled:
            self.obs.registry.inc("protocol_rounds_total")
            if state.record.overlapped:
                self.obs.registry.inc("runtime_pipeline_overlaps_total")
            self.obs.tracer.event(
                "runtime.seal_open",
                round=state.number,
                overlapped=state.record.overlapped,
            )
        rotation = leader_rotation(self.miners, state.number)
        self._journal_phase(state, "seal", leader=rotation[0].miner_id)
        # Sealing is local and order-sensitive (temp-key material derives
        # from each participant's seal counter), so every entry seals NOW,
        # in input order.  Only the *gossip* of the sealed bid rides the
        # schedule, at its arrival offset.
        offsets = state.offsets or (0.0,) * len(state.entries)
        for entry in state.entries:
            self._seal_entry(entry)
        for entry, offset in zip(state.entries, offsets):
            self.scheduler.call_later(
                offset, lambda e=entry: self._gossip_bid(state, e)
            )
        if not state.entries:
            state.status = "sealed"
            self._maybe_mine()

    def _seal_entry(self, entry: Submission) -> None:
        if entry.tx is None:  # else sealed ahead, by run_sealed's caller
            entry.seal(self.registry, self.obs)
            self._actor_for(entry.participant)
        entry.sequence = self._sequence
        self._sequence += 1
        self._entry_by_txid[entry.txid] = entry

    def _gossip_bid(self, state: _RoundState, entry: Submission) -> None:
        entry.attempts += 1
        # Fault keys are content-addressed (global round + txid), never
        # positional: a crash-recovery continuation re-broadcasts from a
        # different stream position and local sequence base, and must
        # draw the exact fates the original run drew.
        self.transport.broadcast(
            messages.TOPIC_BIDS,
            messages.BidSubmission(transaction=entry.tx, trace=entry.trace),
            sender=entry.participant.participant_id,
            key=f"bid-{state.number}-{entry.txid[:16]}-a{entry.attempts}",
        )
        self.scheduler.call_later(
            self.costs.submit_check,
            lambda: self._check_submission(state, entry),
        )

    def _admitted_everywhere(self, txid: str) -> bool:
        live = self._live_miners()
        return bool(live) and all(txid in m.mempool for m in live)

    def note_admission(self, _miner_id: str, txid: str) -> None:
        """Actor callback: early-settle a submission once fully admitted."""
        entry = self._entry_by_txid.get(txid)
        if entry is None or entry.settled:
            return
        if self._admitted_everywhere(txid):
            self._settle_submission(entry)

    def _check_submission(
        self, state: _RoundState, entry: Submission
    ) -> None:
        if entry.settled:
            return
        if self._admitted_everywhere(entry.txid):
            self._settle_submission(entry)
            return
        if entry.attempts <= SUBMIT_RETRIES:
            if self.obs.enabled:
                self.obs.registry.inc("runtime_submit_retries_total")
            self._gossip_bid(state, entry)
            return
        # Retry budget exhausted: give up; the bid simply never reached
        # some mempool (it can resubmit in a later round).
        self._settle_submission(entry)

    def _settle_submission(self, entry: Submission) -> None:
        entry.settled = True
        state = entry.state
        state.outstanding -= 1
        if state.outstanding == 0 and state.status == "sealing":
            state.status = "sealed"
            self._maybe_mine()

    # ------------------------------------------------------------------
    # Mining (serialized on the chain's parent-hash dependency)
    # ------------------------------------------------------------------
    def _maybe_mine(self) -> None:
        for state in self._states:
            if state.terminal:
                continue
            if state.status == "sealed":
                self._start_mining(state)
            return

    def _start_mining(self, state: _RoundState) -> None:
        live = self._live_miners()
        if len(live) < self.quorum:
            live_of = f"{len(live)} of {len(self.miners)} miners live"
            self._abort(state, QuorumError(live_of))
            return
        rotation = leader_rotation(self.miners, state.number)
        leader = next(
            m for m in rotation if not self.transport.is_down(m.miner_id)
        )
        state.leader = leader
        state.status = "mining"
        self._journal_phase(state, "mine", leader=leader.miner_id)
        obs = self.obs
        with self._phase_span(
            "mine", leader=leader.miner_id, round=state.number
        ):
            # From this round's own sealed txids, in submission order
            preamble = self._miner_actors[leader.miner_id].compose_preamble(
                {entry.txid: entry.sequence for entry in state.entries}
            )
        state.preamble = preamble
        state.phash = preamble.hash()
        state.txids = frozenset(tx.txid() for tx in preamble.transactions)
        self._state_by_phash[state.phash] = state
        if obs.enabled:
            # deterministic PoW scans from nonce 0: the nonce counts the work
            reg = obs.registry
            reg.inc("ledger_blocks_mined_total")
            reg.inc("ledger_pow_iterations_total", preamble.pow_nonce + 1)
            reg.observe("ledger_block_txs", len(preamble.transactions))
            reg.observe("ledger_block_bytes", len(preamble.canonical_bytes))
        # The transaction selection is frozen: everything round N+1
        # gossips from here on lands in *its* preamble, not this one —
        # which is what makes opening the next seal now safe.
        if self.pipeline:
            self._open_next_seal(state.index)
        self.scheduler.call_later(
            self.costs.mine, lambda: self._announce(state)
        )

    def _open_next_seal(self, index: int) -> None:
        if index + 1 < len(self._states):
            nxt = self._states[index + 1]
            if nxt.status == "pending":
                self._open_seal(nxt)

    def _announce(self, state: _RoundState) -> None:
        leader = state.leader
        preamble = state.preamble
        leader.accept_preamble(preamble)  # local knowledge, no gossip needed
        state.status = "revealing"
        self._journal_phase(state, "preamble", hash=state.phash)
        self._journal_phase(state, "reveal")
        with self._phase_span("reveal", round=state.number):
            state.reveal_trace = self.obs.tracer.child_context(
                actor=leader.miner_id
            )
            self.transport.broadcast(
                messages.TOPIC_PREAMBLE,
                messages.PreambleAnnouncement(
                    preamble=preamble,
                    miner_id=leader.miner_id,
                    trace=state.reveal_trace,
                ),
                sender=leader.miner_id,
                key=f"pre-{state.number}",
            )
        state.deadline_handle = self.scheduler.call_later(
            self.costs.reveal_deadline,
            lambda: self._reveal_deadline(state, attempt=0),
        )
        self._check_reveal_complete(state)

    # ------------------------------------------------------------------
    # Phase 2: reveal collection with deadline, retry, and backoff
    # ------------------------------------------------------------------
    def note_reveal(self, miner_id: str, preamble_hash: str) -> None:
        """Actor callback: a reveal (or preamble) landed at ``miner_id``."""
        state = self._state_by_phash.get(preamble_hash)
        if (
            state is not None
            and state.leader is not None
            and state.leader.miner_id == miner_id
        ):
            self._check_reveal_complete(state)

    def note_bad_pow(self, miner_id: str, preamble: BlockPreamble) -> None:
        """Actor callback: a peer rejected an announced preamble's PoW."""
        state = self._state_by_phash.get(preamble.hash())
        if state is not None and not state.terminal:
            if self.obs.enabled:
                self.obs.tracer.event(
                    "runtime.bad_pow", round=state.number, miner=miner_id
                )
            self._abort(
                state, ProtocolError("preamble failed proof-of-work check")
            )

    def _missing_reveals(self, state: _RoundState) -> Set[str]:
        inbox = state.leader.reveal_inbox.get(state.phash, {})
        return state.txids - inbox.keys()

    def _check_reveal_complete(self, state: _RoundState) -> None:
        if state.status != "revealing":
            return
        if not self._missing_reveals(state):
            self._begin_propose(state)

    def _reveal_deadline(self, state: _RoundState, attempt: int) -> None:
        if state.status != "revealing":
            return
        missing = self._missing_reveals(state)
        if not missing:
            self._begin_propose(state)
            return
        if attempt < MAX_REVEAL_RETRIES:
            if self.obs.enabled:
                self.obs.tracer.event(
                    "reveal.retry", attempt=attempt + 1, missing=len(missing)
                )
                self.obs.registry.inc("protocol_reveal_retries_total")
            self.transport.broadcast(
                messages.TOPIC_REVEAL_REQUEST,
                messages.RevealRequest(
                    preamble=state.preamble,
                    txids=tuple(sorted(missing)),
                    miner_id=state.leader.miner_id,
                    attempt=attempt + 1,
                    trace=state.reveal_trace,
                ),
                sender=state.leader.miner_id,
                key=f"rvq-{state.number}-a{attempt + 1}",
            )
            state.deadline_handle = self.scheduler.call_later(
                self.costs.reveal_deadline
                * (REVEAL_BACKOFF ** (attempt + 1)),
                lambda: self._reveal_deadline(state, attempt + 1),
            )
            return
        # Budget exhausted: proceed with the survivors (or abort inside
        # _begin_propose when literally nothing was revealed).
        self._begin_propose(state)

    # ------------------------------------------------------------------
    # Propose → verify → commit (quorum-driven, with leader fallback)
    # ------------------------------------------------------------------
    def _begin_propose(self, state: _RoundState) -> None:
        if state.status != "revealing":
            return
        state.status = "proposing"
        if state.deadline_handle is not None:
            self.scheduler.cancel(state.deadline_handle)
            state.deadline_handle = None
        preamble = state.preamble
        reveals = state.leader.collected_reveals(preamble)
        revealed = {r.txid for r in reveals}
        state.reveals = reveals
        state.excluded = tuple(
            tx.txid()
            for tx in preamble.transactions
            if tx.txid() not in revealed
        )
        obs = self.obs
        if obs.enabled:
            obs.registry.inc("protocol_reveals_total", len(reveals))
            # One exclusion event per bid whose key never (validly)
            # arrived, naming its sender so the flight recorder's causal
            # tree points at the excluded *bidder*, not an opaque txid.
            sender_of = {
                tx.txid(): tx.sender_id for tx in preamble.transactions
            }
            for txid in state.excluded:
                obs.tracer.event(
                    "reveal.excluded", txid=txid, sender=sender_of[txid]
                )
            obs.registry.inc(
                "protocol_excluded_bids_total", len(state.excluded)
            )
        if preamble.transactions and not reveals:
            if obs.enabled:
                obs.tracer.event(
                    "reveal.timeout",
                    sealed=len(preamble.transactions),
                    retries=MAX_REVEAL_RETRIES,
                )
                obs.registry.inc("protocol_reveal_timeouts_total")
            self._abort(
                state,
                RevealTimeoutError(
                    f"no valid key reveal arrived for any of the "
                    f"{len(preamble.transactions)} sealed bids after "
                    f"{MAX_REVEAL_RETRIES} retries"
                ),
            )
            return
        state.proposer_queue = [
            m
            for m in leader_rotation(self.miners, state.number)
            if not self.transport.is_down(m.miner_id)
        ]
        state.failed = []
        self._next_proposer(state)

    def _next_proposer(self, state: _RoundState) -> None:
        if not state.proposer_queue:
            self._abort(
                state,
                ByzantineFaultError(
                    "no block proposal reached quorum; rejected proposers: "
                    + ", ".join(state.failed)
                ),
            )
            return
        proposer = state.proposer_queue.pop(0)
        if state.failed and self.obs.enabled:
            self.obs.tracer.event(
                "round.fallback", proposer=proposer.miner_id
            )
        self._journal_phase(state, "propose", proposer=proposer.miner_id)
        with self._phase_span(
            "propose", proposer=proposer.miner_id, round=state.number
        ):
            try:
                body = proposer.build_body(state.preamble, state.reveals)
            except ReproError as exc:
                self._abort(state, exc)
                return
            block = Block(preamble=state.preamble, body=body)
            self.transport.broadcast(
                messages.TOPIC_BLOCK,
                messages.BlockProposal(
                    block=block,
                    miner_id=proposer.miner_id,
                    trace=self.obs.tracer.child_context(
                        actor=proposer.miner_id
                    ),
                ),
                sender=proposer.miner_id,
                key=f"blk-{state.number}-{proposer.miner_id}",
            )
        if self.obs.enabled:
            self.obs.registry.inc("protocol_proposals_total")
        self.scheduler.call_later(
            self.costs.propose,
            lambda: self._verify(state, proposer, block),
        )

    def _verify(self, state: _RoundState, proposer: Miner, block: Block) -> None:
        self._journal_phase(state, "verify")
        approving: List[Miner] = []
        with self._phase_span("verify", round=state.number):
            for miner in self._live_miners():
                try:
                    miner.verify_block(block)
                except ReproError:
                    continue
                approving.append(miner)
        if len(approving) < self.quorum:
            state.failed.append(proposer.miner_id)
            if self.obs.enabled:
                self.obs.tracer.event(
                    "proposal.rejected",
                    proposer=proposer.miner_id,
                    approvals=len(approving),
                    quorum=self.quorum,
                )
                self.obs.registry.inc("protocol_proposals_rejected_total")
            self.scheduler.call_later(
                self.costs.verify, lambda: self._next_proposer(state)
            )
            return
        self.scheduler.call_later(
            self.costs.verify + self.costs.commit,
            lambda: self._commit(state, proposer, block, approving),
        )

    def _commit(
        self,
        state: _RoundState,
        proposer: Miner,
        block: Block,
        approving: List[Miner],
    ) -> None:
        # the proposer's own clear of the block: read it before the
        # commit drops the round's work
        outcome = proposer.outcome_of(block) or AuctionOutcome()
        self._journal_phase(state, "commit")
        with self._phase_span("commit", round=state.number):
            for miner in approving:
                miner.commit_block(block)
        self._journal_phase(state, "committed", hash=block.hash())
        obs = self.obs
        if obs.enabled:
            obs.registry.inc("protocol_commits_total")
            obs.registry.set("protocol_last_quorum", len(approving))
            if state.failed:
                obs.registry.inc("protocol_fallbacks_total")
            obs.tracer.event(
                "round.committed",
                round=state.number,
                height=block.preamble.height,
                approvals=len(approving),
                excluded=len(state.excluded),
            )
        obs.check_outcome(outcome, source="runtime", round_index=state.number)
        result = RoundResult(
            block=block,
            outcome=outcome,
            accepted_by=[m.miner_id for m in approving],
            excluded_txids=state.excluded,
            failed_proposers=tuple(state.failed),
        )
        state.record.result = result
        state.record.finished_at = self.scheduler.now
        state.status = "done"
        if self._flight is not None:
            self._flight.end_round(state.number)
        if self.on_commit is not None:
            self.on_commit(state.index, result)
        self._after_terminal(state)

    def _abort(self, state: _RoundState, error: ReproError) -> None:
        if state.terminal:
            return
        reason = type(error).__name__
        self._journal_phase(state, "aborted", error=reason)
        if self.obs.enabled:
            self.obs.tracer.event(
                "round.aborted", round=state.number, error=reason
            )
            self.obs.registry.inc(
                "protocol_rounds_aborted_total", reason=reason
            )
        if self._flight is not None:
            self._flight.dump(
                trigger=reason,
                error=str(error),
                round_index=state.number,
            )
        if state.deadline_handle is not None:
            self.scheduler.cancel(state.deadline_handle)
            state.deadline_handle = None
        state.record.error = reason
        state.record.exception = error
        state.record.finished_at = self.scheduler.now
        state.status = "aborted"
        self._after_terminal(state)

    def _after_terminal(self, state: _RoundState) -> None:
        # Pipelined mode opened the next seal at composition time; the
        # non-pipelined baseline (and any round that died before
        # composing) opens it here, strictly after the round finished.
        self._open_next_seal(state.index)
        self._maybe_mine()
