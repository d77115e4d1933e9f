"""The pipelined protocol runtime: rounds as interleaved state machines.

:class:`Runtime` drives the two-phase exposure protocol (paper §III)
over a :class:`~repro.runtime.transport.DeterministicTransport`, one
scheduler event at a time.  Each round advances through the same phases
as the lockstep :class:`~repro.protocol.exposure.ExposureProtocol` —
seal → mine → reveal → propose → verify → commit — journaled through
the same WAL ``round.phase`` markers, but **rounds overlap**: the moment
round *N*'s preamble freezes its transaction selection, round *N+1*'s
seal phase opens, so sealing and admission-settling of the next block
run concurrently with mining, reveal collection, verification, and
commit of the current one.  Mining itself stays serialized (a preamble
needs its parent hash), which is exactly the dependency the paper's
chain imposes.

Equivalence with the lockstep engine is by construction, and enforced
by the differential suite:

* the same ``Miner``/``Participant`` objects execute every protocol
  action (sealing, screening, allocation, verification);
* preambles are composed in stamped submission-sequence order — the
  arrival order a synchronous bus gives the lockstep engine for free;
* leader rotation, quorum, retry budgets, and proposer fallback reuse
  the lockstep rules (``leader_rotation`` and the retry constants are
  literally shared).

Under a fault-free plan a pipelined run's committed blocks are
bit-identical to lockstep's across *every* scheduler seed; under faults
each committed block equals the fault-free replay on its surviving bid
set (the contract the chaos harness checks on every point).  The
runtime is the one host for lossy plans: the lockstep engine runs on
the lossless synchronous bus only.

Virtual phase costs (:class:`RuntimeCosts`) give mining, reveal
deadlines, and verification nonzero width on the virtual clock so that
pipelining has something to overlap; wall-clock work (PoW, allocation)
still runs eagerly inside the owning event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import ReproError
from repro.core.outcome import AuctionOutcome
from repro.faults.plan import FaultPlan
from repro.ledger.block import Block, BlockPreamble
from repro.ledger.miner import Miner
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
    #: error type name when the round aborted (mirrors the lockstep
    #: driver's raised ``ReproError`` subclass)
    error: str = ""
    seal_opened_at: float = 0.0
    finished_at: float = 0.0
    #: True when this round's seal opened while its predecessor was
    #: still in flight — the pipelining overlap the bench counts
    overlapped: bool = False

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


class _Entry:
    """One submission's lifecycle inside a round."""

    __slots__ = ("participant", "bid", "tx", "txid", "sequence", "attempts",
                 "settled", "state", "trace")

    def __init__(self, participant: Participant, bid: Bid) -> None:
        self.participant = participant
        self.bid = bid
        self.tx = None
        self.txid: Optional[str] = None
        self.sequence: Optional[int] = None
        self.attempts = 0
        self.settled = False
        self.state: Optional["_RoundState"] = None
        #: the seal span's context: every gossip attempt (and its fate)
        #: hangs under the sender's ``seal`` span
        self.trace = None


_TERMINAL = ("done", "aborted")


class _RoundState:
    __slots__ = (
        "index", "input", "status", "entries", "outstanding", "leader",
        "preamble", "phash", "reveals", "excluded", "proposer_queue",
        "failed", "deadline_handle", "record",
    )

    def __init__(self, index: int, round_input: RoundInput) -> None:
        self.index = index
        self.input = round_input
        self.status = "pending"
        self.entries: List[_Entry] = [
            _Entry(p, b) for p, b in round_input.submissions
        ]
        for entry in self.entries:
            entry.state = self
        self.outstanding = len(self.entries)
        self.leader: Optional[Miner] = None
        self.preamble: Optional[BlockPreamble] = None
        self.phash: Optional[str] = None
        self.reveals: Tuple = ()
        self.excluded: Tuple[str, ...] = ()
        self.proposer_queue: List[Miner] = []
        self.failed: List[str] = []
        self.deadline_handle: Optional[int] = None
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
        self._entry_by_txid: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------
    # Shared protocol rules (identical to the lockstep engine)
    # ------------------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Verifying majority over the *whole* miner set, live or not."""
        return len(self.miners) // 2 + 1

    def _live_miners(self) -> List[Miner]:
        return [
            m for m in self.miners if not self.transport.is_down(m.miner_id)
        ]

    def _journal_phase(self, round_index: int, phase: str, **extra) -> None:
        # markers carry the *global* round number so a continuation
        # runtime (start_round > 0) journals into the same sequence the
        # original run did — recovery keys its credit-or-replay decision
        # on these indices
        round_number = self.start_round + round_index
        if self.store is not None:
            self.store.log(
                "round.phase", round=round_number, phase=phase, **extra
            )
        if self.obs.enabled:
            # The same boundary on the virtual clock: consecutive marks of
            # one round chain into its stall flame (repro.obs.report).
            self.obs.tracer.event(
                "runtime.phase",
                round=round_number,
                phase=phase,
                vt=self.scheduler.now,
            )

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

        Aborted rounds are *recorded* (with the error type the lockstep
        driver would have raised) and the runtime moves on — sustained
        traffic does not stop because one block failed.  Non-protocol
        exceptions (notably a simulated crash from the durability
        harness) propagate to the caller's supervisor, exactly as a
        process death would.
        """
        self._states = [
            _RoundState(index, round_input)
            for index, round_input in enumerate(rounds)
        ]
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
        if self.obs.enabled:
            self.obs.registry.inc("runtime_rounds_total")
            if state.record.overlapped:
                self.obs.registry.inc("runtime_pipeline_overlaps_total")
            self.obs.tracer.event(
                "runtime.seal_open",
                round=state.index,
                overlapped=state.record.overlapped,
            )
        rotation = leader_rotation(self.miners, self.start_round + state.index)
        self._journal_phase(
            state.index, "seal", leader=rotation[0].miner_id
        )
        # Sealing is local and order-sensitive (temp-key material derives
        # from each participant's seal counter), so every entry seals NOW,
        # in input order — identical to the lockstep engine's sequential
        # submit calls.  Only the *gossip* of the sealed bid rides the
        # schedule, at its arrival offset.
        offsets = state.input.offsets or (0.0,) * len(state.entries)
        for entry in state.entries:
            self._seal_entry(entry)
        for entry, offset in zip(state.entries, offsets):
            self.scheduler.call_later(
                offset, lambda e=entry: self._gossip_bid(state, e)
            )
        if not state.entries:
            state.status = "sealed"
            self._maybe_mine()

    def _seal_entry(self, entry: _Entry) -> None:
        with self.obs.tracer.span(
            "seal", participant=entry.participant.participant_id
        ):
            entry.tx = entry.participant.seal(entry.bid)
            if self.registry is not None:
                self.registry.check_or_register(
                    entry.tx.sender_id, entry.tx.sender_public
                )
            entry.trace = self.obs.tracer.child_context(
                actor=entry.participant.participant_id
            )
        entry.txid = entry.tx.txid()
        entry.sequence = self._sequence
        self._sequence += 1
        self._entry_by_txid[entry.txid] = entry
        self._actor_for(entry.participant)
        if self.obs.enabled:
            self.obs.registry.inc("protocol_seals_total")

    def _gossip_bid(self, state: _RoundState, entry: _Entry) -> None:
        entry.attempts += 1
        # Fault keys are content-addressed (global round + txid), never
        # positional: a crash-recovery continuation re-broadcasts from a
        # different stream position and local sequence base, and must
        # draw the exact fates the original run drew.
        self.transport.broadcast(
            messages.TOPIC_BIDS,
            messages.BidSubmission(
                transaction=entry.tx,
                trace=entry.trace,
                sequence=entry.sequence,
            ),
            sender=entry.participant.participant_id,
            key=(
                f"bid-{self.start_round + state.index}-"
                f"{entry.txid[:16]}-a{entry.attempts}"
            ),
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

    def _check_submission(self, state: _RoundState, entry: _Entry) -> None:
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

    def _settle_submission(self, entry: _Entry) -> None:
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
            self._abort(state, "QuorumError")
            return
        rotation = leader_rotation(self.miners, self.start_round + state.index)
        leader = next(
            m for m in rotation if not self.transport.is_down(m.miner_id)
        )
        state.leader = leader
        state.status = "mining"
        self._journal_phase(state.index, "mine", leader=leader.miner_id)
        obs = self.obs
        with obs.tracer.span(
            "mine", leader=leader.miner_id, round=state.index
        ):
            # Compose from this round's own sealed txids only.  The
            # leader's mempool can hold neighbours — a recovered store
            # replaying round N while round N+1's pre-crash admissions
            # survive in it — and those belong to *their* preamble.
            preamble = self._miner_actors[leader.miner_id].compose_preamble(
                allowed=frozenset(
                    entry.txid for entry in state.entries
                ),
                sequence_hint={
                    entry.txid: entry.sequence for entry in state.entries
                },
            )
        state.preamble = preamble
        state.phash = preamble.hash()
        self._state_by_phash[state.phash] = state
        if obs.enabled:
            obs.registry.inc("ledger_blocks_mined_total")
            obs.registry.inc(
                "ledger_pow_iterations_total", preamble.pow_nonce + 1
            )
            obs.registry.observe(
                "ledger_block_txs", len(preamble.transactions)
            )
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
        self._journal_phase(state.index, "preamble", hash=state.phash)
        self._journal_phase(state.index, "reveal")
        self.transport.broadcast(
            messages.TOPIC_PREAMBLE,
            messages.PreambleAnnouncement(
                preamble=preamble,
                miner_id=leader.miner_id,
                trace=self.obs.tracer.child_context(actor=leader.miner_id),
            ),
            sender=leader.miner_id,
            key=f"pre-{self.start_round + state.index}",
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
                    "runtime.bad_pow", round=state.index, miner=miner_id
                )
            self._abort(state, "ProtocolError")

    def _missing_reveals(self, state: _RoundState) -> Set[str]:
        inbox = state.leader.reveal_inbox.get(state.phash, {})
        included = {tx.txid() for tx in state.preamble.transactions}
        return included - set(inbox)

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
                self.obs.registry.inc("runtime_reveal_retries_total")
            self.transport.broadcast(
                messages.TOPIC_REVEAL_REQUEST,
                messages.RevealRequest(
                    preamble=state.preamble,
                    txids=tuple(sorted(missing)),
                    miner_id=state.leader.miner_id,
                    attempt=attempt + 1,
                    trace=self.obs.tracer.child_context(
                        actor=state.leader.miner_id
                    ),
                ),
                sender=state.leader.miner_id,
                key=f"rvq-{self.start_round + state.index}-a{attempt + 1}",
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
            sender_of = {
                tx.txid(): tx.sender_id for tx in preamble.transactions
            }
            for txid in state.excluded:
                obs.tracer.event(
                    "reveal.excluded", txid=txid, sender=sender_of[txid]
                )
            obs.registry.inc(
                "runtime_excluded_bids_total", len(state.excluded)
            )
        if preamble.transactions and not reveals:
            if obs.enabled:
                obs.tracer.event(
                    "reveal.timeout",
                    sealed=len(preamble.transactions),
                    retries=MAX_REVEAL_RETRIES,
                )
            self._abort(state, "RevealTimeoutError")
            return
        state.proposer_queue = [
            m
            for m in leader_rotation(
                self.miners, self.start_round + state.index
            )
            if not self.transport.is_down(m.miner_id)
        ]
        state.failed = []
        self._next_proposer(state)

    def _next_proposer(self, state: _RoundState) -> None:
        if not state.proposer_queue:
            self._abort(state, "ByzantineFaultError")
            return
        proposer = state.proposer_queue.pop(0)
        if state.failed and self.obs.enabled:
            self.obs.tracer.event(
                "round.fallback", proposer=proposer.miner_id
            )
        self._journal_phase(
            state.index, "propose", proposer=proposer.miner_id
        )
        with self.obs.tracer.span(
            "propose", proposer=proposer.miner_id, round=state.index
        ):
            try:
                body = proposer.build_body(state.preamble, state.reveals)
            except ReproError as exc:
                self._abort(state, type(exc).__name__)
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
                key=(
                    f"blk-{self.start_round + state.index}-"
                    f"{proposer.miner_id}"
                ),
            )
        self.scheduler.call_later(
            self.costs.propose,
            lambda: self._verify(state, proposer, block),
        )

    def _verify(self, state: _RoundState, proposer: Miner, block: Block) -> None:
        self._journal_phase(state.index, "verify")
        approving: List[Miner] = []
        with self.obs.tracer.span("verify", round=state.index):
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
        self._journal_phase(state.index, "commit")
        with self.obs.tracer.span("commit", round=state.index):
            for miner in approving:
                miner.commit_block(block)
        self._journal_phase(state.index, "committed", hash=block.hash())
        obs = self.obs
        if obs.enabled:
            obs.registry.inc("runtime_rounds_committed_total")
            obs.tracer.event(
                "round.committed",
                round=state.index,
                height=block.preamble.height,
                approvals=len(approving),
                excluded=len(state.excluded),
            )
        obs.check_outcome(
            outcome, source="runtime", round_index=state.index
        )
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
        if self.on_commit is not None:
            self.on_commit(state.index, result)
        self._after_terminal(state)

    def _abort(self, state: _RoundState, reason: str) -> None:
        if state.terminal:
            return
        self._journal_phase(state.index, "aborted", error=reason)
        if self.obs.enabled:
            self.obs.tracer.event(
                "round.aborted", round=state.index, error=reason
            )
            self.obs.registry.inc(
                "runtime_rounds_aborted_total", reason=reason
            )
        if state.deadline_handle is not None:
            self.scheduler.cancel(state.deadline_handle)
            state.deadline_handle = None
        state.record.error = reason
        state.record.finished_at = self.scheduler.now
        state.status = "aborted"
        self._after_terminal(state)

    def _after_terminal(self, state: _RoundState) -> None:
        # Pipelined mode opened the next seal at composition time; the
        # non-pipelined baseline (and any round that died before
        # composing) opens it here, strictly after the round finished.
        self._open_next_seal(state.index)
        self._maybe_mine()
