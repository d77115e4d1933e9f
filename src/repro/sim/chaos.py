"""Chaos harness: sweep fault rates, measure graceful degradation.

For each fault level the harness runs the *same* seeded market through
the full ledger-backed protocol — the pipelined
:class:`~repro.runtime.Runtime` over a
:class:`~repro.runtime.DeterministicTransport` replaying the level's
:class:`~repro.faults.plan.FaultPlan` — and reports:

* **auction success** — the fraction of rounds that produced a
  quorum-verified block at all;
* **welfare retention** — welfare achieved under faults relative to the
  fault-free run of the identical market;
* **mechanism integrity** — every completed block is replayed against
  :func:`~repro.sim.engine.replay_fault_free` on its surviving bid set;
  any divergence is a harness-level alarm, not a statistic.

Everything is derived from the spec seed, so a sweep is exactly
reproducible — two identical calls return identical curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import make_generator
from repro.common.timewindow import TimeWindow
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.core.outcome import AuctionOutcome, canonical_outcome
from repro.faults.crash import CrashPlan, CrashPoint, SimulatedCrashError
from repro.faults.actors import (
    EquivocatingMiner,
    TamperingParticipant,
    WithholdingParticipant,
)
from repro.faults.plan import FaultPlan
from repro.ledger.chain import HORIZON
from repro.ledger.miner import Miner, open_transactions
from repro.market.bids import Offer, Request
from repro.obs import Observability, ObservabilityLike
from repro.obs.monitors import MonitorSuite, violation_total
from repro.protocol.allocator import DecloudAllocator, decode_round
from repro.protocol.exposure import Participant, RoundResult
from repro.protocol.settlement import SettlementProcessor, TokenLedger
from repro.runtime import RoundInput, Runtime
from repro.sim.engine import replay_fault_free
from repro.store import NodeStore, RecoveredState

DEFAULT_DROP_RATES: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos experiment: market shape, fleet, and non-drop faults."""

    num_clients: int = 6
    num_providers: int = 3
    num_miners: int = 3
    rounds: int = 2
    seed: int = 0
    difficulty_bits: int = 4
    duplicate_rate: float = 0.0
    min_delay: float = 0.0
    max_delay: float = 0.05
    reorder_rate: float = 0.0
    #: leading clients replaced by actors that never reveal keys
    withholding_clients: int = 0
    #: next block of clients replaced by actors revealing forged keys
    tampering_clients: int = 0
    #: make the first miner an equivocator (exercises leader fallback)
    equivocating_leader: bool = False
    config: Optional[AuctionConfig] = None


@dataclass
class ChaosPoint:
    """Degradation measurements at one fault level."""

    drop_rate: float
    rounds_attempted: int
    rounds_completed: int
    welfare: float
    baseline_welfare: float
    excluded_bids: int
    fallback_rounds: int
    messages_dropped: int
    messages_delivered: int
    integrity_failures: int
    #: runtime monitor alerts raised while clearing this point's rounds
    #: (always 0 unless the point ran with a monitored ``obs`` bundle)
    monitor_alerts: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        if self.rounds_attempted == 0:
            return 1.0
        return self.rounds_completed / self.rounds_attempted

    @property
    def welfare_retention(self) -> float:
        if self.baseline_welfare <= 0.0:
            return 1.0
        return self.welfare / self.baseline_welfare


def _market_for_round(
    spec: ChaosSpec, round_index: int
) -> Tuple[List[Request], List[Offer]]:
    """Seeded bids for one round; identical specs yield identical markets."""
    rng = make_generator(f"chaos-market-{spec.seed}-{round_index}")
    requests = [
        Request(
            request_id=f"req-{round_index}-{i}",
            client_id=f"cli-{i}",
            submit_time=0.1 * i,
            resources={"cpu": 2, "ram": 4, "disk": 10},
            window=TimeWindow(0, 10),
            duration=4.0,
            bid=float(rng.uniform(1.2, 3.0)),
        )
        for i in range(spec.num_clients)
    ]
    offers = [
        Offer(
            offer_id=f"off-{round_index}-{j}",
            provider_id=f"prov-{j}",
            submit_time=0.1 * j,
            resources={"cpu": 8, "ram": 32, "disk": 500},
            window=TimeWindow(0, 24),
            bid=float(rng.uniform(0.2, 0.8)),
        )
        for j in range(spec.num_providers)
    ]
    return requests, offers


def _build_participants(
    spec: ChaosSpec,
    byzantine: bool,
    seal_seed: Optional[bytes] = None,
) -> Tuple[Dict[str, Participant], Dict[str, Participant]]:
    """Clients and providers keyed by id, Byzantine actors included.

    ``seal_seed`` overrides the default derivation — the durable-round
    supervisor builds *fresh* participants per round with a per-round
    seed, so an abort-and-replay after a crash re-seals byte-identical
    transactions (a restarted participant's seal counter restarts too).
    """
    if seal_seed is None:
        seal_seed = f"chaos-{spec.seed}".encode("ascii")
    clients: Dict[str, Participant] = {}
    for i in range(spec.num_clients):
        cls: type = Participant
        if byzantine and i < spec.withholding_clients:
            cls = WithholdingParticipant
        elif byzantine and i < spec.withholding_clients + spec.tampering_clients:
            cls = TamperingParticipant
        clients[f"cli-{i}"] = cls(
            participant_id=f"cli-{i}",
            deterministic=True,
            seal_seed=seal_seed,
        )
    providers = {
        f"prov-{j}": Participant(
            participant_id=f"prov-{j}",
            deterministic=True,
            seal_seed=seal_seed,
        )
        for j in range(spec.num_providers)
    }
    return clients, providers


def _chaos_miners(
    spec: ChaosSpec,
    byzantine: bool,
    stores: Optional[Sequence[NodeStore]] = None,
    recovered: Optional[Sequence[RecoveredState]] = None,
) -> List[Miner]:
    """The fleet, miner 0 the equivocator when the spec asks for one.

    ``stores`` gives every miner its durable store; ``recovered`` (one
    per miner) restarts each from its recovered chain and mempool.
    """
    miners: List[Miner] = []
    for m in range(spec.num_miners):
        cls = (
            EquivocatingMiner
            if byzantine and spec.equivocating_leader and m == 0
            else Miner
        )
        state: Dict[str, object] = {}
        if stores is not None:
            state["store"] = stores[m]
        if recovered is not None:
            state["chain"] = recovered[m].chain
            state["mempool"] = recovered[m].mempool
        miners.append(
            cls(
                miner_id=f"miner-{m}",
                allocate=DecloudAllocator(spec.config),
                difficulty_bits=spec.difficulty_bits,
                **state,
            )
        )
    return miners


def _fault_plan(spec: ChaosSpec, seed: str, drop_rate: float) -> FaultPlan:
    """The spec's message faults at ``drop_rate``, drawn from ``seed``."""
    return FaultPlan(
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=spec.duplicate_rate,
        min_delay=spec.min_delay,
        max_delay=spec.max_delay,
        reorder_rate=spec.reorder_rate,
    )


def _mechanism_integrity_ok(result: RoundResult, config) -> bool:
    """The chaos integrity rule: the committed block must equal a
    fault-free replay on exactly the bids that survived the faults."""
    body = result.block.require_complete()
    plaintexts = open_transactions(result.block.preamble, body.reveals)
    live_requests, live_offers = decode_round(plaintexts)
    expected = replay_fault_free(
        live_requests,
        live_offers,
        result.block.preamble.evidence(),
        config,
    )
    return expected == body.allocation


def _runtime_round_inputs(
    spec: ChaosSpec,
    clients: Dict[str, Participant],
    providers: Dict[str, Participant],
    round_index: int,
) -> RoundInput:
    """One round's seeded market as a runtime input: clients first, then
    providers, each in id order."""
    requests, offers = _market_for_round(spec, round_index)
    submissions = [(clients[r.client_id], r) for r in requests]
    submissions += [(providers[o.provider_id], o) for o in offers]
    return RoundInput(submissions=tuple(submissions))


def run_chaos_point(
    spec: ChaosSpec,
    drop_rate: float,
    byzantine: bool = True,
    obs: Optional[ObservabilityLike] = None,
    monitored: bool = False,
) -> ChaosPoint:
    """Run ``spec.rounds`` protocol rounds at one message-drop level.

    Every round flows through one pipelined :class:`Runtime` run whose
    transport replays the level's seeded :class:`FaultPlan`.

    ``monitored=True`` builds a fresh observability bundle with the
    default :class:`~repro.obs.monitors.MonitorSuite` attached (unless an
    explicit ``obs`` is given) and reports the alert count in
    :attr:`ChaosPoint.monitor_alerts`.
    """
    if obs is None and monitored:
        obs = Observability(
            run_id=f"chaos-{spec.seed}-{drop_rate}",
            monitors=MonitorSuite(),
        )
    miners = _chaos_miners(spec, byzantine)
    clients, providers = _build_participants(spec, byzantine)
    point = ChaosPoint(
        drop_rate=drop_rate,
        rounds_attempted=spec.rounds,
        rounds_completed=0,
        welfare=0.0,
        baseline_welfare=0.0,
        excluded_bids=0,
        fallback_rounds=0,
        messages_dropped=0,
        messages_delivered=0,
        integrity_failures=0,
    )

    runtime = Runtime(
        miners,
        plan=_fault_plan(
            spec, f"chaos-net-{spec.seed}-{drop_rate}", drop_rate
        ),
        schedule_seed=f"chaos-sched-{spec.seed}-{drop_rate}",
        obs=obs,
    )
    report = runtime.run(
        [
            _runtime_round_inputs(spec, clients, providers, round_index)
            for round_index in range(spec.rounds)
        ]
    )
    for rt_round in report.rounds:
        if rt_round.result is None:
            point.errors.append(
                f"round {rt_round.index}: {rt_round.error}"
            )
            continue
        result = rt_round.result
        point.rounds_completed += 1
        point.welfare += result.outcome.welfare
        point.excluded_bids += len(result.excluded_txids)
        if result.failed_proposers:
            point.fallback_rounds += 1
        if not _mechanism_integrity_ok(result, spec.config):
            point.integrity_failures += 1
    point.messages_dropped = report.messages_dropped
    point.messages_delivered = report.messages_delivered
    if obs is not None and obs.enabled:
        point.monitor_alerts = int(violation_total(obs.registry))
    return point


def run_chaos_sweep(
    spec: ChaosSpec,
    drop_rates: Sequence[float] = DEFAULT_DROP_RATES,
    byzantine: bool = True,
    monitored: bool = False,
) -> List[ChaosPoint]:
    """Sweep message-drop levels; each point also gets a fault-free baseline.

    The baseline run shares the market seed but switches off every fault
    (and every Byzantine actor), so ``welfare_retention`` isolates what
    the *faults* cost — not seed-to-seed market variation.

    ``monitored`` is forwarded to every fault-level point (a fresh
    monitored bundle per level); the baseline stays unmonitored so its
    behaviour matches earlier releases byte for byte.
    """
    baseline_spec = replace(
        spec,
        withholding_clients=0,
        tampering_clients=0,
        equivocating_leader=False,
        duplicate_rate=0.0,
        reorder_rate=0.0,
    )
    baseline = run_chaos_point(baseline_spec, 0.0, byzantine=False)
    points: List[ChaosPoint] = []
    for drop_rate in drop_rates:
        point = run_chaos_point(
            spec,
            drop_rate,
            byzantine=byzantine,
            monitored=monitored,
        )
        point.baseline_welfare = baseline.welfare
        points.append(point)
    return points


# ======================================================================
# Durable nodes under crash injection: supervision + the crash matrix
# ======================================================================
#
# The runs below give every miner its own ``repro.store.NodeStore`` (the
# deterministic in-memory backends) and drive the same seeded degraded
# scenario as ``run_chaos_point`` — Byzantine actors included — through
# the pipelined runtime.  Node-0 additionally journals the shared
# settlement ledger and the round phase markers; a
# :class:`~repro.faults.crash.CrashPoint` armed on its WAL kills the
# whole simulated process at one chosen record boundary, possibly with
# several rounds in flight.  The supervision loop then restarts the node
# fleet from their stores: recover every store, sync lagging chains from
# the longest recovered one, resume any settlement the crash
# interrupted, credit every in-flight round whose ``chain.append``
# record beat the crash, and abort-and-replay the rest.
#
# ``run_crash_matrix`` proves the durability contract: for EVERY record
# boundary of the reference run, in every crash mode (clean / torn /
# corrupt tail), the recovered run's committed outcomes are bit-identical
# (``canonical_outcome``) to the uninterrupted run — same chain tip, same
# ledger digest, zero monitor violations.


@dataclass
class DurableRunResult:
    """Everything one supervised durable scenario produced."""

    #: per-round canonical outcome digests (None: the round aborted)
    outcomes: List[Optional[Dict]] = field(default_factory=list)
    tip_hash: str = ""
    #: exact digest of node-0's durable state at the end of the run
    state_digest: str = ""
    rounds_completed: int = 0
    crashes: int = 0
    recoveries: int = 0
    truncated_bytes: int = 0
    #: rounds re-driven from scratch after a crash (abort-and-replay)
    replayed_rounds: int = 0
    #: rounds credited from the recovered chain (decided before the crash)
    resumed_rounds: int = 0
    #: blocks whose settlement recovery had to finish
    resumed_settlements: int = 0
    monitor_alerts: int = 0
    #: node-0 WAL appends observed (sizes the crash matrix)
    append_count: int = 0
    errors: List[str] = field(default_factory=list)
    #: node-0's full materialized state (only with ``keep_state=True``)
    final_state: Optional[Dict] = None


def _durable_seal_seed(spec: ChaosSpec, round_index: int) -> bytes:
    return f"durable-{spec.seed}-round-{round_index}".encode("ascii")


def _derive_block_outcome(block, config) -> AuctionOutcome:
    """Deterministically re-run the auction a committed block encodes.

    Recovery uses this when a round's block survived the crash but the
    in-memory :class:`AuctionOutcome` died with the process: decrypt the
    revealed bids, re-run the mechanism on the block's own evidence.
    Collective verification already proved the block's payload equals
    exactly this re-execution, so the derived outcome *is* the round's
    outcome.
    """
    body = block.require_complete()
    plaintexts = open_transactions(block.preamble, body.reveals)
    live_requests, live_offers = decode_round(plaintexts)
    auction = DecloudAuction(config or AuctionConfig())
    return auction.run(
        live_requests, live_offers, evidence=block.preamble.evidence()
    )


def _durable_stores(
    spec: ChaosSpec, crash_point: Optional[CrashPoint], snapshot_every: int
) -> List[NodeStore]:
    """One in-memory store per miner, node 0's carrying ``crash_point``;
    ``snapshot_every`` > 0 is their horizon (0: the default)."""
    return [
        NodeStore.in_memory(
            crash_point=crash_point if m == 0 else None,
            horizon=snapshot_every or HORIZON,
        )
        for m in range(spec.num_miners)
    ]


def _resume_settlement(
    chain,
    settlement: SettlementProcessor,
    spec: ChaosSpec,
    result: DurableRunResult,
) -> None:
    """Finish settling any committed block the crash interrupted."""
    for block in chain:
        block_hash = block.hash()
        if block_hash in settlement._settled_blocks:
            continue
        outcome = _derive_block_outcome(block, spec.config)
        settlement.settle_block(
            outcome.matches, auto_fund=True, block_hash=block_hash
        )
        result.resumed_settlements += 1


def _restart_fleet(
    spec: ChaosSpec,
    byzantine: bool,
    stores: Sequence[NodeStore],
    obs: Optional[ObservabilityLike],
    result: DurableRunResult,
) -> Tuple[List[Miner], SettlementProcessor]:
    """The supervisor's restart path: recover, sync chains, resume
    settlement.

    Every store is recovered from (snapshot, valid log prefix) alone;
    lagging miners catch up to the longest recovered chain through the
    ordinary ``accept_block`` validation path (which re-journals into
    their own stores), so the fleet converges without trusting any
    surviving in-memory state.
    """
    recovered = [
        store.recover(difficulty_bits=spec.difficulty_bits)
        for store in stores
    ]
    result.recoveries += len(recovered)
    result.truncated_bytes += sum(r.truncated_bytes for r in recovered)
    miners = _chaos_miners(spec, byzantine, stores, recovered)
    # node 0's store journals the ledger: attach the recovered one before
    # a catch-up append can roll the store over
    settlement = recovered[0].make_settlement(store=stores[0], obs=obs)
    best = max(recovered, key=lambda r: r.committed_height)
    for miner, rec in zip(miners, recovered):
        for height in range(rec.committed_height, best.committed_height):
            miner.accept_block(best.chain[height])
    _resume_settlement(best.chain, settlement, spec, result)
    return miners, settlement


def _credit_recovered_rounds(
    spec: ChaosSpec,
    store: NodeStore,
    chain,
    outcomes: Dict[int, Optional[Dict]],
    next_round: int,
    result: DurableRunResult,
) -> int:
    """Credit every round the crash left durably decided; return the
    first round the continuation must re-drive.

    The pipelined runtime can die with several rounds in flight, so the
    walk consults each round's own newest phase marker
    (:attr:`NodeStore.round_phases`).  Commits are serialized in round
    order (mining needs the parent hash), so the k-th unrecorded chain
    block belongs to the first non-aborted uncredited round — which
    also credits a round whose ``chain.append`` beat the crash but
    whose terminal marker did not.
    """
    recorded = sum(1 for value in outcomes.values() if value is not None)
    round_index = next_round
    while round_index < spec.rounds:
        if outcomes.get(round_index) is not None:
            # committed and settled in-window before the crash (the
            # supervisor's on_commit already recorded it); its chain
            # block is counted by ``recorded``
            round_index += 1
            continue
        marker = store.round_phases.get(round_index)
        phase = marker.get("phase") if marker else None
        if phase == "aborted":
            outcomes[round_index] = None
            round_index += 1
            continue
        if len(chain) > recorded:
            block = chain[recorded]
            outcomes[round_index] = canonical_outcome(
                _derive_block_outcome(block, spec.config)
            )
            if phase != "committed":
                # close the round durably — its terminal marker died
                # with the process
                store.log(
                    "round.phase",
                    round=round_index,
                    phase="committed",
                    hash=block.hash(),
                )
            recorded += 1
            result.resumed_rounds += 1
            round_index += 1
            continue
        # Nothing durable decided this round: abort-and-replay from here
        # (any deeper in-flight rounds replay with it).
        result.replayed_rounds += 1
        break
    return round_index


def run_durable_scenario(
    spec: ChaosSpec,
    drop_rate: float = 0.0,
    byzantine: bool = True,
    crash_point: Optional[CrashPoint] = None,
    monitored: bool = True,
    snapshot_every: int = 0,
    keep_state: bool = False,
    obs: Optional[ObservabilityLike] = None,
) -> DurableRunResult:
    """Run ``spec.rounds`` durable protocol rounds under supervision.

    Every miner journals into its own in-memory :class:`NodeStore`;
    node-0 also journals the settlement ledger and round phases, and
    carries ``crash_point`` (if given) on its WAL.  ``snapshot_every``
    > 0 is every store's roll-off horizon: each snapshots, compacts and
    prunes every that many commits (see :class:`~repro.store.NodeStore`),
    putting the roll inside the crash blast radius too.

    One :class:`~repro.runtime.Runtime` drives every remaining round in
    a single pipelined window; a crash can therefore land with round *N*
    mid-reveal while round *N+1* is already sealing.  When the simulated
    process dies mid-append, the supervision loop restarts the fleet
    from the stores, credits every round whose block proved durable
    (there can be several), and re-drives the rest with a continuation
    runtime (``start_round`` keeps leader rotation, phase markers, and
    content-addressed fault keys aligned with the reference run).
    Fresh per-round participants get per-round seal seeds, so a replayed
    round re-seals byte-identical transactions.

    The differential contract (see :func:`run_crash_matrix`): for any
    crash point, the result's ``outcomes``, ``tip_hash`` and
    ``state_digest`` equal the uninterrupted run's.
    """
    stores = _durable_stores(spec, crash_point, snapshot_every)
    if obs is None and monitored:
        # callers may pass their own bundle instead (e.g. one carrying a
        # flight recorder, so a recovery mismatch leaves evidence behind)
        obs = Observability(
            run_id=f"durable-rt-{spec.seed}-{drop_rate}",
            monitors=MonitorSuite(),
        )
    ledger = TokenLedger()
    settlement = SettlementProcessor(ledger=ledger, obs=obs)
    stores[0].attach(ledger=ledger, settlement=settlement)
    miners = _chaos_miners(spec, byzantine, stores)

    result = DurableRunResult()
    outcomes: Dict[int, Optional[Dict]] = {}
    next_round = 0
    while next_round < spec.rounds:
        inputs = []
        for round_index in range(next_round, spec.rounds):
            clients, providers = _build_participants(
                spec,
                byzantine,
                seal_seed=_durable_seal_seed(spec, round_index),
            )
            inputs.append(
                _runtime_round_inputs(spec, clients, providers, round_index)
            )

        def on_commit(
            local_index: int,
            round_result: RoundResult,
            _base: int = next_round,
            _settlement: SettlementProcessor = settlement,
        ) -> None:
            _settlement.settle_block(
                round_result.outcome.matches,
                auto_fund=True,
                block_hash=round_result.block.hash(),
            )
            outcomes[_base + local_index] = canonical_outcome(
                round_result.outcome
            )

        runtime = Runtime(
            miners,
            plan=_fault_plan(
                spec, f"durable-rt-net-{spec.seed}-{drop_rate}", drop_rate
            ),
            schedule_seed=f"durable-rt-sched-{spec.seed}-{drop_rate}",
            obs=obs,
            store=stores[0],
            start_round=next_round,
            on_commit=on_commit,
        )
        try:
            report = runtime.run(inputs)
        except SimulatedCrashError as exc:
            result.crashes += 1
            result.errors.append(f"window from round {next_round}: {exc}")
            miners, settlement = _restart_fleet(
                spec, byzantine, stores, obs, result
            )
            next_round = _credit_recovered_rounds(
                spec, stores[0], miners[0].chain, outcomes,
                next_round, result,
            )
            continue
        for rt_round in report.rounds:
            if rt_round.result is None:
                global_index = next_round + rt_round.index
                result.errors.append(
                    f"round {global_index}: {rt_round.error}"
                )
                outcomes[global_index] = None
        break  # every remaining round reached a terminal state

    result.outcomes = [outcomes.get(r) for r in range(spec.rounds)]
    result.rounds_completed = sum(
        1 for value in result.outcomes if value is not None
    )
    result.tip_hash = miners[0].chain.tip_hash
    result.state_digest = stores[0].state_digest()
    result.append_count = stores[0].wal.append_count
    if keep_state:
        result.final_state = stores[0].state_dict()
    if obs is not None and obs.enabled:
        result.monitor_alerts = int(violation_total(obs.registry))
    for store in stores:
        store.close()
    return result


@dataclass
class CrashMatrixPoint:
    """One cell of the crash matrix: a boundary × mode, compared."""

    at_append: int
    mode: str
    fired: bool
    matches_reference: bool
    detail: str = ""
    crashes: int = 0
    replayed_rounds: int = 0
    resumed_rounds: int = 0
    resumed_settlements: int = 0
    truncated_bytes: int = 0


@dataclass
class CrashMatrixResult:
    """The full differential sweep over every crash point."""

    reference: DurableRunResult
    points: List[CrashMatrixPoint] = field(default_factory=list)

    @property
    def mismatches(self) -> List[CrashMatrixPoint]:
        return [p for p in self.points if not p.matches_reference]

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def _compare_to_reference(
    reference: DurableRunResult, run: DurableRunResult
) -> str:
    """Empty string when ``run`` matches the uninterrupted reference."""
    if run.outcomes != reference.outcomes:
        return "committed outcomes diverge from the uninterrupted run"
    if run.tip_hash != reference.tip_hash:
        return "chain tip hash diverges"
    if run.state_digest != reference.state_digest:
        return "durable state digest diverges"
    if run.monitor_alerts:
        return f"{run.monitor_alerts} monitor alert(s) after recovery"
    return ""


def run_crash_matrix(
    spec: ChaosSpec,
    drop_rate: float = 0.0,
    byzantine: bool = True,
    modes: Sequence[str] = ("clean", "torn", "corrupt"),
    snapshot_every: int = 0,
    stride: int = 1,
    monitored: bool = True,
) -> CrashMatrixResult:
    """Differential crash sweep: every WAL boundary × every crash mode.

    First runs the scenario uninterrupted (durability on) to fix the
    reference outcomes and the boundary count, then re-runs it once per
    (boundary, mode) pair with a crash point armed.  ``stride`` > 1
    subsamples boundaries (the CI smoke job uses this); the full matrix
    is ``stride=1``.  The guarantee under test: every cell recovers to
    bit-identical committed outcomes, chain tip, and ledger state, with
    zero monitor violations — also at boundaries where two pipelined
    rounds are in flight at once.
    """
    reference = run_durable_scenario(
        spec,
        drop_rate=drop_rate,
        byzantine=byzantine,
        monitored=monitored,
        snapshot_every=snapshot_every,
    )
    matrix = CrashMatrixResult(reference=reference)
    plan = CrashPlan(append_count=reference.append_count, modes=tuple(modes))
    for point in plan.points():
        if point.at_append % max(stride, 1) != 0:
            continue
        run = run_durable_scenario(
            spec,
            drop_rate=drop_rate,
            byzantine=byzantine,
            crash_point=point,
            monitored=monitored,
            snapshot_every=snapshot_every,
        )
        detail = _compare_to_reference(reference, run)
        if point.fired and run.crashes == 0:
            detail = detail or "crash point fired but no crash recorded"
        matrix.points.append(
            CrashMatrixPoint(
                at_append=point.at_append,
                mode=point.mode,
                fired=point.fired,
                matches_reference=not detail,
                detail=detail,
                crashes=run.crashes,
                replayed_rounds=run.replayed_rounds,
                resumed_rounds=run.resumed_rounds,
                resumed_settlements=run.resumed_settlements,
                truncated_bytes=run.truncated_bytes,
            )
        )
    return matrix
