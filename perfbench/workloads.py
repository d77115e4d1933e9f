"""The five workloads: seeded inputs, one measured unit, its checks.

A workload is driven the same way whatever it measures::

    workload.build()            # inputs + objects (timed as set-up)
    workload.warm_up()          # one unmeasured unit
    job = workload.prepare(variant)   # untimed
    raw = workload.run(job)           # THE timed region
    unit = workload.check(job, raw)   # untimed correctness checks

One *unit* is one protocol round (``round_lockstep``), one
``Runtime.run`` of several pipelined rounds (``round_runtime_faulty``)
or one ``DecloudAuction.run`` (``clear_*``).  Everything is single
process, single thread and closed loop: the harness issues the next
unit when the previous one returned.  The program under test receives
only generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ReproError
from repro.core.auction import DecloudAuction
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.outcome import AuctionOutcome, canonical_outcome
from repro.cryptosim.hashing import canonical_json, hash_obj
from repro.faults.actors import EquivocatingMiner, WithholdingParticipant
from repro.faults.plan import FaultPlan
from repro.ledger.miner import Miner
from repro.ledger.network import BroadcastNetwork
from repro.ledger.serialization import block_to_dict
from repro.market.bids import Offer, Request
from repro.obs import Observability
from repro.protocol import messages
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant, RoundResult
from repro.protocol.settlement import SettlementProcessor, TokenLedger
from repro.runtime import RoundInput, Runtime
from repro.sim.sustained import SustainedSpec, arrival_offsets
from repro.store import NodeStore
from repro.workloads.generators import generate_market, generate_zone_market

Bid = Union[Request, Offer]

DIFFICULTY_BITS = 8
EVIDENCE = b"perfbench-evidence"
VECTORIZED = AuctionConfig(engine="vectorized")


@dataclass
class Unit:
    """What one measured unit did, as the checks found it."""

    #: protocol rounds (or clears) in the unit — per-block metrics divide by it
    rounds: int
    #: which of the run's inputs the unit used; timings are summarised
    #: per group first, so inputs of different cost do not blur each other
    group: int = 0
    #: bids handed to the protocol, whoever owns them (rounds only)
    submitted: int = 0
    #: bids offered by owners that did not deliberately withhold
    offered: int = 0
    #: bids that ended in a committed (round) or cleared (clear) block
    done: int = 0
    #: honest bids that missed a final outcome for any reason other than
    #: a message fault this workload's own FaultPlan injected: round
    #: aborted, rejected at admission, or their block failed a check
    failed: int = 0
    #: honest bids lost to an injected message fault (dropped gossip,
    #: a preamble that never reached the owner)
    lost: int = 0
    #: bids in a preamble that stayed sealed (withheld + lost)
    excluded: int = 0
    #: block hashes (rounds) or the outcome digest (clears)
    hashes: Tuple[str, ...] = ()
    errors: List[str] = field(default_factory=list)
    #: exact per-unit counts read from the public results
    facts: Dict[str, float] = field(default_factory=dict)
    #: wall-clock instant of each ``on_commit`` (pipelined rounds only)
    commit_walls: List[float] = field(default_factory=list)


def owner_of(bid: Bid) -> str:
    return bid.client_id if isinstance(bid, Request) else bid.provider_id


def outcome_digest(outcome: AuctionOutcome) -> str:
    """SHA-256 over the ``float.hex()`` canonical outcome."""
    return hash_obj(canonical_outcome(outcome))


def check_economics(outcome: AuctionOutcome, errors: List[str]) -> None:
    """Individual rationality and strong budget balance of one outcome.

    ``repro.core.audit.audit_outcome`` bundles these with a capacity
    check that flags zone markets, so only the two properties the
    benchmark gates on are checked here.
    """
    for match in outcome.matches:
        if not 0.0 <= match.payment <= match.request.bid + 1e-9:
            errors.append(
                f"request {match.request.request_id} pays {match.payment!r} "
                f"against a bid of {match.request.bid!r} (IR)"
            )
            break
    payments = outcome.total_payments
    revenues = sum(outcome.revenues().values())
    if abs(payments - revenues) > 1e-9 * max(1.0, abs(payments)):
        errors.append(
            f"payments {payments!r} != revenues {revenues!r} (budget balance)"
        )


def engines_agree(seed: int, n_requests: int = 200) -> Tuple[str, List[str]]:
    """Set-up check: reference and vectorized engines give one digest."""
    requests, offers = generate_market(n_requests, seed=seed)
    digests = [
        outcome_digest(
            DecloudAuction(AuctionConfig(engine=engine)).run(
                requests, offers, evidence=EVIDENCE
            )
        )
        for engine in ("reference", "vectorized")
    ]
    errors = []
    if digests[0] != digests[1]:
        errors.append(
            f"reference digest {digests[0][:12]} != vectorized "
            f"{digests[1][:12]} on generate_market({n_requests}, {seed})"
        )
    return digests[1], errors


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: harness variants besides "dark" and "traced" this workload offers
    extra_variants: Tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        #: seconds the last :meth:`build` spent generating the market
        self.generate_s = 0.0

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, variant: str) -> Any:
        raise NotImplementedError

    def run(self, job: Any) -> Any:
        raise NotImplementedError

    def check(self, job: Any, raw: Any) -> Unit:
        raise NotImplementedError

    def finish(self) -> Tuple[Dict[str, float], List[str]]:
        """End-of-run facts and checks (nothing by default)."""
        return {}, []


# ----------------------------------------------------------------------
# Protocol rounds
# ----------------------------------------------------------------------
@dataclass
class Fleet:
    """Three journaling miners, one settlement ledger on node 0."""

    stores: List[NodeStore]
    miners: List[Miner]
    settlement: SettlementProcessor

    @property
    def quorum(self) -> int:
        return len(self.miners) // 2 + 1

    def tips(self) -> List[Tuple[str, str, int]]:
        return [(m.miner_id, m.chain.tip_hash, len(m.chain)) for m in self.miners]


def build_fleet(
    miner_classes: Sequence[type], obs: Optional[Observability] = None
) -> Fleet:
    stores = [NodeStore.in_memory() for _ in miner_classes]
    miners = [
        cls(
            miner_id=f"m{index}",
            allocate=DecloudAllocator(VECTORIZED),
            difficulty_bits=DIFFICULTY_BITS,
            store=store,
        )
        for index, (cls, store) in enumerate(zip(miner_classes, stores))
    ]
    ledger = TokenLedger()
    settlement = SettlementProcessor(ledger=ledger, obs=obs)
    stores[0].attach(ledger=ledger, settlement=settlement)
    return Fleet(stores=stores, miners=miners, settlement=settlement)


def build_participants(
    bids: Sequence[Bid], seal_seed: bytes, withhold_every: int = 0
) -> Dict[str, Participant]:
    """One seeded participant per owner; every ``withhold_every``-th
    client (by first appearance) never reveals its keys."""
    participants: Dict[str, Participant] = {}
    clients = 0
    for bid in bids:
        owner = owner_of(bid)
        if owner in participants:
            continue
        cls = Participant
        if isinstance(bid, Request):
            clients += 1
            if withhold_every and clients % withhold_every == 0:
                cls = WithholdingParticipant
        participants[owner] = cls(
            participant_id=owner, deterministic=True, seal_seed=seal_seed
        )
    return participants


def settle(fleet: Fleet, result: RoundResult) -> None:
    fleet.settlement.settle_block(
        result.outcome.matches, auto_fund=True, block_hash=result.block.hash()
    )


def check_round(
    unit: Unit,
    fleet: Fleet,
    result: RoundResult,
    tips: Sequence[Tuple[str, str, int]],
    submitted: Sequence[Tuple[Optional[str], bool]],
    faults_injected: bool,
) -> None:
    """Consensus, exclusion and economics checks of one committed round.

    ``tips`` is every miner's ``(id, tip hash, height)`` at the moment
    the round committed; ``submitted`` is ``(txid, owner is honest)``
    per bid offered to this round, the txid ``None`` when the bid never
    reached the preamble.
    """
    errors: List[str] = []
    block = result.block
    block_hash = block.hash()
    approving = [tip for tip in tips if tip[0] in result.accepted_by]
    if len(result.accepted_by) < fleet.quorum:
        errors.append(
            f"block {block_hash[:12]} accepted by {len(result.accepted_by)} "
            f"miners, quorum is {fleet.quorum}"
        )
    if {(tip, height) for _m, tip, height in approving} != {
        (block_hash, block.preamble.height + 1)
    }:
        errors.append(f"approving miners disagree on the tip: {approving}")
    included = {tx.txid() for tx in block.preamble.transactions}
    excluded = set(result.excluded_txids)
    withheld = {
        txid for txid, honest in submitted if not honest and txid in included
    }
    if not withheld <= excluded:
        errors.append(
            f"{len(withheld - excluded)} withheld bids were not excluded"
        )
    check_economics(result.outcome, errors)

    honest = [txid for txid, is_honest in submitted if is_honest]
    missing = [
        txid for txid in honest if txid not in included or txid in excluded
    ]
    unit.submitted += len(submitted)
    unit.offered += len(honest)
    unit.excluded += len(excluded)
    unit.hashes += (block_hash,)
    if errors:
        unit.failed += len(honest)
    elif faults_injected:
        unit.lost += len(missing)
        unit.done += len(included) - len(excluded)
    else:
        unit.failed += len(missing)
        unit.done += len(included) - len(excluded)
    unit.errors.extend(errors)
    for key, amount in (
        ("ledger.pow_iterations", block.preamble.pow_nonce + 1),
        ("ledger.block_bytes", len(canonical_json(block_to_dict(block)))),
        ("protocol.fallbacks", len(result.failed_proposers)),
        ("core.matches", len(result.outcome.matches)),
        ("core.reduced_trades", len(result.outcome.reduced_requests)),
    ):
        unit.facts[key] = unit.facts.get(key, 0) + amount


def check_recovery(store: NodeStore) -> Tuple[Dict[str, float], List[str]]:
    """One ``NodeStore.recover()``: the rebuilt state must equal the live one."""
    live = store.state_digest()
    start = time.perf_counter()
    recovered = store.recover(difficulty_bits=DIFFICULTY_BITS)
    elapsed = time.perf_counter() - start
    errors = []
    if recovered.state_digest() != live:
        errors.append(
            f"recovered state digest {recovered.state_digest()[:12]} != "
            f"live {live[:12]}"
        )
    return {"store.recover_s": elapsed}, errors


class RoundLockstep(Workload):
    """``ExposureProtocol`` over the synchronous zero-delay bus."""

    name = "round_lockstep"
    extra_variants = ("obs",)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n_requests = 4 if tiny else 12
        self.warm_bids = 3 if tiny else 10

    def build(self) -> None:
        start = time.perf_counter()
        requests, offers = generate_market(self.n_requests, seed=self.seed)
        self.generate_s = time.perf_counter() - start
        self.bids: List[Bid] = list(requests) + list(offers)
        self.lanes = {"dark": self._new_lane(None)}
        self.wal_seen: Dict[int, int] = {}

    def _new_lane(self, obs: Optional[Observability]):
        fleet = build_fleet([Miner] * 3, obs=obs)
        protocol = ExposureProtocol(
            miners=fleet.miners,
            network=BroadcastNetwork(),
            store=fleet.stores[0],
            obs=obs,
        )
        participants = build_participants(
            self.bids, f"perfbench-{self.seed}".encode("ascii")
        )
        return fleet, protocol, participants

    def _warm(self, lane) -> None:
        self.run(lane + (self.bids[: self.warm_bids],))

    def warm_up(self) -> None:
        self._warm(self.lanes["dark"])

    def prepare(self, variant: str):
        # Traced blocks extend the dark chain; blocks with an enabled
        # Observability bundle need a fleet built with one.
        if variant == "obs" and "obs" not in self.lanes:
            self.lanes["obs"] = self._new_lane(Observability("perfbench"))
            self._warm(self.lanes["obs"])
        lane = self.lanes["obs" if variant == "obs" else "dark"]
        return lane + (self.bids,)

    def run(self, job):
        fleet, protocol, participants, bids = job
        txids = [
            protocol.submit(participants[owner_of(bid)], bid).txid()
            for bid in bids
        ]
        try:
            result = protocol.run_round(list(participants.values()))
        except ReproError as exc:
            return txids, None, (), type(exc).__name__
        settle(fleet, result)
        return txids, result, fleet.tips(), ""

    def check(self, job, raw) -> Unit:
        fleet = job[0]
        txids, result, tips, error = raw
        unit = Unit(rounds=1)
        if result is None:
            unit.offered = unit.failed = len(txids)
            unit.errors.append(f"round aborted: {error}")
            return unit
        check_round(
            unit, fleet, result, tips,
            [(txid, True) for txid in txids], faults_injected=False,
        )
        wal_size = fleet.stores[0].wal.backend.size()
        unit.facts["store.wal_bytes"] = wal_size - self.wal_seen.get(id(fleet), 0)
        self.wal_seen[id(fleet)] = wal_size
        return unit

    def finish(self):
        return check_recovery(self.lanes["dark"][0].stores[0])


@dataclass
class FaultyJob:
    fleet: Fleet
    runtime: Runtime
    inputs: List[RoundInput]
    #: per round: (participant, bid) in submission order
    submissions: List[List[Tuple[Participant, Bid]]]
    #: per commit: (round, result, every miner's tip, wall instant)
    commits: List[Tuple[int, RoundResult, list, float]]


class RoundRuntimeFaulty(Workload):
    """``Runtime(pipeline=True)`` replaying a seeded ``FaultPlan``.

    Delays are virtual seconds on the reactor's clock — latency here is
    processor time plus what retries and fallbacks add to it.  Every
    unit is a fresh fleet and freshly sealed bids (a new seal seed per
    unit), so no unit can be served from state an earlier one left.
    """

    name = "round_runtime_faulty"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n_rounds = 3
        self.n_requests = 4 if tiny else 6
        #: every N-th client withholds its keys (the issue's "every 25th
        #: request" at a block size the run budget allows)
        self.withhold_every = 4 if tiny else 6
        self.mean_interarrival = 0.05
        self.units: Dict[str, int] = {}
        self.last_fleet: Optional[Fleet] = None

    def build(self) -> None:
        start = time.perf_counter()
        self.markets: List[List[Bid]] = []
        for round_index in range(self.n_rounds):
            requests, offers = generate_market(
                self.n_requests, seed=self.seed * 1009 + round_index
            )
            self.markets.append(list(requests) + list(offers))
        self.generate_s = time.perf_counter() - start
        self.units = {}

    def prepare(self, variant: str) -> FaultyJob:
        # Unit k of every variant seals with the same seed, so traced
        # unit 0 and dark unit 0 are the same run: their counts must agree.
        index = self.units.get(variant, 0)
        self.units[variant] = index + 1
        return self._job(self.markets, f"u{index}")

    def _job(self, markets: Sequence[Sequence[Bid]], seal_tag: str) -> FaultyJob:
        fleet = build_fleet([Miner, EquivocatingMiner, Miner])
        participants = build_participants(
            [bid for market in markets for bid in market],
            seal_seed=f"perfbench-{self.seed}-{seal_tag}".encode("ascii"),
            withhold_every=self.withhold_every,
        )
        submissions = [
            [(participants[owner_of(bid)], bid) for bid in market]
            for market in markets
        ]
        inputs = [
            RoundInput(
                submissions=tuple(entries),
                offsets=arrival_offsets(
                    SustainedSpec(
                        num_clients=len(entries),
                        num_providers=0,
                        seed=self.seed,
                        mean_interarrival=self.mean_interarrival,
                    ),
                    round_index,
                ),
            )
            for round_index, entries in enumerate(submissions)
        ]
        commits: List[Tuple[int, RoundResult, list, float]] = []

        def on_commit(round_index: int, result: RoundResult) -> None:
            settle(fleet, result)
            commits.append(
                (round_index, result, fleet.tips(), time.perf_counter())
            )

        runtime = Runtime(
            fleet.miners,
            plan=FaultPlan(
                seed=f"perfbench-net-{self.seed}",
                drop_rate=0.05,
                duplicate_rate=0.05,
                max_delay=0.2,
                reorder_rate=0.1,
            ),
            schedule_seed=f"perfbench-sched-{self.seed}",
            store=fleet.stores[0],
            pipeline=True,
            on_commit=on_commit,
        )
        self.last_fleet = fleet
        return FaultyJob(fleet, runtime, inputs, submissions, commits)

    def warm_up(self) -> None:
        # two short rounds: enough to walk every phase and one overlap
        self.run(self._job([market[:4] for market in self.markets[:2]], "warm"))

    def run(self, job: FaultyJob):
        return job.runtime.run(job.inputs)

    def check(self, job: FaultyJob, report) -> Unit:
        unit = Unit(rounds=len(job.inputs))
        commits = {index: (result, tips) for index, result, tips, _t in job.commits}
        for rt_round, entries in zip(report.rounds, job.submissions):
            honest = [
                not isinstance(participant, WithholdingParticipant)
                for participant, _bid in entries
            ]
            if rt_round.result is None:
                unit.offered += sum(honest)
                unit.failed += sum(honest)
                unit.errors.append(
                    f"round {rt_round.index} aborted: {rt_round.error}"
                )
                continue
            result, tips = commits[rt_round.index]
            sender_txid = {
                tx.sender_id: tx.txid()
                for tx in result.block.preamble.transactions
            }
            # Each owner offers one bid per round, so the sender names
            # its transaction; a bid the gossip lost is in no preamble.
            submitted = [
                (sender_txid.get(participant.participant_id), is_honest)
                for (participant, _bid), is_honest in zip(entries, honest)
            ]
            check_round(
                unit, job.fleet, result, tips, submitted, faults_injected=True
            )
        transport = job.runtime.transport
        unit.facts.update(
            {
                "runtime.virtual_s": report.virtual_time,
                "runtime.overlap_rounds": report.overlap_rounds,
                "runtime.messages_sent": report.messages_sent,
                "runtime.messages_delivered": report.messages_delivered,
                "runtime.messages_dropped": report.messages_dropped,
                "runtime.backpressure_deferrals": report.backpressure_deferrals,
                "protocol.reveal_retries": sum(
                    1
                    for message in transport.log
                    if message.topic == messages.TOPIC_REVEAL_REQUEST
                ),
            }
        )
        unit.facts["store.wal_bytes"] = job.fleet.stores[0].wal.backend.size()
        unit.commit_walls = [wall for _i, _r, _tips, wall in job.commits]
        return unit

    def finish(self):
        return check_recovery(self.last_fleet.stores[0])


# ----------------------------------------------------------------------
# Clears
# ----------------------------------------------------------------------
class Clear(Workload):
    """``DecloudAuction.run`` on seeded zone markets, fresh auction per
    clear — what a miner's allocator and a researcher's sweep both do.

    One run cycles through several markets drawn from the seed: how long
    a market takes to clear depends on the draw (shard sizes, cluster
    counts) by 10-20 %, and a single market per run made that draw the
    largest term of the seed-to-seed spread.
    """

    #: (n_requests, n_zones, markets) full size and self-test size
    size = (0, 0, 0)
    tiny_size = (120, 4, 2)

    def build(self) -> None:
        n_requests, n_zones, n_markets = self.tiny_size if self.tiny else self.size
        start = time.perf_counter()
        self.markets = [
            generate_zone_market(
                n_requests,
                n_zones=n_zones,
                seed=self.seed * 101 + index,
                kind="network",
                locality="strong",
                cross_zone_fraction=0.05,
            )[:2]
            for index in range(n_markets)
        ]
        self.generate_s = time.perf_counter() - start
        self.config = self.make_config()
        self.digests: Dict[int, str] = {}
        self.units: Dict[str, int] = {}

    def make_config(self) -> AuctionConfig:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run(self.prepare("warm"))

    def prepare(self, variant: str) -> Tuple[DecloudAuction, int]:
        index = self.units.get(variant, 0)
        self.units[variant] = index + 1
        return DecloudAuction(self.config), index % len(self.markets)

    def run(self, job: Tuple[DecloudAuction, int]):
        auction, market = job
        requests, offers = self.markets[market]
        try:
            return auction.run(requests, offers, evidence=EVIDENCE)
        except ReproError as exc:
            return exc

    def check(self, job: Tuple[DecloudAuction, int], outcome) -> Unit:
        auction, market = job
        n_bids = sum(len(side) for side in self.markets[market])
        unit = Unit(rounds=1, offered=n_bids, group=market)
        if isinstance(outcome, ReproError):
            unit.failed = n_bids
            unit.errors.append(f"clear raised {type(outcome).__name__}: {outcome}")
            return unit
        digest = outcome_digest(outcome)
        first = self.digests.setdefault(market, digest)
        if digest != first:
            unit.errors.append(
                f"repeated clear of market {market} gave digest {digest[:12]}, "
                f"first was {first[:12]}"
            )
        check_economics(outcome, unit.errors)
        unit.hashes = (digest,)
        if unit.errors:
            unit.failed = n_bids
        else:
            unit.done = n_bids
        unit.facts = {
            "core.matches": len(outcome.matches),
            "core.reduced_trades": len(outcome.reduced_requests),
        }
        self.add_facts(auction, unit.facts)
        return unit

    def add_facts(self, auction: DecloudAuction, facts: Dict[str, float]) -> None:
        pass


class ClearDense(Clear):
    name = "clear_dense"
    size = (1500, 6, 4)

    def make_config(self) -> AuctionConfig:
        return VECTORIZED


class ClearPruned(Clear):
    name = "clear_pruned"
    size = (5000, 20, 2)

    def make_config(self) -> AuctionConfig:
        self.generator = NetworkZoneGenerator(verify="off")
        return AuctionConfig(engine="vectorized", candidates=self.generator)

    def add_facts(self, auction, facts) -> None:
        stats = self.generator.last_stats
        facts["core.pruned_pair_ratio"] = (
            stats["pairs_admitted"] / stats["pairs_total"]
        )


class ClearSharded(Clear):
    name = "clear_sharded"
    size = (2000, 16, 8)

    def make_config(self) -> AuctionConfig:
        return AuctionConfig(
            engine="vectorized",
            sharding=ShardPlan(kind="network", shard_workers=0),
        )

    def add_facts(self, auction, facts) -> None:
        stats = auction.last_shard_stats
        facts["core.shards"] = stats["shards"]
        facts["core.spillover_bids"] = (
            stats["spillover_requests"] + stats["spillover_offers"]
        )
        facts["core.shard_clear_s"] = sum(stats.get("shard_seconds", {}).values())
        facts["core.spillover_ran"] = int(stats["spillover_ran"])


WORKLOADS = {
    cls.name: cls
    for cls in (
        RoundLockstep,
        RoundRuntimeFaulty,
        ClearDense,
        ClearPruned,
        ClearSharded,
    )
}
