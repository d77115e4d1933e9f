"""Property: observability never perturbs outcomes, and traces are
deterministic.

Two invariants over Hypothesis-generated adversarial markets:

* clearing with a live :class:`~repro.obs.Observability` attached yields
  a ``canonical_outcome`` identical to clearing without one, on both
  engines — instrumentation is read-only by construction *and* by test;
* two seeded runs of the same market emit byte-identical JSONL traces
  once wall-clock fields are stripped.

PR 5 extends both invariants to the second observability layer: the
monitor suite and causal trace propagation must be just as inert — a
monitored bundle yields identical canonical outcomes, and a degraded
protocol round over an UnreliableNetwork (trace contexts riding every
message) still emits byte-identical stripped traces across seeded runs.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.obs import Observability
from repro.obs.monitors import MonitorSuite, violation_total
from tests.differential.conftest import canonical_outcome
from tests.differential.test_engine_equivalence import markets

EVIDENCE = b"obs-invariance-evidence"


@settings(max_examples=60, deadline=None)
@given(market=markets())
def test_obs_on_equals_obs_off_both_engines(market):
    requests, offers = market
    for engine in ("reference", "vectorized"):
        config = AuctionConfig(engine=engine)
        plain = DecloudAuction(config).run(
            requests, offers, evidence=EVIDENCE
        )
        observed = DecloudAuction(config).run(
            requests,
            offers,
            evidence=EVIDENCE,
            obs=Observability(f"prop-{engine}"),
        )
        assert canonical_outcome(observed) == canonical_outcome(plain), (
            f"observability perturbed the {engine} engine's outcome"
        )


@settings(max_examples=60, deadline=None)
@given(market=markets())
def test_two_seeded_runs_emit_byte_identical_traces(market):
    requests, offers = market

    def run(engine: str) -> str:
        obs = Observability("trace-repro")
        DecloudAuction(AuctionConfig(engine=engine)).run(
            requests, offers, evidence=EVIDENCE, obs=obs
        )
        return obs.trace_jsonl(strip_wall=True)

    for engine in ("reference", "vectorized"):
        first, second = run(engine), run(engine)
        assert first == second
        assert first  # a cleared round always leaves a trace


@settings(max_examples=40, deadline=None)
@given(market=markets())
def test_registry_snapshot_is_run_deterministic(market):
    """Counters and gauges (not histogram timings) repeat exactly."""
    requests, offers = market

    def run() -> dict:
        obs = Observability("reg-repro")
        DecloudAuction(AuctionConfig()).run(
            requests, offers, evidence=EVIDENCE, obs=obs
        )
        snap = obs.registry.snapshot()
        return {"counters": snap["counters"], "gauges": snap["gauges"]}

    first, second = run(), run()
    # phase-seconds histograms legitimately vary run to run; the value
    # series must not (welfare totals are float-exact on equal inputs)
    assert first == second


@settings(max_examples=40, deadline=None)
@given(market=markets())
def test_obs_off_equals_null_obs_default(market):
    """Passing obs=None is the same as not passing it at all."""
    requests, offers = market
    config = AuctionConfig(engine="vectorized")
    default = DecloudAuction(config).run(requests, offers, evidence=EVIDENCE)
    explicit = DecloudAuction(replace(config)).run(
        requests, offers, evidence=EVIDENCE, obs=None
    )
    assert canonical_outcome(explicit) == canonical_outcome(default)


@settings(max_examples=40, deadline=None)
@given(market=markets())
def test_monitored_obs_equals_obs_off_both_engines(market):
    """The monitor suite is read-only: outcomes identical, zero alerts."""
    requests, offers = market
    for engine in ("reference", "vectorized"):
        config = AuctionConfig(engine=engine)
        plain = DecloudAuction(config).run(
            requests, offers, evidence=EVIDENCE
        )
        obs = Observability(f"mon-{engine}", monitors=MonitorSuite())
        monitored = DecloudAuction(config).run(
            requests, offers, evidence=EVIDENCE, obs=obs
        )
        assert canonical_outcome(monitored) == canonical_outcome(plain), (
            f"monitors perturbed the {engine} engine's outcome"
        )
        # and the invariants the monitors check actually held
        assert violation_total(obs.registry) == 0


@settings(max_examples=30, deadline=None)
@given(market=markets())
def test_monitored_trace_is_byte_identical_across_runs(market):
    """Monitors on + tracing on: stripped traces still reproduce."""
    requests, offers = market

    def run() -> str:
        obs = Observability("mon-trace", monitors=MonitorSuite())
        DecloudAuction(AuctionConfig(engine="vectorized")).run(
            requests, offers, evidence=EVIDENCE, obs=obs
        )
        return obs.trace_jsonl(strip_wall=True)

    assert run() == run()


def _zone_market(seed: int):
    from repro.workloads.generators import generate_zone_market

    requests, offers, _ = generate_zone_market(
        24, n_zones=3, seed=seed, kind="network", locality="strong",
        cross_zone_fraction=0.25,
    )
    return requests, offers


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sharded_obs_on_equals_obs_off_both_engines(seed):
    """The shard fabric's instrumentation is just as inert: a sharded
    run with a live Observability (shard_* series, every shard and the
    spillover round traced and checked under ``obs.scoped(shard=...)``)
    yields the identical canonical outcome on both engines."""
    from repro.core.config import ShardPlan

    requests, offers = _zone_market(seed)
    for engine in ("reference", "vectorized"):
        config = AuctionConfig(
            engine=engine, sharding=ShardPlan(kind="network")
        )
        plain = DecloudAuction(config).run(
            requests, offers, evidence=EVIDENCE
        )
        obs = Observability(f"shard-prop-{engine}", monitors=MonitorSuite())
        observed = DecloudAuction(config).run(
            requests, offers, evidence=EVIDENCE, obs=obs,
        )
        assert violation_total(obs.registry) == 0
        assert canonical_outcome(observed) == canonical_outcome(plain), (
            f"observability perturbed the sharded {engine} outcome"
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sharded_trace_is_byte_identical_across_runs(seed):
    """Shards clear in process under the caller's tracer, so the whole
    sharded trace — shard and spillover ``auction`` spans included —
    replays byte for byte on both engines."""
    from repro.core.config import ShardPlan

    requests, offers = _zone_market(seed)
    for engine in ("reference", "vectorized"):
        config = AuctionConfig(
            engine=engine, sharding=ShardPlan(kind="network")
        )

        def run() -> str:
            obs = Observability("shard-trace")
            DecloudAuction(config).run(
                requests, offers, evidence=EVIDENCE, obs=obs
            )
            return obs.trace_jsonl(strip_wall=True)

        first, second = run(), run()
        assert first == second
        assert '"sharded_auction"' in first
        assert '"name":"auction"' in first


def _degraded_protocol_trace() -> tuple:
    """One seeded degraded round over an UnreliableNetwork."""
    from repro.faults.actors import WithholdingParticipant
    from repro.faults.network import UnreliableNetwork
    from repro.faults.plan import FaultPlan
    from repro.ledger.miner import Miner
    from repro.protocol.allocator import DecloudAllocator
    from repro.protocol.exposure import ExposureProtocol, Participant
    from tests.conftest import make_offer, make_request

    obs = Observability("prop-degraded", monitors=MonitorSuite())
    network = UnreliableNetwork(
        plan=FaultPlan(
            seed="prop-degraded", drop_rate=0.2, duplicate_rate=0.2,
            reorder_rate=0.2, max_delay=0.05,
        )
    )
    miners = [
        Miner(miner_id=f"m{i}", allocate=DecloudAllocator(),
              difficulty_bits=4)
        for i in range(3)
    ]
    protocol = ExposureProtocol(miners=miners, network=network, obs=obs)
    seal_seed = b"prop-degraded"
    mallory = WithholdingParticipant(
        participant_id="mallory", deterministic=True, seal_seed=seal_seed
    )
    alice = Participant(
        participant_id="alice", deterministic=True, seal_seed=seal_seed
    )
    bob = Participant(
        participant_id="bob", deterministic=True, seal_seed=seal_seed
    )
    protocol.submit(
        mallory, make_request(request_id="rm", client_id="mallory", bid=2.0)
    )
    protocol.submit(
        alice, make_request(request_id="ra", client_id="alice", bid=1.5)
    )
    protocol.submit(bob, make_offer(offer_id="ob", provider_id="bob", bid=0.4))
    result = protocol.run_round([mallory, alice, bob])
    return result, obs


def test_degraded_round_trace_is_byte_identical_across_seeded_runs():
    """Trace contexts on every message + faults: still deterministic."""
    first_result, first_obs = _degraded_protocol_trace()
    second_result, second_obs = _degraded_protocol_trace()
    assert first_result.excluded_txids == second_result.excluded_txids
    assert first_obs.trace_jsonl(strip_wall=True) == second_obs.trace_jsonl(
        strip_wall=True
    )
    assert violation_total(first_obs.registry) == 0


def test_degraded_round_outcome_unchanged_by_observability():
    """The same seeded degraded round clears identically with obs off."""
    from repro.faults.actors import WithholdingParticipant
    from repro.faults.network import UnreliableNetwork
    from repro.faults.plan import FaultPlan
    from repro.ledger.miner import Miner
    from repro.protocol.allocator import DecloudAllocator
    from repro.protocol.exposure import ExposureProtocol, Participant
    from tests.conftest import make_offer, make_request

    def run(obs):
        network = UnreliableNetwork(
            plan=FaultPlan(
                seed="prop-degraded", drop_rate=0.2, duplicate_rate=0.2,
                reorder_rate=0.2, max_delay=0.05,
            )
        )
        miners = [
            Miner(miner_id=f"m{i}", allocate=DecloudAllocator(),
                  difficulty_bits=4)
            for i in range(3)
        ]
        protocol = ExposureProtocol(miners=miners, network=network, obs=obs)
        seal_seed = b"prop-degraded"
        mallory = WithholdingParticipant(
            participant_id="mallory", deterministic=True,
            seal_seed=seal_seed,
        )
        alice = Participant(
            participant_id="alice", deterministic=True, seal_seed=seal_seed
        )
        bob = Participant(
            participant_id="bob", deterministic=True, seal_seed=seal_seed
        )
        protocol.submit(
            mallory,
            make_request(request_id="rm", client_id="mallory", bid=2.0),
        )
        protocol.submit(
            alice, make_request(request_id="ra", client_id="alice", bid=1.5)
        )
        protocol.submit(
            bob, make_offer(offer_id="ob", provider_id="bob", bid=0.4)
        )
        return protocol.run_round([mallory, alice, bob])

    observed = run(Observability("on", monitors=MonitorSuite()))
    plain = run(None)
    assert observed.excluded_txids == plain.excluded_txids
    assert canonical_outcome(observed.outcome) == canonical_outcome(
        plain.outcome
    )


def test_runtime_telemetry_and_profiler_are_outcome_invariant():
    """The runtime engine's leg of the same invariant: attaching the
    stall profiler and periodic telemetry publisher must not change what
    gets committed, and the flame export replays byte-for-byte."""
    from repro.obs.profile import PipelineProfiler
    from repro.sim.sustained import SustainedSpec, run_sustained

    spec = SustainedSpec(rounds=3, seed=5, difficulty_bits=4)
    plain = run_sustained(spec, engine="runtime")
    foldeds = []
    for _ in range(2):
        profiler = PipelineProfiler()
        profiled = run_sustained(
            spec, engine="runtime",
            obs=Observability("tele-runtime"), profiler=profiler,
        )
        assert profiled.block_hashes == plain.block_hashes
        assert profiled.virtual_time == plain.virtual_time
        foldeds.append(profiler.to_folded())
    assert foldeds[0] == foldeds[1]
    assert foldeds[0]
