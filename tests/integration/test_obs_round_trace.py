"""Trace-based integration tests: what a protocol round *did*.

The exposure protocol runs with a live Observability attached and the
exported trace is asserted structurally — the span tree
``seal -> round(mine, reveal, propose, verify, commit)``, event counts,
and the registry's protocol/ledger series.  The degraded-round tests pin
the failure semantics: an excluded bid emits ``reveal.excluded`` exactly
once, a fully-withheld round emits ``reveal.timeout`` and aborts with
partial phase timings tagged ``aborted``.  The causal-propagation tests
drive the runtime over a faulty transport and pin where each message's
fate lands in the tree.
"""

import pytest

from repro.common.errors import RevealTimeoutError
from repro.faults.actors import TamperingParticipant, WithholdingParticipant
from repro.faults.plan import FaultPlan
from repro.ledger.miner import Miner
from repro.obs import Observability
from repro.obs.report import build_tree
from repro.obs.trace import load_jsonl, span_seconds
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.runtime import RoundInput, Runtime
from tests.conftest import make_offer, make_request


def _network(n=3, bits=6):
    return [
        Miner(
            miner_id=f"m{i}",
            allocate=DecloudAllocator(),
            difficulty_bits=bits,
        )
        for i in range(n)
    ]


def _participant(pid, cls=Participant):
    return cls(participant_id=pid, deterministic=True, seal_seed=b"trace")


def _bids(alice_cls=Participant):
    """Five (participant, bid) pairs, enough buyer/seller pairs to
    actually trade; alice's comes first.  Seeded seals give every run
    the same txids, which the runtime's fault draws are keyed on."""
    return [
        (
            _participant("alice", alice_cls),
            make_request(request_id="ra", client_id="alice", bid=2.0),
        ),
        (
            _participant("anna"),
            make_request(request_id="rb", client_id="anna", bid=1.5),
        ),
        (
            _participant("ada"),
            make_request(request_id="rc", client_id="ada", bid=1.0),
        ),
        (
            _participant("bob"),
            make_offer(offer_id="ob", provider_id="bob", bid=0.4),
        ),
        (
            _participant("ben"),
            make_offer(offer_id="oc", provider_id="ben", bid=0.6),
        ),
    ]


def _market(protocol, alice_cls=Participant):
    """Submit :func:`_bids`; returns the participants and alice's txid."""
    bids = _bids(alice_cls)
    txids = [protocol.submit(who, bid).txid() for who, bid in bids]
    return [participant for participant, _ in bids], txids[0]


def _events(obs, name):
    return [
        r
        for r in obs.tracer.records
        if r["type"] == "event" and r["name"] == name
    ]


def _span_names(node):
    return [child["name"] for child in node["children"]]


class TestHealthyRoundTrace:
    def _run(self):
        obs = Observability("healthy-round")
        protocol = ExposureProtocol(miners=_network(), obs=obs)
        participants, _ = _market(protocol)
        result = protocol.run_round(participants)
        return obs, result

    def test_span_tree_seal_mine_reveal_propose_verify_commit(self):
        obs, _ = self._run()
        roots = build_tree(load_jsonl(obs.trace_jsonl()))
        names = [r["name"] for r in roots]
        # five seals (one per submitted bid), then the round span
        assert names == ["seal"] * 5 + ["round"]
        round_node = roots[-1]
        assert round_node["status"] == "ok"
        assert _span_names(round_node) == [
            "mine", "reveal", "propose", "verify", "commit",
        ]
        assert all(
            child["status"] == "ok" for child in round_node["children"]
        )

    def test_round_committed_event_exactly_once(self):
        obs, result = self._run()
        committed = _events(obs, "round.committed")
        assert len(committed) == 1
        assert committed[0]["attrs"]["height"] == result.block.height
        assert committed[0]["attrs"]["excluded"] == 0

    def test_registry_counts_match_round(self):
        obs, result = self._run()
        reg = obs.registry
        assert reg.counter_value("protocol_seals_total") == 5.0
        assert reg.counter_value("protocol_rounds_total") == 1.0
        assert reg.counter_value("protocol_reveals_total") == 5.0
        assert reg.counter_value("protocol_commits_total") == 1.0
        assert reg.counter_value("protocol_excluded_bids_total") == 0.0
        assert reg.gauge_value("protocol_last_quorum") == float(
            len(result.accepted_by)
        )

    def test_ledger_metrics_recorded(self):
        obs, result = self._run()
        reg = obs.registry
        assert reg.counter_value("ledger_blocks_mined_total") == 1.0
        assert reg.counter_value("ledger_pow_iterations_total") == float(
            result.block.preamble.pow_nonce + 1
        )
        txs = reg.histogram_stats("ledger_block_txs")
        assert txs["count"] == 1
        assert txs["sum"] == len(result.block.preamble.transactions)
        assert reg.histogram_stats("ledger_block_bytes")["sum"] == len(
            result.block.preamble.canonical_bytes
        )

    def test_no_degradation_events_in_clean_round(self):
        obs, _ = self._run()
        for name in (
            "reveal.retry",
            "reveal.excluded",
            "reveal.timeout",
            "round.aborted",
            "round.fallback",
            "proposal.rejected",
        ):
            assert _events(obs, name) == [], name

    def test_phase_timer_covers_protocol_phases(self):
        obs, _ = self._run()
        phases = span_seconds(obs.tracer.records)
        assert {
            "seal", "mine", "reveal", "propose", "verify", "commit",
        } <= set(phases)
        assert not any(phase["aborted"] for phase in phases.values())


class TestDegradedRoundTrace:
    def test_excluded_bid_emits_exactly_one_exclusion_event(self):
        obs = Observability("degraded-round")
        protocol = ExposureProtocol(miners=_network(), obs=obs)
        participants, alice_txid = _market(
            protocol, alice_cls=WithholdingParticipant
        )
        result = protocol.run_round(participants)
        assert result.excluded_txids == (alice_txid,)

        excluded_events = _events(obs, "reveal.excluded")
        assert [e["attrs"]["txid"] for e in excluded_events] == [alice_txid]
        assert obs.registry.counter_value(
            "protocol_excluded_bids_total"
        ) == 1.0
        # the withheld reveal forces retry sweeps before exclusion
        assert len(_events(obs, "reveal.retry")) >= 1
        assert obs.registry.counter_value(
            "protocol_reveal_retries_total"
        ) >= 1.0
        # the degraded round still commits, and says so
        committed = _events(obs, "round.committed")
        assert len(committed) == 1
        assert committed[0]["attrs"]["excluded"] == 1

    def test_screened_out_reveals_emit_byzantine_evidence(self):
        obs = Observability("byzantine-round")
        miners = _network()
        protocol = ExposureProtocol(miners=miners, obs=obs)
        participants, alice_txid = _market(
            protocol, alice_cls=TamperingParticipant
        )
        result = protocol.run_round(participants)
        assert result.excluded_txids == (alice_txid,)
        # one event per screening, from the miner that screened it out
        rejected = _events(obs, "byzantine.reveal_rejected")
        assert len(rejected) == sum(len(m.rejected_reveals) for m in miners)
        assert {e["attrs"]["miner"] for e in rejected} == {"m0", "m1", "m2"}
        for event in rejected:
            assert event["attrs"]["sender"] == "alice"
            assert event["attrs"]["txid"] == alice_txid
            assert event["attrs"]["reason"] == "commitment mismatch"
        assert obs.registry.counter_value(
            "protocol_byzantine_reveals_total", reason="commitment mismatch"
        ) == float(len(rejected))

    def test_fully_withheld_round_aborts_with_tagged_timings(self):
        obs = Observability("timeout-round")
        protocol = ExposureProtocol(miners=_network(), obs=obs)
        alice = WithholdingParticipant(
            participant_id="alice", deterministic=True
        )
        protocol.submit(alice, make_request(client_id="alice"))
        with pytest.raises(RevealTimeoutError):
            protocol.run_round([alice])

        assert len(_events(obs, "reveal.timeout")) == 1
        aborted = _events(obs, "round.aborted")
        assert len(aborted) == 1
        assert aborted[0]["attrs"]["error"] == "RevealTimeoutError"
        assert obs.registry.counter_value(
            "protocol_rounds_aborted_total", reason="RevealTimeoutError"
        ) == 1.0
        assert obs.registry.counter_value("protocol_commits_total") == 0.0

        # satellite: partial phase timings are flushed and tagged, not
        # dropped — mine/reveal ran, the round carries the abort marker
        phases = span_seconds(obs.tracer.records)
        assert phases["round"]["aborted"] == 1
        assert "mine" in phases
        assert "reveal" in phases
        assert "commit" not in phases

        # the round span closed with status=error despite the raise
        roots = build_tree(load_jsonl(obs.trace_jsonl()))
        round_node = next(r for r in roots if r["name"] == "round")
        assert round_node["status"] == "error"
        assert _span_names(round_node) == ["mine", "reveal"]


class TestCausalPropagationUnderFaults:
    """Message faults land on the *sender's* span; each landed copy is
    one delivery.

    Every bid gossip crosses the runtime's faulty transport with
    observability attached: each copy that lands opens one ``deliver``
    span parented on the sender's ``seal`` span, and drops, duplication
    and reorder jitter are recorded as events on that same span.
    """

    def _run(self, **plan_kwargs):
        obs = Observability("faulty-round")
        runtime = Runtime(
            _network(), plan=FaultPlan(seed="causal", **plan_kwargs), obs=obs
        )
        report = runtime.run([RoundInput(submissions=tuple(_bids()))])
        return obs, runtime.transport, report

    def _bid_deliver_spans(self, obs):
        return [
            r
            for r in obs.tracer.records
            if r["type"] == "span_start"
            and r["name"] == "deliver"
            and r["attrs"]["topic"] == "bids"
        ]

    def _seal_participant(self, obs):
        return {
            r["span"]: r["attrs"]["participant"]
            for r in obs.tracer.records
            if r["type"] == "span_start" and r["name"] == "seal"
        }

    def test_duplicated_message_yields_one_delivery_span_per_copy(self):
        obs, transport, report = self._run(duplicate_rate=0.999)
        assert transport.duplicated > 0
        (result,) = report.committed
        assert result.excluded_txids == ()

        spans = self._bid_deliver_spans(obs)
        # 5 sealed bids x 3 miners, each pair reached...
        pairs = {(s["attrs"]["sender"], s["attrs"]["node"]) for s in spans}
        assert len(pairs) == 15
        # ...once per copy: every duplicate flagged at send time lands
        # as one more delivery (inboxes are idempotent)
        dup_sent = [
            e
            for e in _events(obs, "net.duplicate")
            if e["attrs"]["topic"] == "bids"
        ]
        assert len(dup_sent) >= 1
        assert len(spans) == 15 + len(dup_sent)
        assert obs.registry.counter_value(
            "runtime_messages_delivered_total", topic="bids"
        ) == float(len(spans))

    def test_reordered_message_yields_exactly_one_delivery_span(self):
        # the jitter stays inside the submit check, so no bid is
        # re-gossiped: one copy per (bid, miner)
        obs, _, report = self._run(
            reorder_rate=0.999, max_delay=0.01, reorder_jitter=0.05
        )
        (result,) = report.committed
        assert result.excluded_txids == ()
        spans = self._bid_deliver_spans(obs)
        assert len(spans) == 15
        reorders = [
            e
            for e in _events(obs, "net.reorder")
            if e["attrs"]["topic"] == "bids"
        ]
        assert len(reorders) >= 1

    def test_delivery_spans_parent_on_the_senders_seal_span(self):
        obs, _, _ = self._run(duplicate_rate=0.999)
        seal_participant = self._seal_participant(obs)
        spans = self._bid_deliver_spans(obs)
        assert spans
        for span in spans:
            assert seal_participant[span["parent"]] == span["attrs"]["sender"]

    def test_fault_events_attach_to_the_senders_seal_span(self):
        obs, transport, _ = self._run(drop_rate=0.3)
        assert transport.dropped > 0
        seal_participant = self._seal_participant(obs)
        drops = [
            e for e in _events(obs, "net.drop")
            if e["attrs"]["topic"] == "bids"
        ]
        assert drops
        for event in drops:
            assert seal_participant[event["span"]] == event["attrs"]["sender"]

    def test_fault_sampling_identical_with_observability_off(self):
        def run(obs):
            runtime = Runtime(
                _network(),
                plan=FaultPlan(
                    seed="causal", drop_rate=0.2, duplicate_rate=0.3,
                    reorder_rate=0.2, max_delay=0.02,
                ),
                obs=obs,
            )
            report = runtime.run([RoundInput(submissions=tuple(_bids()))])
            return runtime.transport, report

        net_on, rep_on = run(Observability("on"))
        net_off, rep_off = run(None)
        assert net_on.dropped == net_off.dropped
        assert net_on.duplicated == net_off.duplicated
        assert net_on.delivered == net_off.delivered
        assert [r.error for r in rep_on.rounds] == [
            r.error for r in rep_off.rounds
        ]
        assert [r.outcome.to_payload() for r in rep_on.committed] == [
            r.outcome.to_payload() for r in rep_off.committed
        ]


class TestTraceExportDeterminism:
    def test_two_seeded_rounds_export_identical_stripped_traces(self):
        def run():
            obs = Observability("repro-round")
            protocol = ExposureProtocol(miners=_network(), obs=obs)
            participants, _ = _market(protocol)
            protocol.run_round(participants)
            return obs.trace_jsonl(strip_wall=True)

        assert run() == run()
