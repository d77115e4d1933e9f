"""The telemetry plane: worker capture, payload merge, actor shipping."""

import asyncio
import pickle

import pytest

from repro.core.config import AuctionConfig, ShardPlan
from repro.core.auction import DecloudAuction
from repro.workloads.generators import generate_zone_market
from repro.obs import (
    Observability,
    TelemetryAggregator,
    TelemetryPayload,
    TelemetryPublisher,
    capture_payload,
    capture_task,
    merge_payload,
)
from repro.obs.trace import span_seconds
from repro.protocol.messages import TOPIC_TELEMETRY, TelemetryFrame
from repro.runtime import DeterministicScheduler, DeterministicTransport
from repro.runtime.sockets import AsyncioBroadcastHub, AsyncioSocketTransport


# ----------------------------------------------------------------------
# capture_task / capture_payload
# ----------------------------------------------------------------------
class TestCaptureTask:
    def test_success_ships_metrics_and_trace(self):
        with capture_task("shard:zone:a", "shard") as cap:
            cap.obs.registry.inc("things_total", 3, kind="x")
            cap.obs.registry.observe("latency_seconds", 0.25)
            with cap.obs.tracer.span("inner"):
                cap.obs.tracer.event("inner.tick")
            cap.set_value("result")
        assert cap.value == "result"
        assert cap.error is None
        payload = cap.payload
        assert payload.status == "ok"
        assert payload.error is None
        counters = dict(
            ((name, labels), value) for name, labels, value in payload.counters
        )
        assert counters[("things_total", (("kind", "x"),))] == 3
        # the bundle's own task accounting rides along
        assert ("worker_tasks_total", (("kind", "shard"), ("status", "ok"))) in counters
        names = [r["name"] for r in payload.trace_records if "name" in r]
        assert "worker_task" in names and "inner" in names

    def test_failure_still_ships_payload_tagged_aborted(self):
        with capture_task("mini:3", "mini_auction") as cap:
            cap.obs.registry.inc("started_total")
            raise RuntimeError("worker exploded")
        # the exception was captured, not raised
        assert isinstance(cap.error, RuntimeError)
        assert cap.value is None
        payload = cap.payload
        assert payload.status == "aborted"
        assert "worker exploded" in payload.error
        counters = dict(
            ((name, labels), value) for name, labels, value in payload.counters
        )
        # the pre-failure delta survives: no dark worker even on abort
        assert counters[("started_total", ())] == 1.0
        assert (
            "worker_tasks_total",
            (("kind", "mini_auction"), ("status", "aborted")),
        ) in counters

    def test_payload_pickles(self):
        with capture_task("shard:zone:a", "shard") as cap:
            cap.obs.registry.observe("h_seconds", 0.1)
        clone = pickle.loads(pickle.dumps(cap.payload))
        assert clone == cap.payload


class TestMergePayload:
    def _payload(self):
        with capture_task("shard:zone:a", "shard") as cap:
            cap.obs.registry.inc("trades_total", 2)
            cap.obs.registry.set("height", 5)
            cap.obs.registry.observe("lat_seconds", 0.5)
            cap.obs.registry.observe("lat_seconds", 1.5)
            with cap.obs.tracer.span("clear"):
                pass
        return cap.payload

    def test_merges_under_worker_labels(self):
        obs = Observability()
        merge_payload(obs, self._payload(), shard="zone:a", worker="shard")
        reg = obs.registry
        assert reg.counter_value("trades_total", shard="zone:a", worker="shard") == 2
        assert reg.gauge_value("height", shard="zone:a", worker="shard") == 5
        stats = reg.histogram_stats("lat_seconds", shard="zone:a", worker="shard")
        assert stats["count"] == 2 and stats["sum"] == 2.0
        assert stats["min"] == 0.5 and stats["max"] == 1.5
        # buckets merged exactly, not just count/sum
        (series,) = [
            h for (n, _), h in reg.histograms.items() if n == "lat_seconds"
        ]
        assert sum(series.bucket_counts) == 2
        # the worker's phase span is in the parent's view, once
        assert span_seconds(obs.tracer.records)["clear"]["count"] == 1

    def test_worker_trace_grafted_under_anchor_span(self):
        obs = Observability()
        with obs.tracer.span("clear"):
            merge_payload(obs, self._payload(), worker="mini")
        text = obs.trace_jsonl(strip_wall=True)
        assert '"name":"worker"' in text
        assert '"name":"worker_task"' in text
        # merged seqs stay monotone
        seqs = [r["seq"] for r in obs.tracer.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_merge_is_deterministic(self):
        payload = self._payload()
        texts = []
        for _ in range(2):
            obs = Observability()
            with obs.tracer.span("clear"):
                merge_payload(obs, payload, worker="mini")
            texts.append(obs.trace_jsonl(strip_wall=True))
        assert texts[0] == texts[1]

    def test_disabled_parent_and_none_payload_are_noops(self):
        from repro.obs import NULL_OBS

        merge_payload(NULL_OBS, self._payload(), worker="x")
        obs = Observability()
        merge_payload(obs, None, worker="x")
        assert obs.registry.counters == {}

    def test_aborted_payload_records_event(self):
        with capture_task("mini:0", "mini_auction") as cap:
            raise ValueError("nope")
        obs = Observability()
        merge_payload(obs, cap.payload, worker="mini")
        text = obs.trace_jsonl()
        assert "worker.aborted" in text


# ----------------------------------------------------------------------
# No pooled path may go dark: the capture flag follows the bundle
# ----------------------------------------------------------------------
def _zone_market():
    requests, offers, _ = generate_zone_market(
        40, n_zones=3, seed=7, kind="network", locality="strong",
        cross_zone_fraction=0.25,
    )
    return requests, offers


class TestNoDarkWorkers:
    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_sharded_clear_attributes_workers(self, workers):
        requests, offers = _zone_market()
        config = AuctionConfig(
            sharding=ShardPlan(kind="network", shard_workers=workers)
        )
        obs = Observability(telemetry=True)
        outcome = DecloudAuction(config).run(
            requests, offers, evidence=b"telemetry-test", obs=obs
        )
        assert outcome.matches
        # every cleared shard reported home under its own label
        shard_labels = {
            dict(labels).get("shard")
            for (name, labels) in obs.registry.counters
            if dict(labels).get("worker") == "shard"
        }
        assert len([k for k in shard_labels if k and k.startswith("zone:")]) >= 2

    def test_worker_phase_metrics_sum_to_parent_totals(self):
        requests, offers = _zone_market()
        config = AuctionConfig(
            sharding=ShardPlan(kind="network", shard_workers=1)
        )
        obs = Observability(telemetry=True)
        auction = DecloudAuction(config)
        auction.run(requests, offers, evidence=b"telemetry-test", obs=obs)
        # The per-shard phase split exists in one place: every runnable
        # shard ships all five worker-attributed auction_phase_seconds
        # series home, each observed once.
        shipped = {}
        for (name, labels), series in obs.registry.histograms.items():
            items = dict(labels)
            if name == "auction_phase_seconds" and items.get("worker") == "shard":
                assert series.count == 1
                shipped.setdefault(items["shard"], set()).add(items["phase"])
        assert set(shipped) == set(auction.last_shard_stats["shard_seconds"])
        for phases in shipped.values():
            assert phases == {
                "match", "cluster", "normalize", "assemble", "clear",
            }

    def _banded_market(self, n_bands=4):
        """Price-incompatible disjoint clusters -> one wave of n minis."""
        from repro.common.timewindow import TimeWindow
        from tests.conftest import make_offer, make_request

        requests, offers = [], []
        for k in range(n_bands):
            t = f"band-{k}"
            requests.append(
                make_request(
                    f"r{k}", resources={t: 1.0}, significance={t: 1.0},
                    bid=5.0 * 10.0 ** (2 * k), duration=1.0,
                    window=TimeWindow(0, 3),
                )
            )
            offers.append(
                make_offer(
                    f"o{k}", resources={t: 1.0}, bid=24.0 * 10.0 ** (2 * k)
                )
            )
        return requests, offers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mini_auction_waves_attribute_workers(self, workers):
        """The pooled mini-auction path is never dark either: every
        scheduled wave task ships a worker="mini" payload, pooled or
        in-process, and the capture decision cannot depend on the pool
        layout.  (workers=0 is the legacy sequential loop — no task
        schedule, no pool, nothing to capture.)"""
        requests, offers = self._banded_market()
        obs = Observability(telemetry=True)
        DecloudAuction(
            AuctionConfig(miniauction_workers=workers)
        ).run(requests, offers, evidence=b"telemetry-test", obs=obs)
        mini_tasks = sum(
            value
            for (name, labels), value in obs.registry.counters.items()
            if name == "worker_tasks_total"
            and dict(labels).get("worker") == "mini"
            and dict(labels).get("kind") == "mini_auction"
        )
        # four price-incompatible bands -> four captured mini clears
        assert mini_tasks == 4

    def test_mini_capture_outcome_and_trace_identical_across_workers(self):
        runs = []
        for workers in (1, 2):
            requests, offers = self._banded_market()
            obs = Observability("mini-merge", telemetry=True)
            outcome = DecloudAuction(
                AuctionConfig(miniauction_workers=workers)
            ).run(requests, offers, evidence=b"telemetry-test", obs=obs)
            runs.append(
                (
                    list(outcome.prices),
                    [r.request_id for r in outcome.reduced_requests],
                    obs.trace_jsonl(strip_wall=True),
                )
            )
        assert runs[0] == runs[1]

    def test_telemetry_off_keeps_registry_free_of_worker_series(self):
        requests, offers = _zone_market()
        config = AuctionConfig(
            sharding=ShardPlan(kind="network", shard_workers=1)
        )
        obs = Observability()  # telemetry not opted in
        DecloudAuction(config).run(
            requests, offers, evidence=b"telemetry-test", obs=obs
        )
        workers = {
            dict(labels).get("worker")
            for (name, labels) in obs.registry.counters
        }
        assert "shard" not in workers


# ----------------------------------------------------------------------
# Publisher / aggregator over both transports
# ----------------------------------------------------------------------
class TestAggregator:
    def test_merges_frames_over_deterministic_transport(self):
        scheduler = DeterministicScheduler(seed=0)
        transport = DeterministicTransport(scheduler)
        aggregator = TelemetryAggregator()
        aggregator.subscribe(transport)
        obs_a, obs_b = Observability(), Observability()
        pub_a = TelemetryPublisher(obs_a, "node-a")
        pub_b = TelemetryPublisher(obs_b, "node-b")

        obs_a.registry.inc("bids_total", 3, kind="request")
        obs_b.registry.inc("bids_total", 2, kind="request")
        pub_a.publish(transport)
        pub_b.publish(transport)
        scheduler.run()
        obs_a.registry.inc("bids_total", 1, kind="request")
        obs_a.registry.set("height", 9)
        pub_a.publish(transport)
        scheduler.run()

        assert aggregator.nodes() == ["node-a", "node-b"]
        reg = aggregator.registry
        assert reg.counter_value("bids_total", kind="request", node="node-a") == 4
        assert reg.counter_value("bids_total", kind="request", node="node-b") == 2
        assert aggregator.counter_total("bids_total", kind="request") == 6
        assert reg.gauge_value("height", node="node-a") == 9

    def test_duplicate_frames_dropped(self):
        obs = Observability()
        pub = TelemetryPublisher(obs, "node-a")
        obs.registry.inc("x_total")
        frame = pub.make_frame()
        aggregator = TelemetryAggregator()
        aggregator.on_frame("node-a", frame)
        aggregator.on_frame("node-a", frame)
        reg = aggregator.registry
        assert reg.counter_value("x_total", node="node-a") == 1
        assert (
            reg.counter_value("telemetry_frames_duplicate_total", node="node-a")
            == 1
        )

    def test_stale_gauge_frame_cannot_roll_back(self):
        obs = Observability()
        pub = TelemetryPublisher(obs, "node-a")
        obs.registry.set("height", 1)
        old = pub.make_frame()
        obs.registry.set("height", 2)
        new = pub.make_frame()
        aggregator = TelemetryAggregator()
        aggregator.on_frame("node-a", new)
        aggregator.on_frame("node-a", old)  # late, out of order
        assert aggregator.registry.gauge_value("height", node="node-a") == 2

    def test_histogram_diffs_become_count_sum_counters(self):
        obs = Observability()
        pub = TelemetryPublisher(obs, "node-a")
        obs.registry.observe("lat_seconds", 0.5)
        obs.registry.observe("lat_seconds", 1.0)
        aggregator = TelemetryAggregator()
        aggregator.on_frame("node-a", pub.make_frame())
        reg = aggregator.registry
        assert reg.counter_value("lat_seconds_count", node="node-a") == 2
        assert reg.counter_value("lat_seconds_sum", node="node-a") == 1.5

    def test_frames_merge_over_asyncio_hub(self):
        async def scenario():
            hub = AsyncioBroadcastHub()
            await hub.start()
            sender = AsyncioSocketTransport("127.0.0.1", hub.port)
            receiver = AsyncioSocketTransport("127.0.0.1", hub.port)
            await sender.connect()
            await receiver.connect()
            aggregator = TelemetryAggregator()
            aggregator.subscribe(receiver)
            obs = Observability()
            publisher = TelemetryPublisher(obs, "edge-1")
            obs.registry.inc("trades_total", 7)
            await sender.broadcast(
                TOPIC_TELEMETRY, publisher.make_frame(), sender="edge-1"
            )
            await asyncio.wait_for(receiver.pump(1), timeout=5.0)
            await sender.close()
            await receiver.close()
            await hub.stop()
            return aggregator

        aggregator = asyncio.run(scenario())
        assert aggregator.frames == 1
        assert (
            aggregator.registry.counter_value("trades_total", node="edge-1")
            == 7
        )

    def test_telemetry_frame_pickles(self):
        frame = TelemetryFrame(
            node_id="n", seq=0, frame={"counters": {"x": 1.0}}
        )
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame
