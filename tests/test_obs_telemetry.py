"""Shard-scoped observability and the telemetry plane's actor shipping."""

import asyncio
import pickle

from repro.core.config import AuctionConfig, ShardPlan
from repro.core.auction import DecloudAuction
from repro.workloads.generators import generate_zone_market
from repro.obs import Observability, TelemetryAggregator, TelemetryPublisher
from repro.protocol.messages import TOPIC_TELEMETRY, TelemetryFrame
from repro.runtime import DeterministicScheduler, DeterministicTransport
from repro.runtime.sockets import AsyncioBroadcastHub, AsyncioSocketTransport


# ----------------------------------------------------------------------
# No shard runs dark: shards clear in process under the caller's obs
# ----------------------------------------------------------------------
class TestNoDarkShards:
    def test_every_shard_and_the_spillover_trace_and_report(self):
        requests, offers, _ = generate_zone_market(
            40, n_zones=3, seed=7, kind="network", locality="strong",
            cross_zone_fraction=0.25,
        )
        obs = Observability()
        auction = DecloudAuction(
            AuctionConfig(sharding=ShardPlan(kind="network"))
        )
        outcome = auction.run(
            requests, offers, evidence=b"telemetry-test", obs=obs
        )
        assert outcome.matches
        stats = auction.last_shard_stats
        assert stats["spillover_ran"] and stats["cleared_shards"] >= 2

        records = obs.tracer.records
        names = {
            r["span"]: r["name"] for r in records if r["type"] == "span_start"
        }
        auctions_under = {}
        for record in records:
            if record["type"] == "span_start" and record["name"] == "auction":
                parent = names[record["parent"]]
                auctions_under[parent] = auctions_under.get(parent, 0) + 1
        assert auctions_under == {
            "shard_clear": stats["cleared_shards"], "spillover": 1,
        }

        # the per-shard phase split, one series per shard and phase
        shipped = {}
        for (name, labels), series in obs.registry.histograms.items():
            items = dict(labels)
            if name == "auction_phase_seconds" and "shard" in items:
                assert series.count == 1
                shipped.setdefault(items["shard"], set()).add(items["phase"])
        assert set(shipped) == set(stats["shard_seconds"]) | {"spillover"}
        for phases in shipped.values():
            assert phases == {
                "match", "cluster", "normalize", "assemble", "clear",
            }

        # the merged round's own series stay unlabelled, with its phases
        reg = obs.registry
        assert reg.counter_value("auction_rounds_total") == 1
        assert reg.gauge_value("auction_last_trades") == len(outcome.matches)
        merged_phases = {
            dict(labels)["phase"]
            for (name, labels) in reg.histograms
            if name == "auction_phase_seconds" and "shard" not in dict(labels)
        }
        assert merged_phases == {"shard_partition", "shard_clear", "spillover"}


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
