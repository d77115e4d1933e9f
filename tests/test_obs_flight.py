"""Flight recorder: round framing, the crash bundle, and its CLI render.

The acceptance scenario rides through here end to end: a seeded degraded
round (one withholding client) followed by a round in which every
sealed bid stays sealed must dump a self-contained bundle whose causal
tree names the excluded bidder and the failing path, and
``python -m repro.obs.report --flight`` must render it.  The reactor
frames the rounds, so the scenario dumps the same way whether it runs
through ``ExposureProtocol`` or on a ``Runtime`` directly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import RevealTimeoutError
from repro.common.timewindow import TimeWindow
from repro.faults.actors import WithholdingParticipant
from repro.ledger.miner import Miner
from repro.market.bids import Offer, Request
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, load_flight
from repro.obs.report import main as report_main, render_flight
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import ExposureProtocol, Participant
from repro.runtime import RoundInput, Runtime


class TestFraming:
    def test_frames_archive_per_round_and_ring_is_bounded(self):
        flight = FlightRecorder(capacity=2)
        obs = Observability("framing", flight=flight)
        for index in range(4):
            flight.begin_round(index)
            with obs.tracer.span("round", index=index):
                obs.registry.inc("rounds_total")
            flight.end_round(index)
        frames = flight.frames
        assert len(frames) == 2  # capacity bound, oldest evicted
        assert [f.round_index for f in frames] == [2, 3]
        assert all(f.status == "ok" for f in frames)
        # each frame holds exactly its round's records + its delta
        assert all(len(f.records) == 2 for f in frames)
        assert all(
            f.delta["counters"]["rounds_total"] == 1.0 for f in frames
        )

    def test_records_between_rounds_belong_to_the_next_frame(self):
        flight = FlightRecorder()
        obs = Observability("framing", flight=flight)
        with obs.tracer.span("seal", participant="alice"):
            pass
        flight.begin_round(0)
        with obs.tracer.span("round", index=0):
            pass
        flight.end_round(0)
        names = [
            r["name"]
            for r in flight.frames[0].records
            if r["type"] == "span_start"
        ]
        assert names == ["seal", "round"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDumpBundle:
    def test_dump_writes_roundtrippable_bundle(self, tmp_path):
        flight = FlightRecorder(out_dir=str(tmp_path))
        obs = Observability("bundle", flight=flight)
        flight.begin_round(0)
        with obs.tracer.span("round", index=0):
            obs.registry.inc("rounds_total")
        flight.end_round(0)
        obs.tracer.event("round.aborted", error="QuorumError")
        path = flight.dump(trigger="QuorumError", error="no quorum",
                           round_index=1)

        assert Path(path).name == "flight_1.jsonl"
        assert flight.dumps == [path]
        meta, records, headers = load_flight(Path(path).read_text())
        assert meta["trigger"] == "QuorumError"
        assert meta["error"] == "no quorum"
        assert meta["round"] == 1
        assert meta["frames"] == 2
        frame_rows = [h for h in headers if h["type"] == "round_frame"]
        assert [f["status"] for f in frame_rows] == ["ok", "QuorumError"]
        assert any(r.get("name") == "round.aborted" for r in records)
        deltas = [h for h in headers if h["type"] == "metrics_delta"]
        assert deltas[0]["delta"]["counters"]["rounds_total"] == 1.0
        assert obs.registry.counter_value(
            "flight_dumps_total", trigger="QuorumError"
        ) == 1.0

    def test_dump_does_not_consume_the_ring(self, tmp_path):
        flight = FlightRecorder(out_dir=str(tmp_path))
        obs = Observability("bundle", flight=flight)
        flight.begin_round(0)
        with obs.tracer.span("round", index=0):
            pass
        flight.end_round(0)
        first = flight.dump(trigger="monitor", round_index=1)
        second = flight.dump(trigger="monitor", round_index=2)
        meta1, _, _ = load_flight(Path(first).read_text())
        meta2, _, _ = load_flight(Path(second).read_text())
        assert meta1["frames"] == meta2["frames"] == 2

    def test_bundle_lines_are_compact_sorted_json(self, tmp_path):
        flight = FlightRecorder(out_dir=str(tmp_path))
        Observability("bundle", flight=flight)
        path = flight.dump(trigger="monitor")
        for line in Path(path).read_text().splitlines():
            obj = json.loads(line)
            assert line == json.dumps(
                obj, sort_keys=True, separators=(",", ":")
            )


def _degraded_round_bundle(tmp_path):
    """The acceptance scenario: a degraded round, then a round whose
    only bid is the withholder's, which times out."""
    obs = Observability(
        "degraded", flight=FlightRecorder(out_dir=str(tmp_path))
    )
    miners = [
        Miner(miner_id=f"miner-{m}", allocate=DecloudAllocator(),
              difficulty_bits=4)
        for m in range(3)
    ]
    protocol = ExposureProtocol(miners=miners, obs=obs)
    seal_seed = b"flight-demo"
    byzantine = WithholdingParticipant(
        participant_id="cli-0", deterministic=True, seal_seed=seal_seed
    )
    honest = Participant(
        participant_id="cli-1", deterministic=True, seal_seed=seal_seed
    )
    provider = Participant(
        participant_id="prov-0", deterministic=True, seal_seed=seal_seed
    )
    participants = [byzantine, honest, provider]

    def submit(round_index, clients, provider=None):
        for i, client in enumerate(clients):
            protocol.submit(
                client,
                Request(
                    request_id=f"req-{round_index}-{i}",
                    client_id=client.participant_id,
                    submit_time=0.1 * i,
                    resources={"cpu": 2, "ram": 4, "disk": 10},
                    window=TimeWindow(0, 10),
                    duration=4.0,
                    bid=2.0 + 0.5 * i,
                ),
            )
        if provider is None:
            return
        protocol.submit(
            provider,
            Offer(
                offer_id=f"off-{round_index}",
                provider_id="prov-0",
                submit_time=0.0,
                resources={"cpu": 8, "ram": 32, "disk": 500},
                window=TimeWindow(0, 24),
                bid=0.5,
            ),
        )

    submit(0, [byzantine, honest], provider)
    result = protocol.run_round(participants)
    assert result.excluded_txids  # cli-0 withheld its key
    submit(1, [byzantine])
    with pytest.raises(RevealTimeoutError):
        protocol.run_round(participants)
    assert obs.flight.dumps
    return obs.flight.dumps[-1]


class TestDegradedRoundAcceptance:
    def test_protocol_failure_dumps_bundle_naming_the_failure_path(
        self, tmp_path
    ):
        bundle = _degraded_round_bundle(tmp_path)
        meta, records, headers = load_flight(Path(bundle).read_text())
        assert meta["trigger"] == "RevealTimeoutError"
        report = render_flight(meta, records, headers)
        # the causal tree names the excluded bidder...
        assert "reveal.excluded" in report
        assert "'sender': 'cli-0'" in report
        # ...and the failing path is marked
        assert "!" in report
        assert "round.aborted" in report
        # the archived healthy round rides along for context
        frame_rows = [h for h in headers if h["type"] == "round_frame"]
        assert [f["status"] for f in frame_rows] == [
            "ok", "RevealTimeoutError",
        ]

    def test_report_cli_renders_the_bundle(self, tmp_path, capsys):
        bundle = _degraded_round_bundle(tmp_path)
        assert report_main(["--flight", bundle]) == 0
        out = capsys.readouterr().out
        assert "triggered by RevealTimeoutError" in out
        assert "cli-0" in out
        assert "failing path marked" in out

    def test_bundle_is_deterministic_across_identical_runs(self, tmp_path):
        def stripped(bundle_dir):
            bundle_dir.mkdir()
            text = Path(_degraded_round_bundle(bundle_dir)).read_text()
            lines = []
            for line in text.splitlines():
                obj = json.loads(line)
                obj.pop("wall", None)
                lines.append(
                    json.dumps(obj, sort_keys=True, separators=(",", ":"))
                )
            return "\n".join(lines)

        # identical seeds -> identical bundles, wall-clock fields aside
        assert stripped(tmp_path / "a") == stripped(tmp_path / "b")


class TestReactorFraming:
    def test_a_fully_withheld_runtime_round_dumps_its_bundle(self, tmp_path):
        obs = Observability(
            "reactor", flight=FlightRecorder(out_dir=str(tmp_path))
        )
        miners = [
            Miner(miner_id=f"miner-{m}", allocate=DecloudAllocator(),
                  difficulty_bits=4)
            for m in range(3)
        ]
        withholder = WithholdingParticipant(
            participant_id="cli-0", deterministic=True, seal_seed=b"reactor"
        )
        honest = Participant(
            participant_id="cli-1", deterministic=True, seal_seed=b"reactor"
        )
        provider = Participant(
            participant_id="prov-0", deterministic=True, seal_seed=b"reactor"
        )

        def request(round_index, client, bid):
            return Request(
                request_id=f"req-{round_index}-{client.participant_id}",
                client_id=client.participant_id,
                submit_time=0.0,
                resources={"cpu": 2, "ram": 4},
                window=TimeWindow(0, 10),
                duration=4.0,
                bid=bid,
            )

        offer = Offer(
            offer_id="off-0",
            provider_id="prov-0",
            submit_time=0.0,
            resources={"cpu": 8, "ram": 32},
            window=TimeWindow(0, 24),
            bid=0.5,
        )
        report = Runtime(miners, obs=obs, pipeline=False).run(
            [
                RoundInput(
                    submissions=(
                        (withholder, request(0, withholder, 2.0)),
                        (honest, request(0, honest, 2.5)),
                        (provider, offer),
                    )
                ),
                RoundInput(
                    submissions=((withholder, request(1, withholder, 2.0)),)
                ),
            ]
        )
        assert [r.error for r in report.rounds] == ["", "RevealTimeoutError"]
        (bundle,) = obs.flight.dumps
        meta, records, headers = load_flight(Path(bundle).read_text())
        assert meta["trigger"] == "RevealTimeoutError"
        assert meta["round"] == 1
        assert "no valid key reveal" in meta["error"]
        frame_rows = [h for h in headers if h["type"] == "round_frame"]
        assert [f["status"] for f in frame_rows] == [
            "ok", "RevealTimeoutError",
        ]
        rendered = render_flight(meta, records, headers).splitlines()
        # the failing path is marked, and names the withholder
        for name in ("reveal.excluded", "reveal.timeout", "round.aborted"):
            assert any(
                line.startswith("!") and name in line for line in rendered
            ), name
        assert any("'sender': 'cli-0'" in line for line in rendered)
