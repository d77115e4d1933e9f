"""Online-simulation bench: block-interval sensitivity (§VI), and one
auction instance clearing a stream of overlapping blocks.

The reference cases time the scalar engine under the evaluation config
at 8 request arrivals per hour over a 12-hour horizon (12 rounds at a
1-hour block interval, 3 at 4 hours).  The vectorized case times 24
hourly rounds at 32 request arrivals per hour under the default config,
most bids carried over from the round before.  Each round is a plain
``DecloudAuction.run`` — nothing is kept from one block to the next.
"""

from __future__ import annotations

import pytest

from repro.core.config import AuctionConfig
from repro.experiments.sweeps import eval_config
from repro.sim import ArrivalProcess, OnlineSimulator


@pytest.mark.parametrize(
    "config, request_rate, horizon, interval",
    [
        pytest.param(eval_config(), 8.0, 12.0, 1.0, id="reference-8-per-h"),
        pytest.param(
            eval_config(), 8.0, 12.0, 4.0, id="reference-8-per-h-4h-blocks"
        ),
        pytest.param(
            AuctionConfig(engine="vectorized"), 32.0, 24.0, 1.0,
            id="vectorized-32-per-h",
        ),
    ],
)
def test_bench_online_rounds(
    benchmark, config, request_rate, horizon, interval
):
    requests, offers = ArrivalProcess(
        request_rate=request_rate,
        offer_rate=request_rate / 2,
        horizon=horizon,
        seed=5,
    ).generate()
    simulator = OnlineSimulator(config=config, block_interval=interval, seed=5)

    result = benchmark.pedantic(
        simulator.run,
        kwargs={
            "requests": requests,
            "offers": offers,
            "horizon": horizon,
        },
        rounds=2,
        iterations=1,
    )
    assert result.total_trades > 0
    assert 0.0 < result.served_fraction <= 1.0
    # Every round cleared by the online engine is budget balanced.
    for record in result.rounds:
        payments = record.outcome.total_payments
        revenues = sum(record.outcome.revenues().values())
        assert abs(payments - revenues) < 1e-9
