"""Unit tests for strategic bidding: no deviation beats truthful bidding."""

import pytest

from repro.sim.strategies import (
    anchor_to_history,
    overbid,
    run_strategy_game,
    shade,
    truthful,
)


class TestStrategies:
    def test_truthful_identity(self):
        assert truthful(3.0, []) == 3.0

    def test_shade_and_overbid(self):
        assert shade(0.5)(4.0, []) == 2.0
        assert overbid(2.0)(4.0, []) == 8.0

    def test_anchor_uses_history(self):
        strategy = anchor_to_history(1.0)
        assert strategy(10.0, [2.0, 4.0]) == pytest.approx(3.0)
        assert strategy(10.0, []) == 10.0
        # anchor never exceeds the true value
        assert strategy(2.0, [100.0]) == 2.0

    def test_game_runs_identical_markets(self):
        outcomes = run_strategy_game(
            {"truthful": truthful, "shade": shade(0.7)},
            n_markets=4,
            n_requests=8,
        )
        assert len(outcomes["truthful"].utilities) == 4
        # Truthful strategy's utilities equal the honest baseline.
        assert outcomes["truthful"].mean_regret_advantage == pytest.approx(
            0.0
        )

    def test_no_strategy_beats_truth_on_average(self):
        outcomes = run_strategy_game(
            {
                "shade": shade(0.6),
                "overbid": overbid(1.5),
                "anchor": anchor_to_history(),
            },
            n_markets=10,
            n_requests=10,
        )
        for outcome in outcomes.values():
            assert outcome.mean_regret_advantage <= 1e-6
