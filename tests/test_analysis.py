"""Unit tests for Loess smoothing, KL divergence, and statistics."""

import math

import numpy as np
import pytest

from repro.analysis.kld import empirical_distribution, kl_divergence, similarity
from repro.analysis.loess import loess, tricube
from repro.analysis.stats import Summary, ratio_of_sums, summarize
from repro.common.errors import ValidationError


class TestTricube:
    def test_zero_distance_is_one(self):
        assert tricube(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_unit_distance_is_zero(self):
        assert tricube(np.array([1.0]))[0] == pytest.approx(0.0)

    def test_clipping(self):
        assert tricube(np.array([5.0]))[0] == pytest.approx(0.0)

    def test_monotone_decreasing(self):
        values = tricube(np.linspace(0, 1, 11))
        assert all(values[i] >= values[i + 1] for i in range(10))


class TestLoess:
    def test_recovers_linear_trend(self):
        x = np.linspace(0, 10, 50)
        y = 2.0 * x + 1.0
        _, fitted = loess(x, y, frac=0.5)
        assert np.allclose(fitted, y, atol=1e-8)

    def test_smooths_noise(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 10, 200)
        y = np.sin(x) + rng.normal(0, 0.3, size=200)
        _, fitted = loess(x, y, frac=0.3)
        residual = fitted - np.sin(x)
        assert np.abs(residual).mean() < 0.15

    def test_eval_points(self):
        x = np.linspace(0, 10, 30)
        y = 3.0 * x
        targets, fitted = loess(x, y, frac=0.5, eval_x=[2.5, 7.5])
        assert list(targets) == [2.5, 7.5]
        assert fitted == pytest.approx([7.5, 22.5], abs=1e-8)

    def test_constant_x_fallback(self):
        x = [1.0, 1.0, 1.0]
        y = [2.0, 4.0, 6.0]
        _, fitted = loess(x, y, frac=1.0)
        assert np.allclose(fitted, 4.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            loess([1.0], [2.0])

    def test_bad_frac_rejected(self):
        with pytest.raises(ValidationError):
            loess([1, 2, 3], [1, 2, 3], frac=0.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            loess([1, 2, 3], [1, 2])


class TestKld:
    def test_identical_zero(self):
        assert kl_divergence([0.25] * 4, [0.25] * 4) == pytest.approx(0.0)

    def test_point_mass_vs_uniform_is_one(self):
        # base = support size makes this exactly 1.
        assert kl_divergence([1, 0, 0, 0], [0.25] * 4) == pytest.approx(1.0)

    def test_asymmetric(self):
        q = [0.7, 0.1, 0.1, 0.1]
        p = [0.1, 0.3, 0.3, 0.3]
        assert kl_divergence(q, p) != pytest.approx(kl_divergence(p, q))

    def test_infinite_when_support_missing(self):
        assert math.isinf(kl_divergence([0.5, 0.5], [1.0, 0.0]))

    def test_normalizes_inputs(self):
        assert kl_divergence([2, 2], [1, 1]) == pytest.approx(0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5], [0.5, 0.5])
        with pytest.raises(ValidationError):
            kl_divergence([-1, 2], [0.5, 0.5])
        with pytest.raises(ValidationError):
            kl_divergence([0, 0], [0.5, 0.5])

    def test_similarity_clipped(self):
        assert similarity([1, 0, 0, 0], [0.97, 0.01, 0.01, 0.01]) >= 0.0
        assert similarity([0.25] * 4, [0.25] * 4) == pytest.approx(1.0)

    def test_empirical_distribution(self):
        dist = empirical_distribution([0, 0, 1, 3], 4)
        assert dist == pytest.approx([0.5, 0.25, 0.0, 0.25])

    def test_empirical_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            empirical_distribution([5], 4)


class TestStats:
    def test_summary_mean(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.count == 3
        assert summary.ci_low < 2.0 < summary.ci_high

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.mean == summary.ci_low == summary.ci_high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])

    def test_str(self):
        assert "n=2" in str(summarize([1.0, 3.0]))

    def test_ratio_of_sums(self):
        assert ratio_of_sums([1, 2], [2, 2]) == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        assert ratio_of_sums([1.0], [0.0]) == 0.0


class TestNodeProcessImports:
    def test_node_layers_import_without_scipy(self):
        # A miner/round process imports these and never summarizes runs
        # or solves the ILP; scipy was 66 MiB and 0.8 s of its start-up.
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "import repro.ledger, repro.protocol, repro.runtime, repro.store\n"
            "import repro.sim.sustained\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded[:5]\n"
            "from repro.analysis.stats import summarize\n"
            "from repro.baselines.ilp import optimal_allocation_ilp\n"
            "assert 'scipy' not in sys.modules\n"
            "summarize([1.0, 2.0, 3.0])\n"
            "assert 'scipy.stats' in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
