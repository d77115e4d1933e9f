"""Observability overhead benches: instrumentation must be free when off.

The contract from the obs work: every layer threads an
:class:`~repro.obs.Observability` through the hot path, but the default
is the shared null bundle — so a round cleared *without* a live
registry must cost what it cost before the instrumentation landed.

Three measurements on the n=800 vectorized engine bench market (size
reducible via ``DECLOUD_OBS_N`` / ``DECLOUD_SPEEDUP_N`` for CI smoke):

* ``test_bench_obs_disabled`` — the gated bench: a full round with the
  default (null) observability.  Its committed threshold equals the
  plain vectorized engine baseline, so CI fails if the disabled path
  regresses past the usual gate.
* ``test_bench_obs_enabled`` — the same round with a live registry and
  tracer attached (informative: what turning observability on costs).
* ``test_bench_obs_monitored`` — the enabled round with the full
  :class:`~repro.obs.monitors.MonitorSuite` checking every outcome; its
  committed threshold sits <=10% over the enabled baseline, so CI fails
  if the monitors grow past "a handful of O(matches) passes".
* ``test_disabled_overhead_within_bound`` — the median of seven
  alternating pair ratios (``benchmarks.conftest.paired_ratio``),
  default path vs explicit ``NULL_OBS``; it must stay within
  ``DECLOUD_OBS_CEILING`` (default 1.05, the <=5% requirement).
* ``test_monitored_overhead_within_bound`` — the same paired protocol
  for monitors: enabled+monitors vs plain enabled must stay within
  ``DECLOUD_MONITOR_CEILING`` (default 1.10).
* ``test_phase_spans_cover_the_round`` — the share of a round's span
  its named phase children explain (spans are the only phase clock, so
  what they do not cover is unattributable); floor 0.90.
"""

from __future__ import annotations

import os

from benchmarks.conftest import paired_ratio
from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig, ShardPlan
from repro.obs import NULL_OBS, Observability
from repro.obs.monitors import MonitorSuite
from repro.obs.trace import span_seconds
from repro.workloads.generators import generate_market, generate_zone_market

OBS_N = int(
    os.environ.get(
        "DECLOUD_OBS_N", os.environ.get("DECLOUD_SPEEDUP_N", "800")
    )
)
#: Allowed disabled-path overhead ratio (paired best-of comparison).
OBS_CEILING = float(os.environ.get("DECLOUD_OBS_CEILING", "1.05"))
#: Allowed monitor-suite overhead over the plain enabled path.
MONITOR_CEILING = float(os.environ.get("DECLOUD_MONITOR_CEILING", "1.10"))
EVIDENCE = b"obs-bench"


def _market():
    return generate_market(OBS_N, seed=0)


def _run_round(requests, offers, obs=None):
    auction = DecloudAuction(AuctionConfig(engine="vectorized"))
    if obs is None:
        return auction.run(requests, offers, evidence=EVIDENCE)
    return auction.run(requests, offers, evidence=EVIDENCE, obs=obs)


def test_bench_obs_disabled(benchmark):
    requests, offers = _market()
    outcome = benchmark.pedantic(
        _run_round, args=(requests, offers), rounds=3, iterations=1
    )
    assert outcome.matches


def test_bench_obs_enabled(benchmark):
    requests, offers = _market()

    def run():
        return _run_round(requests, offers, obs=Observability("bench"))

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.matches


def test_bench_obs_monitored(benchmark):
    requests, offers = _market()

    def run():
        return _run_round(
            requests,
            offers,
            obs=Observability("bench-mon", monitors=MonitorSuite()),
        )

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.matches


def test_disabled_overhead_within_bound():
    """Median of alternating pairs: default path vs explicit NULL_OBS.

    Both are the disabled path — the comparison pins the cost of
    threading the null bundle through every layer (`resolve`, null
    spans, `obs.enabled` guards) at <= OBS_CEILING of the default.
    """
    requests, offers = _market()
    # warm both paths (matcher caches, numpy JIT-ish first-touch costs)
    _run_round(requests, offers)
    _run_round(requests, offers, obs=NULL_OBS)

    ratio, default_s, null_s = paired_ratio(
        lambda: _run_round(requests, offers),
        lambda: _run_round(requests, offers, obs=NULL_OBS),
    )
    print(
        f"\ndisabled-obs overhead at n={OBS_N}: default {default_s:.4f}s, "
        f"null-obs {null_s:.4f}s, ratio {ratio:.3f} "
        f"(ceiling {OBS_CEILING})"
    )
    assert ratio <= OBS_CEILING, (
        f"threading NULL_OBS costs {ratio:.3f}x the default path at "
        f"n={OBS_N}; the disabled path must stay within {OBS_CEILING}x"
    )


def test_enabled_overhead_is_bounded():
    """Turning observability on must not dominate the round (generous
    bound — the enabled path records the round's spans, reads its
    phase split back off them, and makes ~25 registry writes, all O(1)
    per round)."""
    requests, offers = _market()
    _run_round(requests, offers)

    ratio, off_s, on_s = paired_ratio(
        lambda: _run_round(requests, offers),
        lambda: _run_round(requests, offers, obs=Observability("bench")),
    )
    print(
        f"\nenabled-obs overhead at n={OBS_N}: off {off_s:.4f}s, "
        f"on {on_s:.4f}s, ratio {ratio:.3f}"
    )
    assert ratio <= 2.0, (
        f"enabled observability costs {ratio:.3f}x a dark round — "
        "per-round instrumentation must stay O(1), not O(market)"
    )


def test_monitored_overhead_within_bound():
    """Median of alternating pairs: enabled obs vs enabled obs + monitors.

    The monitor suite audits the outcome (budget regrouping, IR and
    feasibility per match, capacity sums, bucket checks) — all
    O(bids) work, tiny next to clearing itself.  The paired ratio pins that at
    <= MONITOR_CEILING (default 1.10, the <=10% requirement).
    """
    requests, offers = _market()
    _run_round(requests, offers, obs=Observability("warm"))
    _run_round(
        requests, offers, obs=Observability("warm", monitors=MonitorSuite())
    )

    ratio, plain_s, monitored_s = paired_ratio(
        lambda: _run_round(requests, offers, obs=Observability("bench")),
        lambda: _run_round(
            requests,
            offers,
            obs=Observability("bench", monitors=MonitorSuite()),
        ),
    )
    print(
        f"\nmonitor overhead at n={OBS_N}: enabled {plain_s:.4f}s, "
        f"monitored {monitored_s:.4f}s, ratio {ratio:.3f} "
        f"(ceiling {MONITOR_CEILING})"
    )
    assert ratio <= MONITOR_CEILING, (
        f"the monitor suite costs {ratio:.3f}x an enabled round at "
        f"n={OBS_N}; monitors must stay within {MONITOR_CEILING}x"
    )


#: Least share of a round's span its phase children must explain.
COVERAGE_FLOOR = 0.90


def _phase_coverage(config, requests, offers):
    """Seconds under the round span's direct children / the round's."""
    obs = Observability("coverage")
    DecloudAuction(config).run(requests, offers, evidence=EVIDENCE, obs=obs)
    records = obs.tracer.records
    root = records[0]  # the round's own span_start
    whole = span_seconds(records)[root["name"]]["seconds"]
    children = span_seconds(records, parent=root["span"])
    return sum(phase["seconds"] for phase in children.values()) / whole


def test_phase_spans_cover_the_round():
    """ROADMAP's ">= 95% of a round attributable", with headroom for a
    shared runner: best of 3 per layout, every layout over the floor."""

    def zone_market(n_requests, n_zones):
        return generate_zone_market(
            n_requests, n_zones=n_zones, seed=0, kind="network",
            locality="strong", cross_zone_fraction=0.05,
        )[:2]

    cases = {
        f"dense n={OBS_N}": (
            AuctionConfig(engine="vectorized"), _market(),
        ),
        f"reference n={min(OBS_N, 200)}": (
            AuctionConfig(engine="reference"),
            generate_market(min(OBS_N, 200), seed=0),
        ),
        f"zone market n={2 * OBS_N}": (
            AuctionConfig(engine="vectorized"), zone_market(2 * OBS_N, 6),
        ),
        f"sharded n={2 * OBS_N}": (
            AuctionConfig(
                engine="vectorized",
                sharding=ShardPlan(kind="network"),
            ),
            zone_market(2 * OBS_N, 16),
        ),
    }
    print()
    shares = {}
    for label, (config, (requests, offers)) in cases.items():
        shares[label] = max(
            _phase_coverage(config, requests, offers) for _ in range(3)
        )
        print(f"phase-span coverage, {label}: {shares[label]:.3f}")
    for label, share in shares.items():
        assert share >= COVERAGE_FLOOR, (
            f"{label}: the phase spans explain only {share:.3f} of the "
            f"round span (floor {COVERAGE_FLOOR})"
        )
