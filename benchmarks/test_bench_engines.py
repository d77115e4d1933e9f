"""Paired end-to-end engine benches: reference vs vectorized clearing.

Unlike the kernel benches in ``test_bench_matching.py``, these time the
*whole* pipeline — matching, clustering, normalization, mini-auction
assembly, trade reduction, pricing — on identical markets, once per
engine, and assert the differential contract on the produced outcomes.
The comparison in the benchmark report is the headline number in
docs/PERFORMANCE.md.

The speedup test additionally runs the vectorized engine under an
:class:`~repro.obs.Observability` bundle, reads the phase split off its
spans (:func:`~repro.obs.trace.span_seconds`) and asserts the back-half
claim of the vectorization work: normalization + clearing no longer
dominate the round (the residual match phase does).  Set
``DECLOUD_PHASE_REPORT`` to a path to dump the per-phase timing JSON
(CI uploads it as a workflow artifact).

``DECLOUD_SPEEDUP_N`` shrinks the speedup market for constrained CI
runners; the end-to-end floor is only enforced at the full n=800 size.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.auction import DecloudAuction
from repro.core.config import AuctionConfig
from repro.obs import Observability
from repro.obs.report import summarize
from repro.obs.trace import span_seconds
from repro.workloads.generators import generate_market

from tests.differential.conftest import canonical_outcome

N_REQUESTS = 200
SPEEDUP_N = int(os.environ.get("DECLOUD_SPEEDUP_N", "800"))
#: End-to-end round speedup floor at n=800.  Measured ~30x (reference
#: ~1.2s vs vectorized ~0.037s); the previous vectorized engine cleared
#: the same market in ~0.056s, so the floor encodes both the headline
#: ratio and the >= 1.5x additional round speedup over that baseline.
SPEEDUP_FLOOR = 22.0
_OUTCOMES = {}


def _run_engine(engine: str):
    requests, offers = generate_market(N_REQUESTS, seed=0)
    outcome = DecloudAuction(AuctionConfig(engine=engine)).run(
        requests, offers, evidence=b"engine-bench"
    )
    _OUTCOMES[engine] = canonical_outcome(outcome)
    return outcome


def test_bench_engine_reference(benchmark):
    outcome = benchmark.pedantic(
        _run_engine, args=("reference",), rounds=1, iterations=1
    )
    assert outcome.matches


def test_bench_engine_vectorized(benchmark):
    outcome = benchmark.pedantic(
        _run_engine, args=("vectorized",), rounds=1, iterations=1
    )
    assert outcome.matches


def test_engines_agree_on_bench_market():
    for engine in ("reference", "vectorized"):
        if engine not in _OUTCOMES:
            _run_engine(engine)
    assert _OUTCOMES["vectorized"] == _OUTCOMES["reference"]


def _best_round_seconds(engine: str, requests, offers, rounds: int) -> float:
    """Best-of-``rounds`` fresh-instance clearing time for one engine."""
    DecloudAuction(AuctionConfig(engine=engine)).run(
        requests, offers, evidence=b"engine-warm"
    )
    best = float("inf")
    for _ in range(rounds):
        auction = DecloudAuction(AuctionConfig(engine=engine))
        start = time.perf_counter()
        auction.run(requests, offers, evidence=b"engine-bench")
        best = min(best, time.perf_counter() - start)
    return best


def test_end_to_end_speedup_and_phase_profile():
    """The back-half claim: >= 22x end-to-end at n=800, and the phase
    spans show normalization + clearing are no longer the bottleneck."""
    requests, offers = generate_market(SPEEDUP_N, seed=0)

    reference_seconds = _best_round_seconds(
        "reference", requests, offers, rounds=2
    )
    vectorized_seconds = _best_round_seconds(
        "vectorized", requests, offers, rounds=5
    )
    speedup = reference_seconds / max(vectorized_seconds, 1e-9)

    obs = Observability()
    for _ in range(3):
        outcome = DecloudAuction(AuctionConfig(engine="vectorized")).run(
            requests, offers, evidence=b"engine-bench", obs=obs
        )
    assert outcome.matches
    phases = span_seconds(obs.tracer.records)
    del phases["auction"]  # the round itself; its children are the phases

    print(
        f"\nend-to-end round at n={SPEEDUP_N}: "
        f"reference {reference_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.3f}s, speedup {speedup:.1f}x"
    )
    print(f"vectorized phases at n={SPEEDUP_N}:")
    print(summarize(obs.tracer.records))

    report_path = os.environ.get("DECLOUD_PHASE_REPORT")
    if report_path:
        document = {
            "label": f"vectorized-n{SPEEDUP_N}",
            "phases": {
                name: {"seconds": phase["seconds"], "count": phase["count"]}
                for name, phase in phases.items()
            },
        }
        with open(report_path, "w") as handle:
            handle.write(json.dumps(document, sort_keys=True, indent=1))

    if SPEEDUP_N >= 800:
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized engine is only {speedup:.1f}x faster end-to-end "
            f"at n={SPEEDUP_N}; the back-half work requires "
            f">= {SPEEDUP_FLOOR}x"
        )
        # Match cost grows quadratically with market size while the back
        # half is near-linear, so the "no longer dominant" claim is only
        # meaningful (and only asserted) at the full benchmark size.
        back_half = sum(
            phases[name]["seconds"] for name in ("normalize", "clear")
        )
        total = sum(phase["seconds"] for phase in phases.values())
        assert back_half < 0.5 * total, (
            "normalization + clearing still dominate the vectorized "
            f"round: {back_half:.4f}s of {total:.4f}s"
        )
    else:
        # Reduced sizes (CI smoke) still require a real win.
        assert speedup > 1.0
