"""The benchmark's contract: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is this module printed
(``python3 perfbench/spec.py > BENCHMARK.json``); the self-test fails
when the two drift apart.  Every name here is a name a later change is
held to — ROADMAP item 1 swaps the outside-in wrappers for in-program
spans *under the same metric and workload names*.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: seconds one run measures.  The driver makes 4 + 22 x 5 runs inside
#: 3420 s, i.e. 30 s per run including imports, three set-ups, a
#: warm-up block, the checks and one store recovery; 18 s of measurement
#: makes a run 22-27 s on this VM, slow phases included.
RUN_SECONDS = 18

#: (name, why) — one line each; the README has the long form.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "round_lockstep",
        "whole node-side round on a zero-delay bus with 3 journaling miners:"
        " cryptosim+ledger do ~95% of the work and core almost none, so"
        " admission-crypto work must show here and clear work must not",
    ),
    (
        "round_runtime_faulty",
        "same layers driven by the pipelined reactor under seeded drop/"
        "duplicate/delay/reorder, an equivocating leader and withheld keys:"
        " retries, exclusion and fallback cost extra verifies and clears",
    ),
    (
        "clear_dense",
        "all-pairs global clear of 3,000 zone-market bids, zero crypto: the"
        " match phase dominates, as on the super-linear stretch ROADMAP"
        " item 5 targets",
    ),
    (
        "clear_pruned",
        "10,000 bids through the certificate-backed candidate generator:"
        " sub-quadratic front half, same back half, so a dense-path gain"
        " bought at the pruned path's expense shows",
    ),
    (
        "clear_sharded",
        "4,000 bids as 16 zone-local shard auctions plus one spillover round:"
        " the mega-mini-auction never forms, so only partition/spillover"
        " changes should move it",
    ),
)

#: (name, unit, better, bound) — what a miner operator, a bidder or a
#: researcher re-running the evaluation waits or pays for.  Measured
#: with tracing off.  The issue asked for 10 % / 5 % bounds; ten runs on
#: ten seeds spread 4-12 % between their quartiles on the shared VM this
#: was sized on even after host normalisation (perfbench/README.md says
#: what was tried), and the driver wants a spread a third of the bound.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("block_s", "s", "lower", 0.25),
    ("bids_per_s", "bids/s", "higher", 0.25),
    ("block_cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: Exact end-to-end metrics of the run record (``--out``), compared by
#: equality in ``compare.py``.  They cannot sit in ``END_TO_END``: the
#: driver's contract wants metrics that are never 0 and both are 0 on
#: four of five workloads, so the result line carries the failure count
#: as ``failed``/``attempted`` and the traced run repeats both as
#: ``protocol.lost_honest_bids`` / ``protocol.excluded_bids``.
EXACT_END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("fail_ratio", "failed/attempted", "lower"),
    ("excluded_bids", "bids/block", "lower"),
)

_ROUNDS = "round_lockstep, round_runtime_faulty"
_CLEARS = "clear_dense, clear_pruned, clear_sharded"

#: (name, unit, better, what it should move and where).  ``*_s`` are
#: self times per block (span duration minus child spans); ``*_calls``
#: and the other counts are per block and repeat exactly for one seed.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    # cryptosim — ~85-94 % of a round; no movement on any clear_*
    ("cryptosim.verify_calls", "count", "lower", f"block_s, block_cpu_s, bids_per_s on {_ROUNDS}"),
    ("cryptosim.verify_s", "s", "lower", f"block_s, block_cpu_s, bids_per_s on {_ROUNDS}"),
    ("cryptosim.sign_calls", "count", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.sign_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.encrypt_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.decrypt_calls", "count", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.decrypt_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.commit_open_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("cryptosim.verifies_per_bid", "count", "lower", f"waste ratio behind verify_s (3.0 = one per verifier) on {_ROUNDS}"),
    # ledger
    ("ledger.mempool_submit_calls", "count", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.mempool_submit_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.pow_solve_s", "s", "lower", f"guard: ~0 at 8 bits on {_ROUNDS}"),
    ("ledger.pow_iterations", "count", "lower", f"guard behind pow_solve_s on {_ROUNDS}"),
    ("ledger.validate_candidate_calls", "count", "lower", f"block_s on {_ROUNDS} (6 per block: verify + commit)"),
    ("ledger.validate_candidate_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.accept_reveal_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.build_preamble_s", "s", "lower", "block_s on round_lockstep"),
    ("ledger.build_body_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.verify_block_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.commit_block_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("ledger.txid_calls", "count", "lower", f"accept_reveal scans the preamble per reveal; block_s on {_ROUNDS}"),
    ("ledger.block_bytes", "B", "lower", f"store.wal_bytes, peak_rss_mb on {_ROUNDS}"),
    # protocol
    ("protocol.seal_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("protocol.submit_s", "s", "lower", "block_s on round_lockstep"),
    ("protocol.submit_ms_p50", "ms", "lower", "per-bid seal -> held by every live mempool, round_lockstep"),
    ("protocol.submit_ms_p95", "ms", "lower", "per-bid seal -> held by every live mempool, round_lockstep"),
    ("protocol.run_round_s", "s", "lower", "block_s on round_lockstep"),
    ("protocol.self_s", "s", "lower", f"block_s, proc.unattributed_ratio on {_ROUNDS}"),
    ("protocol.allocator_calls", "count", "lower", f"clears per block = verifiers + proposers; block_s on {_ROUNDS}"),
    ("protocol.decode_round_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("protocol.settle_s", "s", "lower", f"block_s on {_ROUNDS}"),
    ("protocol.reveal_retries", "count", "lower", "block_s, fail_ratio on round_runtime_faulty"),
    ("protocol.fallbacks", "count", "lower", "block_s on round_runtime_faulty"),
    ("protocol.excluded_bids", "bids/block", "lower", "bids_per_s on round_runtime_faulty: a speed-up that sheds work shows"),
    ("protocol.lost_honest_bids", "bids/block", "lower", "fail_ratio on round_runtime_faulty"),
    # runtime (+ faults) — all read from RuntimeReport, exact
    ("runtime.run_s", "s", "lower", "block_s on round_runtime_faulty"),
    ("runtime.self_s", "s", "lower", "block_s, proc.unattributed_ratio on round_runtime_faulty"),
    ("runtime.virtual_s_per_round", "s", "lower", "virtual-clock latency on round_runtime_faulty"),
    ("runtime.overlap_rounds", "count", "higher", "block_s on round_runtime_faulty"),
    ("runtime.messages_sent", "count", "lower", "block_s on round_runtime_faulty"),
    ("runtime.messages_delivered", "count", "lower", "block_s on round_runtime_faulty"),
    ("runtime.messages_dropped", "count", "lower", "fail_ratio on round_runtime_faulty"),
    ("runtime.backpressure_deferrals", "count", "lower", "block_s on round_runtime_faulty"),
    # store
    ("store.log_calls", "count", "lower", f"block_s on {_ROUNDS}"),
    ("store.log_s", "s", "lower", f"block_s on {_ROUNDS} (<= 10 % by the durability budget)"),
    ("store.wal_bytes", "B", "lower", f"peak_rss_mb on {_ROUNDS}"),
    ("store.recover_s", "s", "lower", "restart time, once per run after the last block"),
    # core
    ("core.run_s", "s", "lower", f"block_s on {_CLEARS}; < 1 % on {_ROUNDS}"),
    ("core.match_s", "s", "lower", "block_s, peak_rss_mb on clear_dense"),
    ("core.normalize_s", "s", "lower", f"block_s on {_CLEARS}"),
    ("core.assemble_s", "s", "lower", "block_s on clear_pruned"),
    ("core.clear_s", "s", "lower", "block_s on clear_pruned"),
    ("core.clusters", "count", "lower", f"core.normalize_s on {_CLEARS}"),
    ("core.mini_auctions", "count", "lower", f"core.clear_s on {_CLEARS}"),
    ("core.matches", "count", "higher", "welfare guard: a speed-up that trades less shows"),
    ("core.reduced_trades", "count", "lower", "welfare guard"),
    ("core.pruned_pair_ratio", "ratio", "lower", "admitted / all pairs; core.match_s on clear_pruned"),
    ("core.shards", "count", "higher", "core.shard_clear_s on clear_sharded"),
    ("core.spillover_bids", "count", "lower", "core.spillover_s on clear_sharded"),
    ("core.shard_clear_s", "s", "lower", "block_s on clear_sharded"),
    ("core.spillover_s", "s", "lower", "block_s on clear_sharded"),
    # market / workloads
    ("market.decode_s", "s", "lower", f"block_s on {_ROUNDS} (small)"),
    ("market.to_json_s", "s", "lower", f"block_s on {_ROUNDS} (small)"),
    ("workloads.generate_s", "s", "lower", "setup_s everywhere"),
    # obs
    ("obs.round_overhead_ratio", "ratio", "lower", "block with an enabled Observability / dark block, round_lockstep"),
    # proc / trace
    ("proc.import_s", "s", "lower", "setup_s everywhere"),
    ("proc.build_s", "s", "lower", "setup_s everywhere"),
    ("proc.warmup_s", "s", "lower", "setup_s everywhere"),
    ("proc.user_s", "s", "lower", "block_cpu_s everywhere"),
    ("proc.sys_s", "s", "lower", "block_cpu_s; page-fault share that explains clear_dense noise"),
    ("proc.unattributed_ratio", "ratio", "lower", "share of block wall no step span explains (ROADMAP wants <= 0.05)"),
    ("trace.overhead_ratio", "ratio", "lower", "traced block_s / untraced block_s of the same run"),
)

#: per-layer metrics that are counts of work under the seeded scheduler:
#: two runs of one commit with one seed must agree on them exactly.
EXACT_PER_LAYER = frozenset(
    name
    for name, unit, _better, _moves in PER_LAYER
    if unit in ("count", "B", "bids/block")
) | {"cryptosim.verifies_per_bid", "core.pruned_pair_ratio",
     "runtime.virtual_s_per_round"}


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }


def workload_names() -> List[str]:
    return [name for name, _why in WORKLOADS]


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
