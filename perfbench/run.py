#!/usr/bin/env python3
"""The repo benchmark: node rounds and block clears, end to end and per layer.

Driver form (one workload, one process; the last line of standard
output is the result object)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Local form (every workload, each in a fresh subprocess: two untraced
passes interleaved A B C D E A B C D E, then one traced pass; prints the
table and writes ``DIR/record.json`` for ``perfbench/compare.py``)::

    python3 perfbench/run.py --seed N --out DIR

See ``perfbench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import os
import sys
import time

# ``generate_market`` prices requests through ``resource_fraction``, which
# sums floats in set-iteration order: bids differ in the last digit from
# one interpreter to the next unless string hashing is pinned.  Inputs
# must be a function of ``--seed`` alone, so the script restarts itself
# once with the hash seed fixed.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_PROCESS_START = time.perf_counter()

# Every workload is single process, single thread.  Left alone, OpenBLAS
# starts one thread per vCPU and on the 2-vCPU host this was sized on
# that doubles the CPU of a sharded clear for no wall-time gain and adds
# scheduling noise — so the pin is part of the workload definition.
for _knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_knob, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import spec, tracing  # noqa: E402

#: builds per run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: measured units per variant a run makes even when ``--seconds`` is short
MIN_UNITS = 2
clock = time.perf_counter

#: what :func:`host_kernel_s` reads on the quiet 2-vCPU VM the workloads
#: were sized on; times are reported as if the host always ran this fast
HOST_REFERENCE_S = 0.185
#: a kernel reading is taken after a unit once this long has passed
#: since the last one, so sub-second units are not mostly kernel
KERNEL_EVERY_S = 1.0
_KERNEL_MODULUS = (1 << 1024) - 105
_KERNEL_EXPONENT = (1 << 1023) - 1


def host_kernel_s() -> float:
    """Seconds a fixed CPU kernel takes right now (60 1024-bit modexps).

    The shared host this runs on slows every process by 20-50 % for
    minutes at a time (CPU seconds track wall, so it is not
    descheduling).  The kernel uses builtins only — nothing a change to
    the repository can speed up — and is run between the measured
    units; dividing a run's times by ``median reading / HOST_REFERENCE_S``
    takes the host's speed during that run out of them.
    """
    start = clock()
    for step in range(60):
        pow(3, _KERNEL_EXPONENT - step, _KERNEL_MODULUS)
    return clock() - start


_KERNEL_AT_START = host_kernel_s()


def cpu_seconds() -> tuple:
    """(user, system) CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lower_quartile(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def spread_stats(values: Sequence[float], value: Optional[float] = None) -> Dict[str, Any]:
    """The reported ``value`` (default: median), sample count and quartiles."""
    values = list(values)
    out: Dict[str, Any] = {
        "value": statistics.median(values) if value is None else value,
        "median": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    if len(values) < 11:
        out["tail"] = "fewer than 11 samples: no tail percentile reported"
    return out


@dataclass
class Sample:
    """One measured unit: its timed region and what the checks found."""

    variant: str
    block: int
    wall_s: float
    user_s: float
    sys_s: float
    unit: Any
    #: host slowdown of the run this unit belongs to: median of the
    #: kernel readings taken between its units, over the reference
    host: float = 1.0

    @property
    def block_s(self) -> float:
        """Host-normalised wall seconds per block."""
        return self.wall_s / self.host / self.unit.rounds

    @property
    def block_cpu_s(self) -> float:
        return (self.user_s + self.sys_s) / self.host / self.unit.rounds


def measure(workload, seconds: float, variants: Sequence[str], recorder):
    """Closed loop: issue units round-robin over ``variants`` for ``seconds``.

    Returns the samples and the host-kernel readings taken between them.
    """
    samples: List[Sample] = []
    loop_start = clock()
    slowest = 0.0
    kernel_readings = [host_kernel_s()]
    last_reading = clock()
    while True:
        index = len(samples)
        variant = variants[index % len(variants)]
        job = workload.prepare(variant)
        patches = None
        if variant == "traced":
            recorder.begin_block(index)
            patches = tracing.install(recorder)
        try:
            user0, sys0 = cpu_seconds()
            start = clock()
            raw = workload.run(job)
            wall = clock() - start
            user1, sys1 = cpu_seconds()
        finally:
            if patches is not None:
                patches.remove()
        if clock() - last_reading >= KERNEL_EVERY_S:
            kernel_readings.append(host_kernel_s())
            last_reading = clock()
        unit = workload.check(job, raw)
        samples.append(
            Sample(variant, index, wall, user1 - user0, sys1 - sys0, unit)
        )
        slowest = max(slowest, wall)
        cycle_done = len(samples) % len(variants) == 0
        enough = len(samples) >= MIN_UNITS * len(variants)
        # Stop before the unit that would overrun the budget, on a cycle
        # boundary so every variant has the same number of units.
        if cycle_done and enough and (
            clock() - loop_start + slowest * len(variants) > seconds
        ):
            break
    # One factor per run: a single reading can land in a burst and
    # over-correct its neighbours; the run's median cannot.
    host = statistics.median(kernel_readings) / HOST_REFERENCE_S
    for sample in samples:
        sample.host = host
    return samples, kernel_readings


def by_group(rows: Sequence[Dict[str, float]], value) -> float:
    """Mean over the run's inputs of ``value(rows of one input)``."""
    groups: Dict[int, List[Dict[str, float]]] = {}
    for row in rows:
        groups.setdefault(row["group"], []).append(row)
    return statistics.mean(value(group) for group in groups.values())


def end_to_end_values(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The timed end-to-end metrics of a set of untraced sample rows.

    The fast quartile, not the median: what the host adds to a block is
    one-sided, so the fast quartile of the host-normalised samples
    repeated closer across runs than their median did.
    """
    def fast(key: str):
        return lambda group: lower_quartile(row[key] for row in group)

    def rate(group) -> float:
        done_per_block = statistics.mean(r["done"] / r["rounds"] for r in group)
        return done_per_block / fast("block_s")(group)

    return {
        "block_s": by_group(rows, fast("block_s")),
        "bids_per_s": by_group(rows, rate),
        "block_cpu_s": by_group(rows, fast("block_cpu_s")),
    }


def sample_row(sample: Sample) -> Dict[str, Any]:
    return {
        "variant": sample.variant,
        "group": sample.unit.group,
        "block_s": sample.block_s,
        "block_cpu_s": sample.block_cpu_s,
        "host": sample.host,
        "wall_s": sample.wall_s,
        "user_s": sample.user_s,
        "sys_s": sample.sys_s,
        "rounds": sample.unit.rounds,
        "done": sample.unit.done,
        "commit_walls": sample.unit.commit_walls,
    }


def end_to_end_metrics(dark: List[Sample], setup_s: float) -> Dict[str, Dict[str, Any]]:
    values = dict(
        end_to_end_values([sample_row(s) for s in dark]),
        peak_rss_mb=peak_rss_mib(),
        setup_s=setup_s,
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _bound in spec.END_TO_END
    }


def per_layer_metrics(
    workload,
    samples: List[Sample],
    recorder,
    setup: Dict[str, float],
    finish_facts: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, per block; 0 where a layer is not on the path."""
    traced = [s for s in samples if s.variant == "traced"]
    dark = [s for s in samples if s.variant == "dark"]
    summary = tracing.summarize(recorder)
    first = traced[0]

    def self_s(*names: str) -> float:
        return statistics.median(
            sum(summary[s.block].get(n, {}).get("self_s", 0.0) for n in names)
            / s.unit.rounds
            for s in traced
        )

    def total_s(name: str) -> float:
        return statistics.median(
            summary[s.block].get(name, {}).get("total_s", 0.0) / s.unit.rounds
            for s in traced
        )

    # Counts are read from the first traced unit: it is the same seeded
    # run whatever the host's speed, so they repeat exactly.
    def calls(name: str) -> float:
        return summary[first.block].get(name, {}).get("calls", 0) / first.unit.rounds

    def counted(name: str) -> float:
        return recorder.block_counts[first.block].get(name, 0) / first.unit.rounds

    def fact(name: str) -> float:
        return first.unit.facts.get(name, 0) / first.unit.rounds

    def fact_median(name: str) -> float:
        return statistics.median(
            s.unit.facts.get(name, 0.0) / s.unit.rounds for s in traced
        )

    def ratio(variant: str) -> float:
        rows = [sample_row(s) for s in samples if s.variant == variant]
        if not rows:
            return 0.0
        return (
            end_to_end_values(rows)["block_s"]
            / end_to_end_values([sample_row(s) for s in dark])["block_s"]
        )

    # Every validate_candidate verifies one body signature; the rest of
    # the verifies are of sealed bids.
    verify_calls = calls("cryptosim.verify")
    bid_verifies = (
        verify_calls - calls("ledger.validate_candidate")
    ) * first.unit.rounds
    submit_ms = sorted(
        1000.0 * d
        for d in tracing.durations(
            recorder, "protocol.submit", [s.block for s in traced]
        )
    )
    step_self = [
        sum(
            row["self_s"]
            for name, row in summary[s.block].items()
            if name not in tracing.ORCHESTRATORS
        )
        for s in traced
    ]
    spillover = [
        (tracing.child_durations(recorder, "core.run_sharded", "core.run", s.block) or [0.0])[-1]
        for s in traced
        if s.unit.facts.get("core.spillover_ran")
    ]
    values = {
        "cryptosim.verify_calls": verify_calls,
        "cryptosim.verify_s": self_s("cryptosim.verify"),
        "cryptosim.sign_calls": calls("cryptosim.sign"),
        "cryptosim.sign_s": self_s("cryptosim.sign"),
        "cryptosim.encrypt_s": self_s("cryptosim.encrypt"),
        "cryptosim.decrypt_calls": calls("cryptosim.decrypt"),
        "cryptosim.decrypt_s": self_s("cryptosim.decrypt"),
        "cryptosim.commit_open_s": self_s("cryptosim.commit_open"),
        "cryptosim.verifies_per_bid": (
            bid_verifies / first.unit.submitted if first.unit.submitted else 0.0
        ),
        "ledger.mempool_submit_calls": calls("ledger.mempool_submit"),
        "ledger.mempool_submit_s": self_s("ledger.mempool_submit"),
        "ledger.pow_solve_s": self_s("ledger.pow_solve"),
        "ledger.pow_iterations": fact("ledger.pow_iterations"),
        "ledger.validate_candidate_calls": calls("ledger.validate_candidate"),
        "ledger.validate_candidate_s": self_s("ledger.validate_candidate"),
        "ledger.accept_reveal_s": self_s("ledger.accept_reveal"),
        "ledger.build_preamble_s": self_s("ledger.build_preamble"),
        "ledger.build_body_s": self_s("ledger.build_body"),
        "ledger.verify_block_s": self_s("ledger.verify_block"),
        "ledger.commit_block_s": self_s("ledger.commit_block"),
        "ledger.txid_calls": counted("ledger.txid"),
        "ledger.block_bytes": fact("ledger.block_bytes"),
        "protocol.seal_s": self_s("protocol.seal"),
        "protocol.submit_s": total_s("protocol.submit"),
        "protocol.submit_ms_p50": (
            statistics.median(submit_ms) if submit_ms else 0.0
        ),
        "protocol.submit_ms_p95": (
            submit_ms[int(0.95 * (len(submit_ms) - 1))] if submit_ms else 0.0
        ),
        "protocol.run_round_s": total_s("protocol.run_round"),
        "protocol.self_s": self_s(
            "protocol.submit", "protocol.run_round", "protocol.allocator"
        ),
        "protocol.allocator_calls": calls("protocol.allocator"),
        "protocol.decode_round_s": self_s("protocol.decode_round"),
        "protocol.settle_s": self_s("protocol.settle"),
        "protocol.reveal_retries": fact("protocol.reveal_retries"),
        "protocol.fallbacks": fact("protocol.fallbacks"),
        "protocol.excluded_bids": first.unit.excluded / first.unit.rounds,
        "protocol.lost_honest_bids": first.unit.lost / first.unit.rounds,
        "runtime.run_s": total_s("runtime.run"),
        "runtime.self_s": self_s("runtime.run"),
        "runtime.virtual_s_per_round": fact("runtime.virtual_s"),
        "runtime.overlap_rounds": first.unit.facts.get("runtime.overlap_rounds", 0),
        "runtime.messages_sent": fact("runtime.messages_sent"),
        "runtime.messages_delivered": fact("runtime.messages_delivered"),
        "runtime.messages_dropped": fact("runtime.messages_dropped"),
        "runtime.backpressure_deferrals": fact("runtime.backpressure_deferrals"),
        "store.log_calls": calls("store.log"),
        "store.log_s": self_s("store.log"),
        "store.wal_bytes": fact("store.wal_bytes"),
        "store.recover_s": finish_facts.get("store.recover_s", 0.0),
        # every child of a core.run span is a core span, so the self
        # times add up to the top-level clears without counting a
        # shard's nested run twice
        "core.run_s": self_s(
            "core.run", "core.run_sharded", "core.match", "core.normalize",
            "core.assemble", "core.clear",
        ),
        "core.match_s": self_s("core.match"),
        "core.normalize_s": self_s("core.normalize"),
        "core.assemble_s": self_s("core.assemble"),
        "core.clear_s": self_s("core.clear"),
        "core.clusters": counted("core.clusters"),
        "core.mini_auctions": counted("core.mini_auctions"),
        "core.matches": fact("core.matches"),
        "core.reduced_trades": fact("core.reduced_trades"),
        "core.pruned_pair_ratio": fact("core.pruned_pair_ratio"),
        "core.shards": fact("core.shards"),
        "core.spillover_bids": fact("core.spillover_bids"),
        "core.shard_clear_s": fact_median("core.shard_clear_s"),
        "core.spillover_s": statistics.median(spillover) if spillover else 0.0,
        "market.decode_s": self_s("market.decode"),
        "market.to_json_s": self_s("market.to_json"),
        "workloads.generate_s": workload.generate_s,
        "obs.round_overhead_ratio": ratio("obs"),
        "proc.import_s": setup["import_s"],
        "proc.build_s": setup["build_s"],
        "proc.warmup_s": setup["warmup_s"],
        "proc.user_s": statistics.median(s.user_s / s.unit.rounds for s in traced),
        "proc.sys_s": statistics.median(s.sys_s / s.unit.rounds for s in traced),
        "proc.unattributed_ratio": statistics.median(
            (s.wall_s - named) / s.wall_s for s, named in zip(traced, step_self)
        ),
        "trace.overhead_ratio": ratio("traced"),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _moves in spec.PER_LAYER
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Optional[str] = None,
    tag: str = "",
    tiny: bool = False,
) -> Dict[str, Any]:
    """One workload in this process; returns the result-line object.

    ``tiny`` shrinks the inputs to self-test size.
    """
    # The layers are imported here, inside the measurement, because the
    # operator pays for them before the first block too.
    from perfbench import workloads

    import_s = clock() - _PROCESS_START
    workload = workloads.WORKLOADS[name](seed, tiny=tiny)
    builds = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.build()
        builds.append(clock() - start)
    start = clock()
    workload.warm_up()
    warmup_s = clock() - start
    setup = {
        "import_s": import_s,
        "build_s": statistics.median(builds),
        "warmup_s": warmup_s,
    }
    setup_host = (_KERNEL_AT_START + host_kernel_s()) / 2 / HOST_REFERENCE_S
    setup_s = sum(setup.values()) / setup_host
    reference_digest, errors = workloads.engines_agree(seed)

    recorder = tracing.Recorder()
    variants = ("dark", "traced") + workload.extra_variants if trace else ("dark",)
    samples, kernel_readings = measure(workload, seconds, variants, recorder)
    finish_facts, finish_errors = workload.finish()
    errors += finish_errors
    for sample in samples:
        errors += [f"unit {sample.block}: {e}" for e in sample.unit.errors]

    dark = [s for s in samples if s.variant == "dark"]
    if trace:
        metrics = per_layer_metrics(workload, samples, recorder, setup, finish_facts)
    else:
        metrics = end_to_end_metrics(dark, setup_s)
    result = {
        "correct": not errors,
        "attempted": sum(s.unit.offered for s in samples),
        "failed": sum(s.unit.failed for s in samples),
        "metrics": metrics,
    }
    if out is not None:
        os.makedirs(out, exist_ok=True)
        first = dark[0].unit
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "result": result,
            "errors": errors,
            "setup": setup,
            "exact": {
                # from the first unit: the same seeded run whatever the
                # host's speed, so both repeat exactly
                "fail_ratio": {
                    "value": (first.failed + first.lost) / first.offered,
                    "failed": first.failed,
                    "lost_to_injected_faults": first.lost,
                    "attempted": first.offered,
                },
                "excluded_bids": {"value": first.excluded / first.rounds},
            },
            "hashes": list(first.hashes),
            "reference_digest": reference_digest,
            "samples": [sample_row(s) for s in samples],
            "kernel_readings": kernel_readings,
            "peak_rss_mb": peak_rss_mib(),
        }
        suffix = f"_{tag}" if tag else ""
        kind = "traced" if trace else "untraced"
        with open(os.path.join(out, f"run_{name}_{kind}{suffix}.json"), "w") as handle:
            json.dump(record, handle, indent=1)
        if trace:
            tracing.write_jsonl(recorder, os.path.join(out, f"trace_{name}.jsonl"))
    for error in errors:
        print(f"CHECK FAILED [{name}]: {error}", file=sys.stderr)
    return result


# ----------------------------------------------------------------------
# Local form: the whole set, pooled, with a run record
# ----------------------------------------------------------------------
def host_meta(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": args.passes,
        # local-iteration flags, recorded because they make a partial record
        "workload_filter": args.workload,
        "no_trace": args.no_trace,
    }


def child_record(name: str, args: argparse.Namespace, trace: bool, tag: str) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
        "--out", args.out, "--tag", tag,
    ]
    start = clock()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    kind = "traced" if trace else "untraced"
    path = os.path.join(args.out, f"run_{name}_{kind}_{tag}.json")
    if not os.path.exists(path):
        raise SystemExit(f"{name} ({kind}, {tag}) exited {done.returncode} with no record")
    with open(path) as handle:
        record = json.load(handle)
    record["pass_wall_s"] = clock() - start
    record["exit_code"] = done.returncode
    return record


def pool(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool the untraced passes of one workload into its end-to-end row.

    The timed values are taken over the block samples of all passes
    together; each metric's spread is the spread between the passes'
    own values, which is what run-to-run noise means.
    """
    dark = [
        s for record in passes for s in record["samples"] if s["variant"] == "dark"
    ]
    values = end_to_end_values(dark)
    pooled = {}
    for name, unit, _better, _bound in spec.END_TO_END:
        per_pass = [r["result"]["metrics"][name]["value"] for r in passes]
        pooled[name] = dict(spread_stats(per_pass, values.get(name)), unit=unit)
    pooled["block_s"]["blocks"] = len(dark)
    pooled["block_s"]["raw_median_s"] = statistics.median(
        s["wall_s"] / s["rounds"] for s in dark
    )
    return pooled


def run_set(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else spec.workload_names()
    if args.out is None:
        args.out = tempfile.mkdtemp(prefix="perfbench-")
    os.makedirs(args.out, exist_ok=True)
    record: Dict[str, Any] = {"meta": host_meta(args), "workloads": {}}
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    set_start = clock()
    for index in range(args.passes):
        for name in names:
            untraced[name].append(child_record(name, args, False, f"p{index}"))
    record["meta"]["untraced_set_wall_s"] = clock() - set_start

    failed = False
    for name in names:
        passes = untraced[name]
        row: Dict[str, Any] = {
            "end_to_end": pool(passes),
            "exact": passes[0]["exact"],
            "hashes": passes[0]["hashes"],
            "reference_digest": passes[0]["reference_digest"],
            "attempted": sum(p["result"]["attempted"] for p in passes),
            "failed": sum(p["result"]["failed"] for p in passes),
            "pass_wall_s": [p["pass_wall_s"] for p in passes],
            "errors": [e for p in passes for e in p["errors"]],
        }
        for later in passes[1:]:
            if (later["exact"], later["hashes"]) != (row["exact"], row["hashes"]):
                row["errors"].append("passes disagree on exact metrics or block hashes")
        failed = failed or bool(row["errors"]) or any(p["exit_code"] for p in passes)
        record["workloads"][name] = row
        print(f"\n{name}  (attempted {row['attempted']}, failed {row['failed']})")
        for metric, stats in row["end_to_end"].items():
            quartiles = (
                f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}" if "q1" in stats else ""
            )
            blocks = f"  blocks {stats['blocks']}" if "blocks" in stats else ""
            print(f"  {metric:<14}{stats['value']:>12.4f} {stats['unit']:<7} passes {stats['n']}  {quartiles}{blocks}")
        for metric, stats in row["exact"].items():
            print(f"  {metric:<14}{stats['value']:>12.4f} (exact) {json.dumps({k: v for k, v in stats.items() if k != 'value'})}")

    if not args.no_trace:
        for name in names:
            traced = child_record(name, args, True, "t0")
            failed = failed or bool(traced["errors"]) or bool(traced["exit_code"])
            row = record["workloads"][name]
            row["per_layer"] = traced["result"]["metrics"]
            row["errors"] += traced["errors"]
            print(f"\n{name}  per layer (traced pass)")
            for metric, stats in row["per_layer"].items():
                if stats["value"]:
                    print(f"  {metric:<34}{stats['value']:>14.6g} {stats['unit']}")
    path = os.path.join(args.out, "record.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nrecord: {path}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", choices=("0", "1"),
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--out", help="directory for run records and traces")
    parser.add_argument("--passes", type=int, default=2,
                        help="local form: untraced passes to pool")
    parser.add_argument("--no-trace", action="store_true",
                        help="local form: skip the traced pass")
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_set(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace == "1",
        out=args.out, tag=args.tag,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
