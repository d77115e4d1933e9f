"""Determinism self-test of the benchmark itself.

Run explicitly (tier-1 collects ``tests/`` only)::

    python -m pytest perfbench -q

Shrunk versions of all five workloads must repeat exactly for one seed
and differ for another, and the trace proxies must come off without a
trace: same outcomes, every patched attribute restored.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import compare, run, spec, tracing, workloads  # noqa: E402

NAMES = spec.workload_names()


def one_unit(name: str, seed: int, traced: bool = True):
    """Build, warm up and run one tiny unit; returns (unit, recorder)."""
    workload = workloads.WORKLOADS[name](seed, tiny=True)
    workload.build()
    workload.warm_up()
    recorder = tracing.Recorder()
    job = workload.prepare("traced" if traced else "dark")
    patches = None
    if traced:
        recorder.begin_block(0)
        patches = tracing.install(recorder)
    try:
        raw = workload.run(job)
    finally:
        if patches is not None:
            patches.remove()
    return workload.check(job, raw), recorder


def fingerprint(unit, recorder):
    verify_calls = sum(
        1 for span in recorder.spans if span[tracing.NAME] == "cryptosim.verify"
    )
    return (
        unit.hashes,
        verify_calls,
        unit.facts.get("runtime.messages_dropped", 0),
        unit.excluded,
        unit.lost,
        unit.facts["core.matches"],
    )


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_repeats_exactly_and_another_differs(name):
    first = one_unit(name, seed=5)
    again = one_unit(name, seed=5)
    other = one_unit(name, seed=6)
    assert first[0].errors == [] and first[0].failed == 0
    assert first[0].hashes and first[0].done > 0
    assert fingerprint(*first) == fingerprint(*again)
    assert first[0].hashes != other[0].hashes


@pytest.mark.parametrize("name", NAMES)
def test_proxies_change_no_outcome_and_come_off_clean(name):
    targets = [
        (owner, attr, original)
        for _span, module, qualname, *_rest in tracing.SPAN_TARGETS
        + tuple((n, m, q, None) for n, m, q in tracing.COUNTER_TARGETS)
        for owner, attr, original in [tracing._resolve(module, qualname)]
    ]
    dark, _ = one_unit(name, seed=5, traced=False)
    traced, recorder = one_unit(name, seed=5, traced=True)
    assert dark.hashes == traced.hashes
    assert recorder.spans, "the traced unit recorded no span"
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still patched"
        for holder, key in tracing._holders(owner, attr, original):
            assert vars(holder)[key] is original


def test_faulty_round_sees_its_faults():
    unit, _ = one_unit("round_runtime_faulty", seed=5)
    assert unit.facts["runtime.messages_dropped"] > 0
    assert unit.facts["protocol.fallbacks"] == 1  # m1 leads round 1 and equivocates
    assert unit.excluded >= 1  # the withholding client's bids stay sealed
    assert unit.offered < unit.submitted


@pytest.mark.parametrize("name", ["round_lockstep", "clear_sharded"])
def test_result_line_carries_every_metric(name, tmp_path):
    untraced = run.run_workload(name, 3, 0.0, trace=False, tiny=True)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0
    assert list(untraced["metrics"]) == [m[0] for m in spec.END_TO_END]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = run.run_workload(name, 3, 0.0, trace=True, out=str(tmp_path), tiny=True)
    assert list(traced["metrics"]) == [m[0] for m in spec.PER_LAYER]
    spans = [json.loads(line) for line in open(tmp_path / f"trace_{name}.jsonl")]
    assert {"name", "layer", "start", "end", "parent", "block"} <= set(spans[0])
    if name == "round_lockstep":
        assert traced["metrics"]["cryptosim.verifies_per_bid"]["value"] == 9.0
        assert traced["metrics"]["obs.round_overhead_ratio"]["value"] > 0
    else:
        assert traced["metrics"]["core.shards"]["value"] > 1
        assert traced["metrics"]["core.spillover_s"]["value"] > 0


def _row(block_samples, fail_ratio=0.0):
    def stats(values):
        return dict(run.spread_stats(values), unit="x")

    return {
        "end_to_end": {
            name: stats(block_samples if name == "block_s" else [1.0, 1.0])
            for name, *_ in spec.END_TO_END
        },
        "exact": {"fail_ratio": {"value": fail_ratio}, "excluded_bids": {"value": 0.0}},
        "hashes": [],
    }


def test_compare_verdicts():
    def verdicts(a, b):
        record = lambda row: {"workloads": {NAMES[0]: row}}  # noqa: E731
        lines, regressions = compare.compare(record(a), record(b))
        block = next(line for line in lines if "block_s" in line)
        return block.split()[-1], regressions

    bound = dict((m[0], m[3]) for m in spec.END_TO_END)["block_s"]
    steady = [1.00, 1.01, 1.02, 1.00, 1.01]
    assert verdicts(_row(steady), _row(steady)) == ("ok", 0)
    assert verdicts(_row(steady), _row([v * (1 + 2 * bound) for v in steady])) == ("regressed", 1)
    assert verdicts(_row(steady), _row([v * (1 - bound) for v in steady])) == ("ok", 0)
    noisy = [1 - 2 * bound, 1.0, 1 + 3 * bound, 1 - bound, 1 + 2 * bound]
    assert verdicts(_row(noisy), _row([v * 1.05 for v in noisy]))[0] == "unresolved"
    assert verdicts(_row(steady), _row(steady, fail_ratio=0.1)) == ("ok", 1)


def test_benchmark_json_is_the_spec_and_within_the_contract_limits():
    document = spec.benchmark_json()
    path = ROOT / "BENCHMARK.json"
    if path.exists():
        assert json.loads(path.read_text()) == document
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(name_ok.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    for entry in document["end_to_end"] + document["per_layer"]:
        assert unit_ok.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in document["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in document["end_to_end"]
    assert 2 <= len(document["workloads"]) <= 8
    assert len(document["per_layer"]) <= 128
    assert document["run_seconds"] == spec.RUN_SECONDS
