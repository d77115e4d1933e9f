#!/usr/bin/env python3
"""Compare two run records: ``python3 perfbench/compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or
the second set); both are ``record.json`` files written by
``perfbench/run.py --out DIR``.  Per workload and end-to-end metric it
prints both medians, how much worse ``B`` is, the bound, and a verdict:

``ok``          ``B`` is not worse than ``A`` by more than the bound
``regressed``   it is
``unresolved``  the run-to-run spread (quartile distance over median,
                on either side) is wider than the bound and the two
                sides' samples overlap, so the medians decide nothing

Exact metrics (``fail_ratio``, ``excluded_bids``) and the deterministic
per-layer counts compare by equality: any step in the worse direction
is a regression.  Block hashes and outcome digests are recorded, not
pinned — a difference is printed and does not fail the comparison.
Exits non-zero on any ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        if b == 0:
            return 0.0
        return float("inf") if (b > 0) == (better == "lower") else float("-inf")
    delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def spread(stats: Dict[str, Any]) -> float:
    if "q1" not in stats or not stats["value"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["value"])


def separated(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Every sample of one side beyond every sample of the other."""
    return a["max"] < b["min"] or b["max"] < a["min"]


def timed_verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[float, str]:
    worse = worse_by(a["value"], b["value"], better)
    if max(spread(a), spread(b)) > bound and not separated(a, b):
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def exact_verdict(a: float, b: float, better: str) -> str:
    return "regressed" if worse_by(a, b, better) > 0 else "ok"


def compare(record_a: Dict[str, Any], record_b: Dict[str, Any]) -> Tuple[List[str], int]:
    lines: List[str] = []
    regressions = 0
    for name in spec.workload_names():
        a = record_a["workloads"].get(name)
        b = record_b["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: missing from {'A' if a is None else 'B'}")
            continue
        lines.append(name)
        for metric, unit, better, bound in spec.END_TO_END:
            sa, sb = a["end_to_end"][metric], b["end_to_end"][metric]
            worse, verdict = timed_verdict(sa, sb, better, bound)
            regressions += verdict == "regressed"
            lines.append(
                f"  {metric:<34}{sa['value']:>14.6g}{sb['value']:>14.6g} {unit:<10}"
                f" worse by {100 * worse:+7.2f}%  bound {100 * bound:4.0f}%"
                f"  spread {100 * spread(sa):4.1f}%/{100 * spread(sb):4.1f}%  {verdict}"
            )
        for metric, unit, better in spec.EXACT_END_TO_END:
            va, vb = a["exact"][metric]["value"], b["exact"][metric]["value"]
            verdict = exact_verdict(va, vb, better)
            regressions += verdict == "regressed"
            lines.append(
                f"  {metric:<34}{va:>14.6g}{vb:>14.6g} {unit:<10} exact  {verdict}"
            )
        layers_a, layers_b = a.get("per_layer"), b.get("per_layer")
        if layers_a and layers_b:
            for metric, unit, better, _moves in spec.PER_LAYER:
                if metric not in spec.EXACT_PER_LAYER:
                    continue
                va, vb = layers_a[metric]["value"], layers_b[metric]["value"]
                if va == vb:
                    continue
                verdict = exact_verdict(va, vb, better)
                regressions += verdict == "regressed"
                lines.append(
                    f"  {metric:<34}{va:>14.6g}{vb:>14.6g} {unit:<10} exact  {verdict}"
                )
        if a["hashes"] != b["hashes"]:
            lines.append("  block hashes / outcome digest differ (recorded, not pinned)")
    return lines, regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    meta_a, meta_b = records[0]["meta"], records[1]["meta"]
    print(f"A: {argv[0]}  commit {meta_a['git_commit'][:12]}  seed {meta_a['seed']}")
    print(f"B: {argv[1]}  commit {meta_b['git_commit'][:12]}  seed {meta_b['seed']}")
    print(f"  {'metric':<34}{'A':>14}{'B':>14}")
    lines, regressions = compare(*records)
    print("\n".join(lines))
    print(f"\n{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
