"""Outside-in timing proxies around the layers' public entry points.

The benchmark measures every layer *from outside*: nothing under
``src/`` knows it is being timed.  :func:`install` replaces each target
callable with a proxy that records one span (name, start, end, parent,
block id) into an in-memory :class:`Recorder`; :meth:`Patches.remove`
puts the originals back.  Spans stay in memory and are written out by
:func:`write_jsonl` when the pass ends.  A layer's *self* time is its
span's duration minus the time its direct child spans cover.

This deliberately does not touch ``PhaseTimer``, tracer spans or
``PipelineProfiler`` — ROADMAP item 1 deletes or rewires those and then
emits these same span names from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, defining module, qualified attribute, result counter).
#: Two targets may share a span name when they are the two halves of one
#: phase.  The optional result counter ``(name, fn)`` adds ``fn(result)``
#: to a per-block count, so sizes are measured where the work happens.
SPAN_TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable[[Any], int]]]], ...] = (
    ("cryptosim.verify", "repro.cryptosim.schnorr", "verify", None),
    ("cryptosim.sign", "repro.cryptosim.schnorr", "sign", None),
    ("cryptosim.encrypt", "repro.cryptosim.symmetric", "encrypt", None),
    ("cryptosim.decrypt", "repro.cryptosim.symmetric", "decrypt", None),
    ("cryptosim.commit_open", "repro.cryptosim.commitments", "verify_opening", None),
    ("ledger.mempool_submit", "repro.ledger.mempool", "Mempool.submit", None),
    ("ledger.pow_solve", "repro.ledger.pow", "solve", None),
    ("ledger.validate_candidate", "repro.ledger.chain", "Blockchain.validate_candidate", None),
    ("ledger.accept_reveal", "repro.ledger.miner", "Miner.accept_reveal", None),
    ("ledger.build_preamble", "repro.ledger.miner", "Miner.build_preamble", None),
    ("ledger.build_body", "repro.ledger.miner", "Miner.build_body", None),
    ("ledger.verify_block", "repro.ledger.miner", "Miner.verify_block", None),
    ("ledger.commit_block", "repro.ledger.miner", "Miner.commit_block", None),
    ("protocol.seal", "repro.protocol.exposure", "Participant.seal", None),
    ("protocol.submit", "repro.protocol.exposure", "ExposureProtocol.submit", None),
    ("protocol.run_round", "repro.protocol.exposure", "ExposureProtocol.run_round", None),
    ("protocol.allocator", "repro.protocol.allocator", "DecloudAllocator.__call__", None),
    ("protocol.decode_round", "repro.protocol.allocator", "decode_round", None),
    ("protocol.settle", "repro.protocol.settlement", "SettlementProcessor.settle_block", None),
    ("runtime.run", "repro.runtime.reactor", "Runtime.run", None),
    ("core.run", "repro.core.auction", "DecloudAuction.run", None),
    ("core.run_sharded", "repro.core.sharding", "run_sharded", None),
    ("core.match", "repro.core.clustering", "build_clusters",
     ("core.clusters", lambda result: len(result[0]))),
    ("core.normalize", "repro.core.normalization_vectorized", "compute_economics_batch", None),
    ("core.normalize", "repro.core.cluster_allocation", "allocate_cluster", None),
    ("core.assemble", "repro.core.miniauctions", "build_mini_auctions",
     ("core.mini_auctions", len)),
    ("core.clear", "repro.core.trade_reduction", "clear_mini_auction", None),
    ("core.clear", "repro.core.parallel", "clear_auctions_scheduled", None),
    ("store.log", "repro.store.node", "NodeStore.log", None),
    ("store.recover", "repro.store.node", "NodeStore.recover", None),
    ("market.decode", "repro.market.bids", "decode_bid_payload", None),
    ("market.to_json", "repro.market.bids", "Request.to_json", None),
    ("market.to_json", "repro.market.bids", "Offer.to_json", None),
)

#: Hot, tiny callables that get a counter and no span: ``txid`` is a
#: cached lookup called thousands of times per block (``accept_reveal``
#: scans the preamble per reveal), so a span would cost more than the
#: call it times.
COUNTER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("ledger.txid", "repro.ledger.transaction", "SealedBidTransaction.txid"),
)

#: Spans that mostly delegate.  Their self time is block time known to
#: be inside the orchestrator but inside no named step, so it counts as
#: *unattributed* (see ``proc.unattributed_ratio``).
ORCHESTRATORS = frozenset(
    {
        "protocol.submit",
        "protocol.run_round",
        "protocol.allocator",
        "runtime.run",
        "core.run",
        "core.run_sharded",
    }
)

# span record layout
NAME, START, END, PARENT, BLOCK = range(5)


class Recorder:
    """In-memory span and counter sink for one traced pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, block id]`` per span
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.block = -1
        self.block_counts: Dict[int, Dict[str, int]] = {}
        self.counts: Dict[str, int] = defaultdict(int)

    def begin_block(self, block: int) -> None:
        """Spans and counts recorded from now on belong to ``block``."""
        self.block = block
        self.counts = self.block_counts.setdefault(block, defaultdict(int))


def _span_proxy(
    recorder: Recorder,
    name: str,
    fn: Callable,
    result_counter: Optional[Tuple[str, Callable[[Any], int]]],
) -> Callable:
    spans = recorder.spans
    stack = recorder.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def proxy(*args, **kwargs):
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.block]
        stack.append(len(spans))
        spans.append(record)
        record[START] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = clock()
            stack.pop()
        if result_counter is not None:
            recorder.counts[result_counter[0]] += result_counter[1](result)
        return result

    return proxy


def _counter_proxy(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def proxy(*args, **kwargs):
        recorder.counts[name] += 1
        return fn(*args, **kwargs)

    return proxy


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _holders(owner: Any, attr: str, original: Callable) -> List[Tuple[Any, str]]:
    """Every name the callable is reached through.

    A method lives on its class only.  A module-level function also
    lives in each ``repro`` module that did ``from x import fn`` — those
    aliases are what the callers actually look up.
    """
    if not isinstance(owner, types.ModuleType):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


class Patches:
    """The attributes :func:`install` replaced, and their originals."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Any, str, Any]] = []

    def remove(self) -> None:
        """Restore every patched attribute to the original object."""
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(recorder: Recorder) -> Patches:
    """Wrap every target with a recording proxy; returns the undo handle."""
    patches = Patches()
    wrapped: List[Tuple[Any, str, Callable, Callable]] = []
    for name, module_name, qualname, result_counter in SPAN_TARGETS:
        owner, attr, original = _resolve(module_name, qualname)
        wrapped.append(
            (owner, attr, original,
             _span_proxy(recorder, name, original, result_counter))
        )
    for name, module_name, qualname in COUNTER_TARGETS:
        owner, attr, original = _resolve(module_name, qualname)
        wrapped.append(
            (owner, attr, original, _counter_proxy(recorder, name, original))
        )
    # Resolve every original before replacing any, so a target reached
    # through an already-patched alias cannot be wrapped twice.
    for owner, attr, original, proxy in wrapped:
        for holder, key in _holders(owner, attr, original):
            patches.replaced.append((holder, key, original))
            setattr(holder, key, proxy)
    return patches


# ----------------------------------------------------------------------
# Views over the recorded spans
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Self time per span: duration minus what direct children cover."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def summarize(recorder: Recorder) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per block and span name: ``calls``, ``self_s`` and ``total_s``."""
    selfs = self_times(recorder.spans)
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for span, self_s in zip(recorder.spans, selfs):
        row = out.setdefault(span[BLOCK], {}).setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += span[END] - span[START]
    return out


def durations(recorder: Recorder, name: str, blocks: Iterable[int]) -> List[float]:
    """Inclusive duration of every ``name`` span in the given blocks."""
    wanted = set(blocks)
    return [
        span[END] - span[START]
        for span in recorder.spans
        if span[NAME] == name and span[BLOCK] in wanted
    ]


def child_durations(
    recorder: Recorder, parent_name: str, child_name: str, block: int
) -> List[float]:
    """Durations of ``child_name`` spans directly under ``parent_name``."""
    spans = recorder.spans
    return [
        span[END] - span[START]
        for span in spans
        if span[BLOCK] == block
        and span[NAME] == child_name
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == parent_name
    ]


def write_jsonl(recorder: Recorder, path: str) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(recorder.spans):
            name = span[NAME]
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": name,
                        "layer": name.split(".", 1)[0],
                        "start": span[START],
                        "end": span[END],
                        "parent": span[PARENT],
                        "block": span[BLOCK],
                    }
                )
                + "\n"
            )
