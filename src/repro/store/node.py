"""Per-node durable store: journal, snapshots, and crash recovery.

A :class:`NodeStore` is the durability boundary of one DeCloud node.
Mutable subsystems — the chain, the mempool, the token ledger, the
settlement processor, the exposure-protocol round driver — are
*attached* to it; each then journals its state transitions through
:meth:`NodeStore.log` **before** applying them (write-ahead).  After a
process crash, :meth:`NodeStore.recover` rebuilds the node bit-for-bit:
load the latest snapshot, truncate any torn log tail, replay the valid
record suffix in order, and report whether a protocol round was in
flight so the supervisor can resume or abort-and-replay it (see
``repro.sim.chaos`` for the supervision loop and the crash-point
differential matrix that proves recovered outcomes identical to
uninterrupted runs).

The recovered state is a pure function of (snapshot, valid log prefix):
recovery never consults surviving in-memory state, so recovering twice
— or from any snapshot + log-suffix split — yields the same state as
recovering once (property-tested).

Every ``horizon`` commits the store *rolls* (:meth:`NodeStore._roll`):
live state, log and recovered state each keep between ``horizon`` and
``2 * horizon`` blocks, not the node's whole history.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import (
    ContractError,
    LedgerError,
    RecoveryError,
    SignatureError,
    StoreError,
)
from repro.cryptosim import hashing
from repro.ledger.chain import HORIZON, Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner
from repro.ledger.pow import DEFAULT_DIFFICULTY_BITS
from repro.ledger.serialization import (
    chain_document,
    chain_from_json,
    chain_to_json,
    decode_tx,
    iter_chain_canonical_json,
    tx_from_dict,
    tx_to_dict,
)
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.protocol.settlement import (
    EscrowState,
    SettlementProcessor,
    TokenLedger,
    apply_settlement_intent,
)
from repro.store import records
from repro.store.snapshot import (
    MemorySnapshotStore,
    FileSnapshotStore,
    decode_snapshot,
    encode_snapshot,
)
from repro.store.wal import FileLogBackend, MemoryLogBackend, WriteAheadLog

#: round phases that mean "this round is finished, nothing in flight"
TERMINAL_PHASES = frozenset({"committed", "aborted"})

Segment = Tuple[int, int, List[Dict[str, Any]], Optional[int]]
#: what recovery re-applies from the log segment a snapshot leaves there
SEGMENT_TYPES = frozenset({records.MEMPOOL_ADMIT, records.CHAIN_APPEND})


def _escrow_entry(escrow: Any) -> Dict[str, Any]:
    return {
        "escrow_id": escrow.escrow_id,
        "client_id": escrow.client_id,
        "provider_id": escrow.provider_id,
        "amount": escrow.amount,
        "state": escrow.state.value,
    }


def _state_beyond_chain(
    mempool: Mempool,
    ledger: TokenLedger,
    settled_blocks: Dict[str, Dict[str, str]],
    last_round: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    return {
        "mempool": [tx_to_dict(tx) for tx in mempool.peek(len(mempool))],
        "ledger": {
            "balances": dict(ledger.balances),
            "escrows": [
                _escrow_entry(escrow)
                for _eid, escrow in sorted(ledger.escrows.items())
            ],
            "counter": ledger._escrow_counter,
        },
        "settled_blocks": {
            block_hash: dict(mapping)
            for block_hash, mapping in settled_blocks.items()
        },
        "round": last_round,
    }


def _iter_state_beyond_chain(
    mempool: Mempool,
    ledger: TokenLedger,
    settled_blocks: Dict[str, Dict[str, str]],
    last_round: Optional[Dict[str, Any]],
) -> Iterator[bytes]:
    """``canonical_json(_state_beyond_chain(...))`` after its opening
    brace, in pieces: the escrows, the pending bids and the settled
    blocks grow with the node's age, so each goes one entry at a time."""
    canon = hashing.canonical_json
    yield b'"ledger":{"balances":' + canon(dict(ledger.balances))
    yield b',"counter":' + canon(ledger._escrow_counter) + b',"escrows":['
    yield from hashing.iter_canonical_json_items(
        _escrow_entry(ledger.escrows[eid]) for eid in sorted(ledger.escrows)
    )
    yield b']},"mempool":['
    yield from hashing.iter_canonical_json_items(
        tx_to_dict(tx) for tx in mempool.peek(len(mempool))
    )
    yield b'],"round":' + canon(last_round) + b',"settled_blocks":{'
    for index, block_hash in enumerate(sorted(settled_blocks)):
        yield (
            (b"," if index else b"") + canon(block_hash) + b":"
            + canon(settled_blocks[block_hash])
        )
    yield b"}}"


def state_to_dict(
    chain: Blockchain,
    mempool: Mempool,
    ledger: TokenLedger,
    settled_blocks: Dict[str, Dict[str, str]],
    last_round: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Canonical JSON-ready materialization of one node's durable state."""
    return {
        "chain": json.loads(chain_to_json(chain)),
        **_state_beyond_chain(mempool, ledger, settled_blocks, last_round),
    }


def state_digest_of(state: Dict[str, Any]) -> str:
    """Exact digest of a materialized state (bit-identical ⇔ equal)."""
    return hashing.sha256_hex(hashing.canonical_json(state))


def stream_state_digest(
    chain: Blockchain,
    mempool: Mempool,
    ledger: TokenLedger,
    settled_blocks: Dict[str, Dict[str, str]],
    last_round: Optional[Dict[str, Any]],
) -> str:
    """``state_digest_of(state_to_dict(...))`` without the state's JSON
    in memory.

    Everything that grows with a node's age — the chain above all, then
    the escrows and the settled blocks — is fed to the hash one block or
    entry at a time; the other keys all sort after ``"chain"``.
    """
    hasher = hashlib.sha256(b'{"chain":')
    for piece in iter_chain_canonical_json(chain):
        hasher.update(piece)
    hasher.update(b",")
    for piece in _iter_state_beyond_chain(
        mempool, ledger, settled_blocks, last_round
    ):
        hasher.update(piece)
    return hasher.hexdigest()


@dataclass
class RecoveredState:
    """Everything :meth:`NodeStore.recover` rebuilt, plus how it got there."""

    chain: Blockchain
    mempool: Mempool
    ledger: TokenLedger
    settled_blocks: Dict[str, Dict[str, str]]
    #: the newest ``round.phase`` marker replayed (None: no round seen)
    last_round: Optional[Dict[str, Any]] = None
    #: newest marker per round index — the pipelined runtime keeps
    #: several rounds in flight at once, so recovery must see each one's
    #: own latest phase, not just the globally newest marker
    round_phases: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    replayed_records: int = 0
    truncated_bytes: int = 0
    snapshot_used: bool = False

    @property
    def committed_height(self) -> int:
        return len(self.chain)

    def round_in_flight(self) -> Optional[Dict[str, Any]]:
        """The round the node was inside when it died, if any.

        A round whose last durable phase marker is non-terminal was cut
        off mid-protocol.  If its block nevertheless made it into the
        recovered chain (the ``chain.append`` record beat the crash),
        the round is *decided* and only settlement may need resuming;
        otherwise the supervisor must abort-and-replay it.
        """
        if self.last_round is None:
            return None
        if self.last_round.get("phase") in TERMINAL_PHASES:
            return None
        return self.last_round

    def _state_parts(self) -> Tuple[Any, ...]:
        return (
            self.chain,
            self.mempool,
            self.ledger,
            self.settled_blocks,
            self.last_round,
        )

    def state_dict(self) -> Dict[str, Any]:
        return state_to_dict(*self._state_parts())

    def state_digest(self) -> str:
        """``state_digest_of(self.state_dict())``, streamed."""
        return stream_state_digest(*self._state_parts())

    def make_miner(
        self,
        miner_id: str,
        allocate: Any,
        store: Optional["NodeStore"] = None,
    ) -> Miner:
        """A miner resuming this state (journaling into ``store`` if given)."""
        return Miner(
            miner_id=miner_id,
            allocate=allocate,
            difficulty_bits=self.chain.difficulty_bits,
            chain=self.chain,
            mempool=self.mempool,
            store=store,
        )

    def make_settlement(
        self,
        store: Optional["NodeStore"] = None,
        obs: Optional[ObservabilityLike] = None,
    ) -> SettlementProcessor:
        """A settlement processor resuming this ledger and settled-map."""
        processor = SettlementProcessor(ledger=self.ledger, obs=obs)
        processor._settled_blocks.update(self.settled_blocks)
        if store is not None:
            store.attach(settlement=processor)
        return processor


class NodeStore:
    """Write-ahead journal + snapshot store for one node."""

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        snapshots: Optional[Any] = None,
        obs: Optional[ObservabilityLike] = None,
        horizon: int = HORIZON,
    ) -> None:
        if horizon < 1:
            raise StoreError("the retention horizon must be at least 1 block")
        self.horizon = horizon
        self.wal = wal if wal is not None else WriteAheadLog()
        self.snapshots = (
            snapshots if snapshots is not None else MemorySnapshotStore()
        )
        self.obs = resolve_obs(obs)
        self._chain: Optional[Blockchain] = None
        self._mempool: Optional[Mempool] = None
        self._ledger: Optional[TokenLedger] = None
        self._settlement: Optional[SettlementProcessor] = None
        #: newest round.phase journaled through this handle (snapshotted)
        self.last_round_phase: Optional[Dict[str, Any]] = None
        #: newest marker per round index (see RecoveredState.round_phases)
        self.round_phases: Dict[int, Dict[str, Any]] = {}
        #: the latest snapshot's last seq, chain height, pending pool and
        #: the log offset just past that seq (None: unknown): the log
        #: keeps every record after it, so the next roll's snapshot
        #: leaves the blocks journaled since in the log
        self._segment: Segment = (-1, 0, [], None)

    # ------------------------------------------------------------------
    # Construction sugar
    # ------------------------------------------------------------------
    @classmethod
    def in_memory(
        cls,
        obs: Optional[ObservabilityLike] = None,
        crash_point: Optional[Any] = None,
        keep_snapshots: int = 2,
        horizon: int = HORIZON,
    ) -> "NodeStore":
        """The deterministic test/chaos backend pair."""
        return cls(
            wal=WriteAheadLog(MemoryLogBackend(), crash_point=crash_point),
            snapshots=MemorySnapshotStore(keep=keep_snapshots),
            obs=obs,
            horizon=horizon,
        )

    @classmethod
    def at_path(
        cls,
        directory: str,
        fsync: bool = False,
        obs: Optional[ObservabilityLike] = None,
        crash_point: Optional[Any] = None,
        keep_snapshots: int = 2,
    ) -> "NodeStore":
        """File-backed store rooted at ``directory`` (wal.log + snapshots/),
        rolling at the module's ``HORIZON``."""
        import os

        return cls(
            wal=WriteAheadLog(
                FileLogBackend(
                    os.path.join(directory, "wal.log"), fsync=fsync
                ),
                crash_point=crash_point,
            ),
            snapshots=FileSnapshotStore(
                os.path.join(directory, "snapshots"), keep=keep_snapshots
            ),
            obs=obs,
        )

    # ------------------------------------------------------------------
    # Attachment: who journals through this store
    # ------------------------------------------------------------------
    def attach(
        self,
        chain: Optional[Blockchain] = None,
        mempool: Optional[Mempool] = None,
        ledger: Optional[TokenLedger] = None,
        settlement: Optional[SettlementProcessor] = None,
    ) -> "NodeStore":
        """Wire subsystems to journal through this store (and be
        snapshotted by it)."""
        if chain is not None:
            self._chain = chain
            chain.journal = self
            if self.wal.next_seq == 0 and self._segment[0] < 0:
                # an empty log journals this chain from its tip on: its
                # history so far goes into the first snapshot
                self._segment = (-1, len(chain), [], None)
        if mempool is not None:
            self._mempool = mempool
            mempool.journal = self
        if ledger is not None:
            self._ledger = ledger
            ledger.journal = self
        if settlement is not None:
            self._settlement = settlement
            self.attach(ledger=settlement.ledger)
        return self

    # ------------------------------------------------------------------
    # The journal
    # ------------------------------------------------------------------
    def log(self, record_type: str, **data: Any) -> int:
        """Append one write-ahead record; returns its ``seq``.

        Called by attached subsystems immediately *before* they apply
        the transition the record describes — so here, before the
        record, the attached state is exactly what the log holds, and a
        roll that came due with the last commit happens first.
        """
        chain = self._chain
        if chain is not None and (
            len(chain) // self.horizon > self._segment[1] // self.horizon
        ):
            self._roll()
        seq = self.wal.append(
            record_type, records.encode_data(record_type, data, self._mempool)
        )
        if record_type == records.ROUND_PHASE:
            self.last_round_phase = data
            if "round" in data:
                self.round_phases[data["round"]] = data
        if self.obs.enabled:
            self.obs.registry.inc(
                "store_wal_records_total", type=record_type
            )
        return seq

    # ------------------------------------------------------------------
    # Live-state materialization
    # ------------------------------------------------------------------
    def _state_parts(self) -> Tuple[Any, ...]:
        if self._chain is None or self._mempool is None:
            raise StoreError(
                "state materialization requires an attached chain and "
                "mempool"
            )
        ledger = self._ledger if self._ledger is not None else TokenLedger()
        settled = (
            self._settlement._settled_blocks
            if self._settlement is not None
            else {}
        )
        return (
            self._chain,
            self._mempool,
            ledger,
            settled,
            self.last_round_phase,
        )

    def state_dict(self) -> Dict[str, Any]:
        """Canonical materialization of the attached subsystems now."""
        return state_to_dict(*self._state_parts())

    def state_digest(self) -> str:
        """Exact digest of the attached state: :func:`state_digest_of`
        of :meth:`state_dict`, streamed so the chain is never held as
        JSON."""
        return stream_state_digest(*self._state_parts())

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Persist the attached state as of now; returns the covered seq.

        The log keeps the records since the previous snapshot and the
        snapshot leaves their blocks out (it holds the chain up to the
        previous snapshot's height): recovery re-appends them from that
        ``segment`` and checks it reached ``tip``.  Everything before the
        previous snapshot is compacted away.  A snapshot taken by hand
        rolls nothing off; the schedule snapshots through :meth:`_roll`.
        """
        chain, mempool, ledger, settled, last_round = self._state_parts()
        last_seq = self.wal.next_seq - 1
        height = len(chain)
        after, upto, pool, offset = self._segment
        state = {
            "chain": chain_document(chain, upto=upto),
            **_state_beyond_chain(mempool, ledger, settled, last_round),
            "round_phases": list(self.round_phases.values()),
            "segment": {"after": after, "mempool": pool},
            "tip": {"height": height, "hash": chain.tip_hash},
        }
        self.snapshots.save(last_seq, encode_snapshot(state, last_seq))
        self.wal.compact(after, start=offset)
        # the log ends with record ``last_seq`` until the mark below
        self._segment = (
            last_seq, height, state["mempool"], self.wal.backend.size()
        )
        self.log(records.SNAPSHOT_MARK, last_seq=last_seq)
        if self.obs.enabled:
            self.obs.registry.inc("store_snapshots_total")
            self.obs.registry.inc("store_compactions_total")
        return last_seq

    def _roll(self) -> None:
        """Drop the blocks more than ``horizon`` below the tip — never
        past the previous snapshot's height, where the log segment
        starts — with the settled-block entries and terminal escrows of
        those blocks and the round markers as old; then snapshot that
        bounded state (a chain anchor in place of the blocks)."""
        chain, _mempool, ledger, settled, _round = self._state_parts()
        chain.prune(min(len(chain) - self.horizon, self._segment[1]))
        retained = {block.hash() for block in chain}
        for block_hash in [h for h in settled if h not in retained]:
            del settled[block_hash]
        referenced = {
            eid for mapping in settled.values() for eid in mapping.values()
        }
        for eid in [
            eid
            for eid, escrow in ledger.escrows.items()
            if escrow.state is not EscrowState.HELD and eid not in referenced
        ]:
            del ledger.escrows[eid]
        if self.round_phases:
            oldest = max(self.round_phases) - self.horizon
            self.round_phases = {
                index: marker
                for index, marker in self.round_phases.items()
                if index > oldest
            }
        self.snapshot()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
    ) -> RecoveredState:
        """Rebuild node state from snapshot + log; truncate torn tails.

        ``difficulty_bits`` seeds an *empty* recovered chain only — a
        snapshot or any replayed block carries its own difficulty.
        Raises :class:`RecoveryError` when the valid record sequence is
        internally inconsistent (damage beyond what tail truncation can
        explain).
        """
        obs = self.obs
        with obs.tracer.span("recover"):
            truncated = self.wal.truncate_tail()
            state = self._recover_state(difficulty_bits)
            state.truncated_bytes = truncated
        if obs.enabled:
            obs.registry.inc("store_recoveries_total")
            obs.registry.inc(
                "store_replayed_records_total", state.replayed_records
            )
            if truncated:
                obs.registry.inc("store_torn_tails_total")
                obs.registry.inc("store_truncated_bytes_total", truncated)
        return state

    def _recover_state(self, difficulty_bits: int) -> RecoveredState:
        chain: Blockchain
        mempool = Mempool()
        ledger = TokenLedger()
        settled_blocks: Dict[str, Dict[str, str]] = {}
        last_round: Optional[Dict[str, Any]] = None
        round_phases: Dict[int, Dict[str, Any]] = {}
        last_seq = -1
        snapshot_used = False
        segment: Dict[str, Any] = {"after": -1, "mempool": []}
        tip: Optional[Dict[str, Any]] = None
        pool = Mempool()
        next_segment: Segment = (-1, 0, [], None)

        raw = self.snapshots.latest()
        if raw is not None:
            snapshot_used = True
            state, last_seq = decode_snapshot(raw)
            segment = state["segment"]
            try:
                chain = chain_from_json(json.dumps(state["chain"]))
            except LedgerError as exc:
                raise RecoveryError(
                    f"snapshot chain failed validation: {exc}"
                ) from exc
            tip = state["tip"]
            next_segment = (last_seq, tip["height"], state["mempool"], None)
            pool.signatures = mempool.signatures
            try:
                for tx_data in state["mempool"]:
                    mempool.submit(tx_from_dict(tx_data))
                for tx_data in segment["mempool"]:
                    pool.submit(tx_from_dict(tx_data))
            except (LedgerError, SignatureError) as exc:
                raise RecoveryError(
                    f"snapshot mempool failed validation: {exc}"
                ) from exc
            ledger.balances.update(state["ledger"]["balances"])
            for entry in state["ledger"]["escrows"]:
                ledger._restore_escrow(
                    escrow_id=entry["escrow_id"],
                    client_id=entry["client_id"],
                    provider_id=entry["provider_id"],
                    amount=entry["amount"],
                    state=EscrowState(entry["state"]),
                )
            ledger._escrow_counter = state["ledger"]["counter"]
            settled_blocks.update(
                {h: dict(m) for h, m in state["settled_blocks"].items()}
            )
            last_round = state["round"]
            for marker in state["round_phases"]:
                round_phases[marker["round"]] = dict(marker)
        else:
            chain = Blockchain(difficulty_bits=difficulty_bits)
        # One recovery is one node: every signature is verified from the
        # logged bytes, once — a bid's admission record and the block
        # that includes it share the verification.
        chain.signatures = mempool.signatures

        replayed = 0
        for record in self.wal.replay(after_seq=segment["after"]):
            replayed += 1
            if record["seq"] <= last_seq:
                # the snapshot holds everything but these blocks: re-append
                # them (admissions resolve their references)
                if record["type"] in SEGMENT_TYPES:
                    self._replay_record(
                        record, chain, pool, ledger, settled_blocks, None
                    )
                continue
            if tip is not None:
                self._check_tip(chain, tip)
                tip = None
            last_round = self._replay_record(
                record,
                chain,
                mempool,
                ledger,
                settled_blocks,
                last_round,
                round_phases,
            )
        if tip is not None:
            self._check_tip(chain, tip)
        self.last_round_phase = last_round
        self.round_phases = dict(round_phases)
        self._segment = next_segment
        return RecoveredState(
            chain=chain,
            mempool=mempool,
            ledger=ledger,
            settled_blocks=settled_blocks,
            last_round=last_round,
            round_phases=round_phases,
            replayed_records=replayed,
            snapshot_used=snapshot_used,
        )

    @staticmethod
    def _check_tip(chain: Blockchain, tip: Dict[str, Any]) -> None:
        if (len(chain), chain.tip_hash) != (tip["height"], tip["hash"]):
            raise RecoveryError(
                f"snapshot expects the log to rebuild the chain to height "
                f"{tip['height']}; it rebuilt {len(chain)}"
            )

    @staticmethod
    def _replay_record(
        record: Dict[str, Any],
        chain: Blockchain,
        mempool: Mempool,
        ledger: TokenLedger,
        settled_blocks: Dict[str, Dict[str, str]],
        last_round: Optional[Dict[str, Any]],
        round_phases: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Optional[Dict[str, Any]]:
        rtype = record["type"]
        body = record["data"]
        try:
            if rtype == records.MEMPOOL_ADMIT:
                mempool.submit(decode_tx(body))
                return last_round
            if rtype == records.CHAIN_APPEND:
                block = records.decode_block(body, mempool)
                chain.append(block)
                mempool.remove(
                    [tx.txid() for tx in block.preamble.transactions]
                )
                return last_round
            data = json.loads(body)
            if rtype == records.SETTLEMENT_BLOCK:
                mapping = apply_settlement_intent(
                    ledger, data["entries"], data["auto_fund"]
                )
                if data["block_hash"]:
                    settled_blocks[data["block_hash"]] = mapping
            elif rtype == records.ESCROW_OPEN:
                ledger._apply_open(
                    escrow_id=data["escrow_id"],
                    client_id=data["client_id"],
                    provider_id=data["provider_id"],
                    amount=data["amount"],
                )
            elif rtype == records.ESCROW_TRANSITION:
                ledger._apply_transition(data["escrow_id"], data["to"])
            elif rtype == records.TOKEN_MINT:
                ledger._apply_mint(data["account"], data["amount"])
            elif rtype == records.TOKEN_TRANSFER:
                ledger._apply_transfer(
                    data["sender"], data["recipient"], data["amount"]
                )
            elif rtype == records.ROUND_PHASE:
                if round_phases is not None and "round" in data:
                    round_phases[data["round"]] = dict(data)
                return dict(data)
        except (
            LedgerError, ContractError, SignatureError, KeyError, TypeError,
            ValueError, AttributeError, RecursionError,
        ) as exc:
            # a record whose CRC holds but whose body does not decode, or
            # does not apply to the state recovered so far
            raise RecoveryError(
                f"replaying {rtype} record seq {record['seq']} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return last_round

    def close(self) -> None:
        self.wal.close()
        self.snapshots.close()
