"""Miner node: assembles preambles, solves PoW, proposes and verifies blocks.

The miner is generic over the auction: an ``allocate`` callable maps
decrypted bid plaintexts plus the block evidence to a JSON-serializable
allocation payload.  Verification by peer miners is *re-execution*: the
allocation function must be deterministic given (plaintexts, evidence), so
any peer recomputes it and compares payloads byte-for-byte — this is the
smart-contract-style collective verification of paper §II-A/§III-B.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.common.errors import (
    DecryptionError,
    InvalidBlockError,
    ProtocolError,
)
from repro.cryptosim import commitments, schnorr, symmetric
from repro.cryptosim.symmetric import SealedBox
from repro.ledger import pow as pow_mod
from repro.ledger.block import Block, BlockBody, BlockPreamble, KeyReveal
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import SealedBidTransaction

#: plaintexts by sender -> evidence -> allocation payload
AllocateFn = Callable[[Dict[str, List[bytes]], bytes], Dict]


def _open(tx: SealedBidTransaction, reveal: KeyReveal) -> bytes:
    """Check ``reveal`` against ``tx``'s key commitment, then decrypt.

    Raises :class:`ProtocolError` on a commitment mismatch and
    :class:`DecryptionError` when the box does not open.
    """
    opening = commitments.Opening(value=reveal.temp_key, blind=reveal.blind)
    if not commitments.verify_opening(tx.key_commitment, opening):
        raise ProtocolError(
            f"reveal from {tx.sender_id} does not match commitment"
        )
    return symmetric.decrypt(reveal.temp_key, tx.box)


def open_transactions(
    preamble: BlockPreamble,
    reveals: Iterable[KeyReveal],
    admitted: Optional[Dict[KeyReveal, bytes]] = None,
) -> Dict[str, List[bytes]]:
    """Decrypt every revealed transaction; returns plaintexts by sender.

    ``admitted`` maps reveals already opened (by the node's admission
    screening) to their plaintexts; any other reveal is checked against
    its commitment and decrypted here.  Raises :class:`ProtocolError`
    when a revealed key does not match its commitment, and
    :class:`DecryptionError` when it fails to decrypt the sealed box —
    either means a misbehaving participant (or miner) and the block must
    be rejected.
    """
    reveal_map: Dict[str, KeyReveal] = {r.txid: r for r in reveals}
    plaintexts: Dict[str, List[bytes]] = {}
    for tx in preamble.transactions:
        reveal = reveal_map.get(tx.txid())
        if reveal is None:
            # Participant withheld its key: bid stays sealed and simply
            # drops out of the round (it can resubmit later).
            continue
        plaintext = admitted.get(reveal) if admitted else None
        if plaintext is None:
            plaintext = _open(tx, reveal)
        plaintexts.setdefault(tx.sender_id, []).append(plaintext)
    return plaintexts


class _Cleared(NamedTuple):
    """One clear this node ran: the payload and the allocator's rich
    outcome beside it (``DecloudAllocator.last_outcome``), if it has one."""

    allocation: Dict
    outcome: object


@dataclass
class _RoundWork:
    """What a node opened and cleared for one preamble.

    Private to its node and dropped once the node commits the height:
    ``plaintexts`` is keyed by the exact admitted reveal (key *and*
    blind), ``cleared`` by the exact reveal tuple a body names.
    """

    height: int
    plaintexts: Dict[KeyReveal, bytes] = field(default_factory=dict)
    cleared: Dict[Tuple[KeyReveal, ...], _Cleared] = field(
        default_factory=dict
    )


def _leading_below(
    heights: Iterable[Tuple[str, int]], anchor: int
) -> List[str]:
    """Keys of the leading ``(key, height)`` pairs below ``anchor``.

    Per-round indexes are filled in (about) height order, so the scan
    stops at the first entry the window keeps.
    """
    stale = []
    for key, height in heights:
        if height >= anchor:
            break
        stale.append(key)
    return stale


@dataclass
class Miner:
    """A mining node with its own chain view and mempool."""

    miner_id: str
    allocate: AllocateFn
    difficulty_bits: int = pow_mod.DEFAULT_DIFFICULTY_BITS
    max_block_txs: int = 10_000
    keypair: schnorr.KeyPair = field(default=None)  # type: ignore[assignment]
    chain: Blockchain = field(default=None)  # type: ignore[assignment]
    mempool: Mempool = field(default_factory=Mempool)
    clock: Callable[[], float] = time.monotonic
    #: preambles seen this node, by preamble hash (idempotent ingestion)
    preamble_inbox: Dict[str, BlockPreamble] = field(default_factory=dict)
    #: each seen preamble's transactions by txid (what a reveal must open)
    _preamble_txs: Dict[str, Dict[str, SealedBidTransaction]] = field(
        default_factory=dict
    )
    #: screened key reveals per preamble hash, keyed by txid
    reveal_inbox: Dict[str, Dict[str, KeyReveal]] = field(default_factory=dict)
    #: reveals rejected at admission — Byzantine evidence — each as
    #: (this node's height at the time, reveal, reason); any peer can
    #: send them, so they roll off with the chain's window
    _rejected: List[Tuple[int, KeyReveal, str]] = field(
        default_factory=list, init=False, repr=False
    )
    #: called with (reveal, reason) as a reveal is rejected; the host
    #: driving the node reports the evidence through it
    on_reveal_rejected: Optional[Callable[[KeyReveal, str], None]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: reveals for preambles this node has not seen yet (reordered
    #: gossip), each stash stamped with this node's height at the time
    _unscreened: Dict[str, Tuple[int, Dict[str, KeyReveal]]] = field(
        default_factory=dict
    )
    #: optional durable store (``repro.store.NodeStore``): chain appends
    #: and mempool admissions journal through it, making this node
    #: crash-recoverable via ``store.recover()``
    store: Optional[object] = None
    #: signatures this node has verified; its mempool and chain consult
    #: it so a sealed bid costs one verification per node, not three
    signatures: schnorr.SignatureCache = field(init=False)
    #: admitted plaintexts and finished clears per preamble hash, so the
    #: node opens each bid once and clears each (preamble, reveals) once
    _work: Dict[str, _RoundWork] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.keypair is None:
            self.keypair = schnorr.KeyPair.generate(
                seed=self.miner_id.encode("utf-8")
            )
        if self.chain is None:
            self.chain = Blockchain(difficulty_bits=self.difficulty_bits)
        # always a fresh one: no two nodes can be built around one cache
        self.signatures = schnorr.SignatureCache()
        self.mempool.signatures = self.chain.signatures = self.signatures
        if self.store is not None:
            self.store.attach(chain=self.chain, mempool=self.mempool)

    @property
    def rejected_reveals(self) -> List[Tuple[KeyReveal, str]]:
        """Reveals rejected at admission inside the window, oldest first:
        (reveal, reason)."""
        return [(reveal, reason) for _, reveal, reason in self._rejected]

    def _reject(self, reveal: KeyReveal, reason: str) -> bool:
        self._rejected.append((self.chain.next_height, reveal, reason))
        if self.on_reveal_rejected is not None:
            self.on_reveal_rejected(reveal, reason)
        return False

    # ------------------------------------------------------------------
    # Bidding phase
    # ------------------------------------------------------------------
    def accept_transaction(self, tx: SealedBidTransaction) -> str:
        """Admit a sealed bid into the mempool (signature-checked)."""
        return self.mempool.submit(tx)

    def build_preamble(self) -> BlockPreamble:
        """Assemble the next preamble from pending transactions and mine it."""
        return self.mine(self.mempool.peek(self.max_block_txs))

    def mine(self, transactions: Iterable[SealedBidTransaction]) -> BlockPreamble:
        """The next preamble over ``transactions``, its PoW solved."""
        preamble = BlockPreamble(
            height=self.chain.next_height,
            parent_hash=self.chain.tip_hash,
            transactions=tuple(transactions),
            timestamp=float(self.chain.next_height),
        )
        nonce = pow_mod.solve(preamble.pow_payload(), self.difficulty_bits)
        return preamble.with_nonce(nonce)

    # ------------------------------------------------------------------
    # Gossip ingestion: preamble announcements and key reveals
    # ------------------------------------------------------------------
    def accept_preamble(self, preamble: BlockPreamble) -> bool:
        """Record an announced preamble; returns False on a duplicate.

        Ingestion is idempotent, so duplicated or re-requested gossip is
        harmless.  Reveals that arrived *before* their preamble (reordered
        delivery) are screened now that the commitments are known.
        """
        phash = preamble.hash()
        if phash in self.preamble_inbox:
            return False
        self.preamble_inbox[phash] = preamble
        # first occurrence wins, as a scan of the preamble would find it
        self._preamble_txs[phash] = {
            tx.txid(): tx for tx in reversed(preamble.transactions)
        }
        self.reveal_inbox.setdefault(phash, {})
        _stamp, stashed = self._unscreened.pop(phash, (0, {}))
        for reveal in stashed.values():
            self.accept_reveal(phash, reveal)
        return True

    def accept_reveal(self, preamble_hash: str, reveal: KeyReveal) -> bool:
        """Screen and admit one key reveal for ``preamble_hash``.

        A reveal is admitted only if it opens the commitment carried by a
        transaction in the announced preamble *and* decrypts the sealed
        box — anything else is recorded as Byzantine evidence and treated
        as if the key had been withheld (the bid drops out; the round
        survives).  The plaintext is kept for this node's own clear of
        the round.  Returns True when the reveal is newly admitted.
        """
        transactions = self._preamble_txs.get(preamble_hash)
        if transactions is None:
            # Reveal raced ahead of its preamble: stash for later screening.
            _stamp, stashed = self._unscreened.setdefault(
                preamble_hash, (self.chain.next_height, {})
            )
            stashed.setdefault(reveal.txid, reveal)
            return False
        inbox = self.reveal_inbox.setdefault(preamble_hash, {})
        if reveal.txid in inbox:
            return False
        tx = transactions.get(reveal.txid)
        if tx is None:
            return self._reject(reveal, "unknown txid")
        try:
            plaintext = _open(tx, reveal)
        except ProtocolError:
            return self._reject(reveal, "commitment mismatch")
        except DecryptionError:
            return self._reject(reveal, "undecryptable box")
        inbox[reveal.txid] = reveal
        height = self.preamble_inbox[preamble_hash].height
        self._work_for(preamble_hash, height).plaintexts[reveal] = plaintext
        return True

    def collected_reveals(self, preamble: BlockPreamble) -> Tuple[KeyReveal, ...]:
        """Admitted reveals for ``preamble``, in preamble transaction order."""
        inbox = self.reveal_inbox.get(preamble.hash(), {})
        return tuple(
            inbox[tx.txid()]
            for tx in preamble.transactions
            if tx.txid() in inbox
        )

    # ------------------------------------------------------------------
    # Allocation phase
    # ------------------------------------------------------------------
    def _work_for(self, preamble_hash: str, height: int) -> _RoundWork:
        """This node's work on ``preamble_hash``, started if new."""
        work = self._work.get(preamble_hash)
        if work is None:
            work = self._work[preamble_hash] = _RoundWork(height)
        return work

    def _clear(
        self, preamble: BlockPreamble, reveals: Tuple[KeyReveal, ...]
    ) -> _Cleared:
        """This node's clear of ``(preamble, reveals)``, run once.

        The preamble hash commits to the transactions and the evidence,
        so with the exact reveal tuple it fixes ``allocate``'s input.
        Reveals this node admitted are not opened again; any other is
        opened in full, and a failure raises as it would on a first
        sight — only successful clears are kept.
        """
        work = self._work_for(preamble.hash(), preamble.height)
        cleared = work.cleared.get(reveals)
        if cleared is None:
            plaintexts = open_transactions(preamble, reveals, work.plaintexts)
            allocation = self.allocate(plaintexts, preamble.evidence())
            cleared = work.cleared[reveals] = _Cleared(
                allocation, getattr(self.allocate, "last_outcome", None)
            )
        return cleared

    def build_body(
        self, preamble: BlockPreamble, reveals: Tuple[KeyReveal, ...]
    ) -> BlockBody:
        """Decrypt bids, run the allocation, and sign the body."""
        reveals = tuple(reveals)
        body = BlockBody(
            reveals=reveals,
            # a copy: whatever the body's holder does to it, the clear
            # this node verifies against stays its own
            allocation=copy.deepcopy(
                self._clear(preamble, reveals).allocation
            ),
            miner_id=self.miner_id,
            miner_public=self.keypair.public,
        )
        return body.signed_by(self.keypair, preamble.hash())

    def outcome_of(self, block: Block) -> Optional[object]:
        """The allocator's rich outcome for ``block``'s allocation.

        Known while this node holds its clear of the block's (preamble,
        reveals) — from building or verifying the block until it commits
        the height — and only if the allocator keeps one.
        """
        work = self._work.get(block.preamble.hash())
        if work is None:
            return None
        cleared = work.cleared.get(block.require_complete().reveals)
        return None if cleared is None else cleared.outcome

    # ------------------------------------------------------------------
    # Verification by peers
    # ------------------------------------------------------------------
    def verify_block(self, block: Block) -> None:
        """Full peer-side validation, including allocation re-execution.

        Raises on any failure; on success the block may be appended.
        """
        self.chain.validate_candidate(block)
        body = block.require_complete()
        expected = self._clear(block.preamble, body.reveals).allocation
        if expected != body.allocation:
            raise InvalidBlockError(
                "allocation re-execution mismatch: miner "
                f"{body.miner_id} proposed a different result"
            )

    def commit_block(self, block: Block) -> None:
        """Append an already-verified block and evict its transactions.

        Callers that just ran :meth:`verify_block` (the protocol's
        quorum path) use this to avoid re-executing the allocation a
        second time per node.
        """
        self.chain.append(block)
        self.mempool.remove(
            [tx.txid() for tx in block.preamble.transactions]
        )
        # what this node opened and cleared is needed for one round: a
        # committed height can neither be proposed nor verified again
        height = block.preamble.height
        self._work = {
            phash: work
            for phash, work in self._work.items()
            if work.height > height
        }
        # the other per-round indexes follow the chain's window
        anchor = self.chain.anchor_height
        for phash in _leading_below(
            ((p, pre.height) for p, pre in self.preamble_inbox.items()), anchor
        ):
            del self.preamble_inbox[phash]
            self._preamble_txs.pop(phash, None)
            self.reveal_inbox.pop(phash, None)
        for phash in _leading_below(
            ((p, stamp) for p, (stamp, _) in self._unscreened.items()), anchor
        ):
            del self._unscreened[phash]
        stale = _leading_below(
            ((i, stamp) for i, (stamp, _r, _why) in enumerate(self._rejected)),
            anchor,
        )
        del self._rejected[: len(stale)]

    def accept_block(self, block: Block) -> None:
        """Verify, append, and evict included transactions from the pool."""
        self.verify_block(block)
        self.commit_block(block)


def make_sealed_bid(
    sender_id: str,
    keypair: schnorr.KeyPair,
    plaintext: bytes,
    temp_key: Optional[bytes] = None,
    nonce: Optional[bytes] = None,
    blind: Optional[bytes] = None,
) -> Tuple[SealedBidTransaction, KeyReveal]:
    """Participant-side helper: seal ``plaintext`` and prepare the reveal."""
    if temp_key is None:
        temp_key = symmetric.generate_key()
    box: SealedBox = symmetric.encrypt(temp_key, plaintext, nonce=nonce)
    commitment, opening = commitments.commit(temp_key, blind=blind)
    tx = SealedBidTransaction.create(
        sender_id=sender_id,
        keypair=keypair,
        box=box,
        key_commitment=commitment,
    )
    reveal = KeyReveal(
        sender_id=sender_id,
        txid=tx.txid(),
        temp_key=temp_key,
        blind=opening.blind,
    )
    return tx, reveal
