"""Mempool of pending sealed-bid transactions.

Transactions wait here between submission and inclusion in a block
preamble.  Deduplication is by txid; draining preserves arrival order so
that submission-time tie-breaking (paper §IV-D: earlier submission wins
ranking ties) is well defined.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.common.errors import LedgerError
from repro.cryptosim import schnorr
from repro.ledger.transaction import SealedBidTransaction


class Mempool:
    """FIFO pool of verified pending transactions."""

    def __init__(self, max_size: int = 100_000) -> None:
        self.max_size = max_size
        self._pending: "OrderedDict[str, SealedBidTransaction]" = OrderedDict()
        #: optional write-ahead journal (``repro.store.NodeStore`` duck
        #: type): admissions are logged before insertion so a crashed
        #: node's pending bids survive a restart
        self.journal = None
        #: signatures already verified here; a ``Miner`` replaces it with
        #: the node's own cache, so a signature verified at admission is
        #: not verified again in the block
        self.signatures = schnorr.SignatureCache()

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, txid: str) -> bool:
        return txid in self._pending

    def submit(self, tx: SealedBidTransaction) -> str:
        """Verify and enqueue ``tx``; returns its txid.

        Re-submission of an identical transaction is idempotent.  Raises
        :class:`SignatureError` for a bad signature and
        :class:`LedgerError` when the pool is full.
        """
        tx.require_valid(self.signatures)
        txid = tx.txid()
        if txid not in self._pending:
            if len(self._pending) >= self.max_size:
                raise LedgerError(
                    f"mempool full ({self.max_size} pending transactions)"
                )
            if self.journal is not None:
                self.journal.log("mempool.admit", tx=tx)
            self._pending[txid] = tx
        return txid

    def get(self, txid: str) -> Optional[SealedBidTransaction]:
        """The pending transaction with this txid, if there is one."""
        return self._pending.get(txid)

    def peek(self, limit: int) -> List[SealedBidTransaction]:
        """The next up-to-``limit`` transactions without removing them."""
        out: List[SealedBidTransaction] = []
        for tx in self._pending.values():
            if len(out) >= limit:
                break
            out.append(tx)
        return out

    def remove(self, txids: List[str]) -> None:
        """Drop the given transactions (after block inclusion)."""
        for txid in txids:
            self._pending.pop(txid, None)

    def drain(self, limit: int) -> List[SealedBidTransaction]:
        """Remove and return the next up-to-``limit`` transactions."""
        batch = self.peek(limit)
        self.remove([tx.txid() for tx in batch])
        return batch
