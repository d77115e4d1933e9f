"""The blockchain: an append-only validated sequence of blocks.

A chain may hold only its recent blocks: behind an *anchor* (the height
of its oldest retained block and that block's parent hash) the history
is rolled off.  Heights stay absolute — ``len(chain)``, ``chain[h]`` and
``tip_hash`` mean what they meant before the roll — and the anchor hash
commits to the whole pruned prefix through the blocks' hash linkage.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.errors import InvalidBlockError, PrunedHistoryError
from repro.cryptosim import schnorr
from repro.ledger.block import GENESIS_PARENT, Block
from repro.ledger.pow import DEFAULT_DIFFICULTY_BITS

#: The retention horizon ``K``, in blocks: a durable node
#: (``repro.store.NodeStore``) rolls its history off every ``K``
#: commits and holds between ``K`` and ``2K``.  The deepest in-tree
#: reader looks 2 blocks back; ``K`` is sixteen times that (derivation:
#: docs/DURABILITY.md § Snapshot policy).
HORIZON = 32


class Blockchain:
    """Ordered blocks with linkage + proof-of-work validation on append.

    Allocation *content* validation (decryptability, correct auction
    re-execution) is the miners' job in ``repro.protocol.exposure``; the
    chain enforces only the structural invariants every node agrees on.
    """

    def __init__(
        self,
        difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
        anchor_height: int = 0,
        anchor_hash: str = GENESIS_PARENT,
    ) -> None:
        self.difficulty_bits = difficulty_bits
        #: absolute height of the oldest retained block, and its parent
        self.anchor_height = anchor_height
        self.anchor_hash = anchor_hash
        self._blocks: List[Block] = []
        #: optional write-ahead journal (``repro.store.NodeStore`` duck
        #: type): every append is logged *before* it takes effect, so a
        #: crashed node recovers exactly the blocks it durably committed
        self.journal = None
        #: signatures already verified here; a ``Miner`` replaces it with
        #: the node's own cache, so bids it verified at admission are not
        #: verified again per block
        self.signatures = schnorr.SignatureCache()

    def __len__(self) -> int:
        """The absolute height: retained blocks plus the pruned prefix."""
        return self.anchor_height + len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        """The retained blocks, oldest first."""
        return iter(self._blocks)

    def __getitem__(self, height: int) -> Block:
        """The block at absolute ``height`` (negative counts from the
        tip); a rolled-off height raises :class:`PrunedHistoryError`."""
        if height < 0:
            height += len(self)
        if 0 <= height < self.anchor_height:
            raise PrunedHistoryError(
                f"block {height} is behind the chain anchor",
                self.anchor_height,
                self.anchor_hash,
            )
        if not 0 <= height < len(self):
            raise IndexError(f"no block at height {height}")
        return self._blocks[height - self.anchor_height]

    @property
    def tip(self) -> Optional[Block]:
        """The latest block, or ``None`` when none is retained."""
        return self._blocks[-1] if self._blocks else None

    @property
    def tip_hash(self) -> str:
        tip = self.tip
        return tip.hash() if tip is not None else self.anchor_hash

    @property
    def next_height(self) -> int:
        return len(self)

    def prune(self, height: int) -> None:
        """Roll off every block below absolute ``height``; the anchor
        moves up to it.  Heights at or below the anchor are a no-op."""
        drop = min(height, len(self)) - self.anchor_height
        if drop <= 0:
            return
        self.anchor_hash = self._blocks[drop - 1].hash()
        self.anchor_height += drop
        del self._blocks[:drop]

    def validate_candidate(self, block: Block) -> None:
        """Raise :class:`InvalidBlockError` unless ``block`` extends the tip."""
        preamble = block.preamble
        if preamble.height != self.next_height:
            raise InvalidBlockError(
                f"expected height {self.next_height}, got {preamble.height}"
            )
        if preamble.parent_hash != self.tip_hash:
            raise InvalidBlockError(
                f"parent hash {preamble.parent_hash[:12]}... does not match "
                f"tip {self.tip_hash[:12]}..."
            )
        if not preamble.check_pow(self.difficulty_bits):
            raise InvalidBlockError("proof-of-work check failed")
        for tx in preamble.transactions:
            if not tx.verify_signature(self.signatures):
                raise InvalidBlockError(
                    f"transaction from {tx.sender_id} in block "
                    f"{preamble.height} has an invalid signature"
                )
        body = block.require_complete()
        if not body.verify_signature(preamble.hash()):
            raise InvalidBlockError("miner signature on block body is invalid")

    def append(self, block: Block) -> None:
        """Validate and append ``block`` (journaled first when attached)."""
        self.validate_candidate(block)
        if self.journal is not None:
            self.journal.log("chain.append", block=block)
        self._blocks.append(block)
        # committed: this node does not check these bids again
        for tx in block.preamble.transactions:
            self.signatures.forget(
                tx.sender_public, tx.signing_payload(), tx.signature
            )

    def find_block(self, block_hash: str) -> Optional[Block]:
        """Look up a retained block by its full hash.  A miss is ``None``
        on a chain that was never pruned; on a pruned one the hash may
        name a rolled-off block, so a miss raises
        :class:`PrunedHistoryError`."""
        for block in self._blocks:
            if block.hash() == block_hash:
                return block
        if self.anchor_height:
            raise PrunedHistoryError(
                f"block {block_hash[:12]}... is not in the retained "
                "window (unknown here, or rolled off)",
                self.anchor_height,
                self.anchor_hash,
            )
        return None

    def verify_linkage(self) -> bool:
        """Re-validate the retained blocks' linkage (from the anchor) and
        PoW."""
        parent = self.anchor_hash
        for expected_height, block in enumerate(
            self._blocks, start=self.anchor_height
        ):
            preamble = block.preamble
            if preamble.height != expected_height:
                return False
            if preamble.parent_hash != parent:
                return False
            if not preamble.check_pow(self.difficulty_bits):
                return False
            parent = block.hash()
        return True
