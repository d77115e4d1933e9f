"""The blockchain: an append-only validated sequence of blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.errors import InvalidBlockError
from repro.cryptosim import schnorr
from repro.ledger.block import GENESIS_PARENT, Block
from repro.ledger.pow import DEFAULT_DIFFICULTY_BITS


class Blockchain:
    """Ordered blocks with linkage + proof-of-work validation on append.

    Allocation *content* validation (decryptability, correct auction
    re-execution) is the miners' job in ``repro.protocol.exposure``; the
    chain enforces only the structural invariants every node agrees on.
    """

    def __init__(self, difficulty_bits: int = DEFAULT_DIFFICULTY_BITS) -> None:
        self.difficulty_bits = difficulty_bits
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
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    @property
    def tip(self) -> Optional[Block]:
        """The latest block, or ``None`` for an empty chain."""
        return self._blocks[-1] if self._blocks else None

    @property
    def tip_hash(self) -> str:
        tip = self.tip
        return tip.hash() if tip is not None else GENESIS_PARENT

    @property
    def next_height(self) -> int:
        return len(self._blocks)

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
        """Look up a block by its full hash."""
        for block in self._blocks:
            if block.hash() == block_hash:
                return block
        return None

    def verify_linkage(self) -> bool:
        """Re-validate the whole chain's hash linkage and PoW."""
        parent = GENESIS_PARENT
        for expected_height, block in enumerate(self._blocks):
            preamble = block.preamble
            if preamble.height != expected_height:
                return False
            if preamble.parent_hash != parent:
                return False
            if not preamble.check_pow(self.difficulty_bits):
                return False
            parent = block.hash()
        return True
