"""Protocol message types carried over the broadcast network (Fig. 2).

Every message optionally carries a :class:`~repro.obs.trace.TraceContext`
captured from the sender's tracer at broadcast time.  The fault-injecting
network and the receiving inboxes use it to anchor delivery spans and
fault events on the *sender's* span, so one protocol round renders as a
single causal tree across clients, providers, and miners.  With
observability off the field stays ``None`` and the wire format is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ledger.block import Block, BlockPreamble, KeyReveal
from repro.ledger.transaction import SealedBidTransaction
from repro.obs.trace import TraceContext

TOPIC_BIDS = "bids"
TOPIC_PREAMBLE = "preamble"
TOPIC_REVEALS = "reveals"
TOPIC_BLOCK = "block"
TOPIC_REVEAL_REQUEST = "reveal-request"


@dataclass(frozen=True)
class BidSubmission:
    """A participant posts a sealed bid to the miner network."""

    transaction: SealedBidTransaction
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class PreambleAnnouncement:
    """Miner A shares the mined preamble (PoW solved, bids still sealed)."""

    preamble: BlockPreamble
    miner_id: str
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class RevealMessage:
    """A participant discloses its temporary key for the current round."""

    reveal: KeyReveal
    preamble_hash: str
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class RevealRequest:
    """The leader re-requests reveals that never (validly) arrived.

    Carries the preamble itself so a participant whose preamble gossip
    was dropped can still answer — :meth:`Participant.reveals_for` needs
    the transaction list to know which keys are safe to disclose.
    ``txids`` narrows the request to what the leader reports missing.
    """

    preamble: BlockPreamble
    txids: Tuple[str, ...]
    miner_id: str
    attempt: int = 1
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class BlockProposal:
    """Miner A shares the completed block (body with allocation)."""

    block: Block
    miner_id: str
    trace: Optional[TraceContext] = None
