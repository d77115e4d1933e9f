"""The two-phase bid exposure protocol (paper §III, Fig. 2).

Phase 1 — *sealed bidding*: participants encrypt their requests/offers
with fresh temporary keys, sign them, and broadcast them to the miner
network.  The winning miner assembles the **preamble** (parent hash +
sealed bids + proof-of-work) and shares it.  No one — miner included —
can read any bid yet.

Phase 2 — *allocation and agreement*: participants whose bids appear in a
valid preamble broadcast their temporary keys.  The miner decrypts, runs
the DeCloud auction with the preamble hash as randomization evidence, and
shares the block **body** (keys + allocation suggestion).  Every other
miner re-executes the auction and accepts the block only on an exact
match; participants then accept or deny via the smart contract layer.

Rounds run on the one protocol host, :class:`~repro.runtime.Runtime`.
This module holds the bidder side (:class:`Participant`), the round
rules the host applies (leader rotation, retry budgets) and
:class:`ExposureProtocol`, a one-round-per-call façade over the host.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import InsecureKeyWarning, ProtocolError
from repro.core.config import AuctionConfig
from repro.obs import ObservabilityLike, resolve as resolve_obs
from repro.core.outcome import AuctionOutcome
from repro.cryptosim import schnorr
from repro.ledger.block import Block, BlockPreamble, KeyReveal
from repro.ledger.chain import HORIZON
from repro.ledger.miner import Miner, make_sealed_bid
from repro.ledger.transaction import SealedBidTransaction
from repro.market.bids import Offer, Request
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.identity import IdentityRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.reactor import Submission


@dataclass
class Participant:
    """A client or provider with a signing identity and pending reveals.

    Protocol examples and deployments should pass ``fresh_key=True`` (a
    random, unforgeable key) and register the public key in an
    :class:`~repro.protocol.identity.IdentityRegistry` — that is the
    documented default for anything beyond a reproducible simulation.
    Simulations that *want* id-derived keys opt in with
    ``deterministic=True``; deriving them silently would let anyone
    recompute anyone's secret, so the silent fallback (kept for
    backwards compatibility) emits :class:`InsecureKeyWarning`.

    ``seal_seed`` additionally derives the temporary bid keys and nonces
    deterministically, making whole protocol rounds bit-reproducible —
    chaos experiments rely on this to replay identical fault scenarios.
    """

    participant_id: str
    keypair: schnorr.KeyPair = field(default=None)  # type: ignore[assignment]
    fresh_key: bool = False
    deterministic: bool = False
    seal_seed: Optional[bytes] = None
    _pending_reveals: Dict[str, KeyReveal] = field(default_factory=dict)
    #: reveals already disclosed for a preamble, with its height — kept
    #: for re-requests until ``HORIZON`` blocks have gone by
    _disclosed: Dict[str, Tuple[int, KeyReveal]] = field(
        default_factory=dict
    )
    _seal_counter: int = 0

    def __post_init__(self) -> None:
        if self.keypair is None:
            if self.fresh_key:
                self.keypair = schnorr.KeyPair.generate()
            else:
                if not self.deterministic:
                    warnings.warn(
                        f"participant {self.participant_id!r} uses an "
                        "id-derived keypair that anyone can recompute; pass "
                        "fresh_key=True for an unforgeable identity or "
                        "deterministic=True to acknowledge the simulation "
                        "trade-off",
                        InsecureKeyWarning,
                        stacklevel=2,
                    )
                self.keypair = schnorr.KeyPair.generate(
                    seed=self.participant_id.encode("utf-8")
                )

    def _next_seal_material(self) -> Dict[str, bytes]:
        """Temporary key/nonce for the next seal (seeded when requested)."""
        if self.seal_seed is None:
            return {}
        tag = (
            self.seal_seed
            + self.participant_id.encode("utf-8")
            + self._seal_counter.to_bytes(8, "big")
        )
        return {
            "temp_key": hashlib.sha256(b"tempkey" + tag).digest(),
            "nonce": hashlib.sha256(b"nonce" + tag).digest()[:16],
            "blind": hashlib.sha256(b"blind" + tag).digest(),
        }

    def seal(self, bid: Union[Request, Offer]) -> SealedBidTransaction:
        """Encrypt and sign one bid; the reveal is held until phase 2."""
        owner = (
            bid.client_id if isinstance(bid, Request) else bid.provider_id
        )
        if owner != self.participant_id:
            raise ProtocolError(
                f"participant {self.participant_id} cannot submit a bid "
                f"owned by {owner}"
            )
        return self._seal_bytes(bid.to_json())

    def _seal_bytes(self, plaintext: bytes) -> SealedBidTransaction:
        tx, reveal = make_sealed_bid(
            sender_id=self.participant_id,
            keypair=self.keypair,
            plaintext=plaintext,
            **self._next_seal_material(),
        )
        self._seal_counter += 1
        self._pending_reveals[tx.txid()] = reveal
        return tx

    def reveals_for(self, preamble: BlockPreamble) -> List[KeyReveal]:
        """Keys for this participant's bids included in ``preamble``.

        A rational participant only reveals keys for bids the (valid)
        preamble actually contains — revealing anything else would leak
        a live bid.  Disclosed reveals move out of the pending set (a
        second call returns nothing new) but stay available to
        :meth:`re_reveal` so lost gossip can be re-requested.
        """
        included = {tx.txid() for tx in preamble.transactions}
        stale = []
        for txid, (height, _reveal) in self._disclosed.items():
            if height >= preamble.height - HORIZON:
                break  # disclosed in (about) height order
            stale.append(txid)
        for txid in stale:
            del self._disclosed[txid]
        out: List[KeyReveal] = []
        for txid, reveal in list(self._pending_reveals.items()):
            if txid in included:
                out.append(reveal)
                self._disclosed[txid] = (preamble.height, reveal)
                del self._pending_reveals[txid]
        return out

    def re_reveal(
        self,
        preamble: BlockPreamble,
        txids: Optional[Iterable[str]] = None,
    ) -> List[KeyReveal]:
        """Re-disclose already-revealed keys for ``preamble``.

        Disclosure is idempotent — the keys left secrecy the moment
        :meth:`reveals_for` returned them, so answering a retry leaks
        nothing new.  ``txids`` narrows the answer to what the requester
        reports missing.
        """
        included = {tx.txid() for tx in preamble.transactions}
        if txids is not None:
            included &= set(txids)
        return [
            reveal
            for txid, (_height, reveal) in self._disclosed.items()
            if txid in included
        ]


#: re-gossips of one sealed bid before the runtime stops waiting for
#: every live mempool to admit it
SUBMIT_RETRIES = 2
#: leader re-requests for missing reveals before the still-sealed bids
#: are excluded
MAX_REVEAL_RETRIES = 2
#: growth of the runtime's reveal deadline per re-request
REVEAL_BACKOFF = 2.0


def leader_rotation(miners: Sequence[Miner], round_index: int) -> List[Miner]:
    """Round-robin proposer order for ``round_index``: who leads, and
    who falls back next, in the runtime's global round numbering."""
    pivot = round_index % len(miners)
    return list(miners[pivot:]) + list(miners[:pivot])


@dataclass
class RoundResult:
    """Everything one protocol round produced."""

    block: Block
    outcome: AuctionOutcome
    accepted_by: List[str]
    #: sealed bids excluded because their keys never (validly) arrived
    excluded_txids: Tuple[str, ...] = ()
    #: miners whose proposals were rejected before one reached quorum
    failed_proposers: Tuple[str, ...] = ()


class ExposureProtocol:
    """Rounds of the two-phase protocol, one call each: a façade over the
    :class:`~repro.runtime.Runtime`.

    :meth:`submit` seals a bid at the call.  :meth:`run_round` drives the
    bids sealed since the previous round through one
    ``Runtime(pipeline=False)`` round on a lossless transport and raises
    the typed error the runtime recorded if the round aborted: a
    :class:`~repro.common.errors.RevealTimeoutError` when every bid
    stayed sealed through the re-requests (a bid whose key never arrives
    is excluded and the round goes on), a
    :class:`~repro.common.errors.ByzantineFaultError` when no proposer's
    body reached quorum.  Lossy networks, crashes and partitions are
    replayed by driving the runtime directly, with a
    :class:`~repro.faults.plan.FaultPlan`.
    """

    def __init__(
        self,
        miners: Sequence[Miner],
        network: Optional[object] = None,
        registry: Optional["IdentityRegistry"] = None,
        obs: Optional[ObservabilityLike] = None,
        store: Optional[object] = None,
    ) -> None:
        """``network`` is accepted and unused: every round runs on the
        runtime's own lossless transport.  ``obs`` and ``store`` (a
        ``repro.store.NodeStore`` journaling phase transitions) go to
        each round's runtime."""
        if not miners:
            raise ProtocolError("at least one miner is required")
        self.miners = list(miners)
        self.registry = registry
        self.obs = resolve_obs(obs)
        self.store = store
        self._round = 0
        #: bids sealed since the previous round, in submission order
        self._sealed: List["Submission"] = []

    @property
    def quorum(self) -> int:
        """Verifying majority over the whole miner set."""
        return len(self.miners) // 2 + 1

    def submit(
        self, participant: Participant, bid: Union[Request, Offer]
    ) -> SealedBidTransaction:
        """Phase 1: seal a bid for the next :meth:`run_round`.

        With an identity registry configured, the sender's public key is
        bound to its id on first contact and checked ever after —
        impersonating a registered id fails here, before any mempool.
        """
        from repro.runtime.reactor import Submission  # import cycle

        entry = Submission(participant, bid)
        tx = entry.seal(self.registry, self.obs)
        self._sealed.append(entry)
        return tx

    def run_round(
        self, participants: Sequence[Participant]
    ) -> RoundResult:
        """Mine one block end to end and return the verified outcome.

        The miner that "gets the block" rotates round-robin — consensus
        forks are out of scope (the paper builds on, not contributes to,
        the underlying consensus).  Only ``participants`` reveal keys.

        With observability attached the round is one ``round`` span
        around the runtime's ``mine``/``reveal``/``propose``/``verify``/
        ``commit`` spans and degradation events.  A round that aborts
        closes the ``round`` span with ``status: "error"``, which
        :func:`~repro.obs.trace.span_seconds` counts under ``aborted``.
        """
        from repro.runtime.reactor import Runtime  # import cycle

        sealed, self._sealed = self._sealed, []
        runtime = Runtime(
            self.miners, obs=self.obs, store=self.store,
            start_round=self._round, pipeline=False,
        )
        with self.obs.tracer.span("round", index=self._round):
            self._round += 1
            record = runtime.run_sealed(sealed, participants)
            if record.exception is not None:
                raise record.exception
        return record.result


def build_miner_network(
    num_miners: int,
    config: Optional[AuctionConfig] = None,
    difficulty_bits: int = 8,
    obs: Optional[ObservabilityLike] = None,
) -> ExposureProtocol:
    """Convenience factory: ``num_miners`` DeCloud miners on one bus."""
    miners = [
        Miner(
            miner_id=f"miner-{i}",
            allocate=DecloudAllocator(config),
            difficulty_bits=difficulty_bits,
        )
        for i in range(num_miners)
    ]
    return ExposureProtocol(miners=miners, obs=obs)
