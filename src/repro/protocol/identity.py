"""Identity registry: binding participant ids to public keys.

Sealed-bid transactions are signed, but a signature only proves the
sender holds *some* key — deciding **which key speaks for which id** is
an identity layer.  On a public chain that binding is implicit (your id
*is* your key); DeCloud ids are market-level names (client/provider ids
inside bids), so the registry pins each name to the first public key
that claims it, and rejects later conflicting claims — the same
first-come binding Namecoin-style systems use.

The exposure protocol consults the registry on submission: a transaction
whose sender id is bound to a different key is rejected before it ever
reaches a mempool.  A key no secret stands behind — one of Ed25519's
small-order points, or a non-canonical encoding — is refused at
registration: a signature under it can be computed by anyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.errors import ProtocolError
from repro.cryptosim import schnorr


@dataclass
class IdentityRegistry:
    """First-come-first-served id -> public-key bindings."""

    bindings: Dict[str, bytes] = field(default_factory=dict)

    def register(self, participant_id: str, public_key: bytes) -> None:
        """Bind ``participant_id`` to ``public_key``.

        Re-registering the same pair is idempotent; claiming a taken id
        with a different key, or with a key no secret stands behind,
        raises.
        """
        if not schnorr.valid_public_key(public_key):
            raise ProtocolError(
                f"id {participant_id!r} claims a key that is not a usable "
                "Ed25519 public key"
            )
        existing = self.bindings.get(participant_id)
        if existing is None:
            self.bindings[participant_id] = public_key
            return
        if existing != public_key:
            raise ProtocolError(
                f"id {participant_id!r} is already bound to another key"
            )

    def is_bound(self, participant_id: str) -> bool:
        return participant_id in self.bindings

    def key_of(self, participant_id: str) -> bytes:
        key = self.bindings.get(participant_id)
        if key is None:
            raise ProtocolError(f"id {participant_id!r} is not registered")
        return key

    def verify(self, participant_id: str, public_key: bytes) -> bool:
        """True when ``public_key`` speaks for ``participant_id``.

        Unregistered ids verify against nothing — callers should
        register on first contact (the exposure protocol does).
        """
        return self.bindings.get(participant_id) == public_key

    def check_or_register(self, participant_id: str, public_key: bytes) -> None:
        """Register on first contact; reject a key mismatch afterwards."""
        if not self.is_bound(participant_id):
            self.register(participant_id, public_key)
            return
        if not self.verify(participant_id, public_key):
            raise ProtocolError(
                f"transaction claims id {participant_id!r} with a key that "
                "does not match its registered binding"
            )
