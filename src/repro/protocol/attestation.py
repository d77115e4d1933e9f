"""Simulated TEE remote attestation (paper §II-D).

DeCloud protects clients from malicious providers by running containers
inside hardware enclaves (SGX/TrustZone); a client that demanded the
``sgx`` resource should only enter an agreement with a provider that can
*prove* enclave support.  Real deployments use the vendor's remote
attestation service; this module simulates that trust root:

* an :class:`AttestationService` (the vendor) signs **quotes** binding a
  provider to an enclave measurement;
* providers present quotes; verifiers check the signature, the expected
  measurement, and freshness;
* :func:`enforce_attestation` screens a block's matches — any
  SGX-demanding match whose provider lacks a valid quote is flagged so
  the client can `deny` it at the contract.

The signature is the repository's Ed25519 scheme, so forged or replayed
quotes fail exactly like forged transactions do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ProtocolError
from repro.cryptosim import hashing, schnorr

SGX_RESOURCE = "sgx"


@dataclass(frozen=True)
class Quote:
    """A signed attestation: this provider runs this enclave code."""

    provider_id: str
    enclave_measurement: str
    issued_at: float
    signature: bytes

    def signing_payload(self) -> bytes:
        return hashing.hash_concat(
            self.provider_id.encode("utf-8"),
            self.enclave_measurement.encode("utf-8"),
            repr(self.issued_at).encode("ascii"),
        )


@dataclass
class AttestationService:
    """The vendor's signing root (e.g., Intel's attestation service)."""

    keypair: schnorr.KeyPair = field(default=None)  # type: ignore[assignment]
    max_quote_age: float = 24.0

    def __post_init__(self) -> None:
        if self.keypair is None:
            self.keypair = schnorr.KeyPair.generate(seed=b"attestation-root")

    @property
    def public_key(self) -> bytes:
        return self.keypair.public

    def issue_quote(
        self, provider_id: str, enclave_measurement: str, now: float
    ) -> Quote:
        """Sign a quote (the provider passed local attestation)."""
        unsigned = Quote(
            provider_id=provider_id,
            enclave_measurement=enclave_measurement,
            issued_at=now,
            signature=b"",
        )
        signature = schnorr.sign(self.keypair.secret, unsigned.signing_payload())
        return Quote(
            provider_id=provider_id,
            enclave_measurement=enclave_measurement,
            issued_at=now,
            signature=signature,
        )

    def verify_quote(
        self,
        quote: Quote,
        expected_measurement: Optional[str] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Check signature, measurement, and freshness."""
        if not schnorr.verify(
            self.public_key, quote.signing_payload(), quote.signature
        ):
            return False
        if (
            expected_measurement is not None
            and quote.enclave_measurement != expected_measurement
        ):
            return False
        if now is not None and now - quote.issued_at > self.max_quote_age:
            return False
        return True


@dataclass
class AttestationRegistry:
    """Quotes presented by providers, keyed by provider id."""

    service: AttestationService
    quotes: Dict[str, Quote] = field(default_factory=dict)

    def present(self, quote: Quote) -> None:
        """A provider publishes its quote (e.g., alongside its offer)."""
        if not self.service.verify_quote(quote):
            raise ProtocolError(
                f"invalid attestation quote from {quote.provider_id}"
            )
        self.quotes[quote.provider_id] = quote

    def is_attested(
        self,
        provider_id: str,
        expected_measurement: Optional[str] = None,
        now: Optional[float] = None,
    ) -> bool:
        quote = self.quotes.get(provider_id)
        if quote is None:
            return False
        return self.service.verify_quote(
            quote, expected_measurement=expected_measurement, now=now
        )


def enforce_attestation(
    matches: Sequence,
    registry: AttestationRegistry,
    expected_measurement: Optional[str] = None,
    now: Optional[float] = None,
) -> List:
    """Matches whose SGX demand is *not* backed by a valid quote.

    The client should `deny` these at the contract; everything else may
    proceed to agreement.  Matches without an SGX demand pass through.
    """
    violations = []
    for match in matches:
        if match.request.resources.get(SGX_RESOURCE, 0.0) <= 0:
            continue
        if not registry.is_attested(
            match.offer.provider_id,
            expected_measurement=expected_measurement,
            now=now,
        ):
            violations.append(match)
    return violations
