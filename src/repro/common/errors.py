"""Exception hierarchy for the DeCloud reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing
programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations

import builtins


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ReproError):
    """A request, offer, or configuration value failed validation."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, tampered ciphertext...)."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class DecryptionError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered data)."""


class LedgerError(ReproError):
    """Blockchain-level failure (invalid block, broken chain linkage...)."""


class InvalidBlockError(LedgerError):
    """A block failed validation (bad proof-of-work, bad parent hash...)."""


class PrunedHistoryError(LedgerError):
    """A block a pruned chain cannot produce: a height behind its anchor,
    or a hash outside the retained window (unknown, or rolled off — the
    chain keeps nothing that tells the two apart)."""

    def __init__(self, what: str, anchor_height: int, anchor_hash: str):
        super().__init__(
            f"{what}: history below height {anchor_height} "
            f"(parent {anchor_hash[:12]}...) was rolled off"
        )
        self.anchor_height = anchor_height
        self.anchor_hash = anchor_hash


class ProtocolError(ReproError):
    """Two-phase bid exposure protocol violation."""


class TimeoutError(ReproError, builtins.TimeoutError):  # noqa: A001
    """A protocol phase missed its deadline.

    Deliberately shadows the builtin inside this namespace (and subclasses
    it, so ``except TimeoutError`` catches both spellings): liveness
    failures are deadline failures whichever way the caller thinks of them.
    """


class RevealTimeoutError(TimeoutError):
    """No key reveal arrived for any sealed bid within the deadline.

    Raised only when *every* included bid stayed sealed after the retry
    budget was spent — partial withholding degrades gracefully instead
    (the unrevealed bids are excluded and the round clears on the rest).
    """


class QuorumError(TimeoutError):
    """Too few live miners remain to reach a verification majority."""


class ByzantineFaultError(ProtocolError):
    """Detected misbehavior that honest nodes could not route around."""


class EquivocationError(ByzantineFaultError):
    """One miner signed two different bodies for the same preamble."""


class InsecureKeyWarning(UserWarning):
    """A participant fell back to a forgeable id-derived keypair."""


class StoreError(ReproError):
    """Durable-store failure (write-ahead log, snapshot, or backend)."""


class CorruptRecordError(StoreError):
    """A WAL frame failed framing or CRC32 validation.

    Carries the byte ``offset`` of the bad frame and a short ``reason``
    (``"torn header"``, ``"torn payload"``, ``"bad magic"``, ``"crc
    mismatch"``, ``"bad envelope"``).  Recovery treats the first corrupt
    frame as the start of a torn tail and truncates from ``offset``; the
    error is only *raised* when a caller asks for ``strict`` scanning.
    """

    def __init__(self, message: str, offset: int = 0, reason: str = ""):
        super().__init__(message)
        self.offset = offset
        self.reason = reason


class RecoveryError(StoreError):
    """Replaying the log + snapshot could not produce a consistent state.

    Unlike :class:`CorruptRecordError` (damage confined to the log tail,
    handled by truncation), this means the *valid* record sequence is
    itself inconsistent — e.g. a block that no longer validates against
    the recovered chain, or an escrow transition for an escrow the log
    never opened.
    """


class ContractError(ReproError):
    """Smart-contract method invoked in an invalid state or with bad args."""


class AuctionError(ReproError):
    """The auction mechanism was driven with inconsistent inputs."""


class MonitorViolationError(ReproError):
    """A runtime mechanism monitor found a violated invariant (strict mode).

    Carries the :class:`repro.core.audit.Violation` records that
    triggered it in ``violations``.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InfeasibleMatchError(AuctionError):
    """An allocation pairing violates feasibility constraints."""


class CertificateError(AuctionError):
    """A candidate-pruning safety certificate failed verification.

    Raised by :func:`repro.core.candidates.check_certificate` when a
    certificate does not cover every offer, records a wrong pruning
    threshold, or claims a bound that fails to dominate a pruned pair's
    exact score — i.e. the pruning could have changed a best-offer set.
    """
