"""Requests and offers — the DeCloud bidding language (paper Eq. 1–2).

A :class:`Request` is a client's sealed order for running one container:

    r := <t_r, [rho_(r,k)], [sigma_(r,k)], t_r^-, t_r^+, d_r, b_r, l_r>

and an :class:`Offer` is a provider's order for one device:

    o := <t_o, [rho_(o,k)], t_o^-, t_o^+, b_o, l_o>

Both are immutable value objects with JSON round-tripping so they can
travel as sealed-bid plaintexts through the ledger.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.errors import ValidationError
from repro.common.timewindow import TimeWindow
from repro.market.resources import validate_vector


def _frozen_mapping(mapping: Mapping[str, float]) -> Mapping[str, float]:
    return MappingProxyType(dict(mapping))


def _validate_bid(bid: float, what: str) -> None:
    if not math.isfinite(bid) or bid < 0:
        raise ValidationError(f"{what} bid must be a non-negative finite number")


# Shape checks for decoded plaintexts: a participant seals whatever JSON
# it likes, so everything a payload carries is checked before use and
# anything malformed raises ValidationError, never another error.
# A decoded plaintext is built of exact dicts, floats and ints, so each
# check tries ``type()`` first and only falls back to the ABC
# ``isinstance`` (an order of magnitude dearer) for anything else; the
# accept/reject set is the ABC check's.
def _fields(payload: Any, kind: str, required: Tuple[str, ...]) -> Mapping[str, Any]:
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise ValidationError(
            f"bid payload must be an object, got {type(payload).__name__}"
        )
    if payload.get("kind") != kind:
        raise ValidationError(f"not a {kind} payload: {payload.get('kind')!r}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValidationError(f"{kind} payload lacks {', '.join(missing)}")
    return payload


def _number(value: Any, what: str) -> Any:
    """``value`` itself if it is a finite real number (not a bool)."""
    kind = type(value)
    if kind is not float and kind is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def _text(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def _location(value: Any) -> Optional[str]:
    return None if value is None else _text(value, "location")


def _window(value: Any) -> TimeWindow:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"window must be a pair of numbers, got {value!r}")
    return TimeWindow(*(_number(bound, "window bound") for bound in value))


def _amounts(value: Any, what: str) -> Dict[str, Any]:
    if type(value) is not dict and not isinstance(value, Mapping):
        raise ValidationError(f"{what} must map names to numbers, got {value!r}")
    return {
        _text(key, f"{what} key"): _number(amount, f"{what} of {key!r}")
        for key, amount in value.items()
    }


@dataclass(frozen=True)
class Request:
    """A client's order for executing a single container.

    Attributes mirror Eq. (1); additionally ``flexibility`` captures the
    evaluation's flexible-matching knob: a resource with significance
    sigma < 1 is satisfied by any offer providing at least
    ``flexibility * rho_(r,k)`` of it, while sigma = 1 resources are hard
    constraints (Const. 8).
    """

    request_id: str
    client_id: str
    submit_time: float
    resources: Mapping[str, float]
    window: TimeWindow
    duration: float
    bid: float
    significance: Mapping[str, float] = field(default_factory=dict)
    location: Optional[str] = None
    flexibility: float = 1.0

    def __post_init__(self) -> None:
        validate_vector(self.resources, f"request {self.request_id}")
        _validate_bid(self.bid, f"request {self.request_id}")
        if not self.window.can_host(self.duration):
            raise ValidationError(
                f"request {self.request_id}: duration {self.duration} does "
                f"not fit window [{self.window.start}, {self.window.end}]"
            )
        if self.duration <= 0:
            raise ValidationError(
                f"request {self.request_id}: duration must be positive"
            )
        if not 0.0 < self.flexibility <= 1.0:
            raise ValidationError(
                f"request {self.request_id}: flexibility must be in (0, 1]"
            )
        significance = dict(self.significance)
        for key in self.resources:
            significance.setdefault(key, 1.0)
        for key, sigma in significance.items():
            if key not in self.resources:
                raise ValidationError(
                    f"request {self.request_id}: significance for undeclared "
                    f"resource {key!r}"
                )
            if not 0.0 < sigma <= 1.0:
                raise ValidationError(
                    f"request {self.request_id}: significance must be in "
                    f"(0, 1], got {sigma} for {key!r}"
                )
        object.__setattr__(self, "resources", _frozen_mapping(self.resources))
        object.__setattr__(self, "significance", _frozen_mapping(significance))

    def __reduce__(self):
        # The frozen mappings are MappingProxyType, which pickle rejects;
        # round-trip through the payload instead (pickle and deepcopy).
        return (Request.from_payload, (self.to_payload(),))

    def sigma(self, resource_type: str) -> float:
        """Significance of ``resource_type`` (defaults to 1.0 = strict)."""
        return self.significance.get(resource_type, 1.0)

    def is_strict(self, resource_type: str) -> bool:
        """True when the resource is a hard requirement (sigma == 1)."""
        return self.sigma(resource_type) >= 1.0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable representation (ledger plaintext)."""
        return {
            "kind": "request",
            "request_id": self.request_id,
            "client_id": self.client_id,
            "submit_time": self.submit_time,
            "resources": dict(self.resources),
            "significance": dict(self.significance),
            "window": [self.window.start, self.window.end],
            "duration": self.duration,
            "bid": self.bid,
            "location": self.location,
            "flexibility": self.flexibility,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Request":
        payload = _fields(payload, "request", _REQUEST_KEYS)
        return cls(
            request_id=_text(payload["request_id"], "request_id"),
            client_id=_text(payload["client_id"], "client_id"),
            submit_time=float(_number(payload["submit_time"], "submit_time")),
            resources=_amounts(payload["resources"], "resources"),
            significance=_amounts(
                payload.get("significance", {}), "significance"
            ),
            window=_window(payload["window"]),
            duration=float(_number(payload["duration"], "duration")),
            bid=float(_number(payload["bid"], "bid")),
            location=_location(payload.get("location")),
            flexibility=float(
                _number(payload.get("flexibility", 1.0), "flexibility")
            ),
        )

    def to_json(self) -> bytes:
        return json.dumps(self.to_payload(), sort_keys=True).encode("utf-8")

    def replace_bid(self, bid: float) -> "Request":
        """Copy with a different reported valuation (for deviation tests)."""
        return Request(
            request_id=self.request_id,
            client_id=self.client_id,
            submit_time=self.submit_time,
            resources=dict(self.resources),
            significance=dict(self.significance),
            window=self.window,
            duration=self.duration,
            bid=bid,
            location=self.location,
            flexibility=self.flexibility,
        )

    def strict_view(self) -> "Request":
        """Copy with every resource strictly required (sigma=1, flex=1).

        Used when a quantity must not depend on how flexible the client
        is — e.g., the valuation model prices the *requested* bundle.
        """
        return Request(
            request_id=self.request_id,
            client_id=self.client_id,
            submit_time=self.submit_time,
            resources=dict(self.resources),
            significance={k: 1.0 for k in self.resources},
            window=self.window,
            duration=self.duration,
            bid=self.bid,
            location=self.location,
            flexibility=1.0,
        )


@dataclass(frozen=True)
class Offer:
    """A provider's order for one computational device (Eq. 2)."""

    offer_id: str
    provider_id: str
    submit_time: float
    resources: Mapping[str, float]
    window: TimeWindow
    bid: float
    location: Optional[str] = None

    def __post_init__(self) -> None:
        validate_vector(self.resources, f"offer {self.offer_id}")
        _validate_bid(self.bid, f"offer {self.offer_id}")
        if self.window.span <= 0:
            raise ValidationError(
                f"offer {self.offer_id}: availability window must have "
                "positive span"
            )
        object.__setattr__(self, "resources", _frozen_mapping(self.resources))

    def __reduce__(self):
        # See Request.__reduce__: MappingProxyType is not picklable.
        return (Offer.from_payload, (self.to_payload(),))

    @property
    def span(self) -> float:
        """Availability span ``t_o^+ - t_o^-``."""
        return self.window.span

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "offer",
            "offer_id": self.offer_id,
            "provider_id": self.provider_id,
            "submit_time": self.submit_time,
            "resources": dict(self.resources),
            "window": [self.window.start, self.window.end],
            "bid": self.bid,
            "location": self.location,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Offer":
        payload = _fields(payload, "offer", _OFFER_KEYS)
        return cls(
            offer_id=_text(payload["offer_id"], "offer_id"),
            provider_id=_text(payload["provider_id"], "provider_id"),
            submit_time=float(_number(payload["submit_time"], "submit_time")),
            resources=_amounts(payload["resources"], "resources"),
            window=_window(payload["window"]),
            bid=float(_number(payload["bid"], "bid")),
            location=_location(payload.get("location")),
        )

    def to_json(self) -> bytes:
        return json.dumps(self.to_payload(), sort_keys=True).encode("utf-8")

    def replace_bid(self, bid: float) -> "Offer":
        """Copy with a different reported cost (for deviation tests)."""
        return Offer(
            offer_id=self.offer_id,
            provider_id=self.provider_id,
            submit_time=self.submit_time,
            resources=dict(self.resources),
            window=self.window,
            bid=bid,
            location=self.location,
        )


_REQUEST_KEYS = (
    "request_id", "client_id", "submit_time", "resources", "window",
    "duration", "bid",
)
_OFFER_KEYS = (
    "offer_id", "provider_id", "submit_time", "resources", "window", "bid",
)


def decode_bid_payload(raw: bytes) -> "Request | Offer":
    """Decode a ledger plaintext into a :class:`Request` or :class:`Offer`.

    Any plaintext that is not a well-formed bid raises
    :class:`~repro.common.errors.ValidationError`.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON, digits
        raise ValidationError(f"undecodable bid payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(
            f"bid payload must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == "request":
        return Request.from_payload(payload)
    if kind == "offer":
        return Offer.from_payload(payload)
    raise ValidationError(f"unknown bid kind {kind!r}")
