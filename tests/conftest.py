"""Shared test factories.

``make_request`` / ``make_offer`` build valid bids with sensible defaults
so individual tests override only what they exercise.
"""

from __future__ import annotations

from typing import Mapping, Optional

import pytest

from repro.common.timewindow import TimeWindow
from repro.market.bids import Offer, Request


def make_request(
    request_id: str = "req-0",
    client_id: Optional[str] = None,
    submit_time: float = 0.0,
    resources: Optional[Mapping[str, float]] = None,
    significance: Optional[Mapping[str, float]] = None,
    window: Optional[TimeWindow] = None,
    duration: float = 4.0,
    bid: float = 2.0,
    location: Optional[str] = None,
    flexibility: float = 1.0,
) -> Request:
    return Request(
        request_id=request_id,
        client_id=client_id if client_id is not None else f"cli-{request_id}",
        submit_time=submit_time,
        resources=dict(resources or {"cpu": 2, "ram": 4, "disk": 10}),
        significance=dict(significance or {}),
        window=window or TimeWindow(0, 10),
        duration=duration,
        bid=bid,
        location=location,
        flexibility=flexibility,
    )


def make_offer(
    offer_id: str = "off-0",
    provider_id: Optional[str] = None,
    submit_time: float = 0.0,
    resources: Optional[Mapping[str, float]] = None,
    window: Optional[TimeWindow] = None,
    bid: float = 1.0,
    location: Optional[str] = None,
) -> Offer:
    return Offer(
        offer_id=offer_id,
        provider_id=provider_id if provider_id is not None else f"prov-{offer_id}",
        submit_time=submit_time,
        resources=dict(resources or {"cpu": 8, "ram": 32, "disk": 500}),
        window=window or TimeWindow(0, 24),
        bid=bid,
        location=location,
    )


@pytest.fixture
def request_factory():
    return make_request


@pytest.fixture
def offer_factory():
    return make_offer


@pytest.fixture
def schnorr_verify_calls(monkeypatch):
    """Every ``schnorr.verify`` call made while the test runs, as
    ``(public, message, signature)`` — what a ``SignatureCache`` hit
    must never add to."""
    from repro.cryptosim import schnorr

    calls = []
    real = schnorr.verify

    def counting(public, message, signature):
        calls.append((public, message, signature))
        return real(public, message, signature)

    monkeypatch.setattr(schnorr, "verify", counting)
    return calls
