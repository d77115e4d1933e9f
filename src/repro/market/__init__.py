"""The DeCloud bidding language: resources, requests, offers, feasibility."""

from repro.market.bids import Offer, Request, decode_bid_payload
from repro.market.location import (
    GeoLocation,
    NetworkLocation,
    attach_latency_resource,
    latency_headroom,
    pairwise_latency_ms,
)
from repro.market.feasibility import (
    feasible_offers,
    is_feasible,
    required_amount,
    resource_feasible,
    temporally_feasible,
)
from repro.market.resources import (
    CRITICAL_RESOURCES,
    ResourceVector,
    common_types,
    elementwise_max,
    l2_norm,
    normalized,
    validate_vector,
)

__all__ = [
    "Offer",
    "Request",
    "decode_bid_payload",
    "GeoLocation",
    "NetworkLocation",
    "attach_latency_resource",
    "latency_headroom",
    "pairwise_latency_ms",
    "is_feasible",
    "feasible_offers",
    "temporally_feasible",
    "resource_feasible",
    "required_amount",
    "CRITICAL_RESOURCES",
    "ResourceVector",
    "common_types",
    "elementwise_max",
    "l2_norm",
    "normalized",
    "validate_vector",
]
