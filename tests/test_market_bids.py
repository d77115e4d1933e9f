"""Unit tests for the bidding language: resources, requests, offers."""

import json

import pytest

from repro.common.errors import ValidationError
from repro.common.timewindow import TimeWindow
from repro.market import resources as res
from repro.market.bids import Offer, Request, decode_bid_payload
from tests.conftest import make_offer, make_request


class TestResourceHelpers:
    def test_validate_rejects_empty(self):
        with pytest.raises(ValidationError):
            res.validate_vector({}, "thing")

    def test_validate_rejects_negative(self):
        with pytest.raises(ValidationError):
            res.validate_vector({"cpu": -1.0}, "thing")

    def test_validate_rejects_nan(self):
        with pytest.raises(ValidationError):
            res.validate_vector({"cpu": float("nan")}, "thing")

    def test_validate_rejects_bad_key(self):
        with pytest.raises(ValidationError):
            res.validate_vector({"": 1.0}, "thing")

    def test_common_types(self):
        assert res.common_types({"a": 1, "b": 2}, {"b": 3, "c": 4}) == {"b"}

    def test_l2_norm(self):
        assert res.l2_norm({"a": 3.0, "b": 4.0}) == pytest.approx(5.0)

    def test_l2_norm_restricted_keys(self):
        assert res.l2_norm({"a": 3.0, "b": 4.0}, keys=["a"]) == pytest.approx(3.0)

    def test_l2_norm_missing_key_is_zero(self):
        assert res.l2_norm({"a": 3.0}, keys=["a", "zz"]) == pytest.approx(3.0)

    def test_elementwise_max(self):
        assert res.elementwise_max([{"a": 1, "b": 5}, {"a": 3}]) == {"a": 3, "b": 5}

    def test_normalized(self):
        out = res.normalized({"a": 2.0, "b": 1.0}, {"a": 4.0, "b": 0.0})
        assert out == {"a": 0.5, "b": 0.0}


class TestRequestValidation:
    def test_valid_request(self):
        request = make_request()
        assert request.sigma("cpu") == 1.0
        assert request.is_strict("cpu")

    def test_negative_bid_rejected(self):
        with pytest.raises(ValidationError):
            make_request(bid=-1.0)

    def test_duration_exceeding_window_rejected(self):
        with pytest.raises(ValidationError):
            make_request(window=TimeWindow(0, 3), duration=5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            make_request(duration=0.0)

    def test_flexibility_bounds(self):
        with pytest.raises(ValidationError):
            make_request(flexibility=0.0)
        with pytest.raises(ValidationError):
            make_request(flexibility=1.5)

    def test_significance_for_unknown_resource_rejected(self):
        with pytest.raises(ValidationError):
            make_request(significance={"gpu": 0.5})

    def test_significance_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            make_request(significance={"cpu": 0.0})
        with pytest.raises(ValidationError):
            make_request(significance={"cpu": 1.2})

    def test_default_significance_is_strict(self):
        request = make_request(significance={"cpu": 0.5})
        assert request.sigma("cpu") == 0.5
        assert request.sigma("ram") == 1.0
        assert not request.is_strict("cpu")

    def test_resources_immutable(self):
        request = make_request()
        with pytest.raises(TypeError):
            request.resources["cpu"] = 99  # type: ignore[index]


class TestOfferValidation:
    def test_valid_offer(self):
        offer = make_offer()
        assert offer.span == 24.0

    def test_zero_span_rejected(self):
        with pytest.raises(ValidationError):
            make_offer(window=TimeWindow(5, 5))

    def test_negative_bid_rejected(self):
        with pytest.raises(ValidationError):
            make_offer(bid=-0.5)

    def test_empty_resources_rejected(self):
        with pytest.raises(ValidationError):
            Offer(
                offer_id="off-empty",
                provider_id="prov",
                submit_time=0.0,
                resources={},
                window=TimeWindow(0, 10),
                bid=1.0,
            )


def _request_with(**fields):
    payload = make_request().to_payload()
    payload.update(fields)
    return payload


# Plaintexts a participant may seal that once crashed the decoder with
# AttributeError, KeyError, TypeError or ValueError.
HOSTILE_PAYLOADS = {
    "list": [],
    "string": "x",
    "null": None,
    "kind-only": {"kind": "request"},
    "window-string": _request_with(window="ab"),
    "window-triple": _request_with(window=[0, 1, 2]),
    "resources-list": _request_with(resources=[1, 2]),
    "bid-string": _request_with(bid="abc"),
}


class TestHostilePayloads:
    @pytest.mark.parametrize(
        "payload", list(HOSTILE_PAYLOADS.values()), ids=list(HOSTILE_PAYLOADS)
    )
    def test_rejected_with_a_typed_error(self, payload):
        with pytest.raises(ValidationError):
            decode_bid_payload(json.dumps(payload).encode("utf-8"))


class TestSerialization:
    def test_request_roundtrip(self):
        request = make_request(significance={"cpu": 0.7}, flexibility=0.8)
        assert Request.from_payload(request.to_payload()) == request

    def test_offer_roundtrip(self):
        offer = make_offer(location="edge-x")
        assert Offer.from_payload(offer.to_payload()) == offer

    def test_decode_bid_payload_request(self):
        request = make_request()
        decoded = decode_bid_payload(request.to_json())
        assert isinstance(decoded, Request)
        assert decoded == request

    def test_decode_bid_payload_offer(self):
        offer = make_offer()
        decoded = decode_bid_payload(offer.to_json())
        assert isinstance(decoded, Offer)
        assert decoded == offer

    def test_decode_garbage_raises(self):
        with pytest.raises(ValidationError):
            decode_bid_payload(b"\xff\xfe not json")

    def test_decode_unknown_kind_raises(self):
        with pytest.raises(ValidationError):
            decode_bid_payload(b'{"kind": "mystery"}')

    def test_wrong_kind_from_payload_raises(self):
        offer = make_offer()
        with pytest.raises(ValidationError):
            Request.from_payload(offer.to_payload())


class TestCopies:
    def test_replace_bid(self):
        request = make_request(bid=2.0)
        assert request.replace_bid(9.0).bid == 9.0
        assert request.bid == 2.0

    def test_offer_replace_bid(self):
        offer = make_offer(bid=1.0)
        assert offer.replace_bid(0.5).bid == 0.5

    def test_strict_view(self):
        request = make_request(
            significance={"cpu": 0.4}, flexibility=0.6
        )
        strict = request.strict_view()
        assert strict.flexibility == 1.0
        assert strict.is_strict("cpu")
        assert strict.resources == request.resources
