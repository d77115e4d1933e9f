"""The bid decoder's number check keeps the ABC check's accept/reject set.

``repro.market.bids._number`` accepts an exact ``float`` or ``int`` on a
``type()`` check and falls back to ``isinstance(value, numbers.Real)``
for everything else.  The oracle below is the ABC path alone; over JSON
values, NumPy scalars, ``Fraction`` and ``Decimal`` both must accept the
same values (returning the very object) and reject the rest with the
same ``ValidationError``.  A whole plaintext decodes to the same bid, or
the same error, under either check.
"""

from __future__ import annotations

import json
import math
import numbers
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.market import bids
from repro.market.bids import decode_bid_payload
from tests.conftest import make_offer, make_request


def _abc_number(value, what):
    """The check as it was: ABC ``isinstance`` for every value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def _verdict(check, value):
    try:
        return "accepted", check(value, "x")
    except ValidationError as exc:
        return "rejected", str(exc)


class _Level(IntEnum):
    LOW = 1


class _Float(float):
    pass


scalars = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**1024, 0]),
    st.floats(),  # NaN, +-inf, subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
foreign_numbers = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.sampled_from([Fraction(10**400, 3), Fraction(1, 3)]),
    st.decimals(),
    st.sampled_from([Decimal("1.5"), Decimal("NaN"), Decimal("Infinity")]),
    st.sampled_from([_Level.LOW, _Float(1.5), _Float("nan"), True, False]),
)


@settings(max_examples=400, deadline=None)
@given(json_values | foreign_numbers)
def test_number_check_matches_the_abc_path(value):
    fast, oracle = _verdict(bids._number, value), _verdict(_abc_number, value)
    assert fast[0] == oracle[0]
    if fast[0] == "accepted":
        assert fast[1] is value and oracle[1] is value
    else:
        assert fast[1] == oracle[1]


@pytest.mark.parametrize(
    "value",
    [True, False, math.nan, math.inf, -math.inf, 10**400, -(10**400)],
    ids=["true", "false", "nan", "inf", "-inf", "10**400", "-10**400"],
)
def test_edge_values_are_still_rejected(value):
    with pytest.raises(ValidationError):
        bids._number(value, "x")


_FIELDS = ("submit_time", "duration", "bid", "flexibility", "window")


def _decoded(raw):
    try:
        return "bid", decode_bid_payload(raw)
    except ValidationError as exc:
        return "rejected", str(exc)


def _mutations(value):
    """Plaintexts of honest bids with one numeric slot replaced (the
    fixed malformed cases are ``test_market_bids.TestHostilePayloads``)."""
    request = make_request(significance={"cpu": 0.7}, flexibility=0.8)
    offer = make_offer()
    plaintexts = []
    for payload in (request.to_payload(), offer.to_payload()):
        for field in _FIELDS:
            if field not in payload:
                continue
            mutated = dict(payload)
            mutated[field] = (
                [value, payload["window"][1]] if field == "window" else value
            )
            plaintexts.append(mutated)
        resources = dict(payload, resources=dict(payload["resources"], cpu=value))
        plaintexts.append(resources)
    return [json.dumps(p).encode("utf-8") for p in plaintexts]


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_a_plaintext_decodes_the_same_under_either_check(value):
    for raw in _mutations(value):
        fast = _decoded(raw)
        original = bids._number
        bids._number = _abc_number
        try:
            oracle = _decoded(raw)
        finally:
            bids._number = original
        assert fast == oracle


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_any_mutated_plaintext_is_a_bid_or_a_validation_error(value):
    for raw in _mutations(value):
        kind, result = _decoded(raw)
        assert kind == "rejected" or isinstance(result, (bids.Request, bids.Offer))
