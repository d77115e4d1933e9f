"""Safety certificates: sound, deterministic, and actually enforced.

Three properties guard the candidate stage:

1. **Soundness** — for every Hypothesis market and every generator, each
   per-request certificate verifies against the *scalar* reference
   kernel: pruned-as-infeasible offers really are infeasible, score
   bounds dominate the exact scores of every pruned offer, and each
   bound sits strictly below the request's breadth-th best admitted
   feasible score under the §IV-D tie rule.
2. **Determinism** — two independently constructed generators produce
   byte-identical certificate payloads for the same market (the
   certificates are part of what a verifying miner would recompute).
3. **Non-vacuity** — deliberately broken generators (over-pruning a
   feasible group as "infeasible", claiming a lying score bound, or
   recording a doctored threshold) are rejected by the checker.  A
   checker that cannot fail proves nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CertificateError
from repro.core.candidates import (
    PRUNED_RESOURCE,
    PRUNED_SCORE,
    AllPairsGenerator,
    GeoBucketGenerator,
    NetworkZoneGenerator,
    ResourceVectorGenerator,
    check_certificate,
)
from repro.core.matching import best_offer_set, block_maxima, quality_of_match
from repro.market.feasibility import is_feasible

from tests.conftest import make_offer, make_request
from tests.differential.test_engine_equivalence import markets


def _generators():
    return [
        AllPairsGenerator(),
        ResourceVectorGenerator(group_size=2),
        ResourceVectorGenerator(),
        GeoBucketGenerator({}, cell_deg=45.0),
        NetworkZoneGenerator(),
    ]


@settings(max_examples=60, deadline=None)
@given(markets(max_requests=8, max_offers=10), st.integers(1, 4))
def test_certificates_hold_on_every_market(market, breadth):
    requests, offers = market
    maxima = block_maxima(requests, offers)
    for generator in _generators():
        result = generator.generate(requests, offers, maxima, breadth)
        checks = 0
        for i, request in enumerate(requests):
            checks += check_certificate(
                request, offers, maxima, result.certificates[i], result.groups
            )
        assert checks >= len(requests) * 1  # the checker did real work
        # And the admitted sets really do reproduce the exact best sets.
        assert result.best_sets == [
            best_offer_set(request, offers, maxima, breadth)
            for request in requests
        ]


@settings(max_examples=25, deadline=None)
@given(markets(max_requests=6, max_offers=8))
def test_certificates_deterministic(market):
    requests, offers = market
    maxima = block_maxima(requests, offers)
    payloads = []
    for _ in range(2):
        generator = ResourceVectorGenerator(group_size=3)
        result = generator.generate(requests, offers, maxima, 3)
        payloads.append(
            [c.to_payload(result.groups) for c in result.certificates]
        )
    assert payloads[0] == payloads[1]


def _simple_market():
    """Four offers with strictly decreasing quality for one request."""
    request = make_request(
        request_id="r0", resources={"cpu": 8.0, "ram": 16.0}
    )
    offers = [
        make_offer(
            offer_id=f"o{j}",
            submit_time=float(j),
            resources={"cpu": 8.0 + 2.0 * j, "ram": 16.0 + 4.0 * j},
        )
        for j in range(4)
    ]
    maxima = block_maxima([request], offers)
    scores = [quality_of_match(request, o, maxima) for o in offers]
    assert len(set(scores)) == 4  # strictly distinct qualities
    assert all(is_feasible(request, o) for o in offers)
    return request, offers, maxima


class OverPruningGenerator(ResourceVectorGenerator):
    """Adversary 1: silently drops an admitted group into the pruned set.

    Caught by the threshold recomputation — with a top group missing, the
    breadth-th best feasible admitted score no longer matches the record.
    """

    def generate(self, requests, offers, maxima, breadth):
        result = super().generate(requests, offers, maxima, breadth)
        for certificate in result.certificates:
            if len(certificate.admitted_groups):
                victim = certificate.admitted_groups[-1:]
                certificate.admitted_groups = certificate.admitted_groups[:-1]
                certificate.pruned_groups = np.concatenate(
                    [certificate.pruned_groups, victim]
                )
                certificate.reasons = np.concatenate(
                    [certificate.reasons, [PRUNED_RESOURCE]]
                ).astype(np.int8)
                certificate.bounds = np.concatenate(
                    [certificate.bounds, [0.0]]
                )
        return result


class FeasibilityLyingGenerator(ResourceVectorGenerator):
    """Adversary 2: relabels score-pruned groups as resource-infeasible.

    The tamper happens inside ``_resolve_chunk`` — before certificates
    are built — so the inline ``verify`` pass sees exactly what a buggy
    screen would have produced.  Caught by the feasibility replay.
    """

    def _resolve_chunk(self, *args, **kwargs):
        reason, ub = super()._resolve_chunk(*args, **kwargs)
        reason[reason == PRUNED_SCORE] = PRUNED_RESOURCE
        return reason, ub


class LyingBoundGenerator(ResourceVectorGenerator):
    """Adversary 3: prunes a below-threshold admitted group with a fake
    low bound.  The threshold stays consistent (the top group survives),
    so only the bound-dominance clause can catch the lie."""

    def generate(self, requests, offers, maxima, breadth):
        result = super().generate(requests, offers, maxima, breadth)
        for certificate in result.certificates:
            if len(certificate.admitted_groups) > breadth:
                victim = certificate.admitted_groups[breadth : breadth + 1]
                certificate.admitted_groups = np.concatenate(
                    [
                        certificate.admitted_groups[:breadth],
                        certificate.admitted_groups[breadth + 1 :],
                    ]
                )
                certificate.pruned_groups = np.concatenate(
                    [certificate.pruned_groups, victim]
                )
                certificate.reasons = np.concatenate(
                    [certificate.reasons, [PRUNED_SCORE]]
                ).astype(np.int8)
                certificate.bounds = np.concatenate(
                    [certificate.bounds, [-1.0]]
                )
        return result


def test_over_pruning_admitted_group_is_caught():
    request, offers, maxima = _simple_market()
    generator = OverPruningGenerator(group_size=2)
    result = generator.generate([request], offers, maxima, 1)
    with pytest.raises(CertificateError, match="threshold"):
        check_certificate(
            request, offers, maxima, result.certificates[0], result.groups
        )


def test_feasibility_lie_is_caught():
    request, offers, maxima = _simple_market()
    generator = FeasibilityLyingGenerator(group_size=2)
    result = generator.generate([request], offers, maxima, 1)
    certificate = result.certificates[0]
    assert (certificate.reasons == PRUNED_RESOURCE).any()
    with pytest.raises(CertificateError, match="but is feasible"):
        check_certificate(
            request, offers, maxima, certificate, result.groups
        )


def test_lying_score_bound_is_caught():
    request, offers, maxima = _simple_market()
    generator = LyingBoundGenerator(group_size=1)
    result = generator.generate([request], offers, maxima, 1)
    certificate = result.certificates[0]
    assert (certificate.reasons == PRUNED_SCORE).sum() >= 1
    with pytest.raises(CertificateError, match="does not dominate"):
        check_certificate(
            request, offers, maxima, certificate, result.groups
        )


def test_doctored_threshold_is_caught():
    request, offers, maxima = _simple_market()
    result = ResourceVectorGenerator(group_size=2).generate(
        [request], offers, maxima, 1
    )
    certificate = result.certificates[0]
    assert certificate.threshold is not None
    score, submit, offer_id = certificate.threshold
    certificate.threshold = (score * 2.0, submit, offer_id)
    with pytest.raises(CertificateError, match="threshold"):
        check_certificate(
            request, offers, maxima, certificate, result.groups
        )


def test_incomplete_coverage_is_caught():
    request, offers, maxima = _simple_market()
    result = ResourceVectorGenerator(group_size=2).generate(
        [request], offers, maxima, 1
    )
    certificate = result.certificates[0]
    certificate.admitted_groups = certificate.admitted_groups[:-1]
    with pytest.raises(CertificateError, match="cover"):
        check_certificate(
            request, offers, maxima, certificate, result.groups
        )


def test_double_assignment_is_caught():
    request, offers, maxima = _simple_market()
    result = ResourceVectorGenerator(group_size=2).generate(
        [request], offers, maxima, 1
    )
    certificate = result.certificates[0]
    certificate.pruned_groups = np.concatenate(
        [certificate.pruned_groups, certificate.admitted_groups[:1]]
    )
    certificate.reasons = np.concatenate(
        [certificate.reasons, [PRUNED_SCORE]]
    ).astype(np.int8)
    certificate.bounds = np.concatenate([certificate.bounds, [0.0]])
    with pytest.raises(CertificateError, match="both admitted and pruned"):
        check_certificate(
            request, offers, maxima, certificate, result.groups
        )


def test_verify_full_runs_checker_inline():
    request, offers, maxima = _simple_market()
    generator = ResourceVectorGenerator(group_size=2, verify="full")
    generator.generate([request], offers, maxima, 1)
    assert generator.last_stats["certificate_checks"] > 0


def test_adversary_caught_by_verify_mode_too():
    request, offers, maxima = _simple_market()
    generator = FeasibilityLyingGenerator(group_size=2, verify="full")
    with pytest.raises(CertificateError, match="but is feasible"):
        # verify="full" replays certificates inside generate() itself —
        # a generator with a broken screen cannot even return a result.
        generator.generate([request], offers, maxima, 1)
