"""Unit tests for the candidate-generation stage (repro.core.candidates)."""

import numpy as np
import pytest

from repro.common.errors import CertificateError, ValidationError
from repro.common.timewindow import TimeWindow
from repro.core.candidates import (
    ADMITTED,
    PRUNED_RESOURCE,
    PRUNED_SCORE,
    PRUNED_WINDOW,
    AllPairsGenerator,
    GeoBucketGenerator,
    NetworkZoneGenerator,
    ResourceVectorGenerator,
    check_certificate,
    tie_rank_key,
)
from repro.core.config import AuctionConfig
from repro.core.matching import best_offer_set, block_maxima, quality_of_match
from repro.core.matching_vectorized import (
    BlockArrays,
    feasibility_matrix,
    score_matrix,
)
from repro.market.location import (
    GeoLocation,
    NetworkLocation,
    grid_cell,
    grid_columns,
)

from tests.conftest import make_offer, make_request


def _market(n_requests=12, n_offers=10):
    requests = [
        make_request(
            request_id=f"r{i:02d}",
            submit_time=float(i),
            resources={"cpu": 1.0 + (i % 5), "ram": 2.0 + (i % 3)},
        )
        for i in range(n_requests)
    ]
    offers = [
        make_offer(
            offer_id=f"o{j:02d}",
            submit_time=float(j),
            resources={"cpu": 2.0 + (j % 7), "ram": 4.0 + (j % 4)},
        )
        for j in range(n_offers)
    ]
    return requests, offers


def _reference_sets(requests, offers, maxima, breadth):
    return [
        best_offer_set(request, offers, maxima, breadth)
        for request in requests
    ]


class TestGeneratorsMatchReference:
    @pytest.mark.parametrize(
        "generator",
        [
            AllPairsGenerator(verify="full"),
            ResourceVectorGenerator(group_size=3, verify="full"),
            ResourceVectorGenerator(verify="full"),
            GeoBucketGenerator({}, cell_deg=30.0, verify="full"),
            NetworkZoneGenerator(verify="full"),
        ],
        ids=["all", "res3", "res-auto", "geo-fallback", "net-fallback"],
    )
    @pytest.mark.parametrize("breadth", [1, 3, 50])
    def test_best_sets_bit_identical(self, generator, breadth):
        requests, offers = _market()
        maxima = block_maxima(requests, offers)
        result = generator.generate(requests, offers, maxima, breadth)
        assert result.best_sets == _reference_sets(
            requests, offers, maxima, breadth
        )

    def test_empty_offers(self):
        requests, _ = _market(n_offers=0)
        result = ResourceVectorGenerator().generate(requests, [], {}, 3)
        assert result.best_sets == [frozenset() for _ in requests]
        assert result.stats["pairs_total"] == 0

    def test_empty_requests(self):
        _, offers = _market(n_requests=0)
        maxima = block_maxima([], offers)
        result = ResourceVectorGenerator().generate([], offers, maxima, 3)
        assert result.best_sets == []

    def test_chunking_invariant(self):
        requests, offers = _market(n_requests=20)
        maxima = block_maxima(requests, offers)
        whole = ResourceVectorGenerator(group_size=3)
        chunked = ResourceVectorGenerator(group_size=3, chunk_size=4)
        a = whole.generate(requests, offers, maxima, 3)
        b = chunked.generate(requests, offers, maxima, 3)
        assert a.best_sets == b.best_sets
        assert [
            c.to_payload(a.groups) for c in a.certificates
        ] == [c.to_payload(b.groups) for c in b.certificates]


class TestScreens:
    def test_window_screen_prunes_group(self):
        # One group full of offers that open too late for the request.
        request = make_request(window=TimeWindow(0.0, 6.0), duration=4.0)
        late = [
            make_offer(
                offer_id=f"late{j}", window=TimeWindow(8.0, 30.0), bid=1.0
            )
            for j in range(4)
        ]
        usable = [
            make_offer(offer_id=f"ok{j}", window=TimeWindow(0.0, 24.0))
            for j in range(4)
        ]
        offers = late + usable
        maxima = block_maxima([request], offers)
        generator = ResourceVectorGenerator(group_size=4, verify="full")
        result = generator.generate([request], offers, maxima, 2)
        assert result.stats["pairs_pruned_window"] >= 4
        assert result.best_sets[0] == best_offer_set(
            request, offers, maxima, 2
        )

    def test_resource_screen_strict_only(self):
        # 'cpu' is strict and undersupplied in one group; 'ram' demand
        # is non-strict and must NOT be screened (offers short on a
        # flexible type can still be feasible under the flexibility
        # discount).
        request = make_request(
            resources={"cpu": 16.0, "ram": 64.0},
            significance={"cpu": 1.0, "ram": 0.5},
            flexibility=0.5,
        )
        weak = [
            make_offer(
                offer_id=f"weak{j}", resources={"cpu": 4.0, "ram": 40.0}
            )
            for j in range(3)
        ]
        strong = [
            make_offer(
                offer_id=f"strong{j}", resources={"cpu": 32.0, "ram": 40.0}
            )
            for j in range(3)
        ]
        offers = weak + strong
        maxima = block_maxima([request], offers)
        generator = ResourceVectorGenerator(group_size=3, verify="full")
        result = generator.generate([request], offers, maxima, 2)
        assert result.stats["pairs_pruned_resource"] == 3
        # ram (non-strict, 40 < 64) did not disqualify the strong group.
        assert result.best_sets[0] == best_offer_set(
            request, offers, maxima, 2
        )
        assert result.best_sets[0] <= {"strong0", "strong1", "strong2"}

    def test_stats_partition_pairs(self):
        requests, offers = _market(n_requests=15, n_offers=12)
        maxima = block_maxima(requests, offers)
        generator = ResourceVectorGenerator(group_size=4)
        result = generator.generate(requests, offers, maxima, 2)
        s = result.stats
        assert (
            s["pairs_admitted"]
            + s["pairs_pruned_score"]
            + s["pairs_pruned_window"]
            + s["pairs_pruned_resource"]
            == s["pairs_total"]
            == len(requests) * len(offers)
        )
        assert generator.last_stats is s


class TestCandidateResult:
    def test_candidate_indices_sorted_and_complete(self):
        requests, offers = _market()
        maxima = block_maxima(requests, offers)
        result = ResourceVectorGenerator(group_size=3).generate(
            requests, offers, maxima, 3
        )
        for i, request in enumerate(requests):
            indices = result.candidate_indices(i)
            assert list(indices) == sorted(indices)
            admitted = [offers[j] for j in indices.tolist()]
            # The admitted subset reproduces the exact best set.
            assert best_offer_set(
                request, admitted, maxima, 3
            ) == best_offer_set(request, offers, maxima, 3)

    def test_certificate_payload_hexes_floats(self):
        requests, offers = _market(n_requests=2, n_offers=4)
        maxima = block_maxima(requests, offers)
        result = AllPairsGenerator().generate(requests, offers, maxima, 2)
        payload = result.certificates[0].to_payload(result.groups)
        if payload["threshold"] is not None:
            assert "0x" in payload["threshold"][0]
        assert payload["request_id"] == requests[0].request_id


class TestValidation:
    def test_bad_verify_mode(self):
        with pytest.raises(ValidationError):
            ResourceVectorGenerator(verify="always")

    def test_bad_chunk_size(self):
        with pytest.raises(ValidationError):
            AllPairsGenerator(chunk_size=0)

    def test_bad_group_size(self):
        with pytest.raises(ValidationError):
            ResourceVectorGenerator(group_size=0)

    def test_bad_zone_depth(self):
        with pytest.raises(ValidationError):
            NetworkZoneGenerator(depth=0)

    def test_bad_cell_deg(self):
        with pytest.raises(ValidationError):
            GeoBucketGenerator({}, cell_deg=0.0)

    def test_config_rejects_non_generator(self):
        with pytest.raises(ValidationError):
            AuctionConfig(candidates=object())

    def test_config_accepts_generator_and_ignores_in_eq(self):
        config = AuctionConfig(candidates=AllPairsGenerator())
        assert config == AuctionConfig()
        assert hash(config) == hash(AuctionConfig())


class TestGeoBuckets:
    def _locations(self):
        return {
            "hel": GeoLocation(60.17, 24.94),
            "ber": GeoLocation(52.52, 13.41),
            "syd": GeoLocation(-33.87, 151.21),
            "fiji-east": GeoLocation(-17.5, 179.5),
            "fiji-west": GeoLocation(-17.5, -179.5),
        }

    def test_located_market_matches_reference(self):
        locations = self._locations()
        tags = list(locations)
        requests = [
            make_request(
                request_id=f"r{i}",
                submit_time=float(i),
                location=tags[i % len(tags)],
            )
            for i in range(8)
        ]
        offers = [
            make_offer(
                offer_id=f"o{j}",
                submit_time=float(j),
                location=tags[j % len(tags)] if j % 3 else None,
            )
            for j in range(9)
        ]
        maxima = block_maxima(requests, offers)
        generator = GeoBucketGenerator(locations, cell_deg=10.0, verify="full")
        result = generator.generate(requests, offers, maxima, 3)
        assert result.best_sets == _reference_sets(requests, offers, maxima, 3)

    def test_antimeridian_neighbours_examined_early(self):
        # A request just east of the seam must reach the bucket just
        # west of it at ring distance 1, not across the whole grid.
        locations = self._locations()
        generator = GeoBucketGenerator(locations, cell_deg=5.0)
        requests = [make_request(location="fiji-east")]
        offers = [
            make_offer(offer_id="west", location="fiji-west"),
            make_offer(offer_id="hel", location="hel"),
        ]
        grouped = generator._group_offers(offers)
        keys = [key for key, _ in grouped]
        ub = np.zeros((1, len(keys)))
        priority = generator._priority_rows(requests, keys, ub)
        west_col = next(
            k for k, (_, idx) in enumerate(grouped) if 0 in idx.tolist()
        )
        hel_col = next(
            k for k, (_, idx) in enumerate(grouped) if 1 in idx.tolist()
        )
        assert priority[0, west_col] == 1.0
        assert priority[0, hel_col] > 10.0


class TestNetworkZones:
    def test_zone_market_matches_reference(self):
        requests = [
            make_request(
                request_id=f"r{i}",
                submit_time=float(i),
                location=("eu/hel/c1", "eu/ber/c2", "us/nyc/c1", "edge")[
                    i % 4
                ],
            )
            for i in range(8)
        ]
        offers = [
            make_offer(
                offer_id=f"o{j}",
                submit_time=float(j),
                location=("eu/hel/c1", "us/nyc/c1", None)[j % 3],
            )
            for j in range(9)
        ]
        maxima = block_maxima(requests, offers)
        for depth in (1, 2):
            generator = NetworkZoneGenerator(depth=depth, verify="full")
            result = generator.generate(requests, offers, maxima, 3)
            assert result.best_sets == _reference_sets(
                requests, offers, maxima, 3
            )

    def test_own_zone_examined_first(self):
        generator = NetworkZoneGenerator(depth=1)
        requests = [make_request(location="eu/hel/c1")]
        offers = [
            make_offer(offer_id="eu", location="eu/ber/c9"),
            make_offer(offer_id="us", location="us/nyc/c1"),
        ]
        grouped = generator._group_offers(offers)
        keys = [key for key, _ in grouped]
        priority = generator._priority_rows(
            requests, keys, np.zeros((1, len(keys)))
        )
        eu_col = keys.index("eu")
        us_col = keys.index("us")
        assert priority[0, eu_col] < priority[0, us_col]


def _geo_rows_per_request(generator, requests, keys, ub):
    """``GeoBucketGenerator._priority_rows`` as the per-request loop it
    replaced — kept here only, as the oracle."""
    n_cols = grid_columns(generator.cell_deg)
    priority = -ub.copy()
    if not [key for key in keys if key is not None]:
        return priority
    cell_rows = np.array([c[0] for c in keys if c is not None])
    cell_cols = np.array([c[1] for c in keys if c is not None])
    located_columns = np.array(
        [k for k, key in enumerate(keys) if key is not None]
    )
    for local, request in enumerate(requests):
        location = generator._resolve(request.location)
        if location is None:
            continue
        row, col = grid_cell(location, generator.cell_deg)
        d_row = np.abs(cell_rows - row)
        d_col = np.abs(cell_cols - col)
        d_col = np.minimum(d_col, n_cols - d_col)
        priority[local, located_columns] = np.maximum(d_row, d_col)
        if len(located_columns) != len(keys):
            fallback = [k for k, key in enumerate(keys) if key is None]
            priority[local, fallback] = -1.0
    return priority


def _zone_rows_per_request(generator, requests, keys, ub):
    """``NetworkZoneGenerator._priority_rows`` as the request x group
    loop it replaced — kept here only, as the oracle."""
    priority = -ub.copy()
    prefix_parts = [
        key.split("/") if key is not None else None for key in keys
    ]
    for local, request in enumerate(requests):
        zone = generator._resolve(request.location)
        if zone is None:
            continue
        mine = zone.split("/")
        for k, parts in enumerate(prefix_parts):
            if parts is None:
                priority[local, k] = -1.0
                continue
            common = 0
            for a, b in zip(mine, parts):
                if a != b:
                    break
                common += 1
            priority[local, k] = float(generator.depth - common)
    return priority


class TestPriorityRowsPerLabel:
    """One examination-order row per distinct zone or cell, broadcast to
    its requests, equals the row computed request by request."""

    @staticmethod
    def _bound(n_requests, n_keys):
        return np.random.default_rng(5).random((n_requests, n_keys))

    @pytest.mark.parametrize("cell_deg", [5.0, 10.0, 45.0])
    @pytest.mark.parametrize("with_fallback", [True, False])
    def test_geo_cells(self, cell_deg, with_fallback):
        locations = {
            "hel": GeoLocation(60.17, 24.94),
            "hel-2": GeoLocation(60.2, 24.9),  # same cell, another tag
            "syd": GeoLocation(-33.87, 151.21),
            "fiji-east": GeoLocation(-17.5, 179.5),
            "fiji-west": GeoLocation(-17.5, -179.5),
            "not-geo": NetworkLocation("eu/hel"),
        }
        generator = GeoBucketGenerator(locations, cell_deg=cell_deg)
        tags = list(locations) + ["unknown", None]
        requests = [
            make_request(request_id=f"r{i}", location=tags[i % len(tags)])
            for i in range(3 * len(tags))
        ]
        offers = [
            make_offer(offer_id=f"o{j}", location=tag)
            for j, tag in enumerate(
                tags if with_fallback else list(locations)[:5]
            )
        ]
        keys = [key for key, _ in generator._group_offers(offers)]
        assert (None in keys) == with_fallback
        ub = self._bound(len(requests), len(keys))
        expected = _geo_rows_per_request(generator, requests, keys, ub)
        np.testing.assert_array_equal(
            generator._priority_rows(requests, keys, ub), expected
        )
        # the seam: east and west of the antimeridian are ring-1 apart
        east = next(i for i, r in enumerate(requests) if r.location == "fiji-east")
        west = grid_cell(locations["fiji-west"], cell_deg)
        assert expected[east, keys.index(west)] <= 1.0

    def test_geo_without_any_located_bucket(self):
        generator = GeoBucketGenerator({"hel": GeoLocation(60.17, 24.94)})
        requests = [make_request(location="hel"), make_request(location=None)]
        ub = self._bound(2, 1)
        np.testing.assert_array_equal(
            generator._priority_rows(requests, [None], ub),
            _geo_rows_per_request(generator, requests, [None], ub),
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("mapped", [False, True])
    def test_network_zones(self, depth, mapped):
        zones = ["eu/hel/c1", "eu/hel/c2", "eu/ber/c1", "us/nyc/c1", "edge"]
        locations = (
            {f"tag{i}": NetworkLocation(z) for i, z in enumerate(zones)}
            | {"geo": GeoLocation(0.0, 0.0)}
            if mapped
            else None
        )
        generator = NetworkZoneGenerator(locations, depth=depth)
        tags = (list(locations) if mapped else zones) + [
            "unknown" if mapped else "/malformed", "", None,
        ]
        requests = [
            make_request(request_id=f"r{i}", location=tags[i % len(tags)])
            for i in range(3 * len(tags))
        ]
        offers = [
            make_offer(offer_id=f"o{j}", location=tag)
            for j, tag in enumerate(tags)
        ]
        keys = [key for key, _ in generator._group_offers(offers)]
        assert None in keys  # the fallback bucket
        ub = self._bound(len(requests), len(keys))
        np.testing.assert_array_equal(
            generator._priority_rows(requests, keys, ub),
            _zone_rows_per_request(generator, requests, keys, ub),
        )

    def test_zone_rows_are_derived_once_per_zone(self, monkeypatch):
        generator = NetworkZoneGenerator()
        resolved = []
        real = generator._resolve
        monkeypatch.setattr(
            generator, "_resolve",
            lambda tag: resolved.append(tag) or real(tag),
        )
        requests = [
            make_request(request_id=f"r{i}", location=("eu/a", "us/b")[i % 2])
            for i in range(40)
        ]
        generator._priority_rows(requests, ["eu", "us", None], np.zeros((40, 3)))
        assert sorted(resolved) == ["eu/a", "us/b"]


class TestBlockArrays:
    def test_subsets_gathered_from_the_block_score_like_the_subset(self):
        # A subset scored from the block's once-built entries must give
        # the floats of walking the subset's own bids again.
        requests = [
            make_request(
                request_id=f"r{i}", submit_time=float(i),
                resources=({"cpu": 1.0 + i, "gpu": 1.0}, {"ram": 2.0 + i})[i % 2],
                significance=({"gpu": 0.5}, {})[i % 2],
            )
            for i in range(7)
        ]
        offers = [
            make_offer(
                offer_id=f"o{j}", submit_time=float(j),
                resources=(
                    {"cpu": 2.0 + j, "ram": 4.0},
                    {"gpu": 2.0, "disk": 9.0},
                    {"ram": 3.0 + j, "cpu": 0.0},
                )[j % 3],
            )
            for j in range(9)
        ]
        maxima = block_maxima(requests, offers)
        block = BlockArrays(requests, offers, maxima)
        for rows, cols in (
            (np.array([0, 2, 4]), np.array([1, 4, 7])),  # no shared type
            (np.array([1, 3]), np.array([0, 2, 8])),
            (np.array([6, 0, 5]), np.arange(9)),
            (np.arange(7), np.array([3])),
        ):
            subset_requests = np.array(requests, dtype=object)[rows].tolist()
            subset_offers = np.array(offers, dtype=object)[cols].tolist()
            scores, feasible = block.score(rows, cols)
            np.testing.assert_array_equal(
                scores, score_matrix(subset_requests, subset_offers, maxima)
            )
            np.testing.assert_array_equal(
                feasible, feasibility_matrix(subset_requests, subset_offers)
            )


class TestBoundaryTies:
    """Only contenders reach the global ranking; score ties at the
    ``breadth``-th place must all stay in for the §IV-D rule to settle."""

    @pytest.mark.parametrize("chunk_size", [1, 2048])
    def test_tie_across_groups_resolved_by_submission_order(self, chunk_size):
        # One clear winner, then three offers tying for second place —
        # spread over both zone groups, with the earliest submission in
        # the group examined *last* — and one offer strictly below.
        spec = [
            ("a-top", "za", 5.0, 8.0),
            ("a-tie", "za", 3.0, 4.0),
            ("b-tie-late", "zb", 2.0, 4.0),
            ("b-tie-early", "zb", 1.0, 4.0),
            ("b-low", "zb", 0.0, 2.0),
        ]
        offers = [
            make_offer(offer_id=oid, location=zone, submit_time=t,
                       resources={"cpu": cpu})
            for oid, zone, t, cpu in spec
        ]
        requests = [
            make_request(request_id=f"r{i}", location="za",
                         resources={"cpu": 2.0})
            for i in range(3)
        ]
        maxima = block_maxima(requests, offers)
        generator = NetworkZoneGenerator(verify="full", chunk_size=chunk_size)
        result = generator.generate(requests, offers, maxima, 2)

        assert len(result.groups) == 2
        assert result.best_sets == _reference_sets(requests, offers, maxima, 2)
        assert result.best_sets[0] == frozenset({"a-top", "b-tie-early"})
        for request, certificate in zip(requests, result.certificates):
            assert len(certificate.admitted_groups) == 2  # ties never pruned
            ranked = sorted(tie_rank_key(request, o, maxima) for o in offers)
            assert ranked[1] == ranked[2][:1] + (1.0, "b-tie-early")  # a tie
            assert certificate.threshold == (-ranked[1][0], 1.0, "b-tie-early")


    @pytest.mark.parametrize("chunk_size", [1, 2048])
    def test_tie_with_the_final_threshold_survives_the_running_filter(
        self, chunk_size, monkeypatch
    ):
        # The request's own zone is scored first: "a-mid" and "a-low"
        # fill the two places and the running threshold is a-low's score.
        # Zone zb then brings a better offer and one that *ties* a-mid,
        # so the final threshold is the a-mid/b-tie score — reached only
        # after a-mid was filtered against the lower running value.  It
        # must still be a contender, and wins the tie on submission time.
        spec = [
            ("a-mid", "za", 1.0, 4.0),
            ("a-low", "za", 0.0, 2.0),
            ("b-top", "zb", 3.0, 8.0),
            ("b-tie", "zb", 2.0, 4.0),
        ]
        offers = [
            make_offer(offer_id=oid, location=zone, submit_time=t,
                       resources={"cpu": cpu})
            for oid, zone, t, cpu in spec
        ]
        requests = [
            make_request(request_id=f"r{i}", location="za",
                         resources={"cpu": 2.0})
            for i in range(3)
        ]
        maxima = block_maxima(requests, offers)
        generator = NetworkZoneGenerator(verify="full", chunk_size=chunk_size)
        ranked = []
        real = generator._rank_admitted

        def spy(requests_, offers_, breadth, rows, cols, scores):
            ranked.extend(
                (int(i), offers_[int(j)].offer_id)
                for part_rows, part_cols in zip(rows, cols)
                for i, j in zip(part_rows, part_cols)
            )
            return real(requests_, offers_, breadth, rows, cols, scores)

        monkeypatch.setattr(generator, "_rank_admitted", spy)
        result = generator.generate(requests, offers, maxima, 2)

        assert result.best_sets == _reference_sets(requests, offers, maxima, 2)
        assert result.best_sets[0] == frozenset({"b-top", "a-mid"})
        score = {o.offer_id: quality_of_match(requests[0], o, maxima) for o in offers}
        assert score["b-top"] > score["a-mid"] == score["b-tie"] > score["a-low"]
        for i, certificate in enumerate(result.certificates):
            assert certificate.threshold == (score["a-mid"], 1.0, "a-mid")
            # the final filter still drops what only the running one kept
            assert sorted(oid for row, oid in ranked if row == i) == [
                "a-mid", "b-tie", "b-top",
            ]
        assert generator.last_stats["certificate_checks"] > 0


class TestTieRankKey:
    def test_matches_reference_order(self):
        requests, offers = _market(n_requests=1, n_offers=6)
        maxima = block_maxima(requests, offers)
        keys = sorted(
            tie_rank_key(requests[0], offer, maxima) for offer in offers
        )
        scores = [-k[0] for k in keys]
        assert scores == sorted(scores, reverse=True)
        assert keys[0][0] == -max(
            quality_of_match(requests[0], o, maxima) for o in offers
        )


class TestCheckerCoverage:
    def test_checker_counts_work(self):
        requests, offers = _market(n_requests=4, n_offers=8)
        maxima = block_maxima(requests, offers)
        generator = ResourceVectorGenerator(group_size=2)
        result = generator.generate(requests, offers, maxima, 2)
        checks = check_certificate(
            requests[0], offers, maxima, result.certificates[0], result.groups
        )
        assert checks >= len(offers)

    def test_reason_codes_are_distinct(self):
        assert len({ADMITTED, PRUNED_SCORE, PRUNED_WINDOW, PRUNED_RESOURCE}) == 4

    def test_checker_rejects_missing_coverage(self):
        requests, offers = _market(n_requests=1, n_offers=4)
        maxima = block_maxima(requests, offers)
        result = AllPairsGenerator().generate(requests, offers, maxima, 2)
        certificate = result.certificates[0]
        with pytest.raises(CertificateError, match="cover"):
            check_certificate(
                requests[0],
                offers + [make_offer(offer_id="extra")],
                maxima,
                certificate,
                result.groups,
            )
