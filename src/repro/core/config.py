"""Configuration for the DeCloud double auction."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import FrozenSet, Mapping, Optional

from repro.common.errors import ValidationError
from repro.market.location import grid_columns
from repro.market.resources import CRITICAL_RESOURCES


@dataclass(frozen=True)
class ShardPlan:
    """How a block is partitioned into zone-local auctions.

    Attaching a plan to :class:`AuctionConfig` (``sharding=...``) makes
    :class:`~repro.core.auction.DecloudAuction` bucket the block's bids
    into zone shards, run the *entire* pipeline (match -> cluster ->
    normalize -> assemble -> clear) per shard, one shard after another,
    and then pool every shard's unmatched bids into one cross-zone
    *spillover* auction (see :mod:`repro.core.sharding`).

    Attributes:
        kind: ``"network"`` buckets by hierarchical zone prefix
            (:func:`~repro.market.location.zone_prefix`, the
            :class:`~repro.core.candidates.NetworkZoneGenerator` rule);
            ``"geo"`` buckets by grid cell
            (:func:`~repro.market.location.grid_cell`).  Bids whose
            location does not resolve land in a single *fallback* shard.
        depth: zone-prefix depth for ``kind="network"``.
        cell_deg: grid cell size in degrees for ``kind="geo"``.
        spillover: run the cross-zone spillover round over the pooled
            unmatched bids (default).  Off = unmatched shard bids stay
            unmatched, the pure-partition ablation the sharding sweep
            quantifies.
        locations: optional mapping from bid location *tags* to
            :class:`~repro.market.location.GeoLocation` /
            :class:`~repro.market.location.NetworkLocation` objects
            (required for ``kind="geo"`` tags to resolve; with
            ``kind="network"`` and no map, the tag itself is parsed as
            the zone path).  Excluded from equality/hashing.
    """

    kind: str = "network"
    depth: int = 1
    cell_deg: float = 15.0
    # Accepted only as 0, because perfbench/ still builds
    # ShardPlan(kind="network", shard_workers=0); ROADMAP item 1's
    # benchmark re-pin removes that call and then this init-only name.
    shard_workers: InitVar[int] = 0
    spillover: bool = True
    locations: Optional[Mapping[str, object]] = field(
        default=None, compare=False
    )

    def __post_init__(self, shard_workers: int) -> None:
        if self.kind not in ("network", "geo"):
            raise ValidationError(
                f"kind must be 'network' or 'geo', got {self.kind!r}"
            )
        if self.depth < 1:
            raise ValidationError("depth must be >= 1")
        grid_columns(self.cell_deg)  # validates the cell size
        if shard_workers != 0:
            raise ValidationError(
                "shards clear in process; shard_workers must be 0"
            )


@dataclass(frozen=True)
class AuctionConfig:
    """Tunable knobs of the mechanism.

    Attributes:
        cluster_breadth: how many top-ranked offers form a request's
            "best offers" set ``best_r`` in Alg. 2.  The paper leaves the
            breadth implicit; 3 reproduces the clustered behaviour without
            collapsing every request into one global cluster.
        critical_resources: the base critical set ``K_CR`` of §IV-C
            (grown per cluster by the resource types all requests share).
        enable_trade_reduction: turn off to obtain the paper's
            non-truthful greedy benchmark.
        enable_randomization: evidence-seeded random exclusion applied on
            supply/demand imbalance (§IV-D); also off for the benchmark.
        enable_mini_auctions: group price-compatible clusters into
            mini-auctions (Alg. 3).  Off = each cluster is its own
            auction, the ablation DESIGN.md calls out.
        enforce_price_consistency: keep the in-cluster greedy fill
            uniform-price-supportable — every used offer's normalized
            cost stays at or below the lowest winner's normalized value
            (the invariant the paper's IR proof assumes, §IV-E).  The
            non-truthful benchmark turns this off: it prices each pair
            separately and need not support a common price.
        price_epsilon: tolerance for floating-point price comparisons.
        engine: ``"reference"`` runs the scalar pure-Python pipeline (the
            oracle); ``"vectorized"`` computes the quality-of-match
            matrix and best-offer sets with the NumPy kernel of
            :mod:`repro.core.matching_vectorized`.  The two engines are
            bit-identical by contract — ``tests/differential/`` is the
            enforcement.  That makes ``engine`` an execution hint, and
            the miner's :class:`~repro.protocol.allocator.DecloudAllocator`
            treats it as one: a block of fewer than
            :data:`~repro.protocol.allocator.VECTORIZED_MIN_PAIRS`
            (requests x offers) pairs clears on the reference engine,
            which is faster at that size.
            :class:`~repro.core.auction.DecloudAuction` itself always
            runs the engine named here.
        candidates: optional candidate generator (an object with a
            ``generate(requests, offers, maxima, breadth)``
            method, see :mod:`repro.core.candidates`) placed in front of
            the matcher.  ``None`` (default) runs the exact all-pairs
            path.  Generators certify their pruning, so any generator
            yields outcomes bit-identical to ``None`` on either engine —
            ``tests/differential/test_candidate_equivalence.py`` is the
            enforcement.  Excluded from config equality/hashing
            (generators carry transient state such as ``last_stats``).
        sharding: optional :class:`ShardPlan`.  ``None`` (default)
            clears the block as one global auction.  With a plan, the
            block is partitioned into zone-local shards, each shard runs
            the full pipeline, and unmatched bids meet again in a single
            cross-zone spillover round — see
            :mod:`repro.core.sharding`.  A plan whose partition yields a
            single shard degenerates to the global auction exactly.
    """

    cluster_breadth: int = 3
    enforce_price_consistency: bool = True
    critical_resources: FrozenSet[str] = field(
        default_factory=lambda: CRITICAL_RESOURCES
    )
    enable_trade_reduction: bool = True
    enable_randomization: bool = True
    enable_mini_auctions: bool = True
    price_epsilon: float = 1e-9
    engine: str = "reference"
    candidates: Optional[object] = field(default=None, compare=False)
    sharding: Optional[ShardPlan] = None

    def __post_init__(self) -> None:
        if self.cluster_breadth < 1:
            raise ValidationError("cluster_breadth must be >= 1")
        if self.price_epsilon < 0:
            raise ValidationError("price_epsilon must be >= 0")
        if self.engine not in ("reference", "vectorized"):
            raise ValidationError(
                f"engine must be 'reference' or 'vectorized', got {self.engine!r}"
            )
        if self.candidates is not None and not callable(
            getattr(self.candidates, "generate", None)
        ):
            raise ValidationError(
                "candidates must expose a generate(...) method "
                f"(got {type(self.candidates).__name__})"
            )
        if self.sharding is not None and not isinstance(
            self.sharding, ShardPlan
        ):
            raise ValidationError(
                f"sharding must be a ShardPlan (got "
                f"{type(self.sharding).__name__})"
            )

    @classmethod
    def benchmark(cls, **overrides) -> "AuctionConfig":
        """The paper's non-truthful greedy benchmark configuration."""
        params = {
            "enable_trade_reduction": False,
            "enable_randomization": False,
            "enforce_price_consistency": False,
        }
        params.update(overrides)
        return cls(**params)
