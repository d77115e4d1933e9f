"""DeCloud's core contribution: the truthful clustered double auction."""

from repro.core.audit import AuditReport, audit_outcome
from repro.core.auction import DecloudAuction
from repro.core.cluster_allocation import (
    ClusterAllocation,
    OfferCapacity,
    allocate_cluster,
)
from repro.core.candidates import (
    AllPairsGenerator,
    CandidateGenerator,
    CandidateResult,
    GeoBucketGenerator,
    NetworkZoneGenerator,
    ResourceVectorGenerator,
    SafetyCertificate,
    check_certificate,
    tie_rank_key,
)
from repro.core.clustering import Cluster, build_clusters, update_clusters
from repro.core.config import AuctionConfig, ShardPlan
from repro.core.sharding import (
    Shard,
    derive_shard_evidence,
    partition_block,
    run_sharded,
    shard_key,
)
from repro.core.matching import (
    best_offer_set,
    block_maxima,
    quality_of_match,
    rank_offers,
)
from repro.core.matching_vectorized import (
    best_offer_sets,
    feasibility_matrix,
    score_matrix,
)
from repro.core.miniauctions import (
    MiniAuction,
    build_mini_auctions,
    price_compatible,
    select_roots,
)
from repro.core.normalization import (
    ClusterEconomics,
    compute_economics,
    payment_for,
)
from repro.core.normalization_vectorized import compute_economics_batch
from repro.core.outcome import (
    AuctionOutcome,
    Match,
    canonical_outcome,
    utility_of_client,
    utility_of_provider,
)
from repro.core.trade_reduction import clear_mini_auction, pooled_price
from repro.core.welfare import (
    pair_welfare,
    resource_fraction,
    satisfaction,
    total_welfare,
)

__all__ = [
    "AuditReport",
    "audit_outcome",
    "DecloudAuction",
    "AuctionConfig",
    "ShardPlan",
    "Shard",
    "shard_key",
    "partition_block",
    "derive_shard_evidence",
    "run_sharded",
    "AuctionOutcome",
    "Match",
    "canonical_outcome",
    "utility_of_client",
    "utility_of_provider",
    "Cluster",
    "build_clusters",
    "update_clusters",
    "CandidateGenerator",
    "CandidateResult",
    "SafetyCertificate",
    "AllPairsGenerator",
    "ResourceVectorGenerator",
    "GeoBucketGenerator",
    "NetworkZoneGenerator",
    "check_certificate",
    "tie_rank_key",
    "ClusterAllocation",
    "OfferCapacity",
    "allocate_cluster",
    "quality_of_match",
    "rank_offers",
    "best_offer_set",
    "block_maxima",
    "best_offer_sets",
    "feasibility_matrix",
    "score_matrix",
    "MiniAuction",
    "build_mini_auctions",
    "price_compatible",
    "select_roots",
    "ClusterEconomics",
    "compute_economics",
    "compute_economics_batch",
    "payment_for",
    "clear_mini_auction",
    "pooled_price",
    "pair_welfare",
    "resource_fraction",
    "total_welfare",
    "satisfaction",
]
