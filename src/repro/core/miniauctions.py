"""Mini-auction formation (paper Alg. 3, Fig. 4).

Trade reduction sacrifices one participant per auction, so tiny clusters
lose a large welfare share.  DeCloud therefore pools *price-compatible*
clusters into mini-auctions that clear at one common price: clusters ``a``
and ``b`` are compatible when each one's lowest winning valuation exceeds
the other's highest used cost,

    v_hat_{z,a} > c_hat_{z',b}   and   v_hat_{z,b} > c_hat_{z',a}.

Construction follows Alg. 3: the *roots* are a maximum-weight set of
clusters with non-overlapping price ranges (weighted-interval scheduling,
weight favouring narrow ranges — "minimum non-overlapping ranges");
remaining clusters attach under the deepest node of a root's tree whose
whole root-path they are compatible with; each leaf-to-root path becomes
one mini-auction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.cluster_allocation import ClusterAllocation
from repro.core.config import AuctionConfig


@dataclass
class MiniAuction:
    """A set of mutually price-compatible clusters clearing together."""

    allocations: List[ClusterAllocation]

    @property
    def tentative_welfare(self) -> float:
        return sum(a.tentative_welfare for a in self.allocations)

    @property
    def num_tentative_trades(self) -> int:
        return sum(len(a.matches) for a in self.allocations)


@dataclass
class _TreeNode:
    allocation: ClusterAllocation
    children: List["_TreeNode"] = field(default_factory=list)


def allocation_key(allocation: ClusterAllocation) -> tuple:
    """Deterministic identity of a cluster: its sorted offer ids.

    Every ordering decision over cluster allocations breaks float ties
    with this key.  Sorting on a bare float key would leave exact ties
    (duplicated bids produce them routinely) to Python's sort stability —
    i.e. to whatever order the allocations happened to arrive in.
    """
    return tuple(sorted(allocation.cluster.offer_ids))


def auction_key(auction: "MiniAuction") -> tuple:
    """Deterministic identity of a mini-auction: its clusters' keys."""
    return tuple(allocation_key(a) for a in auction.allocations)


def price_compatible(
    a: ClusterAllocation, b: ClusterAllocation, epsilon: float = 1e-12
) -> bool:
    """The paper's pairwise compatibility predicate."""
    if not (a.has_trades and b.has_trades):
        return False
    return a.v_z > b.c_z + epsilon and b.v_z > a.c_z + epsilon


def _interval_weight(allocation: ClusterAllocation) -> float:
    """Root-selection weight: prefer narrow price ranges.

    "Minimum non-overlapping ranges" — a narrow range constrains its tree
    least, so narrow intervals get high weight.  Welfare breaks ties so
    that, between equally narrow clusters, the economically heavier one
    anchors a root.
    """
    low, high = allocation.price_range
    width = max(0.0, high - low)
    return 1.0 / (1.0 + width) + 1e-9 * allocation.tentative_welfare


def select_roots(
    allocations: Sequence[ClusterAllocation],
    *,
    vectorized: bool = False,
) -> List[ClusterAllocation]:
    """Maximum-weight non-overlapping price intervals via classic DP.

    With ``vectorized`` the predecessor table comes from one
    ``np.searchsorted`` over the end-sorted intervals instead of the
    O(n^2) backward scan, and the interval weights are computed as one
    array expression.  Ends are sorted non-decreasing, so the rightmost
    ``j`` with ``ends[j] <= start_i`` is ``searchsorted(ends, start_i,
    "right") - 1`` clamped below ``i`` — including all-tie runs, where
    any ``j < i`` with the same end qualifies exactly as in the scan.
    The weights use the same elementwise operations as
    :func:`_interval_weight`, so both paths are bit-identical.
    """
    intervals = [
        a
        for a in allocations
        if a.has_trades and math.isfinite(a.c_z) and math.isfinite(a.v_z)
    ]
    if not intervals:
        return []
    # Explicit id-lexicographic tie-break: identical price ranges must
    # not fall back to input order via sort stability.
    intervals.sort(
        key=lambda a: (a.price_range[1], a.price_range[0], allocation_key(a))
    )
    n = len(intervals)
    if vectorized:
        import numpy as np

        starts = np.array([a.price_range[0] for a in intervals])
        ends = np.array([a.price_range[1] for a in intervals])
        pred = np.searchsorted(ends, starts, side="right") - 1
        predecessor = np.minimum(pred, np.arange(n) - 1).tolist()
        welfare = np.array([a.tentative_welfare for a in intervals])
        weights = (
            1.0 / (1.0 + np.maximum(0.0, ends - starts)) + 1e-9 * welfare
        ).tolist()
    else:
        # predecessor[i] = rightmost j < i whose interval ends before i
        # starts
        predecessor = []
        for i, alloc in enumerate(intervals):
            start = alloc.price_range[0]
            j = i - 1
            while j >= 0 and intervals[j].price_range[1] > start:
                j -= 1
            predecessor.append(j)
        weights = [_interval_weight(a) for a in intervals]
    best = [0.0] * (n + 1)
    take = [False] * n
    for i in range(1, n + 1):
        weight = weights[i - 1]
        with_i = weight + best[predecessor[i - 1] + 1]
        without_i = best[i - 1]
        take[i - 1] = with_i >= without_i
        best[i] = max(with_i, without_i)
    # Backtrack.
    chosen: List[ClusterAllocation] = []
    i = n - 1
    while i >= 0:
        if take[i] and best[i + 1] != best[i]:
            chosen.append(intervals[i])
            i = predecessor[i]
        else:
            i -= 1
    chosen.reverse()
    return chosen


def _attach(root: _TreeNode, allocation: ClusterAllocation) -> bool:
    """Attach under the deepest node whose whole root-path is compatible."""
    if not price_compatible(allocation, root.allocation):
        return False
    node = root
    while True:
        next_child: Optional[_TreeNode] = None
        for child in node.children:
            if price_compatible(allocation, child.allocation):
                next_child = child
                break
        if next_child is None:
            node.children.append(_TreeNode(allocation))
            return True
        node = next_child


def _paths(root: _TreeNode) -> List[List[ClusterAllocation]]:
    """All root-to-leaf paths (a lone root is its own path)."""
    if not root.children:
        return [[root.allocation]]
    out: List[List[ClusterAllocation]] = []
    for child in root.children:
        for path in _paths(child):
            out.append([root.allocation] + path)
    return out


def build_mini_auctions(
    allocations: Sequence[ClusterAllocation],
    config: AuctionConfig,
) -> List[MiniAuction]:
    """Group cluster allocations into mini-auctions.

    Clusters without any tentative trade cannot anchor or join an auction
    and are dropped here (their requests surface as unmatched).  With
    ``enable_mini_auctions`` off, every trading cluster is a stand-alone
    auction — the ablation configuration.
    """
    trading = [a for a in allocations if a.has_trades]
    if not config.enable_mini_auctions:
        return [MiniAuction(allocations=[a]) for a in trading]

    roots = select_roots(
        trading, vectorized=config.engine == "vectorized" and len(trading) > 1
    )
    root_ids = {id(a) for a in roots}
    trees = [_TreeNode(a) for a in roots]
    remaining = sorted(
        (a for a in trading if id(a) not in root_ids),
        key=lambda a: (-a.tentative_welfare, allocation_key(a)),
    )
    unattached: List[ClusterAllocation] = []
    for allocation in remaining:
        if not any(_attach(tree, allocation) for tree in trees):
            unattached.append(allocation)

    auctions = [
        MiniAuction(allocations=path) for tree in trees for path in _paths(tree)
    ]
    auctions.extend(MiniAuction(allocations=[a]) for a in unattached)
    auctions.sort(
        key=lambda auction: (-auction.tentative_welfare, auction_key(auction))
    )
    return auctions
