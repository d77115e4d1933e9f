"""Batched per-cluster normalization (the fast path of paper §IV-C).

:func:`compute_economics_batch` computes
:class:`~repro.core.normalization.ClusterEconomics` for *many* clusters
at once.  It reads the participants through the block's CSR
:class:`~repro.core.matching_vectorized.BlockArrays` rows: every
declared ``(type, amount)`` entry of every participant becomes one flat
element keyed by (cluster, type), and the virtual maximum, critical set,
``nu``, ``v_hat`` and ``c_hat`` are segmented reductions over those
elements.  No array has a types-sized axis, so memory and time follow
the entries, not participants x the block's type universe.

Bit-identity contract
---------------------

Every float must equal the scalar
:func:`~repro.core.normalization.compute_economics` bit for bit
(``tests/differential/`` and ``tests/property/`` enforce it):

* l2 norms add a row's squares one at a time in sorted-type order
  (:func:`~repro.core.matching_vectorized.segment_sums`, never
  ``np.sum``), matching ``sum(v[k] ** 2 for k in sorted(keys))``.  A
  common type the participant lacks would add an exact ``+0.0``: it is
  skipped.
* squares use ``np.float_power(x, 2.0)``: CPython's scalar ``x ** 2``
  goes through libm ``pow``, which is *not* correctly rounded and can
  differ from ``x * x`` in the last bit — and NumPy lowers ``arr ** 2``
  to ``arr * arr``.  ``np.float_power`` reproduces the scalar result.
* every division/multiplication keeps the scalar operand order:
  ``l2 / maxima_norm``, ``bid / (nu * span)``, ``bid / (nu * duration)``.
* ``M_CL`` and ``nu_cr`` are maxima from 0.0 (order-free), and the cap
  is ``min(max(nu, 0.0), 1.0)`` exactly as written.

Degenerate clusters keep their PR 2 semantics: a zero-magnitude virtual
maximum prices every offer at ``inf`` and values every request at 0.0
instead of raising; a zero-``nu`` participant is unpriceable on its own.
Validation errors (empty side, no common types) are raised for the first
offending cluster in input order, as a scalar loop would.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import AuctionError
from repro.core.config import AuctionConfig
from repro.core.matching_vectorized import BlockArrays, _Entries, locate, segment_sums
from repro.core.normalization import ClusterEconomics
from repro.market.bids import Offer, Request

ClusterParticipants = Tuple[Sequence[Request], Sequence[Offer]]


class _Side:
    """One side's participants of every cluster, flattened: per
    participant its cluster and CSR row, per declared entry its
    participant, amount and (cluster, type) key."""

    def __init__(
        self, entries: _Entries, rows: List[int], sizes: List[int], k_types: int
    ) -> None:
        self.rows = np.array(rows, dtype=np.intp)
        self.cluster = np.repeat(np.arange(len(sizes)), sizes)
        self.of, pos = entries.gather(self.rows)
        self.type = entries.type[pos]
        self.amount = entries.amount[pos]
        self.key = self.cluster[self.of] * k_types + self.type

    def locate(self, common: np.ndarray) -> None:
        """Each entry's segment of ``common`` (sorted keys), if any."""
        self.seg, self.inside = locate(common, self.key)

    def l2(self) -> np.ndarray:
        """Per participant, ``||rho||_2`` over its cluster's common
        types: squares summed in sorted-type order, as ``l2_norm``."""
        keep = self.inside.nonzero()[0]
        keep = keep[np.argsort(self.type[keep], kind="stable")]
        return np.sqrt(
            segment_sums(
                np.float_power(self.amount[keep], 2.0),
                self.of[keep],
                len(self.rows),
            )
        )


def compute_economics_batch(
    clusters: Sequence[ClusterParticipants],
    config: AuctionConfig,
    block: Optional[BlockArrays] = None,
) -> List[ClusterEconomics]:
    """``compute_economics`` for every ``(requests, offers)`` pair at once.

    ``block`` is the clear's :class:`BlockArrays` (every participant must
    be one of its bids); without one the clusters' own bids are read.
    """
    if not clusters:
        return []
    empty = next(
        (c for c, (rs, os) in enumerate(clusters) if not rs or not os), None
    )
    if empty is not None:
        # A scalar loop reports the first offending cluster; so do we:
        # an earlier cluster without common types raises from here.
        compute_economics_batch(clusters[:empty], config, block)
        raise AuctionError("cluster economics need at least one of each side")
    if block is None:
        block = BlockArrays(
            list({r.request_id: r for rs, _ in clusters for r in rs}.values()),
            list({o.offer_id: o for _, os in clusters for o in os}.values()),
            {},
        )
    n_clusters = len(clusters)
    k_types = len(block.types)
    req_sizes = [len(requests) for requests, _ in clusters]
    req = _Side(
        block.req,
        [block.req_row[r.request_id] for rs, _ in clusters for r in rs],
        req_sizes,
        k_types,
    )
    off = _Side(
        block.off,
        [block.off_row[o.offer_id] for _, os in clusters for o in os],
        [len(offers) for _, offers in clusters],
        k_types,
    )

    # K_CL of every cluster as one sorted run of (cluster, type) keys:
    # ascending type id is sorted-type order within a cluster.
    common = np.intersect1d(req.key, off.key)
    seg_cluster = common // k_types
    if np.bincount(seg_cluster, minlength=n_clusters).min() == 0:
        raise AuctionError("cluster has no common resource types")
    req.locate(common)
    off.locate(common)

    # M_CL: per-type max over the cluster's offers, from 0.0 as the
    # scalar grows it (only positive values end up in its dict; zeros
    # read back via .get(k, 0.0) identically).
    maxima = np.zeros(len(common))
    np.maximum.at(maxima, off.seg[off.inside], off.amount[off.inside])
    maxima_norm = np.sqrt(
        segment_sums(np.float_power(maxima, 2.0), seg_cluster, n_clusters)
    )
    degenerate = maxima_norm <= 0
    safe_norm = np.where(degenerate, 1.0, maxima_norm)

    # Offer side: nu_o = ||rho_o||_2 / ||M_CL||_2, c_hat = c / (nu * span).
    nu_off = off.l2() / safe_norm[off.cluster]
    off_span = (block.off.win_end - block.off.win_start)[off.rows]
    off_ok = (nu_off > 0) & (off_span > 0) & ~degenerate[off.cluster]
    denom = np.where(off_ok, nu_off * off_span, 1.0)
    cost = np.where(off_ok, block.off.bid[off.rows] / denom, math.inf)
    nu_off = np.where(off_ok, nu_off, 0.0)

    # K_CR: configured criticals plus types shared by every request.
    seg_type = common % k_types
    configured = np.zeros(len(common), dtype=bool)
    for k, t in enumerate(block.types):
        if t in config.critical_resources:
            configured |= seg_type == k
    shared = (
        np.bincount(req.seg[req.inside], minlength=len(common))
        == np.array(req_sizes)[seg_cluster]
    )
    critical = (configured | shared) & (maxima > 0)

    # Request side: nu_cr (a max: order-free), nu_r, v_hat.
    ratio = (req.inside & critical[req.seg]).nonzero()[0]
    nu_cr = np.zeros(len(req.rows))
    np.maximum.at(
        nu_cr, req.of[ratio], req.amount[ratio] / maxima[req.seg[ratio]]
    )
    nu_req = np.maximum(nu_cr, req.l2() / safe_norm[req.cluster])
    nu_req = np.minimum(np.maximum(nu_req, 0.0), 1.0)
    req_duration = block.req.duration[req.rows]
    req_ok = (nu_req > 0) & (req_duration > 0) & ~degenerate[req.cluster]
    denom = np.where(req_ok, nu_req * req_duration, 1.0)
    value = np.where(req_ok, block.req.bid[req.rows] / denom, 0.0)
    nu_req = np.where(req_ok, nu_req, 0.0)

    # Slice the flat arrays back into per-cluster ClusterEconomics.
    results: List[ClusterEconomics] = []
    seg_ends = np.searchsorted(seg_cluster, np.arange(n_clusters), "right")
    names = [block.types[k] for k in seg_type.tolist()]
    maxima_list, nu_off_list, cost_list, nu_req_list, value_list = (
        flat.tolist() for flat in (maxima, nu_off, cost, nu_req, value)
    )
    s0 = r0 = o0 = 0
    for (requests, offers), s1 in zip(clusters, seg_ends.tolist()):
        r1, o1 = r0 + len(requests), o0 + len(offers)
        request_ids = [r.request_id for r in requests]
        offer_ids = [o.offer_id for o in offers]
        results.append(
            ClusterEconomics(
                common_types=frozenset(names[s0:s1]),
                virtual_maximum={
                    t: top
                    for t, top in zip(names[s0:s1], maxima_list[s0:s1])
                    if top > 0
                },
                nu_offers=dict(zip(offer_ids, nu_off_list[o0:o1])),
                nu_requests=dict(zip(request_ids, nu_req_list[r0:r1])),
                normalized_costs=dict(zip(offer_ids, cost_list[o0:o1])),
                normalized_values=dict(zip(request_ids, value_list[r0:r1])),
            )
        )
        s0, r0, o0 = s1, r1, o1
    return results
