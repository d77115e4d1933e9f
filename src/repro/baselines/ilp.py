"""Exact welfare maximization as a MILP (the paper's Eq. 4-14 at scale).

The branch-and-bound solver in :mod:`repro.baselines.optimal` is exact
but exponential; this module states the same block welfare program as a
mixed-integer linear program and hands it to ``scipy.optimize.milp``
(HiGHS), which solves markets of hundreds of requests in well under a
second:

    max  Σ_{r,o} w_{r,o} · x_{r,o}            (Eq. 4, w = v_r − φ·c_o)
    s.t. Σ_o x_{r,o} ≤ 1            ∀r        (Const. 5)
         Σ_r s_{r,o,k} · x_{r,o} ≤ ρ_{o,k}  ∀o,k   (Const. 7)
         x ∈ {0,1}                            (Const. 14)

with feasibility (8, 10, 11) and value-covers-cost (9) folded into the
candidate-pair generation, exactly as the paper's program states them.
This gives the evaluation a true optimum to measure "near-optimal"
against (the abstract's headline claim).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import AuctionError
from repro.core.welfare import pair_welfare, resource_fraction
from repro.market.bids import Offer, Request
from repro.market.feasibility import is_feasible


def _candidate_pairs(
    requests: Sequence[Request], offers: Sequence[Offer]
) -> List[Tuple[int, int, float]]:
    """(request index, offer index, welfare) for admissible pairs."""
    pairs: List[Tuple[int, int, float]] = []
    for i, request in enumerate(requests):
        for j, offer in enumerate(offers):
            if not is_feasible(request, offer):
                continue
            if request.bid < resource_fraction(request, offer) * offer.bid:
                continue  # Const. (9)
            welfare = pair_welfare(request, offer)
            if welfare > 0:
                pairs.append((i, j, welfare))
    return pairs


def optimal_allocation_ilp(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    time_limit: float = 30.0,
    mip_rel_gap: float = 0.005,
) -> Tuple[float, List[Tuple[Request, Offer]]]:
    """Solve the block welfare program; returns (welfare, matches).

    HiGHS proves optimality to within ``mip_rel_gap`` (0.5% default).
    If the time limit hits first but an incumbent exists, the incumbent
    is returned (a lower bound on the optimum — still a valid yardstick,
    since comparisons against it only *understate* the optimality gap of
    the heuristics).  Raises :class:`AuctionError` only when no feasible
    solution was found at all.
    """
    # imported here: ``repro.sim`` imports this package on behalf of
    # node processes that never solve the ILP and should not load scipy
    from scipy.optimize import Bounds, LinearConstraint, milp

    pairs = _candidate_pairs(requests, offers)
    if not pairs:
        return 0.0, []

    n_vars = len(pairs)
    objective = -np.array([w for _, _, w in pairs])  # milp minimizes

    rows: List[np.ndarray] = []
    uppers: List[float] = []

    # Const. (5): each request at most once.
    by_request: Dict[int, List[int]] = {}
    for var, (i, _, _) in enumerate(pairs):
        by_request.setdefault(i, []).append(var)
    for var_indices in by_request.values():
        row = np.zeros(n_vars)
        row[var_indices] = 1.0
        rows.append(row)
        uppers.append(1.0)

    # Const. (7): per offer and resource type, time-weighted load fits.
    by_offer: Dict[int, List[int]] = {}
    for var, (_, j, _) in enumerate(pairs):
        by_offer.setdefault(j, []).append(var)
    for j, var_indices in by_offer.items():
        offer = offers[j]
        for key, capacity in offer.resources.items():
            row = np.zeros(n_vars)
            relevant = False
            for var in var_indices:
                request = requests[pairs[var][0]]
                if key not in request.resources:
                    continue
                share = (request.duration / offer.span) * min(
                    request.resources[key], offer.resources[key]
                )
                if share > 0:
                    row[var] = share
                    relevant = True
            if relevant:
                rows.append(row)
                uppers.append(capacity)

    constraints = LinearConstraint(
        np.vstack(rows), lb=-np.inf, ub=np.array(uppers)
    )
    result = milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={
            "time_limit": time_limit,
            "mip_rel_gap": mip_rel_gap,
            "disp": False,
        },
    )
    if result.x is None:
        raise AuctionError(f"MILP solver failed: {result.message}")

    matches: List[Tuple[Request, Offer]] = []
    welfare = 0.0
    for var, value in enumerate(result.x):
        if value > 0.5:
            i, j, w = pairs[var]
            matches.append((requests[i], offers[j]))
            welfare += w
    return welfare, matches


def optimal_welfare_ilp(
    requests: Sequence[Request],
    offers: Sequence[Offer],
    time_limit: float = 30.0,
    mip_rel_gap: float = 0.005,
) -> float:
    """Maximum block welfare via MILP (see solver caveats above)."""
    welfare, _ = optimal_allocation_ilp(
        requests, offers, time_limit=time_limit, mip_rel_gap=mip_rel_gap
    )
    return welfare
