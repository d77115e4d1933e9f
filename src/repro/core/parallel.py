"""Old import path of Alg. 1's clear loop.

perfbench/ still times the clear through
``repro.core.parallel.clear_auctions_scheduled``; ROADMAP item 1's
benchmark re-pin points it at
:func:`repro.core.trade_reduction.clear_auctions` and removes this
module.
"""

from repro.core.trade_reduction import clear_auctions as clear_auctions_scheduled

__all__ = ["clear_auctions_scheduled"]
