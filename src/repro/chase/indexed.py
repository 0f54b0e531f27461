"""Worklist-driven, index-maintained NS-rule engine (extended mode).

Why this engine exists — the paper's own pass-count analysis (section 6):
the naive fixpoint procedure "applies the NS-rules in several passes",
each pass scanning all ``O(n²)`` row pairs per FD, and "every pass reduces
the number of distinct symbols, hence we have at most n·p passes" — the
``O(|F|·n³·p)`` bound.  The footnote then cites Downey-Sethi-Tarjan:
congruence-style worklist processing brings the same closure down to
``O(|F|·n·log(|F|·n))``.  The separation is entirely about *re-scanning*:
after a merge, the sweep engine rebuilds every FD's X-signature groups from
scratch even though only the rows holding a cell of the absorbed class can
have changed group.

All of the bookkeeping that realizes the footnote's bound — precomputed
projections, the occurrence index, occurrence-weighted union, per-FD
signature buckets, the ``(fd, row)`` worklist — lives in the shared core
(:class:`repro.chase.core.SignatureChaseCore`), which this engine shares
with :class:`~repro.chase.session.ChaseSession`: a signature collision
applies the NS-rule immediately through the same ``_apply_pair`` / tag
semantics as :class:`repro.chase.engine.ChaseState`, recording typed
:class:`~repro.chase.engine.Application` entries as it goes.  This engine
adds only the one-shot drive: seed every ``(fd, row)`` term and drain.

Basic mode is deliberately *not* supported: there the firing order is the
observable (Figure 5), so ``chase(mode="basic")`` keeps the
strategy-parametric sweep engine.  In extended mode Theorem 4 (finite
Church-Rosser) makes every order reach the same fixpoint, which is what
licenses replacing the sweep order with worklist order; the equivalence is
enforced test-side by ``tests/chase/test_indexed.py`` (field-identical
results on randomized instances) and measured by
``benchmarks/bench_e5_chase_scaling.py``.
"""

from __future__ import annotations

from typing import Iterable

from ..core.fd import FDInput
from ..core.relation import Relation
from .core import SignatureChaseCore
from .engine import ChaseResult

STRATEGY_WORKLIST = "worklist"


class IndexedChaseState(SignatureChaseCore):
    """Extended-mode chase driven by a worklist over maintained indexes."""

    def chase_result(self) -> ChaseResult:
        return self.result(STRATEGY_WORKLIST)


def indexed_chase(relation: Relation, fds: Iterable[FDInput]) -> ChaseResult:
    """The unique minimally incomplete instance via the indexed worklist
    engine — field-identical to ``chase(relation, fds, mode="extended",
    engine="sweep")``, at the footnote's worklist cost instead of the
    multi-pass bound."""
    state = IndexedChaseState(relation, fds)
    state.run_worklist()
    return state.chase_result()
