"""The TEST-FDs algorithm family (Figure 3, Theorems 2-3).

High-level entry point::

    from repro.testfd import check_fds

    check_fds(r, fds, convention="strong")   # Theorem 2
    check_fds(r, fds, convention="weak", ensure_minimal=True)   # Theorem 3

``convention="strong"`` decides *strong* satisfiability on arbitrary
instances.  ``convention="weak"`` decides *weak* satisfiability **provided
the instance is minimally incomplete** (Theorem 3's precondition);
``ensure_minimal=True`` chases with the basic NS-rules first,
``verify_minimal=True`` instead raises when the precondition fails.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from ..core.fd import FDInput, as_fd
from ..core.relation import Relation
from ..core.values import Null, is_null
from ..errors import NotMinimallyIncompleteError
from .batched import check_fds_batched
from .conventions import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    class_function,
    x_equal,
    y_unequal,
)
from .pairwise import CheckAnswer, TestFDsOutcome, Witness, check_fds_pairwise
from .sortmerge import check_fds_sortmerge, check_single_fd_presorted

__all__ = [
    "CONVENTION_STRONG",
    "CONVENTION_WEAK",
    "CheckAnswer",
    "TestFDsOutcome",
    "Witness",
    "check_fds",
    "check_fds_batched",
    "check_fds_pairwise",
    "check_fds_sortmerge",
    "check_single_fd_presorted",
    "class_function",
    "x_equal",
    "y_unequal",
]


def check_fds(
    relation: Relation,
    fds: Iterable[FDInput],
    convention: str = CONVENTION_WEAK,
    method: str = "auto",
    null_classes: Optional[Mapping[Null, Any]] = None,
    ensure_minimal: bool = False,
    verify_minimal: bool = False,
) -> TestFDsOutcome:
    """Run TEST-FDs with the requested convention and method.

    ``method``: ``"sortmerge"`` (Figure 3), ``"pairwise"`` (the footnote's
    O(n²) variant, the oracle), ``"batched"`` (the bucket-sort variant,
    batched over shared left-hand sides: one hash grouping per distinct X
    decides every ``X -> Y_i``), or ``"auto"``.

    ``"auto"`` runs ``batched`` whenever the convention allows grouping —
    always under the weak convention; under the strong convention only
    when every non-trivial LHS is null-free in the instance — and
    ``pairwise`` otherwise.  Every route preserves the documented witness
    contract: a *no* answer carries an honest violating pair under the
    convention's comparisons (the variants may differ in *which* honest
    pair they report; callers that need a specific variant's witness
    should name the method).

    For the weak convention, Theorem 3 requires a minimally incomplete
    instance; ``ensure_minimal=True`` chases first (basic NS-rules; the
    chase's NECs are carried into the comparisons automatically because its
    output shares one ``Null`` object per class).
    """
    fd_list = list(fds)
    if convention == CONVENTION_WEAK and ensure_minimal:
        from ..chase import MODE_BASIC, minimally_incomplete

        result = minimally_incomplete(relation, fd_list, mode=MODE_BASIC)
        relation = result.relation
    elif convention == CONVENTION_WEAK and verify_minimal:
        from ..chase import is_minimally_incomplete

        if not is_minimally_incomplete(relation, fd_list):
            raise NotMinimallyIncompleteError(
                "Theorem 3 requires a minimally incomplete instance; pass "
                "ensure_minimal=True to chase first"
            )

    if method == "sortmerge":
        return check_fds_sortmerge(relation, fd_list, convention, null_classes)
    if method == "pairwise":
        return check_fds_pairwise(relation, fd_list, convention, null_classes)
    if method == "batched":
        return check_fds_batched(relation, fd_list, convention, null_classes)
    if method != "auto":
        raise ValueError(f"unknown TEST-FDs method {method!r}")

    if _grouping_allowed(relation, fd_list, convention):
        return check_fds_batched(relation, fd_list, convention, null_classes)
    return check_fds_pairwise(relation, fd_list, convention, null_classes)


def _grouping_allowed(
    relation: Relation, fds: Iterable[FDInput], convention: str
) -> bool:
    """Can the batched variant group rows by X-key under ``convention``?

    Always under the weak convention.  Under the strong convention a null
    compares equal to everything, so no key grouping realizes it: every
    non-trivial LHS column must be null-free in the instance (matching
    the :class:`~repro.errors.ConventionError` contract of
    :func:`check_fds_batched` rather than racing it).
    """
    if convention != CONVENTION_STRONG:
        return True
    lhs_columns = {
        relation.schema.position(attr)
        for fd in (as_fd(f).normalized() for f in fds)
        if not fd.is_trivial()
        for attr in fd.lhs
    }
    return not any(
        is_null(row.values[c]) for row in relation.rows for c in lhs_columns
    )
