"""One Evaluator, many queries: what it builds once must not change answers.

The server keeps one :class:`Evaluator` per relation version and runs
every query at that version through it, so the evaluator's once-built
state — the null index with each null's consistent domain, the instance
statistics, each scanned relation's deduplicated conditional rows — is
shared by every query.  Pinned here:

* a reused evaluator returns :class:`ResultSet` objects equal to a fresh
  evaluator's, for every query and mode in any order, repeats included;
* construction derives each column's enumeration domain once, not once
  per null cell (an unbounded column's surrogate domain rescans the
  whole column).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import relation as relation_module
from repro.core.values import null
from repro.query import Evaluator, parse_query

from ..helpers import rel
from .test_differential import QUERIES, environments

MODES = ("least", "kleene")


@settings(max_examples=60, deadline=None)
@given(
    env=environments(),
    program=st.lists(
        st.tuples(st.sampled_from(QUERIES), st.sampled_from(MODES)),
        min_size=1,
        max_size=8,
    ),
)
def test_reused_evaluator_matches_a_fresh_one(env, program):
    reused = Evaluator(env)
    for text, mode in program + program:
        node = parse_query(text)
        assert reused.run(node, mode=mode) == Evaluator(env).run(node, mode=mode)


def test_scans_are_not_shared_between_evaluators_of_different_environments():
    first = rel("A B", [["a", "b"]])
    second = rel("A B", [["c", "d"]])
    node = parse_query("r")
    assert Evaluator({"r": first}).run(node).certain.rows == (("a", "b"),)
    assert Evaluator({"r": second}).run(node).certain.rows == (("c", "d"),)


def test_symbolic_rows_of_a_reused_scan_are_a_private_list():
    evaluator = Evaluator({"r": rel("A B", [["a", "b"], ["a", "b"]])})
    _, crows = evaluator.symbolic(parse_query("r"))
    assert len(crows) == 1  # deduplicated
    crows.clear()
    _, again = evaluator.symbolic(parse_query("r"))
    assert len(again) == 1


def test_enumeration_domain_is_built_once_per_column(monkeypatch):
    calls = []
    original = relation_module.effective_domain

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("attribute"))
        return original(*args, **kwargs)

    monkeypatch.setattr(relation_module, "effective_domain", counting)
    # unbounded columns, a null in every other cell
    rows = [
        [null() if (i + j) % 2 else f"c{i}" for j in range(3)] for i in range(200)
    ]
    evaluator = Evaluator({"r": rel("A B C", rows)})
    assert sorted(calls) == ["A", "B", "C"]
    # every null of one column shares its column's domain
    domains = {len(pool) for pool in evaluator.domains.values()}
    assert len(domains) <= 3
