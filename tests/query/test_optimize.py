"""The static planner: optimized evaluation is pinned to unoptimized.

Three layers of assurance:

* a randomized property sweep — for every environment (constants, fresh
  nulls, nulls shared across relations) and every query shape, the
  optimizing evaluator's certain/maybe answer *sets* equal the
  unoptimized evaluator's in both kleene and least modes (rewrites may
  reorder rows; identity-keyed sets are the contract);
* exact-order pinning for the hash join — bucket routing is a pure
  iteration-order refactor of the nested loop, so with rewrites off the
  two must produce field-identical rows *in the same order*;
* unit probes per rewrite — each fires on the plan built to trigger it
  and never changes the answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import is_null, null
from repro.errors import DomainError
from repro.query import (
    Empty,
    Evaluator,
    Join,
    MODE_KLEENE,
    MODE_LEAST,
    QueryError,
    Scan,
    Select,
    analyze,
    collect_stats,
    optimize_tree,
    output_schema,
    parse_query,
    render_plan,
)

from ..helpers import rel, schema_of

DOM = ["a", "b"]
MODES = (MODE_KLEENE, MODE_LEAST)


def keyset(answer):
    """Identity-keyed row set: nulls by object, constants by value."""
    return {
        tuple(
            ("n", id(v)) if is_null(v) else ("c", v) for v in row
        )
        for row in answer.rows
    }


def assert_pinned(node, env, mode):
    """Optimized and unoptimized answers agree as identity-keyed sets."""
    baseline = Evaluator(env, optimize=False, hash_joins=False)
    try:
        expected = baseline.run(node, mode=mode)
    except DomainError:
        return None
    optimized = Evaluator(env)
    actual = optimized.run(node, mode=mode)
    assert keyset(actual.certain) == keyset(expected.certain), mode
    assert keyset(actual.maybe) == keyset(expected.maybe), mode
    return optimized


# ---------------------------------------------------------------------------
# the randomized sweep
# ---------------------------------------------------------------------------

QUERIES = (
    "r",
    "r[A]",
    "r where A = 'a'",
    "r where A != 'a'",
    "r where A = B",
    "r where A = 'a' and A != 'a'",
    "r where A in ('a', 'b')",
    "r join s",
    "r join s [A, C]",
    "r join s where C = 'b'",
    "r join s where A = 'a' [A, C]",
    "r[B] union s[B]",
    "((r where A = 'a') union (r where A = 'b'))[B]",
    "r[B] minus s[B]",
    "r minus (r where A = B)",
    "s rename C -> A [A] minus r[A]",
)


@st.composite
def environments(draw):
    """r(A B), s(B C) over {a, b} with constants, fresh nulls, and
    nulls shared within and across the relations."""
    shared = [null() for _ in range(2)]
    fresh_budget = [2]
    tokens = ["a", "b", "fresh", "s0", "s1"]

    def cell(token):
        if token == "fresh":
            if fresh_budget[0] == 0:
                return "a"
            fresh_budget[0] -= 1
            return null()
        if token.startswith("s"):
            return shared[int(token[1])]
        return token

    def build(attrs):
        n_rows = draw(st.integers(min_value=0, max_value=3))
        rows = [
            [cell(draw(st.sampled_from(tokens))) for _ in range(2)]
            for _ in range(n_rows)
        ]
        return rel(attrs, rows, domains={a: DOM for a in attrs.split()})

    return {"r": build("A B"), "s": build("B C")}


@settings(max_examples=60)
@given(env=environments(), query=st.sampled_from(QUERIES))
def test_optimized_is_pinned_to_unoptimized(env, query):
    node = parse_query(query)
    for mode in MODES:
        assert_pinned(node, env, mode)


# ---------------------------------------------------------------------------
# hash join: exact-order identity with the nested loop
# ---------------------------------------------------------------------------


class TestHashJoinOrder:
    def pin_order(self, env, query):
        node = parse_query(query)
        for mode in MODES:
            nested = Evaluator(env, optimize=False, hash_joins=False).run(
                node, mode=mode
            )
            bucketed = Evaluator(env, optimize=False, hash_joins=True).run(
                node, mode=mode
            )
            for which in ("certain", "maybe"):
                left = getattr(nested, which).rows
                right = getattr(bucketed, which).rows
                assert len(left) == len(right), (mode, which)
                for lrow, rrow in zip(left, right):
                    for lv, rv in zip(lrow, rrow):
                        if is_null(lv) or is_null(rv):
                            assert lv is rv, (mode, which)
                        else:
                            assert lv == rv, (mode, which)

    def test_constants_and_wildcards_interleave_identically(self):
        x, y = null(), null()
        env = {
            "r": rel("A B", [["a", "p"], ["b", x], ["a", "q"]],
                     domains={"B": ["p", "q"]}),
            "s": rel("B C", [["p", "c1"], [y, "c2"], ["q", "c3"],
                             ["p", "c4"]],
                     domains={"B": ["p", "q"]}),
        }
        self.pin_order(env, "r join s")

    def test_shared_null_across_sides_stays_identical(self):
        x = null()
        env = {
            "r": rel("A B", [["a", x]], domains={"B": ["p", "q"]}),
            "s": rel("B C", [[x, "c1"], ["p", "c2"]],
                     domains={"B": ["p", "q"]}),
        }
        self.pin_order(env, "r join s")

    def test_no_shared_attributes_falls_back_to_nested_loop(self):
        env = {
            "r": rel("A B", [["a", "p"], ["b", "q"]]),
            "s": rel("C D", [["c", "d"], ["e", "f"]]),
        }
        self.pin_order(env, "r join s")


# ---------------------------------------------------------------------------
# rewrites: each fires, none changes the answer
# ---------------------------------------------------------------------------


def plan_for(env, query, mode=MODE_LEAST, fds=None):
    evaluator = Evaluator(env, fds=fds)
    return evaluator, evaluator.plan(parse_query(query), mode=mode)


class TestRewrites:
    def env(self):
        x = null()
        return {
            "r": rel("A B", [["a1", "b1"], ["a2", x], ["a3", "b2"]],
                     domains={"B": ["b1", "b2"]}),
            "s": rel("B C", [["b1", "c1"], ["b2", "c2"]],
                     domains={"B": ["b1", "b2"]}),
        }

    def test_select_pushes_through_join(self):
        env = self.env()
        _, plan = plan_for(env, "r join s where C = 'c1'")
        assert "select-pushdown(join)" in plan.rewrites
        # the pushed select now guards the right scan, not the join
        assert isinstance(plan.node, Join)
        assert isinstance(plan.node.right, Select)
        for mode in MODES:
            assert_pinned(parse_query("r join s where C = 'c1'"), env, mode)

    def test_tautology_select_is_eliminated(self):
        env = self.env()
        _, plan = plan_for(env, "r where B in ('b1', 'b2')")
        assert "tautology-elimination" in plan.rewrites
        assert isinstance(plan.node, Scan)
        for mode in MODES:
            assert_pinned(parse_query("r where B in ('b1', 'b2')"), env, mode)

    def test_contradiction_becomes_empty(self):
        env = self.env()
        query = "r where A = 'zz' and A != 'zz'"
        _, plan = plan_for(env, query)
        assert "contradiction-elimination" in plan.rewrites
        assert isinstance(plan.node, Empty)
        for mode in MODES:
            optimized = assert_pinned(parse_query(query), env, mode)
            result = optimized.run(parse_query(query), mode=mode)
            assert result.certain.rows == () or list(result.certain.rows) == []

    def test_dead_union_arm_is_dropped(self):
        env = self.env()
        query = "(r where A = 'zz' and A != 'zz') union r"
        _, plan = plan_for(env, query)
        assert "dead-branch-elimination" in plan.rewrites
        for mode in MODES:
            assert_pinned(parse_query(query), env, mode)

    def test_projection_pushes_through_union(self):
        env = self.env()
        query = "(r union r) [A]"
        _, plan = plan_for(env, query)
        assert "project-pushdown(union)" in plan.rewrites
        for mode in MODES:
            assert_pinned(parse_query(query), env, mode)

    def test_cross_fusion_orders_by_width(self):
        env = {
            "t1": rel("A B", [["a", "b"]] * 3),
            "t2": rel("C D", [["c", "d"]] * 2),
            "t3": rel("E F", [["e", "f"]] * 1),
        }
        query = "t1 join t2 join t3"
        _, plan = plan_for(env, query)
        assert "cross-fusion" in plan.rewrites
        for mode in MODES:
            assert_pinned(parse_query(query), env, mode)

    def test_no_optimize_evaluator_never_rewrites(self):
        env = self.env()
        evaluator = Evaluator(env, optimize=False)
        evaluator.run(parse_query("r where B in ('b1', 'b2')"))
        assert evaluator.last_plan is None


# ---------------------------------------------------------------------------
# the two soundness regressions (open pools, shared sentinels)
# ---------------------------------------------------------------------------


class TestVerdictSoundness:
    def test_empty_relation_without_domains_is_not_unsatisfiable(self):
        """An instance that happens to be empty must not brand selects
        over it statically dead: the pool's fresh symbols are equality
        surrogates, not a closed value set."""
        env = {"r": rel("A B", [])}
        node = parse_query("r where B = 'b1' [A]")
        info = analyze(
            node, {"r": env["r"].schema}, stats=collect_stats(env),
            mode=MODE_LEAST,
        )
        assert not info.facts.empty
        assert not info.children[0].facts.empty

    def test_attribute_equality_is_satisfiable(self):
        """`A = B` needs sentinels shared across attributes — private
        per-attribute sentinels would brand it a contradiction."""
        x = null()
        env = {"r": rel("A B", [[x, x]],
                        domains={"A": DOM, "B": DOM})}
        node = parse_query("r where A = B")
        _, plan = plan_for(env, "r where A = B")
        assert not isinstance(plan.node, Empty)
        for mode in MODES:
            result = Evaluator(env).run(node, mode=mode)
            assert len(result.certain.rows) == 1, mode

    def test_contradiction_against_declared_domain_is_static(self):
        env = {"r": rel("A B", [["a1", "b1"]],
                        domains={"B": ["b1", "b2"]})}
        _, plan = plan_for(env, "r where B = 'b3'")
        assert isinstance(plan.node, Empty)


# ---------------------------------------------------------------------------
# inference: keys, explain, the Empty node
# ---------------------------------------------------------------------------


class TestInference:
    def test_fd_keys_propagate_to_the_plan(self):
        env = {"r": rel("A B", [["a1", "b1"], ["a2", "b1"]])}
        info = analyze(
            parse_query("r"), {"r": env["r"].schema},
            stats=collect_stats(env), fds={"r": ("A -> B",)},
            mode=MODE_LEAST,
        )
        assert ("A",) in info.keys

    def test_explain_renders_strategy_keys_and_rewrites(self):
        x = null()
        env = {
            "r": rel("A B", [["a1", "b1"], ["a2", x]],
                     domains={"B": ["b1", "b2"]}),
            "s": rel("B C", [["b1", "c1"]], domains={"B": ["b1", "b2"]}),
        }
        evaluator = Evaluator(env, fds={"r": ("A -> B",)})
        text = evaluator.explain(
            parse_query("r join s where C = 'c1'"), mode=MODE_LEAST
        )
        assert "Join strategy=bucket(B)" in text
        assert "Select C = 'c1' access=index(C)" in text
        assert "keys=(A)" in text
        assert "rewrites: select-pushdown(join)" in text
        assert "Scan r" in text and "Scan s" in text

    def test_explain_checks_the_schema_first(self):
        env = {"r": rel("A B", [])}
        with pytest.raises(QueryError):
            Evaluator(env).explain(parse_query("r [Z]"))

    def test_empty_node_evaluates_to_nothing(self):
        env = {"r": rel("A B", [["a", "b"]])}
        result = Evaluator(env).run(Empty(("A", "B")))
        assert list(result.certain.rows) == []
        assert list(result.maybe.rows) == []

    def test_empty_node_needs_attributes(self):
        with pytest.raises(QueryError):
            output_schema(Empty(()), {})

    def test_optimize_tree_is_idempotent(self):
        env = self.env = {
            "r": rel("A B", [["a1", "b1"]], domains={"B": ["b1", "b2"]}),
        }
        catalog = {"r": env["r"].schema}
        stats = collect_stats(env)
        plan = optimize_tree(
            parse_query("r where B in ('b1', 'b2') [A]"), catalog,
            stats=stats, mode=MODE_LEAST, least_safe=True,
        )
        again = optimize_tree(
            plan.node, catalog, stats=stats, mode=MODE_LEAST,
            least_safe=True,
        )
        assert again.node == plan.node
        assert not again.rewrites
        assert "rewrites:" in render_plan(plan)
