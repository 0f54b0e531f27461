"""Index-backed selects and joins are pure visiting-order shortcuts.

An :class:`~repro.query.Evaluator` builds, on first use, an index per
``(relation, attributes)`` over a scan's deduplicated rows: constant key
→ ascending row indices, plus the rows with a null in a key cell.  A
select directly over a scan visits only the bucket and null rows of its
most selective ``attribute = constant`` conjunct; a hash join whose right
side is a bare scan reads that scan's index instead of re-bucketing it.
Every row skipped holds a known constant that refutes the conjunct, so
its condition is Kleene-FALSE and the full loop would have dropped it.

Pinned here against a full-scan reference built from the evaluator's
row-level primitives (every select visits every row, every join every
pair), on hypothesis environments with nulls — shared ones included, also
across relations — in the key columns:

* the conditional rows are identical in values, conditions and order,
  with hash joins on and off, for one and several ``Eq`` conjuncts,
  ``Eq`` under ``OrP``/``NotP`` (no index), constants absent from the
  column, selects over non-scan sources, and joins with and without a
  bare-scan right side;
* the certain/maybe answers in both modes equal the reference's tags;
* a server builds each index once per relation version: N queries at
  one cut build it once, a write to the relation makes the next query
  rebuild it.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation
from repro.core.truth import FALSE, TRUE, UNKNOWN
from repro.core.values import is_null, null
from repro.nullsem.queries import AndP, AttrEq, Eq, In, NotP, OrP
from repro.core.domain import _FRESH_PREFIX
from repro.query import (
    Difference,
    Evaluator,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    analyze,
    collect_stats,
)
from repro.query.conditions import ALWAYS, EqV, all_of, kleene, least_truth
from repro.query.evaluate import CRow, _dedup, _pred_cond
from repro.query.optimize import _is_open_pool
from repro.server import ReproServer

from ..helpers import schema_of
from ..strategies import instances

R_ATTRS = ("A", "B", "C")
#: v0..v2 are the column constants instances() draws; zz never occurs
CONSTANTS = ("v0", "v1", "v2", "zz")


# ---------------------------------------------------------------------------
# the full-scan reference
# ---------------------------------------------------------------------------


def reference(env, node):
    """``(attributes, conditional rows)`` with no access path: every
    select resolves its predicate on every row, every join every pair."""
    if isinstance(node, Scan):
        relation = env[node.name]
        rows = [CRow(tuple(row.values), ALWAYS) for row in relation.rows]
        return relation.schema.attributes, _dedup(rows)
    if isinstance(node, Select):
        attrs, crows = reference(env, node.source)
        positions = {a: i for i, a in enumerate(attrs)}
        out = []
        for crow in crows:
            combined = all_of(
                [crow.cond, _pred_cond(node.pred, positions, crow.values)]
            )
            if kleene(combined) is not FALSE:
                out.append(CRow(crow.values, combined))
        return attrs, out
    if isinstance(node, Project):
        attrs, crows = reference(env, node.source)
        keep = [attrs.index(a) for a in node.attributes]
        return node.attributes, _dedup(
            [CRow(tuple(c.values[i] for i in keep), c.cond) for c in crows]
        )
    if isinstance(node, Rename):
        attrs, crows = reference(env, node.source)
        mapping = dict(node.mapping)
        return tuple(mapping.get(a, a) for a in attrs), crows
    if isinstance(node, Join):
        left_attrs, left_rows = reference(env, node.left)
        right_attrs, right_rows = reference(env, node.right)
        shared = [a for a in left_attrs if a in right_attrs]
        extra = [a for a in right_attrs if a not in left_attrs]
        out = []
        for lrow in left_rows:
            for rrow in right_rows:
                conds = [lrow.cond, rrow.cond]
                values = list(lrow.values)
                for attribute in shared:
                    i = left_attrs.index(attribute)
                    lv, rv = lrow.values[i], rrow.values[right_attrs.index(attribute)]
                    if lv is not rv:
                        conds.append(EqV(lv, rv))
                    if is_null(lv) and not is_null(rv):
                        values[i] = rv
                values.extend(rrow.values[right_attrs.index(a)] for a in extra)
                combined = all_of(conds)
                if kleene(combined) is not FALSE:
                    out.append(CRow(tuple(values), combined))
        return left_attrs + tuple(extra), _dedup(out)
    raise AssertionError(node)


def reference_tags(evaluator, crows, mode):
    certain, maybe = [], []
    for crow in crows:
        if mode == "least":
            truth = least_truth(crow.cond, evaluator.domains)
        else:
            truth = kleene(crow.cond)
        if truth is TRUE:
            certain.append(crow.values)
        elif truth is UNKNOWN:
            maybe.append(crow.values)
    return tuple(certain), tuple(maybe)


# ---------------------------------------------------------------------------
# environments and queries
# ---------------------------------------------------------------------------


@st.composite
def environments(draw):
    """r(A B C) from the shared instance strategy, and s(C D) whose C
    cells mix constants, fresh nulls and nulls taken from r's cells.

    Every null-bearing column declares the domain ``CONSTANTS``, so a
    null shared across columns keeps a non-empty consistent domain."""
    drawn = draw(instances(attributes="A B C", max_rows=8, allow_nothing=False))
    domains = {a: CONSTANTS for a in R_ATTRS}
    r = Relation(
        schema_of("A B C", domains, name="r"), [row.values for row in drawn.rows]
    )
    r_nulls = [v for row in r.rows for v in row.values if is_null(v)]
    tokens = ["v0", "v1", "v2", "fresh"] + (["r-null"] if r_nulls else [])
    s_rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        token = draw(st.sampled_from(tokens))
        if token == "fresh":
            cell = null()
        elif token == "r-null":
            cell = draw(st.sampled_from(r_nulls))
        else:
            cell = token
        s_rows.append([cell, draw(st.sampled_from(CONSTANTS[:3]))])
    s = Relation(schema_of("C D", {"C": CONSTANTS}, name="s"), s_rows)
    return {"r": r, "s": s}


eqs = st.builds(Eq, st.sampled_from(R_ATTRS), st.sampled_from(CONSTANTS))
others = st.one_of(
    st.builds(
        In,
        st.sampled_from(R_ATTRS),
        st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=2).map(tuple),
    ),
    st.builds(AttrEq, st.sampled_from(R_ATTRS), st.sampled_from(R_ATTRS)),
    st.builds(NotP, eqs),
    st.builds(OrP, st.lists(eqs, min_size=2, max_size=2).map(tuple)),
)
preds = st.one_of(
    eqs,
    # several Eq conjuncts, mixed with conjuncts no index answers
    st.lists(st.one_of(eqs, others), min_size=2, max_size=4).map(
        lambda operands: AndP(tuple(operands))
    ),
    others,
)

R, S = Scan("r"), Scan("s")


def queries(pred):
    """Every shape the access paths touch (or must leave alone)."""
    return [
        Select(R, pred),
        # a select over non-scan sources: another select, a join
        Select(Select(R, pred), Eq("B", "v1")),
        Select(Join(R, S), pred),
        Project(Select(R, pred), ("A", "C")),
        # a bare-scan right side reads its index (on C)...
        Join(Select(R, pred), S),
        Join(R, S),
        Join(Rename(Select(R, pred), (("A", "D"),)), S),  # keyed on D C
        # ...a non-scan right side buckets its rows per query
        Join(S, Select(R, pred)),
        Join(R, Project(S, ("C",))),
        Join(S, Rename(Select(R, pred), (("A", "D"),))),
    ]


# ---------------------------------------------------------------------------
# the differential properties
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(env=environments(), pred=preds)
def test_conditional_rows_match_the_full_scan(env, pred):
    evaluators = [Evaluator(env), Evaluator(env, hash_joins=False)]
    for node in queries(pred):
        want = reference(env, node)
        for evaluator in evaluators:
            # a reused evaluator: its indexes were built by earlier nodes
            assert evaluator.symbolic(node) == want, node


@settings(max_examples=100, deadline=None)
@given(env=environments(), pred=preds)
def test_answers_in_both_modes_match_the_full_scan(env, pred):
    evaluator = Evaluator(env, optimize=False)
    for node in queries(pred):
        _, crows = reference(env, node)
        for mode in ("least", "kleene"):
            result = evaluator.run(node, mode=mode)
            assert (result.certain.rows, result.maybe.rows) == reference_tags(
                evaluator, crows, mode
            ), (node, mode)


def test_the_most_selective_conjunct_picks_the_rows():
    x = null()
    rows = [["a", "k1"], ["a", "k2"], ["b", "k1"], ["a", x], ["b", "k3"], ["a", "k4"]]
    env = {"r": Relation(schema_of("A K", name="r"), rows)}
    evaluator = Evaluator(env)
    both = AndP((Eq("A", "a"), Eq("K", "k1")))
    # A = 'a' leaves 4 rows, K = 'k1' leaves 2 plus the null wildcard
    assert [c.values for c in evaluator._select_rows("r", both)] == [
        ("a", "k1"), ("b", "k1"), ("a", x),
    ]
    # an absent constant leaves only the wildcards
    assert [c.values for c in evaluator._select_rows("r", Eq("K", "zz"))] == [
        ("a", x),
    ]
    # no Eq conjunct, or a null constant (it refutes no row): every row
    unindexed = OrP((Eq("A", "a"), Eq("K", "k1")))
    assert len(evaluator._select_rows("r", unindexed)) == len(rows)
    assert len(evaluator._select_rows("r", Eq("K", x))) == len(rows)
    assert evaluator.symbolic(Select(Scan("r"), both)) == reference(
        env, Select(Scan("r"), both)
    )


# ---------------------------------------------------------------------------
# served: one index per relation version
# ---------------------------------------------------------------------------


def test_a_server_builds_each_index_once_per_version(tmp_path, monkeypatch):
    builds = []
    original = Evaluator._index

    def counting(self, name, attributes):
        if (name, attributes) not in self._indexes:
            builds.append((name, attributes))
        return original(self, name, attributes)

    monkeypatch.setattr(Evaluator, "_index", counting)

    async def go():
        server = ReproServer(tmp_path / "db", sync="none", create=True)
        await server.start()
        try:
            for name, attrs in (("r", "A B C"), ("s", "C D")):
                created = await server.handle(
                    {"do": "create", "name": name, "attrs": attrs}
                )
                assert created["ok"], created

            async def do(request):
                response = await server.handle(request)
                assert response["ok"], response
                return response

            for i in range(6):
                await do({"do": "insert", "rel": "r",
                          "row": [f"a{i % 2}", {"n": None}, f"c{i % 3}"]})
                await do({"do": "insert", "rel": "s",
                          "row": [f"c{i % 3}", f"d{i}"]})
            texts = ["r where A = 'a0'", "r join s", "r where A = 'a1'"]
            first = [await do({"do": "query", "q": t}) for t in texts]
            for _ in range(4):
                again = [await do({"do": "query", "q": t}) for t in texts]
                assert [a["certain"] for a in again] == [
                    a["certain"] for a in first
                ]
            assert sorted(builds) == [("r", ("A",)), ("s", ("C",))]
            # a write to s moves only s's version: its index is rebuilt,
            # r's select keeps its evaluator and index
            builds.clear()
            await do({"do": "insert", "rel": "s", "row": ["c0", "d9"]})
            for _ in range(3):
                for text in texts:
                    await do({"do": "query", "q": text})
            assert builds == [("s", ("C",))]
        finally:
            await server.stop()

    asyncio.run(go())


# ---------------------------------------------------------------------------
# the planner's pool openness, decided once per relation version
# ---------------------------------------------------------------------------


@st.composite
def mixed_closure_environments(draw):
    """r(A B C), s(C D) where each column declares a finite domain or
    not (an open surrogate pool), with nulls and the odd constant that
    looks like a fresh symbol."""
    cells = st.sampled_from(["v0", "v1", "-", f"{_FRESH_PREFIX}:x:0"])

    def build(name, attrs):
        names = attrs.split()
        declared = draw(st.sets(st.sampled_from(names)))
        row = st.lists(cells, min_size=len(names), max_size=len(names))
        rows = [
            [null() if cell == "-" else cell for cell in drawn]
            for drawn in draw(st.lists(row, max_size=4))
        ]
        domains = {a: CONSTANTS for a in declared}
        return Relation(schema_of(attrs, domains, name=name), rows)

    return {"r": build("r", "A B C"), "s": build("s", "C D")}


OPENNESS_TREES = (
    R,
    Join(R, S),
    Union(Project(R, ("C",)), Project(S, ("C",))),
    Difference(Project(R, ("C",)), Project(S, ("C",))),
    Join(Rename(S, (("D", "A"),)), R),
    Select(Union(Project(R, ("C",)), Rename(Project(S, ("D",)), (("D", "C"),))),
           Eq("C", "v0")),
)


@settings(max_examples=100, deadline=None)
@given(env=mixed_closure_environments())
def test_open_pool_flags_match_a_rescan_of_every_pool(env):
    catalog = {name: relation.schema for name, relation in env.items()}
    stats = collect_stats(env)

    def walk(info):
        for attribute in info.facts.attrs:
            pool = info.facts.pools.get(attribute)
            if pool:
                assert (attribute in info.facts.open_pools) == _is_open_pool(
                    pool
                ), (info.label, attribute, pool)
        for child in info.children:
            walk(child)

    for tree in OPENNESS_TREES:
        walk(analyze(tree, catalog, stats=stats))
