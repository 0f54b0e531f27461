"""Served reads build each relation version's read state once.

The ``query`` verb answers from the relations' maintained fixpoints.
While no mutation moves a relation's session mark, everything a query
derives from that version — the raw instance statistics the plan linter
reads, the decoded fixpoint, the evaluator over it — is built for the
first query and reused by the rest.  Pinned here:

* a query after a write sees the write (the version moved, so the memo
  was dropped);
* N queries at one cut compute instance statistics and decode each
  relation's fixpoint once, not N times;
* readers of one cut share one lease;
* the client keeps null identity per relation: two relations' ``n0``
  are two unknowns, one relation's ``n0`` is one unknown across reads
  and query answers.
"""

from __future__ import annotations

import asyncio

from repro.chase.engine import ChaseState
from repro.query import optimize
from repro.server import ReproServer
from repro.server.protocol import Client


async def _served(tmp_path):
    server = ReproServer(tmp_path / "db", sync="none", create=True)
    await server.start()
    for name, attrs, fds in (("r", "A B C", "A -> B"), ("s", "C D", "C -> D")):
        created = await server.handle(
            {"do": "create", "name": name, "attrs": attrs, "fds": fds}
        )
        assert created["ok"], created
    return server


async def _insert(server, rel, row):
    response = await server.handle({"do": "insert", "rel": rel, "row": row})
    assert response["ok"], response
    return response


async def _query(server, q, **fields):
    response = await server.handle({"do": "query", "q": q, **fields})
    assert response["ok"], response
    return response


def test_query_after_a_write_sees_the_write(tmp_path):
    async def go():
        server = await _served(tmp_path)
        try:
            await _insert(server, "r", ["a", "b", "c"])
            await _insert(server, "s", ["c", "d"])
            first = await _query(server, "r join s")
            assert first["certain"]["rows"] == [["a", "b", "c", "d"]]
            # a null the FD grounds from the row already there
            await _insert(server, "r", ["a", {"n": None}, "c2"])
            second = await _query(server, "r")
            assert second["certain"]["rows"] == [["a", "b", "c"], ["a", "b", "c2"]]
            await server.handle({"do": "delete", "rel": "r", "index": 0})
            third = await _query(server, "r")
            [[a, b, c]] = third["certain"]["rows"]
            assert (a, c) == ("a", "c2") and isinstance(b, dict)
            assert third["as_of"] == 3
        finally:
            await server.stop()

    asyncio.run(go())


def test_queries_at_one_cut_build_its_read_state_once(tmp_path, monkeypatch):
    stats_calls = []
    decodes = []
    original_stats = optimize.relation_stats
    original_result = ChaseState.result

    def counting_stats(relation):
        stats_calls.append(relation.schema.name)
        return original_stats(relation)

    def counting_result(self, strategy):
        decodes.append(self.schema.name)
        return original_result(self, strategy)

    async def go():
        server = await _served(tmp_path)
        try:
            for i in range(4):
                await _insert(server, "r", [f"a{i % 2}", {"n": None}, f"c{i}"])
                await _insert(server, "s", [f"c{i}", f"d{i}"])
            monkeypatch.setattr(optimize, "relation_stats", counting_stats)
            monkeypatch.setattr(ChaseState, "result", counting_result)
            answers = [await _query(server, "r join s") for _ in range(6)]
            assert all(a["certain"] == answers[0]["certain"] for a in answers)
            # raw statistics for the plan linter, fixpoint statistics for
            # the planner: once per relation each, however many queries
            assert sorted(stats_calls) == ["r", "r", "s", "s"]
            assert sorted(decodes) == ["r", "s"]
            # a write to s moves only s's version
            await _insert(server, "s", ["c9", "d9"])
            stats_calls.clear()
            decodes.clear()
            for _ in range(3):
                await _query(server, "r join s")
            assert sorted(stats_calls) == ["r", "s", "s"]
            assert decodes == ["s"]
        finally:
            await server.stop()

    asyncio.run(go())


def test_readers_of_one_cut_share_one_lease(tmp_path):
    async def go():
        server = await _served(tmp_path)
        try:
            await _insert(server, "r", ["a", "b", "c"])
            writer = server._writers["r"]
            lease, seq = writer.lease()
            assert writer.lease() == (lease, seq)
            await _insert(server, "r", ["a2", "b", "c"])
            moved, moved_seq = writer.lease()
            assert moved is not lease and moved_seq == seq + 1
            assert not lease.fresh and moved.fresh
        finally:
            await server.stop()

    asyncio.run(go())


def test_client_keeps_null_identity_per_relation(tmp_path):
    async def go():
        server = await _served(tmp_path)
        host, port = await server.listen()
        client = await Client.connect(host, port)
        try:
            # each relation's first server-minted null is its "n0"
            await _insert(server, "r", ["a", {"n": None}, "c"])
            await _insert(server, "s", ["c", {"n": None}])
            r_rows = await client.read("r", "rows")
            s_rows = await client.read("s", "rows")
            r_null, s_null = r_rows.rows[0][1], s_rows.rows[0][1]
            assert r_null.label == s_null.label == "n0"
            assert r_null is not s_null
            # the same relation's n0 is one object across reads
            again = await client.read("r", "result")
            assert again.rows[0][1] is r_null
            # and across a query answer that holds both n0s: the server
            # qualifies the second one, the client keys it back to s
            joined = await client.query("r join s", mode="kleene")
            [row] = joined.maybe.rows + joined.certain.rows
            assert row[1] is r_null and row[3] is s_null
        finally:
            await client.close()
            await server.stop()

    asyncio.run(go())
