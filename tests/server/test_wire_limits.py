"""Line limits on the JSON-lines wire, both directions.

asyncio streams cap one ``readline`` at 64 KiB by default.  The client
must read answers far larger than that (a ``result`` of a few thousand
rows); the server must refuse an oversized request with one coded line
and close the connection cleanly, without taking other connections or
the relation's writer down with it.
"""

import asyncio
import json
import logging

from repro.server.app import ReproServer
from repro.server.protocol import Client, encode_line

#: asyncio's default stream limit, which both ends used to inherit
DEFAULT_LIMIT = 64 * 1024


def run(coro):
    return asyncio.run(coro)


async def _serve(tmp_path):
    server = ReproServer(tmp_path / "db", create=True, sync="none")
    await server.start()
    created = await server.handle(
        {"id": 0, "do": "create", "name": "r", "attrs": "K V", "fds": "K -> V"}
    )
    assert created["ok"], created
    host, port = await server.listen()
    return server, host, port


def test_client_reads_a_result_larger_than_64_kib(tmp_path):
    async def go():
        server, host, port = await _serve(tmp_path)
        rows = [[f"key-{i:05d}", f"value-{i:05d}"] for i in range(4000)]
        reset = await server.handle({"id": 1, "do": "reset", "rel": "r", "rows": rows})
        assert reset["ok"], reset
        client = await Client.connect(host, port)
        try:
            response = await client.call("result", rel="r")
            assert len(encode_line(response)) > DEFAULT_LIMIT
            answer = await client.read("r", "result")
            assert len(answer) == 4000
            assert answer.rows[-1] == ("key-03999", "value-03999")
        finally:
            await client.close()
            await server.stop()

    run(go())


def test_oversized_request_is_refused_and_the_server_keeps_serving(
    tmp_path, caplog
):
    async def go():
        server, host, port = await _serve(tmp_path)
        reader, writer = await asyncio.open_connection(
            host, port, limit=1024 * 1024
        )
        oversized = {"id": 2, "do": "ping", "pad": "x" * (DEFAULT_LIMIT + 1)}
        writer.write(
            encode_line({"id": 1, "do": "insert", "rel": "r", "row": ["k", "v"]})
            + encode_line(oversized)
            + encode_line({"id": 3, "do": "ping"})
        )
        await writer.drain()
        responses = []
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            if not line:
                break  # the server closed the connection
            responses.append(json.loads(line))
        writer.close()
        # the request before the long line was answered, then exactly one
        # refusal; nothing behind the long line was read
        assert [r["id"] for r in responses] == [1, None]
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert "exceeds" in responses[1]["error"]

        # a second connection and the relation's writer keep working
        client = await Client.connect(host, port)
        try:
            assert (await client.call("ping"))["ok"]
            ack = await client.call("insert", rel="r", row=["k2", "v2"])
            assert ack["seq"] == 2
            assert len(await client.read("r", "rows")) == 2
        finally:
            await client.close()
            await server.stop()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        run(go())
    assert not [r for r in caplog.records if r.name == "asyncio"]
