"""A minimal pipelined JSON-lines client for the benchmark's load generator.

Request lines are encoded before timing starts; :class:`Connection` only
writes bytes and parses responses.  Many requests may be in flight on one
connection; responses carry the request ``id`` and may arrive out of
order, so the loops below match on it.

The line limit is far above the largest response the workloads produce
(a ``query`` answer over all of ``r`` is about 190 KB).  The library
client, ``repro.server.protocol.Client``, keeps asyncio's default 64 KiB
limit and loses its connection on such a response — see ``NOTES.md``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: bytes one response line may hold
LINE_LIMIT = 64 * 1024 * 1024

Clock = Callable[[], float]
#: called as ``(request_id, response, sent_at, answered_at)``
OnResponse = Callable[[int, dict, float, float], None]


class Connection:
    """One TCP connection to the server."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def receive(self) -> dict:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def call(self, line: bytes) -> dict:
        """One request with nothing else in flight (control requests)."""
        self.writer.write(line)
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def closed_loop(
    conn: Connection,
    requests: Iterator[Tuple[int, bytes]],
    depth: int,
    stop_at: float,
    clock: Clock,
    on_response: OnResponse,
) -> int:
    """Keep ``depth`` requests in flight until ``stop_at`` (or the stream
    ends), then wait for the rest.  Returns the number of requests sent."""
    sent_at: Dict[int, float] = {}

    def send_next() -> bool:
        if clock() >= stop_at:
            return False
        item = next(requests, None)
        if item is None:
            return False
        request_id, line = item
        sent_at[request_id] = clock()
        conn.writer.write(line)
        return True

    sent = 0
    for _ in range(depth):
        sent += send_next()
    await conn.writer.drain()
    while sent_at:
        response = await conn.receive()
        answered = clock()
        request_id = response.get("id")
        if request_id not in sent_at:
            raise ConnectionError(f"response for unknown request {request_id!r}")
        on_response(request_id, response, sent_at.pop(request_id), answered)
        if send_next():
            sent += 1
            await conn.writer.drain()
    return sent


async def open_loop(
    conn: Connection,
    requests: List[Tuple[int, bytes]],
    rate: float,
    start: float,
    stop_at: float,
    clock: Clock,
    on_response: OnResponse,
) -> Tuple[int, float]:
    """Send request ``i`` when it is due (``start + i / rate``), whatever
    is still in flight; each response is reported with its *due* time as
    the sent time, so a stall charges every request queued behind it.
    Returns ``(requests sent, worst lateness in seconds)``."""
    due_at: Dict[int, float] = {}
    #: one token per request sent, then ``None``: the receiver reads one
    #: response per token, so it never waits on a line that cannot come
    sent_ids: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
    worst_late = 0.0

    async def sender() -> None:
        nonlocal worst_late
        try:
            for i, (request_id, line) in enumerate(requests):
                due = start + i / rate
                if due >= stop_at:
                    break
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                worst_late = max(worst_late, clock() - due)
                due_at[request_id] = due
                conn.writer.write(line)
                await conn.writer.drain()
                sent_ids.put_nowait(request_id)
        finally:
            sent_ids.put_nowait(None)

    task = asyncio.get_running_loop().create_task(sender())
    sent = 0
    try:
        while await sent_ids.get() is not None:
            sent += 1
            response = await conn.receive()
            answered = clock()
            request_id = response.get("id")
            if request_id not in due_at:
                raise ConnectionError(f"response for unknown request {request_id!r}")
            on_response(request_id, response, due_at.pop(request_id), answered)
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
    return sent, worst_late
