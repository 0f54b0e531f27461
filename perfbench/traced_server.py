"""``repro serve`` with span recorders around the public layer entry points.

Usage (``src`` of the checkout on ``PYTHONPATH``)::

    python3 -u perfbench/traced_server.py SPANS_FILE serve DIR --port 0

:func:`install` wraps each traced entry point at the name its caller
looks it up by, then ``repro.cli.main(["serve", ...])`` runs unchanged.
Spans stay in memory; when the server shuts down (SIGINT: the CLI's
``stop()`` drains the writer first) they are written to ``SPANS_FILE``,
one JSON array per line::

    [span_id, parent_id, name, start_ns, end_ns, request_id, thread, attrs]

``parent_id`` comes from a context variable, so spans on one request's
task nest under its ``app.handle`` root.  A mutation closure runs on the
writer task, so its wrapper links it to the ``writer.submit`` span that
queued it.  Executor threads (``log.append_many``, a detached
``lease.instance``) start with an empty context: they carry no parent and
are linked afterwards by the batch seqs or the lease serial in
``attrs``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

#: (span id, request id) of the innermost open span on this task/thread
_CURRENT: "contextvars.ContextVar[Tuple[Optional[int], Any]]" = (
    contextvars.ContextVar("perfbench_span", default=(None, None))
)


class Recorder:
    """Spans in memory, written out once at shutdown."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        #: id(ReadLease) -> serial; ids of dead leases get reused, serials not
        self.lease_serials: dict = {}
        self._next_lease = itertools.count(1)

    def open(self, request_id: Any = None) -> Tuple[int, Optional[int], Any, Any]:
        parent, inherited = _CURRENT.get()
        span_id = next(self._ids)
        rid = inherited if request_id is None else request_id
        token = _CURRENT.set((span_id, rid))
        return span_id, parent, rid, token

    def close(
        self,
        name: str,
        opened: Tuple[int, Optional[int], Any, Any],
        start: int,
        attrs: Optional[dict] = None,
    ) -> None:
        end = time.perf_counter_ns()
        span_id, parent, rid, token = opened
        _CURRENT.reset(token)
        thread = threading.get_ident() != self._main
        self.spans.append([span_id, parent, name, start, end, rid, thread, attrs])

    def sync(self, name: str, attrs: Optional[Callable[..., dict]] = None):
        """Decorator: one span per call of a plain function."""

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                opened = self.open()
                start = time.perf_counter_ns()
                result: Any = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    extra = attrs(args, result) if attrs is not None else None
                    self.close(name, opened, start, extra)

            return traced

        return wrap

    def number_lease(self, lease: Any) -> int:
        serial = next(self._next_lease)
        self.lease_serials[id(lease)] = serial
        return serial

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":"), default=str))
                handle.write("\n")


def install(rec: Recorder) -> None:
    """Wrap every traced entry point at the name its caller looks up."""
    # by module path: ``repro.query`` re-exports functions named like
    # some of its submodules, so attribute access could find those
    api, testfd, analysis, log, optimize, app, protocol, writer = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "api", "testfd", "analysis", "db.log", "query.optimize",
            "server.app", "server.protocol", "server.writer",
        )
    )
    from repro.chase.session import ChaseSession, ReadLease
    from repro.db.database import Database, ManagedRelation
    from repro.query.evaluate import Evaluator

    # -- server.app: the root span of every request ------------------------
    handle = app.ReproServer.handle

    @functools.wraps(handle)
    async def traced_handle(self, request):
        rid = request.get("id") if isinstance(request, dict) else None
        verb = request.get("do") if isinstance(request, dict) else None
        opened = rec.open(rid)
        start = time.perf_counter_ns()
        try:
            return await handle(self, request)
        finally:
            rec.close("app.handle", opened, start, {"verb": verb})

    app.ReproServer.handle = traced_handle

    # -- server.protocol ----------------------------------------------------
    mutation = protocol.mutation

    @functools.wraps(mutation)
    def traced_mutation(relation, verb, request):
        run = mutation(relation, verb, request)
        rid = request.get("id") if isinstance(request, dict) else None

        def traced_run():
            # runs on the writer task: adopt the request that queued it
            token = _CURRENT.set((getattr(traced_run, "submit_span", None), rid))
            try:
                opened = rec.open()
                start = time.perf_counter_ns()
                try:
                    return run()
                finally:
                    rec.close("protocol.mutation", opened, start, {"verb": verb})
            finally:
                _CURRENT.reset(token)

        return traced_run

    protocol.mutation = traced_mutation
    protocol.encode_line = _request_scoped(
        rec, "protocol.encode_line", protocol.encode_line
    )

    # -- server.writer ------------------------------------------------------
    submit = writer.RelationWriter.submit

    @functools.wraps(submit)
    async def traced_submit(self, apply_fn):
        opened = rec.open()
        start = time.perf_counter_ns()
        try:
            apply_fn.submit_span = opened[0]
        except AttributeError:  # not a traced closure: nothing to link
            pass
        try:
            return await submit(self, apply_fn)
        finally:
            rec.close("writer.submit", opened, start)

    writer.RelationWriter.submit = traced_submit

    def lease_attrs(args, result):
        if result is None:
            return None
        return {"lease": rec.number_lease(result[0]), "seq": result[1]}

    writer.RelationWriter.lease = rec.sync("writer.lease", lease_attrs)(
        writer.RelationWriter.lease
    )

    # -- db.log -------------------------------------------------------------
    log.encode_op = rec.sync("log.encode_op")(log.encode_op)
    append_many = log.OpLog.append_many

    @functools.wraps(append_many)
    def traced_append_many(self, payloads):
        opened = rec.open()
        start = time.perf_counter_ns()
        before = os.fstat(self._handle.fileno()).st_size
        try:
            return append_many(self, payloads)
        finally:
            after = os.fstat(self._handle.fileno()).st_size
            seqs = [p.get("seq") for p in payloads] if payloads else [None]
            rec.close(
                "log.append_many",
                opened,
                start,
                {
                    "records": len(payloads),
                    "bytes": after - before,
                    "first_seq": seqs[0],
                    "last_seq": seqs[-1],
                },
            )

    log.OpLog.append_many = traced_append_many

    # -- db.database --------------------------------------------------------
    for verb in ("insert", "update", "delete"):
        setattr(
            ManagedRelation,
            verb,
            rec.sync(f"db.{verb}")(getattr(ManagedRelation, verb)),
        )
    Database.open = classmethod(rec.sync("db.open")(Database.open.__func__))

    # -- chase.session ------------------------------------------------------
    ChaseSession.result = rec.sync("session.result")(ChaseSession.result)
    instance = ReadLease.instance

    @functools.wraps(instance)
    def traced_instance(self, detached=False):
        opened = rec.open()
        start = time.perf_counter_ns()
        built = self._detached is None
        result = None
        try:
            result = instance(self, detached)
            return result
        finally:
            rec.close(
                "lease.instance",
                opened,
                start,
                {
                    "lease": rec.lease_serials.get(id(self)),
                    "detached": result is not None and result is not self._session,
                    "built": built and self._detached is not None,
                },
            )

    ReadLease.instance = traced_instance

    # -- testfd, query, analysis, api ---------------------------------------
    testfd.check_fds = rec.sync("testfd.check_fds")(testfd.check_fds)
    app.parse_query = rec.sync("query.parse_query")(app.parse_query)
    optimize.relation_stats = rec.sync("query.relation_stats")(
        optimize.relation_stats
    )
    Evaluator.run = rec.sync("query.evaluator_run")(Evaluator.run)
    analysis.lint_query_request = rec.sync("analysis.lint_query_request")(
        analysis.lint_query_request
    )
    api.Answer.to_payload = rec.sync("api.to_payload")(api.Answer.to_payload)


def _request_scoped(rec: Recorder, name: str, fn: Callable) -> Callable:
    """A span for a function whose first argument is a response payload;
    it runs after ``app.handle`` returned, so its request id comes from
    the payload."""

    @functools.wraps(fn)
    def traced(payload, *args, **kwargs):
        rid = payload.get("id") if isinstance(payload, dict) else None
        opened = rec.open(rid)
        start = time.perf_counter_ns()
        try:
            return fn(payload, *args, **kwargs)
        finally:
            rec.close(name, opened, start)

    return traced


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: traced_server.py SPANS_FILE serve DIR [serve flags]", file=sys.stderr)
        return 2
    from repro import cli

    recorder = Recorder()
    install(recorder)
    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
