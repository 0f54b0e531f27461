"""The benchmark itself: workloads, one measured phase, and its summary.

``run.py`` is the command-line entry; it puts the checkout's ``src`` on
the import path before importing this module.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ReproError

import inputs
import spans
from inputs import REL, encode_request
from proc import HostProbe, Server
from wire import Connection, closed_loop, open_loop

#: server starts per phase; ``setup_s`` is their median
SETUPS = 5
#: served before the measured window opens (lazy imports, first leases)
WARM_S = 1.0
#: what one ``probe.py`` run takes on the reference host; the time
#: metrics are scaled to it (see ``NOTES.md``)
REFERENCE_PROBE_MS = 4.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("server_cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)
#: end-to-end time metrics scaled by the host probe (``ops_per_s`` inversely)
HOST_SCALED = ("setup_s", "server_cpu_ms_per_op")
#: per-layer numbers that need no spans (measured on the untraced half)
PLAIN_LAYER = (
    ("host_probe_ms", "ms"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.server_cpu_ms_per_op", "ms"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("read_late_max_ms", "ms"),
    ("wal_bytes_per_op", "B"),
    ("session.level_rebuild_share", "ratio"),
    ("session.trail_replay_share", "ratio"),
    ("session.retire_fast_share", "ratio"),
    ("error_share", "ratio"),
    ("generator_cpu_share", "ratio"),
)

clock = time.perf_counter


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class Tally:
    """What one phase observed: samples inside the window plus checks."""

    def __init__(self) -> None:
        self.begin = self.end = 0.0
        self.attempted = 0
        self.stream_sent = 0  # closed-loop requests sent
        self.failed = 0
        self.errors: List[str] = []
        self.op_ms: List[float] = []  # closed-loop stream, sent in the window
        self.read_ms: List[float] = []  # open-loop reads, due in the window
        self.ops_done = 0  # closed-loop answers inside the window
        self.answers_done = 0  # every answer inside the window
        self.read_late_s = 0.0
        self.mutations = 0  # acked mutations, warm-up included
        self.updates_deletes = 0

    def answered(self, response: dict, sent: float, now: float, closed: bool) -> bool:
        """Count one response; False (and counted failed) unless ok."""
        if self.begin <= now < self.end:
            self.answers_done += 1
            self.ops_done += closed
        if self.begin <= sent < self.end:
            (self.op_ms if closed else self.read_ms).append((now - sent) * 1e3)
        if not response.get("ok"):
            self.failed += 1
            self.error(f"request {response.get('id')} failed: {response.get('error')}")
            return False
        return True

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def _numbered(lines: List[bytes], first_id: int) -> List[Tuple[int, bytes]]:
    return list(zip(itertools.count(first_id), lines))


def _request_lines(requests: List[dict], first_id: int) -> List[bytes]:
    return [
        encode_request({"id": first_id + i, **request})
        for i, request in enumerate(requests)
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One traffic mix: inputs from the seed, the load, and its checks."""

    name = ""
    #: closed-loop requests prepared per second of run (a generous cap)
    rate_cap = 0
    #: checkpoint after the load, so the reopen gate loads a checkpoint
    #: instead of replaying the whole WAL tail
    checkpoint_before_stop = False

    def __init__(self, seed: int, seconds: float, db_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.db_dir = db_dir
        self.count = int(self.rate_cap * (seconds + WARM_S)) + 100
        self.server = None
        #: peak RSS read during the load; ``None`` reads it at window end
        self.rss_mb: Optional[float] = None

    async def drive(self, server, tally: Tally) -> dict:
        """Serve the load; returns the server-side counters."""

        self.server = server
        conns = [await Connection.open(server.host, server.port) for _ in range(2)]
        try:
            stats_before = await self._stats(conns[0])
            wal_before = self._wal_bytes()
            start = clock()
            tally.begin = start + WARM_S
            tally.end = tally.begin + self.seconds
            probe = asyncio.get_running_loop().create_task(self._window_counters(server, tally))
            try:
                await self.load(conns, start, tally)
                counters = await probe
            finally:
                probe.cancel()
            if tally.stream_sent >= self.count:
                print(
                    f"warning: the {self.name} stream ran out before the window "
                    "closed; raise its rate_cap",
                    file=sys.stderr,
                )
            stats_after = await self._stats(conns[0])
            wal_after = self._wal_bytes()
            if self.checkpoint_before_stop:
                done = await conns[0].call(
                    encode_request({"id": -2, "do": "checkpoint", "rel": REL})
                )
                if not done.get("ok"):
                    tally.error(f"checkpoint after the load failed: {done.get('error')}")
        finally:
            for conn in conns:
                await conn.close()
        counters["wal_bytes"] = wal_after - wal_before
        counters["session"] = {
            key: stats_after.get(key, 0) - stats_before.get(key, 0)
            for key in ("level_rebuild", "trail_replay", "retire_fast")
        }
        counters["base_seq"] = stats_before.get("seq", 0)
        return counters

    async def _window_counters(self, server, tally: Tally) -> dict:
        """Server and generator CPU across exactly the measured window."""
        await asyncio.sleep(max(0.0, tally.begin - clock()))
        cpu0, gen0 = server.cpu_s(), time.process_time()
        await asyncio.sleep(max(0.0, tally.end - clock()))
        cpu1, gen1 = server.cpu_s(), time.process_time()
        return {
            "server_cpu_s": cpu1 - cpu0,
            "generator_cpu_s": gen1 - gen0,
            "peak_rss_mb": self.rss_mb or server.peak_rss_mb(),
        }

    async def _stats(self, conn) -> dict:
        response = await conn.call(encode_request({"id": -1, "do": "stats", "rel": REL}))
        return response.get("stats", {})

    def _wal_bytes(self) -> int:
        wal = self.db_dir / "relations" / REL / "wal.jsonl"
        return wal.stat().st_size if wal.exists() else 0

    async def load(self, conns, start: float, tally: Tally) -> None:
        raise NotImplementedError

    def check_after_stop(self, tally: Tally, counters: dict) -> None:
        """Gates on the directory the stopped server left (default: none)."""


class Ingest(Workload):
    """Insert-only bulk load: 2 connections x 8 pipelined inserts."""

    name = "ingest"
    rate_cap = 15000
    depth = 8
    #: peak RSS is read once this many inserts are acked, so it measures
    #: memory at one data volume however fast the server loads
    rss_at_rows = 15000

    def __init__(self, seed: int, seconds: float, db_dir: Path) -> None:
        super().__init__(seed, seconds, db_dir)
        self.rows = inputs.ingest_stream(seed, self.count)
        self.lines = _request_lines(
            [{"do": "insert", "rel": REL, "row": row} for row in self.rows], 1
        )
        self.seq_of: Dict[int, int] = {}

    async def load(self, conns, start: float, tally: Tally) -> None:
        def on_response(rid: int, response: dict, sent: float, now: float) -> None:
            if tally.answered(response, sent, now, closed=True):
                self.seq_of[rid] = response["seq"]
                tally.mutations += 1
                if tally.mutations == self.rss_at_rows:
                    self.rss_mb = self.server.peak_rss_mb()

        requests: Iterator[Tuple[int, bytes]] = iter(_numbered(self.lines, 1))
        sent = await asyncio.gather(
            *(
                closed_loop(conn, requests, self.depth, tally.end, clock, on_response)
                for conn in conns
            )
        )
        tally.stream_sent = sum(sent)
        tally.attempted += sum(sent)

    def check_after_stop(self, tally: Tally, counters: dict) -> None:
        base = counters["base_seq"]
        order = sorted(self.seq_of, key=self.seq_of.__getitem__)
        seqs = [self.seq_of[rid] for rid in order]
        if seqs != list(range(base + 1, base + 1 + len(seqs))):
            tally.error("acked seqs are not one contiguous run")
        acked = [{"do": "insert", "row": self.rows[rid - 1]} for rid in order]
        _compare_directory(tally, self.db_dir, [], acked)


class Mixed(Workload):
    """Closed-loop churn (4 in flight) plus open-loop reads at 5/s."""

    name = "mixed"
    rate_cap = 1000
    # replaying ~2000 rebuild-heavy ops would take most of a run
    checkpoint_before_stop = True
    depth = 4
    read_rate = 5.0

    def __init__(self, seed: int, seconds: float, db_dir: Path) -> None:
        super().__init__(seed, seconds, db_dir)
        self.ops = inputs.mixed_stream(seed, self.count)
        self.sizes = inputs.sizes_after(self.ops, inputs.MIXED_ROWS)
        self.lines = _request_lines(self.ops, 1)
        reads = int(self.read_rate * (seconds + WARM_S)) + 2
        self.read_first_id = len(self.ops) + 1
        self.read_verbs = [("result", "check")[i % 2] for i in range(reads)]
        self.read_lines = _request_lines(
            [{"do": verb, "rel": REL} for verb in self.read_verbs], self.read_first_id
        )
        self.acked = 0

    async def drive(self, server, tally: Tally) -> dict:
        counters = await super().drive(server, tally)
        if counters["base_seq"] != inputs.MIXED_ROWS:
            tally.error(f"preload seq {counters['base_seq']} != {inputs.MIXED_ROWS}")
        return counters

    async def load(self, conns, start: float, tally: Tally) -> None:
        # the preload journals one record per row: every cut and ack seq
        # counts from there
        base = inputs.MIXED_ROWS

        def on_write(rid: int, response: dict, sent: float, now: float) -> None:
            if not tally.answered(response, sent, now, closed=True):
                return
            self.acked += 1
            tally.mutations += 1
            if self.ops[rid - 1]["do"] != "insert":
                tally.updates_deletes += 1
            if response["seq"] != base + rid:
                tally.error(f"write {rid} acked at seq {response['seq']}, not {base + rid}")

        def on_read(rid: int, response: dict, due: float, now: float) -> None:
            if not tally.answered(response, due, now, closed=False):
                return
            verb = self.read_verbs[rid - self.read_first_id]
            applied = response["as_of"] - base
            if not 0 <= applied < len(self.sizes):
                tally.error(f"read {rid} at impossible cut {response['as_of']}")
            elif verb == "result":
                if len(response["rows"]) != self.sizes[applied]:
                    tally.error(
                        f"result at seq {response['as_of']} has "
                        f"{len(response['rows'])} rows, expected {self.sizes[applied]}"
                    )
                if response["meta"].get("has_nothing"):
                    tally.error(f"result at seq {response['as_of']} holds NOTHING")
            elif not response.get("satisfied"):
                tally.error(f"check at seq {response['as_of']} is not satisfied")

        writes = closed_loop(
            conns[0], iter(_numbered(self.lines, 1)), self.depth, tally.end, clock, on_write
        )
        reads = open_loop(
            conns[1],
            _numbered(self.read_lines, self.read_first_id),
            self.read_rate,
            start,
            tally.end,
            clock,
            on_read,
        )
        sent_writes, (sent_reads, late) = await asyncio.gather(writes, reads)
        tally.stream_sent = sent_writes
        tally.attempted += sent_writes + sent_reads
        tally.read_late_s = late
        if self.acked != sent_writes:
            tally.error(f"{sent_writes} writes sent but {self.acked} acked")

    def check_after_stop(self, tally: Tally, counters: dict) -> None:
        preload = inputs.mixed_preload_rows(self.seed)
        _compare_directory(tally, self.db_dir, preload, self.ops[: self.acked])


class Query(Workload):
    """Read-only least-mode queries: 2 connections x 1 in flight."""

    name = "query"
    rate_cap = 200

    def __init__(self, seed: int, seconds: float, db_dir: Path) -> None:
        super().__init__(seed, seconds, db_dir)
        self.texts = inputs.query_texts(self.seed, self.count)
        self.lines = _request_lines(
            [{"do": "query", "q": text, "mode": "least"} for text in self.texts], 1
        )
        # computed once, before any timing, over the same preload
        self.expected = inputs.query_oracle(db_dir, self.texts)

    async def load(self, conns, start: float, tally: Tally) -> None:
        def on_response(rid: int, response: dict, sent: float, now: float) -> None:
            if not tally.answered(response, sent, now, closed=True):
                return
            text = self.texts[rid - 1]
            if inputs.answer_key(response) != self.expected[text]:
                tally.error(f"query {rid} ({text!r}) differs from the in-process answer")

        requests: Iterator[Tuple[int, bytes]] = iter(_numbered(self.lines, 1))
        sent = await asyncio.gather(
            *(closed_loop(conn, requests, 1, tally.end, clock, on_response) for conn in conns)
        )
        tally.stream_sent = sum(sent)
        tally.attempted += sum(sent)


def _compare_directory(tally: Tally, db_dir: Path, preload: list, acked: list) -> None:
    """The reopened directory must equal a serial replay of the acked
    stream: raw rows and the chase fixpoint, up to null renaming."""
    try:
        schema, raw, fixpoint = inputs.directory_forms(db_dir)
    except ReproError as error:
        tally.error(f"the stopped server's directory does not reopen: {error}")
        return
    want_raw, want_fixpoint = inputs.fixpoint_forms(schema, inputs.replay_raw(preload, acked))
    if raw != want_raw:
        tally.error("reopened raw rows differ from the serial replay of acked ops")
    if fixpoint != want_fixpoint:
        tally.error("reopened fixpoint differs from the serial replay of acked ops")


WORKLOAD_TYPES = {cls.name: cls for cls in (Ingest, Mixed, Query)}


# ---------------------------------------------------------------------------
# one phase: set up, load, stop, check
# ---------------------------------------------------------------------------


def run_phase(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    work: Path,
    traced: bool,
    server_cpus: Optional[Set[int]],
) -> dict:
    """One set-up, load, stop and check cycle on a fresh directory."""
    work.mkdir(parents=True, exist_ok=True)
    db_dir = work / "db"
    inputs.PRELOADS[name](db_dir, seed)
    workload = WORKLOAD_TYPES[name](seed, seconds, db_dir)
    tally = Tally()
    setups: List[float] = []
    span_files: List[Path] = []
    probe = HostProbe(Path(__file__).with_name("probe.py"), server_cpus)
    try:
        server = None
        for attempt in range(SETUPS):
            span_file = work / f"spans-{attempt}.jsonl" if traced else None
            server = Server(root, db_dir, work / "server.log", span_file, server_cpus)
            setups.append(server.setup_s)
            if span_file is not None:
                span_files.append(span_file)
            if attempt < SETUPS - 1:
                server.stop()
        assert server is not None
        try:
            counters = asyncio.run(workload.drive(server, tally))
            counters["host_probe_ms"] = probe.stop()
        finally:
            server.stop()
    finally:
        probe.close()
    workload.check_after_stop(tally, counters)
    result = summarize(tally, counters, setups)
    if traced:
        result.update(spans.analyse(spans.load(span_files)))
    return result


def summarize(tally: Tally, counters: dict, setups: List[float]) -> dict:
    seconds = tally.end - tally.begin
    session = counters["session"]
    churn = tally.updates_deletes
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.ops_done / seconds,
        "server_cpu_ms_per_op": counters["server_cpu_s"] * 1e3 / max(1, tally.answers_done),
    }
    slowdown = counters["host_probe_ms"] / REFERENCE_PROBE_MS
    scaled = {name: raw[name] / slowdown for name in HOST_SCALED}
    scaled["ops_per_s"] = raw["ops_per_s"] * slowdown
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        **scaled,
        **{f"raw.{name}": value for name, value in raw.items()},
        "host_probe_ms": counters["host_probe_ms"],
        "peak_rss_mb": counters["peak_rss_mb"],
        "op_p50_ms": percentile(tally.op_ms, 0.50),
        "op_p90_ms": percentile(tally.op_ms, 0.90),
        "write_p99_ms": percentile(tally.op_ms, 0.99) if tally.mutations else 0.0,
        "read_p50_ms": percentile(tally.read_ms, 0.50),
        "read_p90_ms": percentile(tally.read_ms, 0.90),
        "read_late_max_ms": tally.read_late_s * 1e3,
        "wal_bytes_per_op": counters["wal_bytes"] / tally.mutations if tally.mutations else 0.0,
        "session.level_rebuild_share": session["level_rebuild"] / churn if churn else 0.0,
        "session.trail_replay_share": session["trail_replay"] / churn if churn else 0.0,
        "session.retire_fast_share": session["retire_fast"] / churn if churn else 0.0,
        "error_share": tally.failed / max(1, tally.attempted),
        "generator_cpu_share": counters["generator_cpu_s"] / seconds,
    }


def layer_metrics(plain: dict, traced: dict) -> dict:
    metrics = {}
    for name in spans.SPAN_NAMES:
        for stat, unit in spans.SPAN_STATS:
            key = f"{name}.{stat}"
            metrics[key] = {"value": traced[key], "unit": unit}
    for key, unit in spans.DERIVED:
        metrics[key] = {"value": traced[key], "unit": unit}
    for key, unit in PLAIN_LAYER:
        metrics[key] = {"value": plain[key], "unit": unit}
    for key, unit in END_TO_END:
        metrics[f"tracing_overhead.{key}"] = {"value": traced[key] - plain[key], "unit": unit}
    return metrics


