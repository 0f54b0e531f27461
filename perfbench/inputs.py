"""Seeded inputs for the served benchmark: preload directories, request
streams, and the reference answers the outputs are checked against.

Everything here is a pure function of ``(workload, seed)``: the same seed
builds byte-identical database directories and request lines, a different
seed changes both (``test_inputs.py`` pins this).  The server only ever
sees what these functions write; nothing is generated inside it.

Workload shapes:

* ``ingest`` — empty ``r(A K C)`` with ``K -> C`` over 50 keys; an insert
  stream where every third row carries a fresh null (``{"n": null}``)
  that the FD grounds.
* ``mixed`` — ``r(A K C)`` preloaded with 2000 rows: the first half in a
  checkpoint, the second half as a WAL tail, so server start-up replays
  it; a 50/25/25 insert / ``update`` (set ``A``) / ``delete`` stream on
  tracked indices, plus alternating ``result`` / ``check`` reads.
* ``query`` — ``r(A K B C)`` (4000 rows; ``B`` nulls over a declared
  3-value domain, ``C`` nulls that ``K -> C`` grounds) and ``s(C D)``
  (1000 rows), both checkpointed; a round-robin of four least-mode
  queries with seeded constants.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import ChaseSession, Domain, RelationSchema, null
from repro.api import ResultSet
from repro.chase.minimal import canonical_form
from repro.db import Database
from repro.query import Evaluator, parse_query

REL = "r"
FD = "K -> C"
FRESH = {"n": None}  # wire token: the server mints a fresh null

INGEST_KEYS = 50
MIXED_KEYS = 50
MIXED_ROWS = 2000
QUERY_KEYS = 200
QUERY_R_ROWS = 4000
QUERY_S_ROWS = 1000
B_DOMAIN = ("b0", "b1", "b2")


def encode_request(request: dict) -> bytes:
    """One request as a wire line (compact, like the server's own)."""
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


# -- row generators ---------------------------------------------------------


def _krow(rng: random.Random, serial: int, keys: int, null_every: int) -> list:
    """``[A, K, C]`` with ``C`` a function of ``K`` (so ``K -> C`` never
    conflicts), or a fresh null on every ``null_every``-th row."""
    key = rng.randrange(keys)
    c_cell: Any = FRESH if serial % null_every == 0 else f"c{key}"
    return [f"a{serial}-{rng.randrange(10**6)}", f"k{key}", c_cell]


def _engine_row(cells: list) -> list:
    """Wire cells → engine values (``FRESH`` becomes a new null object)."""
    return [null() if cell == FRESH else cell for cell in cells]


# -- preload directories ----------------------------------------------------


def build_ingest(path: Path, seed: int) -> None:
    """An empty ``r(A K C)`` with ``K -> C``."""
    _fresh_dir(path)
    with Database.open(path, sync="none") as db:
        db.create(REL, ["A", "K", "C"], [FD])


def mixed_preload_rows(seed: int) -> List[list]:
    rng = random.Random(f"mixed-preload-{seed}")
    return [_krow(rng, i, MIXED_KEYS, 3) for i in range(MIXED_ROWS)]


def build_mixed(path: Path, seed: int) -> None:
    """2000 rows: the first half checkpointed, the second half left as a
    WAL tail that the server replays on start-up."""
    _fresh_dir(path)
    rows = mixed_preload_rows(seed)
    half = len(rows) // 2
    with Database.open(path, sync="none") as db:
        rel = db.create(REL, ["A", "K", "C"], [FD])
        for cells in rows[:half]:
            rel.insert(_engine_row(cells))
        rel.checkpoint()
        for cells in rows[half:]:
            rel.insert(_engine_row(cells))


def query_preload_rows(seed: int) -> Tuple[List[list], List[list]]:
    rng = random.Random(f"query-preload-{seed}")
    r_rows = []
    for i in range(QUERY_R_ROWS):
        key = rng.randrange(QUERY_KEYS)
        b_cell: Any = FRESH if rng.random() < 0.3 else rng.choice(B_DOMAIN)
        c_cell: Any = FRESH if rng.random() < 0.3 else f"c{key}"
        r_rows.append([f"a{i}", f"k{key}", b_cell, c_cell])
    s_rows = [
        [f"c{rng.randrange(QUERY_KEYS)}", f"d{j}"] for j in range(QUERY_S_ROWS)
    ]
    return r_rows, s_rows


def build_query(path: Path, seed: int) -> None:
    """``r(A K B C)`` and ``s(C D)``, fully checkpointed."""
    _fresh_dir(path)
    r_rows, s_rows = query_preload_rows(seed)
    with Database.open(path, sync="none") as db:
        r = db.create(
            REL, ["A", "K", "B", "C"], [FD], domains={"B": Domain(B_DOMAIN, name="B")}
        )
        s = db.create("s", ["C", "D"])
        for cells in r_rows:
            r.insert(_engine_row(cells))
        for cells in s_rows:
            s.insert(_engine_row(cells))
        r.checkpoint()
        s.checkpoint()


PRELOADS = {"ingest": build_ingest, "mixed": build_mixed, "query": build_query}


def _fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.parent.mkdir(parents=True, exist_ok=True)


# -- request streams --------------------------------------------------------


def ingest_stream(seed: int, count: int) -> List[list]:
    """``count`` insert rows (wire cells), in generation order."""
    rng = random.Random(f"ingest-stream-{seed}")
    return [_krow(rng, i, INGEST_KEYS, 3) for i in range(count)]


def mixed_stream(seed: int, count: int) -> List[dict]:
    """``count`` write requests (without ids) on indices tracked against
    the row count each op leaves behind, so every index is valid when the
    ops apply in order.

    The 50/25/25 insert/update/delete mix is dealt in shuffled blocks of
    eight, and successive updates and deletes cycle through the four
    quarters of the relation (old rows cost a level rebuild, recent ones a
    short trail replay), so every seed draws the same cost profile.  The
    mix lets the count drift up by a quarter row per write.
    """
    rng = random.Random(f"mixed-stream-{seed}")
    size = MIXED_ROWS
    ops: List[dict] = []
    deck: List[str] = []
    targeted = 0
    for i in range(count):
        if not deck:
            deck = ["insert"] * 4 + ["update"] * 2 + ["delete"] * 2
            rng.shuffle(deck)
        verb = deck.pop()
        if verb == "insert":
            row = _krow(rng, MIXED_ROWS + i, MIXED_KEYS, 3)
            ops.append({"do": "insert", "rel": REL, "row": row})
            size += 1
            continue
        quarter = targeted % 4
        targeted += 1
        index = rng.randrange(quarter * size // 4, (quarter + 1) * size // 4)
        if verb == "update":
            ops.append({"do": "update", "rel": REL, "index": index, "set": {"A": f"u{i}"}})
        else:
            ops.append({"do": "delete", "rel": REL, "index": index})
            size -= 1
    return ops


def sizes_after(ops: List[dict], start: int) -> List[int]:
    """``sizes[k]`` = row count after the first ``k`` ops."""
    sizes = [start]
    for op in ops:
        delta = {"insert": 1, "delete": -1}.get(op["do"], 0)
        sizes.append(sizes[-1] + delta)
    return sizes


def query_texts(seed: int, count: int, variants: int = 4) -> List[str]:
    """A round-robin of four query kinds, each drawn from ``variants``
    seeded instances (so the reference answers stay few):

    0. a selective select plus project;
    1. a filtered equi-join with ``s`` on ``C``;
    2. a domain-exhausting disjunction over ``B`` (certain for every row);
    3. a select on ``B`` that leaves maybe-rows (the ``B`` nulls).
    """
    rng = random.Random(f"query-stream-{seed}")
    pool: List[List[str]] = [[], [], [], []]
    for _ in range(variants):
        pool[0].append(f"r where A = 'a{rng.randrange(QUERY_R_ROWS)}' [A, C]")
        pool[1].append(f"(r where K = 'k{rng.randrange(QUERY_KEYS)}') join s")
        order = list(B_DOMAIN)
        rng.shuffle(order)
        pool[2].append("r where " + " or ".join(f"B = '{b}'" for b in order))
        pool[3].append(
            f"r where B = '{rng.choice(B_DOMAIN)}' and K = 'k{rng.randrange(QUERY_KEYS)}'"
        )
    return [pool[i % 4][rng.randrange(variants)] for i in range(count)]


# -- reference answers ------------------------------------------------------


def _sorted_rows(rows: List[list]) -> List[str]:
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def answer_key(payload: dict) -> Tuple[List[str], List[str]]:
    """A query response's certain and maybe rows, order-insensitive."""
    return _sorted_rows(payload["certain"]["rows"]), _sorted_rows(
        payload["maybe"]["rows"]
    )


def query_oracle(path: Path, texts: List[str]) -> Dict[str, Tuple[list, list]]:
    """Each distinct query's answer from an in-process least-mode
    :class:`Evaluator` over the preload, encoded with the durable null ids
    the server encodes with (every null here originates in ``r``)."""
    answers: Dict[str, Tuple[list, list]] = {}
    with Database.open(path, create=False) as db:
        env = {name: db.relation(name).session.result().relation for name in db.names()}
        fds = {name: tuple(db.relation(name).session.fds) for name in db.names()}
        encode = db.relation(REL).encode_value
        evaluator = Evaluator(env, fds=fds)
        for text in dict.fromkeys(texts):
            result: ResultSet = evaluator.run(parse_query(text), mode="least")
            answers[text] = answer_key(result.to_payload(encode))
    return answers


def fixpoint_forms(schema: RelationSchema, raw_rows: List[list]) -> tuple:
    """``(raw, fixpoint)`` canonical forms of a plain :class:`ChaseSession`
    over ``raw_rows`` — the serial reference the served directory must
    match after a clean stop."""
    session = ChaseSession(schema, [FD], rows=raw_rows)
    return (
        canonical_form(session.raw_relation()),
        canonical_form(session.result().relation),
    )


def directory_forms(path: Path) -> tuple:
    """``(schema, raw, fixpoint)`` of relation ``r`` reopened from disk."""
    with Database.open(path, create=False) as db:
        session = db.relation(REL).session
        return (
            session.schema,
            canonical_form(session.raw_relation()),
            canonical_form(session.result().relation),
        )


def replay_raw(preload: List[list], acked: List[dict]) -> List[list]:
    """The raw rows after applying ``acked`` (in seq order) to ``preload``
    with list semantics: inserts append, deletes shift later rows down,
    updates rewrite cells in place."""
    rows = [_engine_row(cells) for cells in preload]
    for op in acked:
        verb = op["do"]
        if verb == "insert":
            rows.append(_engine_row(op["row"]))
        elif verb == "delete":
            del rows[op["index"]]
        elif verb == "update":
            row = rows[op["index"]]
            rows[op["index"]] = [
                op["set"].get(attr, value) for attr, value in zip("AKC", row)
            ]
        else:  # pragma: no cover - the streams hold only these verbs
            raise ValueError(f"unexpected verb {verb!r}")
    return rows
