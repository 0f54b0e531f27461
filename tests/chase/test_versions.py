"""Per-version read state on a ChaseSession: built once per mark, dropped
when the mark moves.

``session.mark`` — ``(rewind generation, trail length)`` — moves on every
mutation, so the session memoizes what a read derives from one state
(the decoded fixpoint, the raw relation, the shared read lease) against
it.  The contract pinned here:

* after every op kind — insert, update, delete, fill, in-place
  retirement, trail replay, level rebuild, snapshot rollback, adopt,
  compact and reset, NOTHING-bearing states included — a memo built
  *before* the op never leaks past it: ``session.result()`` is
  field-identical to a from-scratch chase of the raw rows;
* at one mark, reads share one decode but never each other's stamps:
  :meth:`ResultAnswer.at` on one read leaves another's ``as_of`` alone;
* every reader of one mark gets the same :class:`ReadLease`, and
  concurrent detached readers of one lease share one re-chase.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession, chase
from repro.core.relation import Relation
from repro.core.values import NOTHING, is_null, null

from ..helpers import schema_of
from ..strategies import assert_field_identical, fd_sets, instances

#: the op kinds of the randomized driver; ``*_old`` and ``*_new`` aim at
#: the oldest and the newest row, which is what steers deletes and
#: updates onto retirement / level rebuild and onto trail replay
OP_KINDS = (
    "insert",
    "update_old",
    "update_new",
    "delete_old",
    "delete_new",
    "fill",
    "rollback",
    "adopt",
    "compact",
    "reset",
)


def from_scratch(session):
    return chase(session.raw_relation(), list(session.fds))


def assert_memo_current(session):
    """The memoized reads equal a from-scratch build of this state."""
    assert [row.values for row in session.raw_relation().rows] == [
        row.values for row in session.rows
    ]
    assert_field_identical(session.result(), from_scratch(session))


@st.composite
def programs(draw):
    """An op program: (kind, a row of cells, an index, an attribute)."""
    rows = draw(instances(max_rows=8)).rows
    kinds = draw(st.lists(st.sampled_from(OP_KINDS), min_size=1, max_size=10))
    return [
        (
            kind,
            rows[i % len(rows)].values,
            draw(st.integers(min_value=0, max_value=7)),
            draw(st.sampled_from("ABCD")),
        )
        for i, kind in enumerate(kinds)
    ]


def apply(session, kind, values, index, attribute, snapshots):
    """Run one op; ops that do not apply to the state are skipped."""
    size = len(session)
    if kind == "insert":
        session.insert(values)
    elif kind == "reset":
        session.reset([values, values[::-1]])
    elif kind == "adopt":
        session.adopt()
    elif kind == "compact":
        session.compact()
    elif kind == "rollback":
        snapshots.append(session.snapshot())
        session.insert(values)
        session.rollback(snapshots.pop(index % len(snapshots)))
    elif size == 0:
        return
    elif kind.startswith("update"):
        target = 0 if kind == "update_old" else size - 1
        session.update(target, {attribute: values[0]})
    elif kind.startswith("delete"):
        session.delete(0 if kind == "delete_old" else size - 1)
    else:  # fill
        target = index % size
        cell = session.rows[target][attribute]
        if is_null(cell):
            session.fill(target, attribute, "v0")


@given(instances(max_rows=6), fd_sets(), programs())
@settings(max_examples=150, deadline=None)
def test_memoized_reads_track_every_op(relation, fds, program):
    session = ChaseSession(relation, fds)
    snapshots = []
    for kind, values, index, attribute in program:
        before = session.result()  # fill the memo at the current mark
        mark, lease = session.mark, session.lease()
        assert session.result().relation is before.relation  # memo hit
        apply(session, kind, values, index, attribute, snapshots)
        if session.mark == mark:
            # an op that changed nothing (a no-op adopt, a skipped fill)
            # keeps the version and everything built for it
            assert session.result().relation is before.relation
            assert session.lease() is lease
        else:
            assert not lease.fresh
            assert session.lease() is not lease
        assert_memo_current(session)


# ---------------------------------------------------------------------------
# each update path, with the path asserted through the session's counters
# ---------------------------------------------------------------------------


def settled_session(rows=8):
    """Rows keyed apart (no FD fires), so old rows retire in place."""
    session = ChaseSession(schema_of("A B C"), ["A -> B"])
    for i in range(rows):
        session.insert((f"a{i}", f"b{i}", f"c{i}"))
    return session


def test_retire_fast_drops_the_memo():
    session = settled_session()
    session.result()
    session.delete(0)
    assert session.stats()["retire_fast"] == 1
    assert_memo_current(session)
    session.update(0, {"C": "z"})
    assert session.stats()["retire_fast"] == 2
    assert_memo_current(session)


def test_trail_replay_drops_the_memo():
    session = settled_session()
    session.insert(("a0", null(), "c"))  # fires against row 0
    session.result()
    session.delete(len(session) - 1)
    assert session.stats()["trail_replay"] == 1
    assert_memo_current(session)


def test_level_rebuild_drops_the_memo():
    session = ChaseSession(schema_of("A B C"), ["A -> B"])
    session.insert(("a", "b1", "c"))
    for i in range(6):
        session.insert(("a", null(), f"c{i}"))
    grounded = session.result()
    assert grounded.relation[3]["B"] == "b1"
    session.delete(0)  # an old merge witness: level rebuild
    assert session.stats()["level_rebuild"] == 1
    assert all(is_null(row["B"]) for row in session.result().relation)
    assert_memo_current(session)


def test_snapshot_rollback_drops_the_memo():
    session = settled_session(3)
    snap = session.snapshot()
    session.insert(("a0", "other", "c"))  # conflicts: poisons
    assert session.result().has_nothing
    session.rollback(snap)
    assert not session.result().has_nothing
    assert_memo_current(session)


def test_fill_adopt_compact_reset_drop_the_memo():
    session = ChaseSession(schema_of("A B C"), ["A -> B"])
    unknown = null()
    session.insert(("a", unknown, "c"))
    session.insert(("b", null(), "c"))
    session.result()
    session.fill(0, "B", "x")
    assert session.result().relation[0]["B"] == "x"
    session.insert(("b", "y", "c"))
    assert is_null(session.rows[1]["B"])
    session.result()
    session.adopt()
    assert session.rows[1]["B"] == "y"
    assert_memo_current(session)
    session.compact()
    assert_memo_current(session)
    session.reset([("z", NOTHING, "c")])
    assert session.result().has_nothing
    assert_memo_current(session)


def test_set_fds_drops_the_memo():
    session = ChaseSession(schema_of("A B C"), [])
    session.insert(("a", "b", "c"))
    session.insert(("a", null(), "c"))
    assert is_null(session.result().relation[1]["B"])
    session.set_fds(["A -> B"])
    assert session.result().relation[1]["B"] == "b"
    assert_memo_current(session)


# ---------------------------------------------------------------------------
# one decode per mark, one stamp per read
# ---------------------------------------------------------------------------


def test_reads_at_one_mark_share_fields_but_not_stamps():
    session = settled_session(3)
    first = session.result().at(3)
    second = session.result().at(7, live=False)
    assert first is not second
    assert first.relation is second.relation
    assert (first.as_of, first.live) == (3, True)
    assert (second.as_of, second.live) == (7, False)
    assert first.answer().as_of == 3
    assert second.answer().as_of == 7


def test_memo_builds_once_per_mark():
    session = settled_session(2)
    calls = []

    def build():
        calls.append(1)
        return len(calls)

    assert session.memo("probe", build) == 1
    assert session.memo("probe", build) == 1
    session.insert(("n", "n", "n"))
    assert session.memo("probe", build) == 2
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the shared read lease
# ---------------------------------------------------------------------------


def test_one_lease_per_mark():
    session = settled_session(3)
    lease = session.lease()
    assert session.lease() is lease
    assert lease.fresh
    session.insert(("new", "b", "c"))
    assert not lease.fresh
    moved = session.lease()
    assert moved is not lease and moved.fresh
    # the old lease still answers its own cut
    assert len(lease.result().relation) == 3
    assert len(moved.result().relation) == 4


def test_a_detached_read_does_not_end_a_fresh_lease():
    session = settled_session(3)
    lease = session.lease()
    detached = lease.instance(detached=True)
    assert detached is not session
    assert lease.fresh and lease.instance() is session
    assert_field_identical(lease.result(detached=True), lease.result())


def test_concurrent_detached_readers_share_one_chase():
    """Readers in threads (more than cores, switching often) race the
    first detached build and the first decode of one lease: they share
    one re-chase, and every read equals a from-scratch chase of the cut."""
    schema = schema_of("A B C")
    session = ChaseSession(schema, ["A -> B"])
    for i in range(300):
        session.insert((f"a{i % 40}", null() if i % 3 else f"b{i % 40}", "c"))
    lease = session.lease()
    session.insert(("moved", "on", "c"))
    reference = chase(Relation(schema, lease.rows), ["A -> B"])
    start = threading.Barrier(8)
    seen, errors = [], []

    def reader():
        try:
            start.wait(timeout=10)
            seen.append((lease.instance(), lease.result()))
        except Exception as error:  # reported below, not swallowed
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 8
    instances = {id(instance) for instance, _ in seen}
    assert len(instances) == 1 and seen[0][0] is not session
    for _, result in seen:
        assert_field_identical(result, reference)
