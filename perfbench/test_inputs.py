"""The benchmark's inputs are a pure function of the seed.

One seed must build byte-identical preload directories and request
streams; another seed must change them.  Run with::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import inputs  # noqa: E402


def _tree(path: Path) -> dict:
    """Relative path → bytes of every file under ``path`` (the empty
    advisory lock file included)."""
    return {
        str(file.relative_to(path)): file.read_bytes()
        for file in sorted(path.rglob("*"))
        if file.is_file()
    }


def _streams(seed: int) -> dict:
    return {
        "ingest": inputs.ingest_stream(seed, 300),
        "mixed": inputs.mixed_stream(seed, 300),
        "query": inputs.query_texts(seed, 40),
    }


@pytest.mark.parametrize("workload", sorted(inputs.PRELOADS))
def test_one_seed_builds_identical_directories(tmp_path, workload):
    build = inputs.PRELOADS[workload]
    build(tmp_path / "a", 7)
    build(tmp_path / "b", 7)
    first, second = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert first == second
    assert any(name.endswith("schema.json") for name in first)


@pytest.mark.parametrize("workload", ["mixed", "query"])
def test_another_seed_changes_the_preload(tmp_path, workload):
    build = inputs.PRELOADS[workload]
    build(tmp_path / "a", 7)
    build(tmp_path / "b", 8)
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")


def test_mixed_preload_leaves_half_in_the_wal(tmp_path):
    inputs.build_mixed(tmp_path / "db", 3)
    wal = tmp_path / "db" / "relations" / inputs.REL / "wal.jsonl"
    assert len(wal.read_bytes().splitlines()) == inputs.MIXED_ROWS // 2


def test_one_seed_builds_identical_streams():
    assert _streams(7) == _streams(7)


def test_another_seed_changes_every_stream():
    first, second = _streams(7), _streams(8)
    for workload in first:
        assert first[workload] != second[workload], workload


def test_mixed_indices_stay_valid():
    ops = inputs.mixed_stream(5, 2000)
    sizes = inputs.sizes_after(ops, inputs.MIXED_ROWS)
    for op, size in zip(ops, sizes):
        if op["do"] != "insert":
            assert 0 <= op["index"] < size
    kinds = [op["do"] for op in ops]
    assert abs(kinds.count("insert") / len(ops) - 0.5) < 0.05
    assert abs(kinds.count("delete") / len(ops) - 0.25) < 0.05
