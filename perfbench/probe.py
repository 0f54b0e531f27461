"""A fixed CPU probe: how fast the host is running the server's CPU.

Usage (the benchmark pins it to the server's CPU)::

    python3 perfbench/probe.py

It prints ``ready``.  Then, four times a second until its standard input
closes, it runs the same few milliseconds of pure-Python work: union-find, a
tuple-keyed dict, and a JSON round trip.  The work fits in the CPU's
caches, so it barely disturbs the server.  Each run is timed in the
probe's own CPU time, so waiting behind the server does not count.  At
the end it prints the median time in milliseconds.
"""

from __future__ import annotations

import json
import random
import select
import statistics
import sys
import time

SIZE = 1000
INTERVAL_S = 0.25


def probe_once() -> float:
    start = time.process_time()
    rng = random.Random(1)
    parent = list(range(SIZE))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for _ in range(SIZE):
        a, b = find(rng.randrange(SIZE)), find(rng.randrange(SIZE))
        if a != b:
            parent[a] = b
    table = {(i % 211, f"k{i}"): [i, None, f"c{i % 97}"] for i in range(SIZE)}
    rows = json.loads(json.dumps([table[key] for key in sorted(table, key=lambda k: k[1])]))
    if len(rows) != SIZE:
        raise RuntimeError("probe lost rows")
    return time.process_time() - start


def main() -> int:
    print("ready", flush=True)
    times = []
    while True:
        times.append(probe_once())
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    print(f"{statistics.median(times) * 1e3:.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
