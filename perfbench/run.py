"""Served benchmark: the real ``repro serve`` process under three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest|mixed|query --seed N \\
        --seconds S --trace 0|1

One run builds the workload's database directory from the seed, starts
the server several times on it (``setup_s`` is the median time from
spawn to the first answered ``ping``, recovery included), drives the
last one from this process over two TCP connections for ``S`` seconds
after a one-second warm-up, checks every answer, stops the server with
SIGINT and checks the directory it leaves.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
``S`` seconds into an untraced half and a half served by
``traced_server.py``, and reports the per-layer metrics: span counts and
times, derived layer ratios, and ``tracing_overhead.*`` (traced minus
untraced, per end-to-end metric).  ``NOTES.md`` says why each workload
exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "mixed", "query")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    # the server gets a CPU of its own, the load generator the others
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = {cpus[0]} if len(cpus) > 1 else None
    if server_cpus:
        os.sched_setaffinity(0, set(cpus[1:]))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = bench.run_phase(
                ROOT, args.workload, args.seed, half, work / "plain", False, server_cpus
            )
            traced = bench.run_phase(
                ROOT, args.workload, args.seed, half, work / "traced", True, server_cpus
            )
            metrics = bench.layer_metrics(plain, traced)
            runs = [plain, traced]
        else:
            plain = bench.run_phase(
                ROOT, args.workload, args.seed, args.seconds, work, False, server_cpus
            )
            metrics = {
                name: {"value": plain[name], "unit": unit}
                for name, unit in bench.END_TO_END
            }
            runs = [plain]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run is still using it

    for run in runs:  # the unscaled numbers, for a reader of the log
        host = {key: run[key] for key in run if key.startswith(("raw.", "host_"))}
        print(f"host: {json.dumps(host)}", file=sys.stderr)
    errors = [error for run in runs for error in run["errors"]]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    failed = sum(run["failed"] for run in runs)
    print(
        json.dumps(
            {
                "correct": not errors and failed == 0,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
