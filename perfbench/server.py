"""Benchmark-owned server launcher (runs as the server child process).

Starts the compile service the way ``repro serve`` does — thread executor,
one worker per CPU, the default memory-LRU capacity, the CLI's default
shedding cap and retry policy — over ``--cache-dir``, and prints
``PORT <n>`` once listening.  With ``--trace 1`` it installs the benchmark's
entry-point wrappers before calling ``run_server``; spans are attributed to
each job's trace id.  On SIGTERM ``run_server`` drains, and the launcher
writes ``--report``: peak RSS and the spans recorded.

Usage: ``python3 perfbench/server.py --cache-dir DIR --report FILE --trace 0|1``
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.obs.trace import current_trace_id
    from repro.serve import JobQueue, RetryPolicy, run_server
    from repro.service import MappingService

    from perfbench.tracing import Tracer

    tracer = Tracer(request_key=current_trace_id, prefix="s").install() if args.trace else None
    queue = JobQueue(
        service=MappingService(cache_dir=args.cache_dir, use_disk=True),
        workers=os.cpu_count() or 1,
        executor="thread",
        max_pending=256,
        retry=RetryPolicy(max_attempts=3),
    )

    def ready(server) -> None:
        print(f"PORT {server.port}", flush=True)

    try:
        run_server(queue, host="127.0.0.1", port=0, ready=ready)
    finally:
        queue.shutdown(wait=False, cancel_futures=True)
        report = {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans if tracer is not None else [],
        }
        Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
