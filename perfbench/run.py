"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process.  With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics instead.  Lines before it give every figure by name and
unit, including the ones the JSON leaves out.  The exit code is non-zero when
any request failed or any output check did not hold.

Every run works in a fresh directory under ``.perfbench_tmp/`` in the
repository (the artifact store, chemistry integrals and temporary files), so
no earlier run or user cache can turn a cold request warm; it is removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("compile-cold", "serve-warm", "serve-mix")
#: A run that is still going after this long kills its server children and
#: exits non-zero, inside the 180 s a run may take.
DEADLINE_SECONDS = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _expected_layers(workload: str) -> set[str]:
    """Per-layer metrics ``design.json`` predicts on ``workload``."""
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    return {name for p in design["predictions"]
            if workload in p["on"] or "all" in p["on"] for name in p["metrics"]}


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            return _fail(f"{workload} printed no result (exit {proc.returncode})")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host CPUs, where /proc/stat exists."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(x) for x in fields]
    return (ticks[7], sum(ticks[:8])) if len(ticks) >= 8 else None


def run_one(args, run_root: Path) -> int:
    bench_cache = run_root / "bench"
    bench_cache.mkdir(parents=True)
    (run_root / "tmp").mkdir()
    # Before repro is imported: its chemistry cache and the artifact store
    # resolve from here, and temporary files stay inside the run directory.
    os.environ["REPRO_CACHE_DIR"] = str(bench_cache)
    os.environ["TMPDIR"] = str(run_root / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import serving
    from perfbench.cold import compile_cold

    def deadline() -> None:
        print(f"perfbench: run exceeded {DEADLINE_SECONDS:.0f} s; stopping",
              file=sys.stderr, flush=True)
        serving.kill_servers()
        os._exit(3)

    watchdog = threading.Timer(DEADLINE_SECONDS, deadline)
    watchdog.daemon = True
    watchdog.start()
    before = _cpu_ticks()
    try:
        runner = {
            "compile-cold": compile_cold,
            "serve-warm": serving.serve_warm,
            "serve-mix": serving.serve_mix,
        }[args.workload]
        out = runner(run_root, bench_cache, args.seed, args.seconds, bool(args.trace))
    finally:
        watchdog.cancel()
        serving.kill_servers()
    after = _cpu_ticks()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests: when it is high,
        # every timing of this run reads slow.
        out.setdefault("notes", {})["host_steal_share"] = (
            (after[0] - before[0]) / (after[1] - before[1]))
    return report(args, out)


def report(args, out: dict) -> int:
    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = dict(out["metrics"])
    if args.trace:
        # A layer this workload is not predicted to enter reads zero; one it
        # should enter but left no span for is reported missing below.
        expected = _expected_layers(args.workload)
        for m in declared:
            if m["name"] not in expected:
                metrics.setdefault(m["name"], 0.0)
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        out["failures"].append(f"metrics not measured: {missing}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:>14.6g} {units.get(name, '')}")
    print(f"  {'error_rate':28s} {failed / max(1, attempted):>14.6g} ratio")
    for name, value in sorted(out.get("notes", {}).items()):
        print(f"  {name:28s} {value:>14.6g}")
    for failure in out["failures"][:20]:
        print(f"  CHECK FAILED: {failure}")
    correct = not out["failures"] and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    tmp_root = ROOT / ".perfbench_tmp"
    run_root = tmp_root / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    try:
        return run_one(args, run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
