"""End-to-end, layer-by-layer benchmark of the Wave-PIM reproduction.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--json OUT]

Runs each workload (default: all of BENCHMARK.json) in child processes
with a scrubbed environment, prints ``workload metric value unit`` per
metric, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (and writes one trace
per workload).  Exits non-zero if any output is wrong or any operation
failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from harness import ROOT, declared_units, environment_record, load_spec, scrubbed_env

BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

#: set-up is measured in this many fresh processes and the median is
#: reported; the last of them goes on to the timed phase.
SETUP_RUNS = 5

#: a workload's processes are killed (and the run failed) after this long.
WORKLOAD_TIMEOUT_S = 170.0


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with ``os.wait4``, killing its group at ``deadline``;
    returns (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(name: str, mode: str, seed: int, seconds: float, work_dir: Path,
              deadline: float, trace_file: Optional[Path] = None):
    """One workload process, killed at ``deadline`` (``time.monotonic``);
    returns (result dict or None, rusage)."""
    out = work_dir / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out), "--work-dir", str(work_dir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    # the child's stdout goes to our stderr: our stdout carries the result.
    proc = subprocess.Popen(cmd, env=scrubbed_env(dict(os.environ), work_dir),
                            stdout=sys.stderr.fileno(), start_new_session=True)
    code, usage = _wait(proc, deadline)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the child left behind
    except ProcessLookupError:
        pass
    if code != 0 or not out.is_file():
        return None, usage
    return json.loads(out.read_text()), usage


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path, spec: dict) -> dict:
    """Measure one workload; returns the contract's result object."""
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "tmp").mkdir(parents=True)
    res, values = None, {}
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        if trace:
            kind = "per_layer"
            trace_dir.mkdir(parents=True, exist_ok=True)
            res, _ = run_child(name, "trace", seed, seconds, work_dir, deadline,
                               trace_dir / f"{name}.trace.json")
            if res:
                values = res["metrics"]
        else:
            kind = "end_to_end"
            setups: List[float] = []
            for _ in range(SETUP_RUNS - 1):
                r, _ = run_child(name, "setup", seed, seconds, work_dir, deadline)
                if r is None:
                    break
                setups.append(r["setup_s"])
            else:
                res, usage = run_child(name, "run", seed, seconds, work_dir,
                                       deadline)
            if res and res["op_fast_s"]:
                values = {
                    "setup_s": statistics.median(setups + [res["setup_s"]]),
                    "op_fast_s": res["op_fast_s"],
                    # ru_maxrss is in KiB on Linux: the largest process of
                    # the workload's tree that has been waited for.
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,
                }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = declared_units(spec, kind)
    errors = list(res["errors"]) if res else [f"{name}: workload process failed"]
    if res and set(values) != set(units):
        errors.append(f"{name}: metrics {sorted(set(values) ^ set(units))} "
                      "differ from BENCHMARK.json")
    attempted = max(1, res["attempted"] if res else 1)
    failed = res["failed"] if res else attempted
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]}
                    for m in units if m in values},
        "errors": errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed phase length per run (default: %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--trace-dir", type=Path, default=WORK_ROOT / "traces",
                    help="where --trace 1 writes <workload>.trace.json")
    ap.add_argument("--json", type=Path, default=None,
                    help="also write the full record (with provenance) here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "EXPERIMENTS.md").is_file():
        print(f"bench: no program to measure under {ROOT} "
              "(need src/repro and EXPERIMENTS.md)", file=sys.stderr)
        return 2

    results = {}
    for name in args.workload or names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.trace_dir, spec)
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}", flush=True)
        for err in res.pop("errors"):
            print(f"bench: FAIL {err}", file=sys.stderr)

    if args.json is not None:
        record = {"environment": environment_record(args.seed),
                  "seconds": args.seconds, "trace": args.trace,
                  "workloads": results}
        args.json.write_text(json.dumps(record, indent=2) + "\n")

    all_ok = all(r["correct"] for r in results.values())
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all_ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
