"""Run-to-run spread of the end-to-end metrics.

    python3 bench/stability.py

Runs ``bench/run.py`` once per (seed, workload) for every workload of
BENCHMARK.json and seeds 1 .. RUNS, interleaving workloads so slow drift
of the machine spreads over all of them.  For every workload and
end-to-end metric it writes the median, the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``) and the raw
values to bench/measured_spread.json, and prints each spread next to a
third of the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT, environment_record, load_spec, spread

BENCH = Path(__file__).resolve().parent
RUNS = 10
OUT = BENCH / "measured_spread.json"


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {n: {m: [] for m in bounds} for n in names}
    failures = 0
    for seed in range(1, RUNS + 1):
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not res["correct"]:
                failures += 1
                print(f"{name} seed {seed}: FAILED", file=sys.stderr)
                continue
            for m, v in res["metrics"].items():
                values[name][m].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                file=sys.stderr, flush=True)

    report = {}
    for name in names:
        report[name] = {}
        for m, vs in values[name].items():
            if len(vs) < 2:
                continue
            s = spread(vs)
            report[name][m] = {"median": statistics.median(vs), "spread": s,
                               "values": vs}
            flag = "ok" if s < bounds[m] / 3 else "WIDE"
            print(f"{name:20s} {m:12s} median {statistics.median(vs):10.4g} "
                  f"spread {s:6.2%} (bound/3 {bounds[m] / 3:.2%}) {flag}")
    OUT.write_text(json.dumps({
        "environment": environment_record(1),
        "runs": RUNS, "seconds": spec["run_seconds"],
        "failures": failures, "workloads": report,
    }, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
