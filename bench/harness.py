"""Measurement helpers shared by the benchmark runner and its workloads.

Nothing here imports ``repro`` at module level: the runner process stays
free of the program under test, and each workload child pays for its own
imports inside its measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: allowed metric / workload names (the BENCHMARK.json contract).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: the layers the traced run wraps; every call into the program from a
#: workload goes through one of these spans.  ``serve`` is the time the
#: client waits on the running service (pacing and drain).
LAYERS = (
    "process",
    "core.compiler",
    "core.cache",
    "eval.experiments",
    "core.kernels",
    "pim.plan",
    "pim.schedule",
    "pim.executor",
    "pim.multichip",
    "dg",
    "serve",
    "serve.client",
    "serve.worker",
)

#: a traced run fails when more of its wall time than this is in no layer.
MAX_UNTRACED_FRAC = 0.05


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(spec: dict, kind: str) -> Dict[str, str]:
    """``{metric: unit}`` for ``kind`` in ("end_to_end", "per_layer")."""
    return {m["name"]: m["unit"] for m in spec[kind]}


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #

def percentile_supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ten beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def upper_quartile(values: List[float]) -> Optional[float]:
    """The p75 of ``values``, or ``None`` when too few samples lie beyond it.

    Every quartile here is ``statistics.quantiles(values, n=4)`` with its
    default method, the one :func:`spread` uses.
    """
    if not percentile_supported(len(values), 75):
        return None
    return statistics.quantiles(values, n=4)[2]


def fast_median(ops: List[float]) -> float:
    """Median of the fastest tenth of ``ops``: the fastest when fewer than
    20 ran.  It stays in the machine's fast periods, like the minimum,
    but one lucky operation cannot set it."""
    return statistics.median(sorted(ops)[:max(1, len(ops) // 10)])


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# --------------------------------------------------------------------- #
# tracing: per-layer self time over a span tree
# --------------------------------------------------------------------- #

def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span name: duration minus what its children cover.

    ``spans`` are exported span dicts (``Tracer.export``); children are
    clipped to their parent before their union is subtracted.
    """
    out: Dict[str, float] = {}

    def walk(span: dict) -> None:
        lo, hi = span["start_s"], span["end_s"]
        covered = _union_length([
            (max(lo, c["start_s"]), min(hi, c["end_s"]))
            for c in span.get("children", ())
            if c["end_s"] > lo and c["start_s"] < hi
        ])
        out[span["name"]] = out.get(span["name"], 0.0) + (hi - lo) - covered
        for c in span.get("children", ()):
            walk(c)

    for root in spans:
        walk(root)
    return out


def untraced_fraction(spans: List[dict], wall_s: float) -> float:
    """Share of ``wall_s`` covered by no root span."""
    covered = _union_length([(s["start_s"], s["end_s"]) for s in spans])
    return max(0.0, wall_s - covered) / wall_s if wall_s > 0 else 0.0


class Layers:
    """Spans around calls into each layer, on a private tracer.

    The global ``repro`` tracer stays off, so the program's own spans are
    never recorded; with ``enabled=False`` every span is a shared no-op.
    """

    def __init__(self, enabled: bool):
        from repro.obs import Tracer

        #: ``perf_counter`` origin of the span times (the tracer's own
        #: epoch is taken microseconds later).
        self.epoch = time.perf_counter()
        self.tracer = Tracer(enabled=enabled)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def span(self, layer: str, **attrs):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        return self.tracer.span(layer, **attrs)


# --------------------------------------------------------------------- #
# environment and record
# --------------------------------------------------------------------- #

def scrubbed_env(base: Dict[str, str], work_dir: Path) -> Dict[str, str]:
    """The environment of a workload process.

    Inherited ``REPRO_*`` knobs (scheduler, plan, counters, shards, trace,
    jobs, cache switches) are dropped so every run exercises the default
    paths; the compile cache and temporary files live in the bench's own
    ``work_dir``; ``src`` is the only import path for the program.
    """
    env = {k: v for k, v in base.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    env["TMPDIR"] = str(work_dir / "tmp")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    """sha256 over the files under ``src/`` outside ``__pycache__``
    (paths and bytes, sorted)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_record(seed: int) -> dict:
    """Provenance of one benchmark run (git state may be absent)."""
    import platform
    import subprocess

    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if head else None
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_head": head,
        "git_dirty": bool(status) if status is not None else None,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }
