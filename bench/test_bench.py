"""Tests of the benchmark harness: ``python -m pytest bench -q``.

The smoke tests run every workload function at a tiny size, traced and
plain, and check that it reports exactly the metrics BENCHMARK.json
declares.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import workloads as wl
from harness import (
    LAYERS,
    NAME_RE,
    ROOT,
    Layers,
    declared_units,
    fast_median,
    layer_self_times,
    load_spec,
    percentile_supported,
    scrubbed_env,
    untraced_fraction,
    upper_quartile,
)

SPEC = load_spec()
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics ---------------------------------------------------------- #

def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_supported(20, 50)
    assert not percentile_supported(19, 50)
    assert percentile_supported(40, 75)
    assert not percentile_supported(39, 75)
    assert percentile_supported(100, 90)
    assert not percentile_supported(99, 90)


def test_upper_quartile_is_the_spread_quartile_or_none():
    xs = [float(i) for i in range(40)]
    assert upper_quartile(xs) == statistics.quantiles(xs, n=4)[2]
    # one lost sample leaves too few beyond the p75: no value, no exception
    assert upper_quartile(xs[:-1]) is None


def test_fast_median_ignores_one_lucky_operation():
    assert fast_median([3.0, 1.0, 2.0]) == 1.0
    ops = [0.046] + [0.062 + 0.001 * i for i in range(59)]
    assert fast_median(ops) == pytest.approx(0.0635)


def test_serve_phases_hold_enough_jobs_for_their_percentiles():
    for seconds in (0.1, 5.0, 10.0):
        due = wl._due_times(wl.Serve(), seconds)
        low = [t for t, high in due if not high]
        high = [t for t, high in due if high]
        assert percentile_supported(len(low), 50)
        assert percentile_supported(len(high), 75)
        assert max(low) < min(high)
    assert len(wl._due_times(wl.Serve(), 30.0)) == 60 + 120


# -- span math ------------------------------------------------------------- #

def _span(name, start, end, *children):
    return {"name": name, "start_s": start, "end_s": end, "attrs": {},
            "children": list(children)}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("pim.executor", 0.0, 4.0,
              _span("pim.plan", 1.0, 2.0),
              # overlaps the first child: counted once in the parent
              _span("pim.plan", 1.5, 3.0, _span("dg", 2.0, 2.5))),
        _span("dg", 5.0, 6.0),
    ]
    self_s = layer_self_times(spans)
    assert self_s["pim.executor"] == pytest.approx(2.0)
    assert self_s["pim.plan"] == pytest.approx(1.0 + 1.0)
    assert self_s["dg"] == pytest.approx(0.5 + 1.0)


def test_child_outside_its_parent_is_clipped():
    spans = [_span("serve", 1.0, 2.0, _span("serve.client", 0.5, 1.5))]
    assert layer_self_times(spans)["serve"] == pytest.approx(0.5)


def test_untraced_share_of_wall_time():
    spans = [_span("process", 0.0, 4.0, _span("dg", 1.0, 2.0)),
             _span("dg", 3.0, 6.0)]
    assert untraced_fraction(spans, 10.0) == pytest.approx(0.4)
    assert untraced_fraction(spans, 6.0) == pytest.approx(0.0)


def test_layers_reject_unknown_names_and_record_privately():
    from repro.obs import get_tracer

    layers = Layers(enabled=True)
    with layers.span("dg"):
        pass
    with pytest.raises(ValueError):
        layers.span("not.a.layer")
    assert [s["name"] for s in layers.tracer.export()] == ["dg"]
    assert not get_tracer().enabled


# -- environment ------------------------------------------------------------ #

def test_environment_scrub(tmp_path):
    base = {
        "PATH": "/usr/bin", "HOME": "/home/x", "PYTHONPATH": "/elsewhere",
        "REPRO_SCHED": "on", "REPRO_JOBS": "4", "REPRO_PLAN": "off",
        "REPRO_COUNTERS": "1", "REPRO_SHARDS": "4", "REPRO_TRACE": "1",
        "REPRO_TRACE_FILE": "t.json", "REPRO_NO_CACHE": "1",
        "REPRO_CACHE_DIR": "/home/x/.cache",
    }
    env = scrubbed_env(base, tmp_path)
    assert env["PATH"] == "/usr/bin" and env["HOME"] == "/home/x"
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]
    assert env["REPRO_CACHE_DIR"].startswith(str(tmp_path))
    assert env["TMPDIR"].startswith(str(tmp_path))
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert base["REPRO_SCHED"] == "on"  # the caller's mapping is untouched


# -- BENCHMARK.json ------------------------------------------------------- #

def test_declared_names_units_and_bounds():
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    metrics = [m["name"] for m in e2e + per_layer]
    workload_names = [w["name"] for w in SPEC["workloads"]]
    assert len(set(metrics)) == len(metrics)
    assert len(set(workload_names)) == len(workload_names)
    for name in metrics + workload_names:
        assert NAME_RE.match(name), name
    for m in e2e + per_layer:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in e2e)
    assert set(workload_names) == set(wl.WORKLOADS)
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics


# -- tiny smoke runs of every workload function ------------------------- #

TINY_ACOUSTIC = wl.Problem("acoustic", level=1, flux="riemann", blocks_per_element=1)
FIG13_CELL = (("acoustic", 4, "2GB", "riemann", 7, "htree"),)
#: run with a timed phase far shorter than its 20 + 40 jobs take, so
#: the phases are sized by job count
TINY_SERVE = wl.Serve(low_rate=40.0, high_rate=80.0, level=1, order=1, steps=2,
                      checkpoint_every=1, recompute=2)
#: workload -> (tiny size config, timed seconds)
TINY = {
    "fig11-cold": (wl.Artifact(warm=False, experiment="fig13", cells=FIG13_CELL), 0.0),
    "fig11-warm": (wl.Artifact(warm=True, experiment="fig13", cells=FIG13_CELL), 0.0),
    "pim-acoustic-r2": (wl.Pim(TINY_ACOUSTIC, steps_per_check=1), 0.0),
    "pim-elastic-r1": (wl.Pim(wl.ELASTIC_R1, steps_per_check=1), 0.0),
    "shard4-acoustic-r2": (wl.Sharded(TINY_ACOUSTIC, n_shards=2, steps_per_call=1), 0.0),
    "serve-open-loop": (TINY_SERVE, 0.1),
}


@pytest.fixture
def bench_env(tmp_path, monkeypatch):
    """The environment the runner gives a workload process."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    for key, value in scrubbed_env(dict(os.environ), tmp_path).items():
        monkeypatch.setenv(key, value)
    (tmp_path / "tmp").mkdir()
    return tmp_path


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_smoke_emits_declared_metrics(name, bench_env):
    fn, _ = wl.WORKLOADS[name]
    cfg, seconds = TINY[name]
    t0 = time.perf_counter()
    plain = wl.plain_result(fn(wl.Context(0, seconds, False, Layers(enabled=False),
                                          bench_env, t0), cfg))
    assert plain["failed"] == 0, plain["errors"]
    assert plain["attempted"] >= 1 and plain["op_fast_s"] > 0
    # the runner adds peak_rss_mb from wait4 to the child's two timings
    assert {"setup_s", "op_fast_s", "peak_rss_mb"} == set(
        declared_units(SPEC, "end_to_end"))

    trace_file = bench_env / "t.json"
    traced = wl.traced_result(fn, cfg, 0, seconds, bench_env,
                              (time.perf_counter() - 0.01, time.perf_counter()),
                              trace_file, name)
    assert traced["failed"] == 0, traced["errors"]
    assert set(traced["metrics"]) == set(declared_units(SPEC, "per_layer"))
    assert trace_file.is_file() and (bench_env / "t.chrome.json").is_file()
    assert traced["metrics"]["trace.overhead_x"] > 0


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pim-elastic-r1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
