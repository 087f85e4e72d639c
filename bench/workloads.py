"""The benchmark's workloads.  Each run of one happens in its own process.

``bench/run.py`` starts this file as a child process; to debug one
workload by hand::

    mkdir -p .bench_work/debug
    PYTHONPATH=src python bench/workloads.py --workload pim-acoustic-r2 \\
        --seed 0 --seconds 10 --mode run --out /dev/stdout \\
        --work-dir .bench_work/debug

``--mode setup`` stops after set-up (the runner repeats set-up in fresh
processes and reports the median), ``run`` adds the timed phase, and
``trace`` runs the workload once with layer spans and once plain, and
writes the per-layer metrics.

A workload function takes a :class:`Context` and its size config and
returns an :class:`Outcome`: the set-up time, one host time per timed
operation, failure counts and the layer values only it can measure.
Set-up time runs from the start of the process (before the program is
imported) to the first timed operation; for the service it runs from
spawning the service.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import (
    MAX_UNTRACED_FRAC,
    MIN_TAIL_SAMPLES,
    ROOT,
    Layers,
    declared_units,
    fast_median,
    layer_self_times,
    load_spec,
    untraced_fraction,
    upper_quartile,
)

#: PIM results must match the numpy dG reference to float32 accuracy.
REL_ERR_CAP = 1e-5

#: a serve job whose result has not appeared this long after the last
#: submission counts as failed.
SERVE_DRAIN_TIMEOUT_S = 60.0


@dataclass
class Context:
    seed: int
    seconds: float
    setup_only: bool
    layers: Layers
    work_dir: Path
    #: ``time.perf_counter()`` at process start, the origin of set-up time.
    t0: float


@dataclass
class Outcome:
    setup_s: float
    #: host seconds of each timed operation.
    ops: List[float] = field(default_factory=list)
    #: wall time of the whole timed phase (operations plus checks).
    timed_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: per-layer values measured inside the workload (BENCHMARK.json names).
    layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)


def _rel_err(got, ref) -> float:
    import numpy as np

    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# --------------------------------------------------------------------- #
# fig11-cold / fig11-warm: the paper-artifact path
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Artifact:
    """``repro run <experiment>`` with an empty or a filled compile cache."""

    warm: bool
    experiment: str = "fig11"
    #: compile cells the experiment needs; ``None`` is the full 6x4 grid.
    cells: Optional[Tuple[tuple, ...]] = None


def _artifact_cells(cfg: Artifact) -> List[tuple]:
    if cfg.cells is not None:
        return list(cfg.cells)
    from repro import CHIP_CONFIGS, benchmark_list

    return [(spec.physics, spec.refinement_level, chip, spec.flux_kind, 7, "htree")
            for spec in benchmark_list() for chip in CHIP_CONFIGS]


def _use_cache_dir(path: Path):
    """Point this process's compile cache and memo at ``path``."""
    from repro.core.cache import default_cache
    from repro.eval.experiments import clear_compiled_cache

    os.environ["REPRO_CACHE_DIR"] = str(path)
    clear_compiled_cache()
    return default_cache(refresh=True)


def run_artifact(ctx: Context, cfg: Artifact) -> Outcome:
    """Plain: the CLI in a subprocess.  Traced: the same work in-process,
    one layer call per compile cell, then the table."""
    from repro.eval.experiments import run_experiment, warm_compile_grid

    L = ctx.layers
    out = Outcome(setup_s=time.perf_counter() - ctx.t0)
    if ctx.setup_only:
        return out
    expected = (ROOT / "EXPERIMENTS.md").read_text()
    cells = _artifact_cells(cfg)
    warm_dir = ctx.work_dir / "cache-warm"

    def cli_run(cache_dir: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "run", cfg.experiment],
            env=dict(os.environ, REPRO_CACHE_DIR=str(cache_dir)),
            capture_output=True, text=True, timeout=120)

    if cfg.warm:
        with L.span("core.compiler"):
            cli_run(warm_dir).check_returncode()
    cell_s: List[float] = []
    table_s: List[float] = []
    import_s: List[float] = []
    hits = misses = 0
    t_phase = time.perf_counter()
    while not out.ops or time.perf_counter() - t_phase < ctx.seconds:
        cache_dir = (warm_dir if cfg.warm else
                     Path(tempfile.mkdtemp(prefix="cache-cold-", dir=ctx.work_dir)))
        t_op = time.perf_counter()
        if L.enabled:
            with L.span("process"):
                subprocess.run([sys.executable, "-c", "import repro"], check=True)
            import_s.append(time.perf_counter() - t_op)
            cache = _use_cache_dir(cache_dir)
            for cell in cells:
                t = time.perf_counter()
                with L.span("core.cache" if cfg.warm else "core.compiler"):
                    warm_compile_grid(order=7, jobs=1, cells=[cell])
                cell_s.append(time.perf_counter() - t)
            t = time.perf_counter()
            with L.span("eval.experiments"):
                text = run_experiment(cfg.experiment).render()
            table_s.append(time.perf_counter() - t)
            hits, misses = hits + cache.stats.hits, misses + cache.stats.misses
            ok = True
        else:
            proc = cli_run(cache_dir)
            text, ok = proc.stdout, proc.returncode == 0
        out.ops.append(time.perf_counter() - t_op)
        out.attempted += 1
        if not ok:
            out.fail(1, f"repro run {cfg.experiment} exited non-zero")
        elif text.strip() not in expected:
            out.fail(1, f"{cfg.experiment} output is not in EXPERIMENTS.md")
    out.timed_wall_s = time.perf_counter() - t_phase
    if L.enabled:
        out.layer.update({
            "process.import_s": statistics.median(import_s),
            "core.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "eval.experiments.table_s": statistics.median(table_s),
        })
        if cfg.warm:
            out.layer["core.cache.cell_hit_p50_s"] = statistics.median(cell_s)
        else:
            out.layer["core.compiler.grid_cold_s"] = sum(cell_s[:len(cells)])
            out.layer["core.compiler.cell_cold_p50_s"] = statistics.median(cell_s)
    return out


# --------------------------------------------------------------------- #
# the simulation problem shared by the PIM and sharded workloads
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Problem:
    """A seeded heterogeneous-material dG problem and its PIM kernels."""

    physics: str  # "acoustic" | "elastic"
    level: int
    flux: str
    blocks_per_element: int
    order: int = 2


def build_problem(cfg: Problem, seed: int) -> dict:
    """Mesh, material, initial state, time step, reference operator and a
    kernel factory; the seed sets the material and the state."""
    import numpy as np

    from repro.core.kernels.acoustic import (
        AcousticFourBlockKernels,
        AcousticOneBlockKernels,
    )
    from repro.core.kernels.elastic import ElasticFourBlockKernels
    from repro.dg import (
        AcousticMaterial,
        AcousticOperator,
        ElasticMaterial,
        ElasticOperator,
        HexMesh,
        ReferenceElement,
        cfl_timestep,
    )

    rng = np.random.default_rng(seed)
    mesh = HexMesh.from_refinement_level(cfg.level)
    elem = ReferenceElement(cfg.order)
    n = mesh.n_elements
    if cfg.physics == "acoustic":
        mat = AcousticMaterial(kappa=rng.uniform(1.0, 2.0, n),
                               rho=rng.uniform(0.5, 1.5, n))
        op = AcousticOperator(mesh, mat, elem, flux=cfg.flux)
        kernels = (AcousticOneBlockKernels if cfg.blocks_per_element == 1
                   else AcousticFourBlockKernels)
        n_vars = 4
    else:
        mat = ElasticMaterial(lam=rng.uniform(1.0, 2.0, n),
                              mu=rng.uniform(0.5, 1.5, n),
                              rho=rng.uniform(0.8, 1.2, n))
        op = ElasticOperator(mesh, mat, elem, flux=cfg.flux)
        kernels = ElasticFourBlockKernels
        n_vars = 9
    state = (0.1 * rng.standard_normal((n_vars, n, elem.n_nodes))).astype(np.float32)

    def factory(mapper):
        return kernels(mesh, elem, mat, mapper, flux_kind=cfg.flux)

    return {
        "mesh": mesh,
        "op": op,
        "state": state,
        "dt": cfl_timestep(mesh.h, mat.max_speed, cfg.order, cfl=0.3),
        "factory": factory,
    }


def reference(problem: dict, n_steps: int):
    """numpy LSRK45 dG solution after ``n_steps``; returns (state, s/step)."""
    import numpy as np

    from repro.dg.timestepping import LSRK45

    op = problem["op"]
    ref = problem["state"].astype(np.float64)
    aux = np.zeros_like(ref)
    stepper = LSRK45(lambda s: op.rhs(s))
    t = time.perf_counter()
    for _ in range(n_steps):
        stepper.step(ref, 0.0, problem["dt"], aux)
    return ref, (time.perf_counter() - t) / n_steps


# --------------------------------------------------------------------- #
# pim-acoustic-r2 / pim-elastic-r1: functional PIM on one chip
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Pim:
    """Emit, lower and schedule one RK step, then replay it functionally."""

    problem: Problem
    #: steps per correctness check; each check reloads the initial state.
    steps_per_check: int = 10


def run_pim(ctx: Context, cfg: Pim) -> Outcome:
    from repro.core.mapper import ElementMapper
    from repro.obs import HardwareCounters
    from repro.pim.chip import PimChip
    from repro.pim.executor import ChipExecutor
    from repro.pim.params import CHIP_CONFIGS
    from repro.pim.schedule import schedule_plan

    L = ctx.layers
    with L.span("dg"):
        prob = build_problem(cfg.problem, ctx.seed)
    with L.span("pim.executor"):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip, counters=False)
    with L.span("core.kernels"):
        mapper = ElementMapper(prob["mesh"].m, chip.config,
                               cfg.problem.blocks_per_element)
        kern = prob["factory"](mapper)
        t = time.perf_counter()
        step = kern.time_step(prob["dt"])
        emit_s = time.perf_counter() - t
        reload = kern.setup() + kern.load_state(prob["state"])
    t = time.perf_counter()
    with L.span("pim.plan"):
        plan = ex.lower(step)
    lower_s = time.perf_counter() - t
    t = time.perf_counter()
    with L.span("pim.schedule"):
        plan = schedule_plan(ex, plan)
    schedule_s = time.perf_counter() - t
    t = time.perf_counter()
    with L.span("pim.executor"):
        ex.run(reload, functional=True)
    load_s = time.perf_counter() - t
    t = time.perf_counter()
    with L.span("pim.executor"):
        ex.run(plan, functional=True)
    warmup_s = time.perf_counter() - t
    out = Outcome(setup_s=time.perf_counter() - ctx.t0)
    if ctx.setup_only:
        return out

    k = cfg.steps_per_check
    ref = None
    worst = 0.0
    modeled_s = modeled_j = None
    with L.span("pim.executor"):
        ex.reset_clocks()
    t_phase = time.perf_counter()
    while not out.ops or time.perf_counter() - t_phase < ctx.seconds:
        with L.span("pim.executor"):
            ex.run(reload, functional=True)
        clock0, energy = ex.now(), 0.0
        for _ in range(k):
            t = time.perf_counter()
            with L.span("pim.executor"):
                energy += ex.run(plan, functional=True).dynamic_energy_j
            out.ops.append(time.perf_counter() - t)
        if modeled_s is None:
            modeled_s, modeled_j = (ex.now() - clock0) / k, energy / k
        with L.span("core.kernels"):
            got = kern.read_state(chip)
        if ref is None:
            with L.span("dg"):
                ref, ref_step_s = reference(prob, k)
        err = _rel_err(got, ref)
        worst = max(worst, err)
        out.attempted += k
        if not err <= REL_ERR_CAP:
            out.fail(k, f"rel_err {err:.3g} > {REL_ERR_CAP:g} after {k} steps")
    out.timed_wall_s = time.perf_counter() - t_phase

    replay_p50 = statistics.median(out.ops)
    out.layer.update({
        "core.kernels.emit_s": emit_s,
        "core.kernels.insts_per_step": len(step),
        "pim.plan.lower_s": lower_s,
        "pim.plan.segments": plan.n_segments,
        "pim.plan.transfers": plan.n_transfers,
        "pim.plan.vectorized_fraction": plan.vectorized_fraction,
        "pim.schedule.schedule_s": schedule_s,
        "pim.schedule.improvement_x": plan.schedule_stats["improvement"],
        "pim.executor.load_s": load_s,
        "pim.executor.warmup_s": warmup_s,
        "pim.executor.replay_p50_s": replay_p50,
        "pim.executor.insts_per_host_s": len(step) / replay_p50,
        "dg.ref_step_s": ref_step_s,
        "modeled_step_cycles": modeled_s * chip.config.clock_hz,
        "modeled_step_j": modeled_j,
        "rel_err": worst,
    })
    if L.enabled:
        # utilization of one step from cold clocks; recording every timed
        # step would make attribution cost more than the steps.
        with L.span("pim.executor"):
            ex.reset_clocks()
            ex.counters = HardwareCounters()
            ex.run(plan, functional=False)
            attrib = ex.attribution()
        out.layer["pim.executor.block_util"] = attrib.block_util
        out.layer["pim.executor.link_util"] = attrib.link_util
    return out


# --------------------------------------------------------------------- #
# shard4-acoustic-r2: the same problem on four chips
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Sharded:
    """``ShardedExecutor`` on the 48-block proxy chip, threads off."""

    problem: Problem
    n_shards: int = 4
    #: steps per ``run_steps`` call.  Each call reloads the state first:
    #: consecutive calls drop their last halo exchange (bench/README.md).
    steps_per_call: int = 3


def _plans_per_step(sx) -> dict:
    """Instruction / segment / transfer totals one RK step replays."""
    from repro.dg.timestepping import LSRK45

    stages = LSRK45.n_stages
    tot = {"insts": 0, "segments": 0, "transfers": 0, "dispatch": 0}
    for sh in sx.shards:
        weighted = [(sh.vol_plan, stages), (sh.flux_plan, stages)]
        weighted += [(p, 1) for p in sh.int_plans]
        for plan, reps in weighted:
            tot["insts"] += reps * plan.n_instructions
            tot["segments"] += reps * plan.n_segments
            tot["transfers"] += reps * plan.n_transfers
            tot["dispatch"] += reps * plan.n_dispatch
    return tot


def run_sharded(ctx: Context, cfg: Sharded) -> Outcome:
    from repro.pim.multichip import ShardedExecutor, single_chip_batched_makespan
    from repro.pim.params import CHIP_CONFIGS
    from repro.workloads.sharding import shard_proxy_chip

    L = ctx.layers
    with L.span("dg"):
        prob = build_problem(cfg.problem, ctx.seed)
    mesh, state, dt = prob["mesh"], prob["state"], prob["dt"]
    t = time.perf_counter()
    with L.span("pim.multichip"):
        sx = ShardedExecutor(mesh, shard_proxy_chip(), prob["factory"],
                             n_shards=cfg.n_shards)
    construct_s = time.perf_counter() - t
    t = time.perf_counter()
    with L.span("pim.multichip"):
        sx.setup(state)
    mc_setup_s = time.perf_counter() - t
    t = time.perf_counter()
    with L.span("pim.multichip"):
        sx.lower_step(dt)
    lower_s = time.perf_counter() - t
    out = Outcome(setup_s=time.perf_counter() - ctx.t0)
    if ctx.setup_only:
        return out

    k = cfg.steps_per_call
    ref = first = None
    worst = 0.0
    t_phase = time.perf_counter()
    while not out.ops or time.perf_counter() - t_phase < ctx.seconds:
        with L.span("pim.multichip"):
            sx.setup(state)
        clock0 = max(sh.executor.now() for sh in sx.shards)
        t = time.perf_counter()
        with L.span("pim.multichip"):
            res = sx.run_steps(dt, n_steps=k)
        out.ops.append((time.perf_counter() - t) / k)
        if first is None:
            first = (res, clock0)
        with L.span("pim.multichip"):
            got = sx.read_state()
        if ref is None:
            with L.span("dg"):
                ref, ref_step_s = reference(prob, k)
        err = _rel_err(got, ref)
        worst = max(worst, err)
        out.attempted += k
        if not err <= REL_ERR_CAP:
            out.fail(k, f"rel_err {err:.3g} > {REL_ERR_CAP:g} after {k} steps")
    out.timed_wall_s = time.perf_counter() - t_phase

    res, clock0 = first
    modeled_s = (res.makespan_s - clock0) / k
    tot = _plans_per_step(sx)
    out.layer.update({
        "core.kernels.insts_per_step": tot["insts"],
        "pim.plan.lower_s": lower_s,
        "pim.plan.segments": tot["segments"],
        "pim.plan.transfers": tot["transfers"],
        "pim.plan.vectorized_fraction":
            1.0 - (tot["dispatch"] + tot["transfers"]) / tot["insts"],
        "pim.multichip.construct_s": construct_s,
        "pim.multichip.setup_s": mc_setup_s,
        "pim.multichip.step_p50_s": statistics.median(out.ops),
        "pim.multichip.halo_wait_cycles": res.halo_wait_s / k * sx.config.clock_hz,
        "pim.multichip.exchange_bytes": res.exchange_bytes / k,
        "dg.ref_step_s": ref_step_s,
        "modeled_step_cycles": modeled_s * sx.config.clock_hz,
        "modeled_step_j": res.report.dynamic_energy_j / k,
        "rel_err": worst,
    })
    if L.enabled:
        with L.span("pim.multichip"):
            # compute/exchange overlap needs counters on every shard: one
            # analytic call on a recording copy.
            counted = ShardedExecutor(mesh, shard_proxy_chip(), prob["factory"],
                                      n_shards=cfg.n_shards, counters=True)
            overlap = counted.run_steps(dt, n_steps=k, functional=False)
            single_s, _ = single_chip_batched_makespan(
                mesh, shard_proxy_chip(), prob["factory"],
                blocks_per_element=cfg.problem.blocks_per_element, dt=dt)
            one = ShardedExecutor(mesh, CHIP_CONFIGS["512MB"], prob["factory"],
                                  n_shards=1)
            one.setup(state)
            one.lower_step(dt)
            t = time.perf_counter()
            one.run_steps(dt, n_steps=k)
            one_step_s = (time.perf_counter() - t) / k
        out.layer["pim.multichip.overlap_fraction"] = overlap.overlap_fraction
        out.layer["pim.multichip.speedup_x"] = single_s / modeled_s
        out.layer["pim.multichip.host_overhead_x"] = (
            statistics.median(out.ops) / one_step_s)
    return out


# --------------------------------------------------------------------- #
# serve-open-loop: simulate jobs through `repro serve`
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Serve:
    """An open loop of numpy-dG ``simulate`` jobs: the timed phase is split
    evenly between a low and a high arrival rate."""

    low_rate: float = 4.0  # jobs per second
    high_rate: float = 8.0
    level: int = 2
    order: int = 2
    steps: int = 20
    checkpoint_every: int = 5
    #: jobs recomputed in-process to check the published digests.
    recompute: int = 5


def _job_params(cfg: Serve, rng: random.Random, i: int) -> dict:
    """Job ``i`` of the loop: every fourth is elastic/central, the rest
    acoustic/riemann; the source position and frequency are seeded."""
    physics, flux = ("elastic", "central") if i % 4 == 3 else ("acoustic", "riemann")
    return {
        "physics": physics, "flux": flux, "level": cfg.level,
        "order": cfg.order, "steps": cfg.steps,
        "checkpoint_every": cfg.checkpoint_every,
        "source": {
            "position": [round(rng.uniform(0.2, 0.8), 6) for _ in range(3)],
            "peak_frequency": round(rng.uniform(4.0, 8.0), 6),
        },
    }


def _due_times(cfg: Serve, seconds: float) -> List[Tuple[float, bool]]:
    """``(offset_s, high)`` of every job: half of ``seconds`` at each rate,
    but never fewer jobs than the phase's reported percentile needs (a
    median at the low rate, a p75 at the high rate)."""
    n_low = max(2 * MIN_TAIL_SAMPLES, round(seconds / 2 * cfg.low_rate))
    n_high = max(4 * MIN_TAIL_SAMPLES, round(seconds / 2 * cfg.high_rate))
    low = [(i / cfg.low_rate, False) for i in range(n_low)]
    high = [(n_low / cfg.low_rate + i / cfg.high_rate, True) for i in range(n_high)]
    return low + high


def _wait_for(path: Path, deadline: float, poll_s: float = 0.002) -> bool:
    while not path.exists():
        if time.time() > deadline:
            return False
        time.sleep(poll_s)
    return True


def _stop_service(proc: subprocess.Popen) -> None:
    """SIGINT: the service stops its workers and exits.  A service that
    hangs is killed; workers it leaves behind stay in this process group,
    which the runner kills when the workload process ends."""
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_serve(ctx: Context, cfg: Serve) -> Outcome:
    from repro.serve.client import result_path, submit
    from repro.serve.queue import Journal
    from repro.serve.worker import execute_job

    L = ctx.layers
    rng = random.Random(ctx.seed)
    warm_params = _job_params(cfg, rng, 0)
    schedule = [] if ctx.setup_only else _due_times(cfg, ctx.seconds)
    params = [_job_params(cfg, rng, i) for i in range(len(schedule))]
    workdir = ctx.work_dir / f"serve-{os.getpid()}-{time.monotonic_ns()}"
    due: List[float] = []
    written: List[float] = []
    ids: List[str] = []
    t_spawn = time.perf_counter()
    with L.span("serve"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run", "--workdir",
             str(workdir), "--workers", "2", "--forever", "--log-level", "warning"],
            stdout=subprocess.DEVNULL)
    try:
        with L.span("serve.client"):
            warm_id = submit(workdir, "simulate", warm_params)
        with L.span("serve"):
            ok = _wait_for(result_path(workdir, warm_id), time.time() + 60)
        if not ok:
            raise RuntimeError("the service published no warm-up result in 60 s")
        # the service's set-up; the client's own import is not part of it
        out = Outcome(setup_s=time.perf_counter() - t_spawn)
        if ctx.setup_only:
            return out
        t_phase = time.perf_counter()
        start = time.time() + 0.05
        for (offset, _), p in zip(schedule, params):
            due.append(start + offset)
            with L.span("serve"):
                time.sleep(max(0.0, due[-1] - time.time()))
            written.append(time.time())
            with L.span("serve.client"):
                ids.append(submit(workdir, "simulate", p))
        deadline = time.time() + SERVE_DRAIN_TIMEOUT_S
        with L.span("serve"):
            published = [_wait_for(result_path(workdir, j), deadline) for j in ids]
    finally:
        with L.span("serve"):
            _stop_service(proc)
    n_jobs = len(schedule)
    out.attempted = n_jobs
    out.timed_wall_s = time.perf_counter() - t_phase
    if len(set(ids) - {warm_id}) != n_jobs:
        out.fail(n_jobs - len(set(ids) - {warm_id}),
                 "the generated loop repeats a job id")

    events: Dict[str, Dict[str, float]] = {}
    retries = 0
    for e in Journal.load(workdir / "journal.jsonl"):
        if e.get("event") in ("submit", "start", "done"):
            events.setdefault(e["job"], {})[e["event"]] = e["ts"]
        retries += e.get("event") == "fail"
    digests: Dict[str, str] = {}
    ingest, queue, execute, publish, overhead = [], [], [], [], []
    latency: Dict[bool, List[float]] = {False: [], True: []}
    high_queue: List[float] = []
    for j, d, w, seen, (_, high) in zip(ids, due, written, published, schedule):
        if not seen:
            out.fail(1, f"job {j}: no result within {SERVE_DRAIN_TIMEOUT_S:g} s")
            continue
        path = result_path(workdir, j)
        doc = json.loads(path.read_text())
        ev = events.get(j, {})
        if doc.get("status") != "done" or set(ev) != {"submit", "start", "done"}:
            out.fail(1, f"job {j} ended {doc.get('status')!r}")
            continue
        digests[j] = doc["result"]["digest"]
        published_at = path.stat().st_mtime
        out.ops.append(published_at - d)
        latency[high].append(published_at - d)
        ingest.append(ev["submit"] - w)
        queue.append(ev["start"] - ev["submit"])
        if high:
            high_queue.append(queue[-1])
        execute.append(ev["done"] - ev["start"])
        publish.append(published_at - ev["done"])
        overhead.append(out.ops[-1] - execute[-1])

    # recompute a seeded sample in-process: 4 acoustic jobs and 1 elastic
    acoustic = [i for i, p in enumerate(params) if p["physics"] == "acoustic"]
    elastic = [i for i, p in enumerate(params) if p["physics"] == "elastic"]
    picks = rng.sample(acoustic, min(cfg.recompute - 1, len(acoustic)))
    picks += rng.sample(elastic, min(1, len(elastic)))
    job_step_s = []
    for i in picks:
        if ids[i] not in digests:
            continue
        t = time.perf_counter()
        with L.span("serve.worker"):
            res = execute_job({"job": ids[i], "attempt": 1, "kind": "simulate",
                               "params": params[i]},
                              workdir / "recompute", lambda: None)
        if params[i]["physics"] == "acoustic":
            job_step_s.append((time.perf_counter() - t) / cfg.steps)
        if res["digest"] != digests[ids[i]]:
            out.fail(1, f"job {ids[i]}: recomputed digest differs")

    if not L.enabled:
        return out
    if latency[False] and latency[True]:
        out.layer.update({
            "serve.ingest_s": statistics.median(ingest),
            "serve.queue_wait_p50_s": statistics.median(queue),
            "serve.exec_p50_s": statistics.median(execute),
            "serve.publish_s": statistics.median(publish),
            "serve.overhead_p50_s": statistics.median(overhead),
            "serve.low_rate.job_p50_s": statistics.median(latency[False]),
            "serve.high_rate.job_p50_s": statistics.median(latency[True]),
        })
    for metric, xs in (("serve.high_rate.job_p75_s", latency[True]),
                       ("serve.high_rate.queue_wait_p75_s", high_queue)):
        p75 = upper_quartile(xs)
        if p75 is None:
            out.errors.append(f"{metric}: {len(xs)} samples leave fewer than "
                              f"{MIN_TAIL_SAMPLES} beyond the p75")
        else:
            out.layer[metric] = p75
    out.layer["serve.retries"] = retries
    out.layer["serve.gen_late_max_s"] = max(w - d for w, d in zip(written, due))
    if job_step_s:
        out.layer["dg.job_step_s"] = statistics.median(job_step_s)
    return out


# --------------------------------------------------------------------- #
# registry and child-process entry point
# --------------------------------------------------------------------- #

ACOUSTIC_R2 = Problem("acoustic", level=2, flux="riemann", blocks_per_element=1)
ELASTIC_R1 = Problem("elastic", level=1, flux="central", blocks_per_element=4)

#: workload name -> (function, size config); names match BENCHMARK.json.
WORKLOADS: Dict[str, Tuple[Callable[[Context, object], Outcome], object]] = {
    "fig11-cold": (run_artifact, Artifact(warm=False)),
    "fig11-warm": (run_artifact, Artifact(warm=True)),
    "pim-acoustic-r2": (run_pim, Pim(ACOUSTIC_R2)),
    "pim-elastic-r1": (run_pim, Pim(ELASTIC_R1)),
    "shard4-acoustic-r2": (run_sharded, Sharded(ACOUSTIC_R2)),
    "serve-open-loop": (run_serve, Serve()),
}


def plain_result(outcome: Outcome) -> dict:
    """What a plain (untraced) child reports to the runner."""
    return {
        "setup_s": outcome.setup_s,
        "op_fast_s": fast_median(outcome.ops) if outcome.ops else None,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
    }


def traced_result(fn, cfg, seed: int, seconds: float, work_dir: Path,
                  import_span: Tuple[float, float], trace_file: Optional[Path],
                  name: str) -> dict:
    """Run the workload traced, then plain; return every per-layer metric.

    Layers the workload bypasses read 0.  ``import_span`` is the
    ``perf_counter`` interval in which this process imported the program.
    """
    from repro.obs import build_document, write_trace

    layers = Layers(enabled=True)
    epoch = layers.epoch
    t_start = time.perf_counter()
    traced = fn(Context(seed, seconds, False, layers, work_dir, t_start), cfg)
    wall = time.perf_counter() - t_start
    plain = fn(Context(seed, seconds, False, Layers(enabled=False), work_dir,
                       time.perf_counter()), cfg)

    import_s = import_span[1] - import_span[0]
    spans = [{"name": "process", "start_s": import_span[0] - epoch,
              "end_s": import_span[1] - epoch, "attrs": {}, "children": []}]
    spans += layers.tracer.export()
    wall += t_start - import_span[0]

    units = declared_units(load_spec(), "per_layer")
    metrics = {m: 0.0 for m in units}
    metrics["process.import_s"] = import_s
    unknown = set(traced.layer) - set(units)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    metrics.update(traced.layer)
    for layer, s in layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = s
    untraced = untraced_fraction(spans, wall)
    metrics["trace.untraced_frac"] = untraced
    if plain.ops:
        metrics["op_p50_s"] = statistics.median(plain.ops)
    per_op = [o.timed_wall_s / max(1, len(o.ops)) for o in (traced, plain)]
    metrics["trace.overhead_x"] = per_op[0] / per_op[1]
    errors = traced.errors + plain.errors
    failed = traced.failed + plain.failed
    if untraced > MAX_UNTRACED_FRAC:
        errors.append(f"{untraced:.1%} of the traced wall time is in no layer "
                      f"(limit {MAX_UNTRACED_FRAC:.0%})")
        failed += 1
    if trace_file is not None:
        doc = build_document(layers.tracer, meta={"workload": name, "seed": seed})
        doc["spans"] = spans
        write_trace(doc, trace_file)
    return {
        "metrics": metrics,
        "attempted": traced.attempted + plain.attempted,
        "failed": failed,
        "errors": errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path, default=None)
    args = ap.parse_args(argv)
    fn, cfg = WORKLOADS[args.workload]

    import repro  # noqa: F401  (the program's import is part of set-up)

    t_imported = time.perf_counter()
    if args.mode == "trace":
        result = traced_result(fn, cfg, args.seed, args.seconds, args.work_dir,
                               (t0, t_imported), args.trace_file, args.workload)
    else:
        ctx = Context(args.seed, args.seconds, args.mode == "setup",
                      Layers(enabled=False), args.work_dir, t0)
        result = plain_result(fn(ctx, cfg))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
