"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``            list the registered paper artifacts
``run <id> [...]``         regenerate one artifact (e.g. ``run table5``)
``plan <physics> <level> <chip>``  show the Table 5 planner's decision
``simulate``               run a small demo wave simulation
``all``                    regenerate every artifact (the EXPERIMENTS.md set)
``cache stats|clear``      inspect or wipe the persistent compile cache
``trace summary <file>``   summarize a trace written by ``--profile``
``check [benchmarks...]``  static-check compiled PIM programs (see
                           DESIGN.md "Static analysis"; ``--strict`` fails
                           on warnings too, ``--json`` writes a findings
                           report, ``--trace FILE`` validates a trace
                           document instead)
``bench``                  run the perf-regression guard (warm plan-replay
                           executor path); appends to ``BENCH_perf.json``
                           and, with ``--min-speedup X``, fails when the
                           executor speedup vs the seed tree drops below X
``perf history``           trend table over the ``BENCH_perf.json`` history
                           (null-safe on older entries; flags regressions)
``perf audit [benchmarks]``  static cost-bound audit: work/span/occupancy
                           lower bounds, scheduler optimality gap and the
                           PF001-PF006 anti-pattern findings (DESIGN.md
                           §15; ``--strict`` fails on warnings, ``--json``
                           writes the audit report)
``serve run``              run the crash-safe job service on a workdir:
                           supervised worker pool with heartbeats,
                           deadlines, seeded retry/backoff, quarantine
                           and a journaled job store (DESIGN.md §16)
``serve status``           summarize a service workdir from its journal
``serve chaos``            seeded chaos acceptance harness: injected
                           worker SIGKILLs must lose nothing, duplicate
                           nothing, and resume bit-identically
``submit``                 drop a job request into a service workdir
                           (idempotent content-keyed id; ``--wait``
                           blocks for the published result)

Performance knobs: ``--jobs N`` (or ``REPRO_JOBS``) compiles the experiment
matrix with N worker processes; ``--no-cache`` (or ``REPRO_NO_CACHE=1``)
bypasses the on-disk compile cache in ``REPRO_CACHE_DIR``.

Observability knobs: ``--profile`` records a span/metric trace and writes
it as JSON (plus a Chrome ``trace_event`` sibling) to ``--trace-file`` /
``REPRO_TRACE_FILE``; ``--counters`` (or ``REPRO_COUNTERS=1``) turns on the
executor hardware counters — per-block/link occupancy, makespan attribution
and a per-resource Gantt in the Chrome trace (DESIGN.md §14); ``--log-level``
(or ``REPRO_LOG_LEVEL``) tunes the package-wide logger.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import (
    CHIP_CONFIGS,
    EXPERIMENTS,
    RickerSource,
    SolverConfig,
    WaveSolver,
    plan_configuration,
    run_experiment,
)
from repro.core.cache import default_cache
from repro.obs import (
    build_document,
    configure_logging,
    format_duration,
    get_metrics,
    get_tracer,
    load_trace,
    render_tree,
    summarize,
    write_trace,
)


def _configure_cache(args) -> None:
    if getattr(args, "no_cache", False):
        default_cache(refresh=True).enabled = False


def _configure_counters(args) -> None:
    """Arm the executor hardware counters (``--counters``) for this run."""
    if getattr(args, "counters", False):
        os.environ["REPRO_COUNTERS"] = "1"


def _cache_status(elapsed_s: float) -> str:
    cache = default_cache()
    s = cache.stats
    state = f"{s.hits} hit{'s' if s.hits != 1 else ''}, {s.misses} miss{'es' if s.misses != 1 else ''}"
    if not cache.enabled:
        state = "disabled"
    return f"[compile cache: {state}] elapsed {format_duration(elapsed_s)}"


def _profile_begin(args) -> bool:
    """Arm the tracer/metrics for a ``--profile`` run. Returns armed state."""
    if not getattr(args, "profile", False):
        return False
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    get_metrics().reset()
    return True


def _profile_end(args, command: str) -> None:
    """Export the recorded trace: tree to stderr, JSON + Chrome to disk."""
    tracer = get_tracer()
    tracer.disable()
    doc = build_document(tracer, get_metrics(), meta={"command": command})
    print(render_tree(doc), file=sys.stderr)
    path = getattr(args, "trace_file", None) or os.environ.get("REPRO_TRACE_FILE") or "repro_trace.json"
    json_path, chrome_path = write_trace(doc, path)
    print(f"[trace: {json_path} ({chrome_path} for chrome://tracing)]", file=sys.stderr)


def _cmd_experiments(_args) -> int:
    print("registered experiments (paper artifacts):")
    for name, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:14s} {doc}")
    return 0


def _cmd_run(args) -> int:
    _configure_cache(args)
    _configure_counters(args)
    kwargs = {}
    if args.order is not None:
        kwargs["order"] = args.order
    profiling = _profile_begin(args)
    t0 = time.perf_counter()
    try:
        with get_tracer().span(f"run/{args.id}"):
            try:
                table = run_experiment(args.id, jobs=args.jobs, **kwargs)
            except (KeyError, ValueError) as exc:
                print(exc, file=sys.stderr)
                return 2
            with get_tracer().span("report", experiment=args.id):
                rendered = table.render()
        print(rendered)
    finally:
        if profiling:
            _profile_end(args, f"run {args.id}")
    print(_cache_status(time.perf_counter() - t0), file=sys.stderr)
    return 0


def _cmd_all(args) -> int:
    _configure_cache(args)
    _configure_counters(args)
    profiling = _profile_begin(args)
    t0 = time.perf_counter()
    try:
        for name in EXPERIMENTS:
            kwargs = {"order": args.order} if args.order is not None else {}
            with get_tracer().span(f"run/{name}"):
                try:
                    table = run_experiment(name, jobs=args.jobs, **kwargs)
                except ValueError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                with get_tracer().span("report", experiment=name):
                    rendered = table.render()
            print(rendered)
            print()
    finally:
        if profiling:
            _profile_end(args, "all")
    print(_cache_status(time.perf_counter() - t0), file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    cache = default_cache(refresh=True)
    if args.action == "clear":
        n = cache.clear()
        print(f"cleared {n} cached compile{'s' if n != 1 else ''} from {cache.root}")
        return 0
    for k, v in cache.disk_stats().items():
        print(f"{k:10s} {v}")
    return 0


def _cmd_plan(args) -> int:
    try:
        chip = CHIP_CONFIGS[args.chip]
    except KeyError:
        print(f"unknown chip {args.chip!r}; choose from {sorted(CHIP_CONFIGS)}",
              file=sys.stderr)
        return 2
    plan = plan_configuration(args.physics, args.level, chip)
    print(f"benchmark : {args.physics} refinement level {args.level} "
          f"({plan.n_elements} elements)")
    print(f"chip      : {chip.name} ({chip.n_blocks} blocks)")
    print(f"technique : {plan.label}")
    print(f"blocks/elt: {plan.blocks_per_element}")
    print(f"batches   : {plan.n_batches} ({plan.elements_per_batch} elements each)")
    print(f"utilization: {plan.utilization:.0%}")
    return 0


def _cmd_simulate(args) -> int:
    solver = WaveSolver(
        SolverConfig(physics=args.physics, refinement_level=args.level,
                     order=args.order or 3, flux="riemann")
    )
    solver.add_source(RickerSource(position=(0.5, 0.5, 0.75), peak_frequency=6.0))
    print(f"simulating {args.physics}, {solver.mesh.n_elements} elements, "
          f"{args.steps} steps ...")
    solver.run(args.steps)
    print(f"t = {solver.time:.4f}s, field energy = {solver.energy():.4e}")
    return 0


def _cmd_check(args) -> int:
    # imported here: the analysis package pulls in the compiler stack,
    # which the other subcommands should not pay for.
    from repro.analysis.programs import check_benchmark
    from repro.analysis.tracecheck import validate_trace_file
    from repro.core.compiler import WavePimCompiler
    from repro.workloads.benchmarks import BENCHMARKS

    if args.trace is not None:
        errors = validate_trace_file(args.trace, require=args.require,
                                     require_counters=args.counters)
        for err in errors:
            print(f"FAIL: {err}", file=sys.stderr)
        if not errors:
            print(f"OK: {args.trace} valid")
        return 1 if errors else 0

    keys = args.benchmarks or list(BENCHMARKS)
    unknown = [k for k in keys if k not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; "
              f"choose from {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2
    interconnects = (
        ["htree", "bus"] if args.interconnect == "both" else [args.interconnect]
    )

    compiler = WavePimCompiler(order=args.order or 7)
    entries = []
    n_errors = n_warnings = 0
    for key in keys:
        for ic in interconnects:
            checked, findings = check_benchmark(
                key, chip=args.chip, interconnect=ic,
                order=args.order, compiler=compiler,
                parity_rows=args.parity_rows,
            )
            errs = sum(1 for f in findings if f.is_error)
            n_errors += errs
            n_warnings += len(findings) - errs
            status = "FAIL" if errs else ("WARN" if findings else "ok")
            print(f"{status:4s} {key:18s} {args.chip}/{ic:5s} "
                  f"plan={checked.plan_label:10s} "
                  f"{len(checked.program)} instructions, "
                  f"{len(findings)} finding{'s' if len(findings) != 1 else ''}")
            for f in findings:
                print(f"     {f.format()}")
            entries.append({
                "benchmark": key,
                "chip": args.chip,
                "interconnect": ic,
                "plan": checked.plan_label,
                "instructions": len(checked.program),
                "findings": [f.as_dict() for f in findings],
            })

    if args.json:
        import json

        report = {
            "kind": "repro-check",
            "schema": 1,
            "strict": args.strict,
            "errors": n_errors,
            "warnings": n_warnings,
            "benchmarks": entries,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"[findings report: {args.json}]", file=sys.stderr)

    total = n_errors + n_warnings
    print(f"checked {len(entries)} program{'s' if len(entries) != 1 else ''}: "
          f"{n_errors} error{'s' if n_errors != 1 else ''}, "
          f"{n_warnings} warning{'s' if n_warnings != 1 else ''}")
    if n_errors or (args.strict and total):
        return 1
    return 0


def _cmd_bench(args) -> int:
    # imported here: the measurement pulls in the kernel/executor stack.
    from repro.eval.bench import (
        SEED_BASELINE,
        append_entry,
        history_summary,
        measure_hot_paths,
        regression_failures,
    )

    t0 = time.perf_counter()
    entry = measure_hot_paths(rounds=args.rounds)
    if args.shards:
        from repro.eval.bench import measure_shard_scaling

        entry.update(measure_shard_scaling(
            n_shards=args.shards, trace_path=args.shard_trace))
    doc = append_entry(entry, path=args.json)

    def fmt_rate(v):
        return f"{v:.2f}" if isinstance(v, (int, float)) else "not measured"

    speedups = entry["speedup_vs_seed"]
    for key, seed in SEED_BASELINE.items():
        print(f"{key:16s} {entry[key]*1e3:9.2f} ms   seed {seed*1e3:8.2f} ms   "
              f"speedup {speedups[key]:6.2f}x")
    print(f"{'serial replay':16s} {entry['executor_serial_step_s']*1e3:9.2f} ms   "
          f"(plan path is {entry['executor_serial_step_s'] / max(entry['executor_step_s'], 1e-12):.1f}x faster)")
    print(f"{'cache_hit_rate':16s} {fmt_rate(entry.get('cache_hit_rate'))}")
    print(f"{'plan_reuse_rate':16s} {fmt_rate(entry.get('plan_reuse_rate'))}")
    print(f"{'plan_coverage':16s} {fmt_rate(entry.get('plan_coverage'))}")
    if isinstance(entry.get("makespan_cycles"), (int, float)):
        print(f"{'makespan':16s} {entry['makespan_cycles']:,.0f} cycles emission, "
              f"{entry.get('scheduled_makespan_cycles') or 0:,.0f} scheduled "
              f"(scheduler {entry.get('scheduler_speedup') or 0:.2f}x)")
    print(f"{'block_util':16s} {fmt_rate(entry.get('block_util'))}   "
          f"link_util {fmt_rate(entry.get('link_util'))}   "
          f"binding {entry.get('binding_resource') or 'not measured'}")
    print(f"{'counters':16s} {fmt_rate(entry.get('counters_overhead'))}x "
          f"enabled-replay overhead (budget 1.02x)")
    if entry.get("shards"):
        r6 = entry.get("r6") or {}
        print(f"{'shard scaling':16s} {entry['shard_speedup']:.2f}x at "
              f"{entry['shards']} shards "
              f"({entry['shard_makespan_s']*1e3:.3f} ms vs single-chip "
              f"{entry['single_chip_makespan_s']*1e3:.3f} ms in "
              f"{entry['single_chip_batches']} batches); exchange overlap "
              f"{fmt_rate(entry.get('shard_overlap_fraction'))} measured, "
              f"halo wait {entry['shard_halo_wait_s']*1e6:.1f} us")
        if r6:
            fit = ("fits" if r6.get("single_chip_fits")
                   else "does not fit one chip")
            print(f"{'r=6 capacity':16s} {r6.get('n_elements'):,} elements "
                  f"{fit} ({r6.get('chip')}); "
                  f"{r6.get('shards_needed')} shards hold it")
        if args.shard_trace:
            print(f"[shard Gantt trace: {args.shard_trace}]", file=sys.stderr)

    summary = history_summary(doc)
    measured = summary["executor_step_s"]["measured"]
    print(f"history: {summary['entries']} entr{'y' if summary['entries'] == 1 else 'ies'} "
          f"({measured} with executor_step_s measured), "
          f"best executor_step_s {summary['executor_step_s']['best']*1e3:.2f} ms"
          if measured else
          f"history: {summary['entries']} entries (executor_step_s never measured)")
    path = args.json or "BENCH_perf.json"
    print(f"[bench report: {path}] elapsed {format_duration(time.perf_counter() - t0)}",
          file=sys.stderr)

    failures = regression_failures(entry, min_speedup=args.min_speedup)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_faults(args) -> int:
    # imported here: the campaign pulls in the kernel/executor stack.
    from repro.faults.campaign import DEFAULT_RATES, run_campaign, strict_violations
    from repro.workloads.benchmarks import BENCHMARKS

    _configure_counters(args)
    keys = args.benchmarks or list(BENCHMARKS)
    unknown = [k for k in keys if k not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; "
              f"choose from {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2
    interconnects = (
        ["htree", "bus"] if args.interconnect == "both" else [args.interconnect]
    )
    rates = args.rates or list(DEFAULT_RATES)

    profiling = _profile_begin(args)
    t0 = time.perf_counter()
    try:
        with get_tracer().span("faults/campaign"):
            report = run_campaign(
                keys,
                rates=rates,
                interconnects=interconnects,
                seed=args.seed,
                steps=args.steps,
                level=args.level,
                order=args.order or 2,
                chip=args.chip,
                protect=not args.no_protect,
                switch_fail_rate=args.switch_rate,
            )
    finally:
        if profiling:
            _profile_end(args, "faults")

    for run in report["runs"]:
        who = f"{run['benchmark']:18s} {run['interconnect']:5s} rate={run['rate']:<8g}"
        if run["status"] != "ok":
            print(f"DEGR {who} {run['error']}")
            continue
        c = run["counts"]
        print(f"{'FAIL' if c['uncorrected'] else 'ok':4s} {who} "
              f"injected={c['injected']:<5d} corrected={c['corrected']:<5d} "
              f"uncorrected={c['uncorrected']:<3d} remaps={c['remaps']:<4d} "
              f"err={run['solution_rel_err']:.2e} "
              f"overhead={run['time_overhead']:.3f}x")

    violations = strict_violations(report)
    if args.json:
        import json

        report["strict"] = args.strict
        report["violations"] = violations
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"[campaign report: {args.json}]", file=sys.stderr)

    print(f"{len(report['runs'])} runs in {format_duration(time.perf_counter() - t0)}",
          file=sys.stderr)
    if args.strict and violations:
        for v in violations:
            print(f"STRICT: {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_perf(args) -> int:
    import json

    # imported here: keeps `repro perf history` free of the kernel stack
    # (bench's measurement imports live inside measure_hot_paths).
    from repro.eval.bench import default_bench_path, render_history

    path = args.json or default_bench_path()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        if args.json:
            # the user named a specific file; its absence is their error.
            print(f"cannot read bench history {path}: {exc}", file=sys.stderr)
            return 2
        # the default BENCH_perf.json not existing yet is the normal
        # fresh-checkout state: render the friendly empty table.
        doc = {"history": []}
    except (OSError, ValueError) as exc:
        print(f"cannot read bench history {path}: {exc}", file=sys.stderr)
        return 2
    print(render_history(doc))
    return 0


def _cmd_perf_audit(args) -> int:
    # imported here: the audit pulls in the compiler + executor stack.
    from repro.analysis.perf import audit_program
    from repro.analysis.programs import build_check_program
    from repro.core.compiler import WavePimCompiler
    from repro.pim.executor import ChipExecutor
    from repro.workloads.benchmarks import BENCHMARKS

    keys = args.benchmarks or list(BENCHMARKS)
    unknown = [k for k in keys if k not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; "
              f"choose from {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2
    interconnects = (
        ["htree", "bus"] if args.interconnect == "both" else [args.interconnect]
    )

    compiler = WavePimCompiler(order=args.order or 7)
    entries = []
    n_errors = n_warnings = 0
    for key in keys:
        spec = BENCHMARKS[key]
        for ic in interconnects:
            checked = build_check_program(
                spec.physics, spec.refinement_level, chip=args.chip,
                flux_kind=spec.flux_kind,
                order=spec.order if args.order is None else args.order,
                interconnect=ic, compiler=compiler,
            )
            ex = ChipExecutor(checked.context.chip)
            audit = audit_program(
                checked.program, ex,
                block_rows=checked.context.block_rows,
            )
            findings = audit.findings
            errs = sum(1 for f in findings if f.is_error)
            n_errors += errs
            n_warnings += len(findings) - errs
            status = "FAIL" if errs else ("WARN" if findings else "ok")
            print(f"{status:4s} {key:18s} {args.chip}/{ic:5s} "
                  f"gap={audit.optimality_gap:6.3f}x "
                  f"bound={audit.bounds.makespan_lower_bound_s:.3e}s "
                  f"binding={audit.bounds.predicted_binding_resource:<12s} "
                  f"{len(findings)} finding{'s' if len(findings) != 1 else ''}")
            for f in findings:
                print(f"     {f.format()}")
            entries.append({
                "benchmark": key,
                "chip": args.chip,
                "interconnect": ic,
                "plan": checked.plan_label,
                **audit.as_dict(),
            })

    if args.json:
        import json

        report = {
            "kind": "repro-perf-audit",
            "schema": 1,
            "strict": args.strict,
            "errors": n_errors,
            "warnings": n_warnings,
            "benchmarks": entries,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"[perf audit report: {args.json}]", file=sys.stderr)

    total = n_errors + n_warnings
    print(f"audited {len(entries)} program{'s' if len(entries) != 1 else ''}: "
          f"{n_errors} error{'s' if n_errors != 1 else ''}, "
          f"{n_warnings} warning{'s' if n_warnings != 1 else ''}")
    if n_errors or (args.strict and total):
        return 1
    return 0


def _cmd_serve_run(args) -> int:
    # imported here: the service pulls in multiprocessing machinery the
    # other subcommands should not pay for.
    from repro.serve.supervisor import ServiceConfig, Supervisor

    config = ServiceConfig(
        workdir=args.workdir, workers=args.workers,
        max_pending=args.max_pending, deadline_s=args.deadline,
        heartbeat_timeout_s=args.heartbeat_timeout,
        max_retries=args.max_retries, seed=args.seed,
        log_level=args.log_level,
    )
    sup = Supervisor(config)
    counts = sup.store.counts()
    recovered = sum(v for k, v in counts.items()
                    if k in ("pending", "failed")) if sup.store.jobs else 0
    print(f"serve: {len(sup.store.jobs)} journaled job(s) "
          f"({recovered} runnable after recovery), {args.workers} workers, "
          f"workdir {config.workdir}", file=sys.stderr)
    try:
        sup.run(until_idle=not args.forever,
                max_wall_s=args.max_wall if args.max_wall > 0 else None)
    except KeyboardInterrupt:  # journal already has everything: clean exit
        print("serve: interrupted — journal is authoritative; rerun "
              "`repro serve run` to resume", file=sys.stderr)
    finally:
        sup.shutdown()
    counts = sup.store.counts()
    print(f"serve: drained to {counts}")
    print(f"[metrics: {config.workdir / 'metrics.json'}] "
          f"[journal: {sup.store.journal_path}]", file=sys.stderr)
    return 0 if counts.get("quarantined", 0) == 0 else 1


def _cmd_serve_status(args) -> int:
    import json

    from repro.serve.client import status

    doc = status(args.workdir)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
    print(f"workdir      : {doc['workdir']}")
    print(f"jobs         : {doc['jobs']} ({doc['events']} journal events)")
    for state, n in sorted(doc["counts"].items()):
        print(f"  {state:12s} {n}")
    print(f"retries      : {doc['retries_total']}")
    print(f"inbox        : {len(doc['inbox_pending'])} pending request(s)")
    print(f"digest       : {doc['journal_digest']}")
    return 0


def _cmd_serve_chaos(args) -> int:
    import json

    from repro.serve.chaos import run_chaos_check
    from repro.workloads.benchmarks import BENCHMARKS

    keys = args.benchmarks or ["acoustic_4", "elastic_central_4"]
    unknown = [k for k in keys if k not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; "
              f"choose from {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    report = run_chaos_check(
        keys, n_jobs=args.jobs, kills=args.kills,
        mid_checkpoint=args.mid_checkpoint, hangs=args.hangs,
        seed=args.seed, steps=args.steps, workers=args.workers,
        workdir=args.workdir, max_wall_s=args.max_wall,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"[chaos report: {args.json}]", file=sys.stderr)
    c = report["chaos"]
    print(f"workload  : {args.jobs} jobs on {', '.join(keys)} "
          f"({args.kills} kills incl. {args.mid_checkpoint} mid-checkpoint, "
          f"{args.hangs} hangs, seed {args.seed})")
    print(f"baseline  : {report['baseline']['counts']}")
    print(f"chaos     : {c['counts']} with {c['worker_restarts']} worker "
          f"restart(s)")
    print(f"digests   : baseline {report['baseline']['journal_digest'][:16]} "
          f"chaos {c['journal_digest'][:16]}")
    for v in report["violations"]:
        print(f"FAIL: {v}", file=sys.stderr)
    verdict = "ok" if not report["violations"] else "VIOLATED"
    print(f"invariants: {verdict} (zero lost, zero duplicated, bit-identical "
          f"resume, journal-resume idle)  "
          f"[{format_duration(time.perf_counter() - t0)}]")
    return 1 if report["violations"] else 0


def _cmd_submit(args) -> int:
    import json

    from repro.serve.client import submit, wait

    if args.kind == "simulate":
        params = {
            "physics": args.physics, "level": args.level,
            "order": args.order or 1, "steps": args.steps,
            "checkpoint_every": args.checkpoint_every,
        }
        if args.source_position:
            params["source"] = {
                "position": args.source_position,
                "peak_frequency": args.peak_frequency,
            }
    elif args.kind == "experiment":
        if not args.experiment:
            print("experiment jobs need --experiment NAME", file=sys.stderr)
            return 2
        params = {"name": args.experiment}
    else:  # sweep and the escape hatch: explicit JSON params
        if not args.params_json:
            print(f"{args.kind} jobs need --params-json", file=sys.stderr)
            return 2
        params = json.loads(args.params_json)
    if args.params_json and args.kind in ("simulate", "experiment"):
        params.update(json.loads(args.params_json))

    job_id = submit(args.workdir, args.kind, params,
                    max_retries=args.max_retries, deadline_s=args.deadline)
    print(f"submitted {args.kind} job {job_id} -> {args.workdir}")
    if args.wait > 0:
        try:
            outcome = wait(args.workdir, job_id, timeout_s=args.wait)
        except TimeoutError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(json.dumps(outcome, indent=2))
        return 0 if outcome.get("status") == "done" else 1
    return 0


def _cmd_trace(args) -> int:
    try:
        doc = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(summarize(doc))
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", default=None,
        metavar="LEVEL",
        help="logging level for the repro package "
             "(debug/info/warning/error; default: REPRO_LOG_LEVEL or info)")

    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument("--profile", action="store_true",
                          help="record a span/metric trace and write it as JSON "
                               "(+ Chrome trace_event sibling)")
    profiled.add_argument("--trace-file", default=None, metavar="PATH",
                          help="trace output path (default: REPRO_TRACE_FILE "
                               "or repro_trace.json)")
    profiled.add_argument("--counters", action="store_true",
                          help="record executor hardware counters "
                               "(REPRO_COUNTERS=1): per-block/link occupancy, "
                               "makespan attribution, Gantt tracks in the "
                               "Chrome trace")

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", parents=[common]).set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("run", parents=[common, profiled])
    p.add_argument("id")
    p.add_argument("--order", type=int, default=None,
                   help="element order (default: the paper's 7)")
    p.add_argument("--jobs", type=int, default=None,
                   help="compile worker processes (default: REPRO_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent compile cache")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("all", parents=[common, profiled])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="compile worker processes (default: REPRO_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent compile cache")
    p.set_defaults(fn=_cmd_all)

    p = sub.add_parser("cache", parents=[common])
    p.add_argument("action", choices=["stats", "clear"])
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("plan", parents=[common])
    p.add_argument("physics", choices=["acoustic", "elastic"])
    p.add_argument("level", type=int)
    p.add_argument("chip", choices=list(CHIP_CONFIGS))
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--physics", default="acoustic", choices=["acoustic", "elastic"])
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check", parents=[common],
                       help="static-check compiled PIM programs / traces")
    p.add_argument("benchmarks", nargs="*", metavar="BENCHMARK",
                   help="benchmark keys (default: all six paper benchmarks)")
    p.add_argument("--chip", default="2GB", choices=list(CHIP_CONFIGS),
                   help="chip configuration (default: 2GB)")
    p.add_argument("--interconnect", default="both",
                   choices=["htree", "bus", "both"],
                   help="interconnect(s) to resolve TRANSFER routes on")
    p.add_argument("--order", type=int, default=None,
                   help="element order (default: the paper's 7)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings, not just errors")
    p.add_argument("--parity-rows", type=int, default=0, metavar="N",
                   help="FT001: warn when a block's layout leaves fewer "
                        "than N spare rows for fault-model parity (default: "
                        "0, pass disabled)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write a JSON findings report")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="validate a --profile trace document instead of "
                        "checking benchmark programs")
    p.add_argument("--require", action="append", default=[], metavar="TOKEN",
                   help="with --trace: fail unless some span name contains "
                        "TOKEN (repeatable)")
    p.add_argument("--counters", action="store_true",
                   help="with --trace: require hardware-counter evidence "
                        "(counters.* metrics + Gantt tracks in the Chrome "
                        "sibling)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("bench", parents=[common],
                       help="run the perf-regression guard and append to "
                            "BENCH_perf.json")
    p.add_argument("--rounds", type=int, default=3, metavar="N",
                   help="best-of-N timing rounds per hot path (default: 3)")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   help="fail unless executor_step_s is at least X times "
                        "faster than the seed tree (CI uses 1.0)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="BENCH_perf.json path to append to (default: the "
                        "repo-root BENCH_perf.json)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="also measure N-shard scaling of the capacity-axis "
                        "step workload vs the single-chip batched baseline "
                        "(CI uses 4)")
    p.add_argument("--shard-trace", default=None, metavar="PATH",
                   help="with --shards: write the merged multi-chip Gantt "
                        "trace (per-shard lanes + inter-chip links) to PATH")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("faults", parents=[common, profiled],
                       help="run a fault-injection campaign "
                            "(see DESIGN.md 'Fault model & recovery')")
    p.add_argument("benchmarks", nargs="*", metavar="BENCHMARK",
                   help="benchmark keys (default: all six paper benchmarks)")
    p.add_argument("--rates", type=float, nargs="+", default=None,
                   metavar="RATE",
                   help="fault rates to sweep (default: 1e-6 1e-3)")
    p.add_argument("--interconnect", default="htree",
                   choices=["htree", "bus", "both"],
                   help="interconnect(s) to sweep (default: htree)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-model seed (same seed -> identical campaign)")
    p.add_argument("--steps", type=int, default=2,
                   help="functional time-steps per run (default: 2)")
    p.add_argument("--level", type=int, default=1,
                   help="proxy mesh refinement level (default: 1)")
    p.add_argument("--order", type=int, default=None,
                   help="proxy element order (default: 2)")
    p.add_argument("--chip", default="512MB", choices=list(CHIP_CONFIGS),
                   help="chip configuration (default: 512MB)")
    p.add_argument("--no-protect", action="store_true",
                   help="disable parity/checksum protection (faults land)")
    p.add_argument("--switch-rate", type=float, default=0.0, metavar="RATE",
                   help="permanent switch-failure probability (default: 0)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero unless the lowest rate ends with zero "
                        "uncorrected faults and a baseline-exact solution")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the campaign report as JSON")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser("perf", parents=[common],
                       help="inspect the BENCH_perf.json perf trajectory")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)
    ph = perf_sub.add_parser("history",
                             help="trend table across bench history entries "
                                  "(null-safe; flags regressions/backfill)")
    ph.add_argument("--json", default=None, metavar="PATH",
                    help="BENCH_perf.json path (default: the repo-root file)")
    ph.set_defaults(fn=_cmd_perf)
    pa = perf_sub.add_parser(
        "audit",
        help="static cost-bound audit: lower bounds, optimality gap and "
             "PF001-PF006 anti-pattern findings (DESIGN.md §15)")
    pa.add_argument("benchmarks", nargs="*", metavar="BENCHMARK",
                    help="benchmark keys (default: all six paper benchmarks)")
    pa.add_argument("--chip", default="2GB", choices=list(CHIP_CONFIGS),
                    help="chip configuration (default: 2GB)")
    pa.add_argument("--interconnect", default="both",
                    choices=["htree", "bus", "both"],
                    help="interconnect(s) to audit the plan on")
    pa.add_argument("--order", type=int, default=None,
                    help="element order (default: the paper's 7)")
    pa.add_argument("--strict", action="store_true",
                    help="exit nonzero on warnings, not just errors")
    pa.add_argument("--json", default=None, metavar="PATH",
                    help="write a JSON audit report")
    pa.set_defaults(fn=_cmd_perf_audit)

    p = sub.add_parser("serve", parents=[common],
                       help="crash-safe wave-sim job service "
                            "(see DESIGN.md 'Service layer')")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)
    sr = serve_sub.add_parser("run", parents=[common], help="run the supervised worker pool "
                                          "against a service workdir")
    sr.add_argument("--workdir", required=True, metavar="DIR",
                    help="service state root (journal, inbox, results, ckpt)")
    sr.add_argument("--workers", type=int, default=2,
                    help="worker pool size (default: 2)")
    sr.add_argument("--max-pending", type=int, default=256,
                    help="bounded store: live-job cap before QueueFull "
                         "backpressure (default: 256)")
    sr.add_argument("--deadline", type=float, default=60.0, metavar="S",
                    help="default per-job wall-clock deadline, enforced by "
                         "SIGKILL (default: 60)")
    sr.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    metavar="S",
                    help="kill workers whose heartbeat is older than this "
                         "(default: 5)")
    sr.add_argument("--max-retries", type=int, default=3,
                    help="retries before quarantine (default: 3)")
    sr.add_argument("--seed", type=int, default=0,
                    help="retry-backoff jitter seed (same seed -> identical "
                         "schedules)")
    sr.add_argument("--forever", action="store_true",
                    help="keep polling the inbox after the store drains "
                         "(service mode; default exits when idle)")
    sr.add_argument("--max-wall", type=float, default=0.0, metavar="S",
                    help="hard wall-clock stop, 0 = unlimited (default: 0)")
    sr.set_defaults(fn=_cmd_serve_run)
    ss = serve_sub.add_parser("status", parents=[common],
                              help="summarize a service workdir from its "
                                   "journal")
    ss.add_argument("--workdir", required=True, metavar="DIR")
    ss.add_argument("--json", default=None, metavar="PATH",
                    help="also write the summary as JSON")
    ss.set_defaults(fn=_cmd_serve_status)
    sc = serve_sub.add_parser("chaos", parents=[common],
                              help="seeded chaos acceptance harness "
                                   "(baseline vs injected-kill run)")
    sc.add_argument("benchmarks", nargs="*", metavar="BENCHMARK",
                    help="benchmark keys for the workload (default: "
                         "acoustic_4 elastic_central_4)")
    sc.add_argument("--jobs", type=int, default=20,
                    help="workload size (default: 20)")
    sc.add_argument("--kills", type=int, default=5,
                    help="worker SIGKILLs to inject (default: 5)")
    sc.add_argument("--mid-checkpoint", type=int, default=1,
                    help="of the kills, how many land inside a checkpoint "
                         "write (default: 1)")
    sc.add_argument("--hangs", type=int, default=0,
                    help="hung-worker injections (heartbeat monitor must "
                         "fire; default: 0)")
    sc.add_argument("--seed", type=int, default=11,
                    help="chaos schedule seed (default: 11)")
    sc.add_argument("--steps", type=int, default=10,
                    help="solver steps per job (default: 10)")
    sc.add_argument("--workers", type=int, default=4,
                    help="worker pool size (default: 4)")
    sc.add_argument("--workdir", default=None, metavar="DIR",
                    help="where to keep the baseline/chaos workdirs "
                         "(default: a temp dir)")
    sc.add_argument("--max-wall", type=float, default=600.0, metavar="S",
                    help="per-run wall-clock cap (default: 600)")
    sc.add_argument("--json", default=None, metavar="PATH",
                    help="write the chaos report as JSON")
    sc.set_defaults(fn=_cmd_serve_chaos)

    p = sub.add_parser("submit", parents=[common],
                       help="submit a job to a service workdir "
                            "(repro serve run drains it)")
    p.add_argument("kind", choices=["simulate", "experiment", "sweep"])
    p.add_argument("--workdir", required=True, metavar="DIR")
    p.add_argument("--physics", default="acoustic",
                   choices=["acoustic", "elastic"])
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--checkpoint-every", type=int, default=4, metavar="N",
                   help="simulate: checkpoint cadence in steps (default: 4)")
    p.add_argument("--source-position", type=float, nargs=3, default=None,
                   metavar=("X", "Y", "Z"),
                   help="simulate: add a Ricker source at this position")
    p.add_argument("--peak-frequency", type=float, default=5.0,
                   help="simulate: Ricker peak frequency (default: 5)")
    p.add_argument("--experiment", default=None, metavar="NAME",
                   help="experiment jobs: the registered experiment id")
    p.add_argument("--params-json", default=None, metavar="JSON",
                   help="extra/override params as a JSON object (required "
                        "for sweep jobs)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="override the service default")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="override the service default deadline")
    p.add_argument("--wait", type=float, default=0.0, metavar="S",
                   help="block until the result is published (timeout S)")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("trace", parents=[common],
                       help="inspect a trace recorded with --profile")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser("summary")
    ps.add_argument("file")
    ps.set_defaults(fn=_cmd_trace)

    args = parser.parse_args(argv)
    configure_logging(getattr(args, "log_level", None))
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
