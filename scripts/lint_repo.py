#!/usr/bin/env python
"""Repo-invariant lint: small AST checks no generic linter expresses.

Rules (stdlib ``ast`` only, so this runs in the bare container):

``RL001``  ``Instruction(...)`` may only be constructed in
           ``src/repro/pim/isa.py`` (the ISA itself, incl. the
           ``barrier()`` helper) and ``src/repro/core/kernels/`` (the
           generators).  Everything else must go through the kernel emit
           helpers or ``isa.barrier()`` — the static checker's access
           model (``repro.analysis.checker.accesses``) only understands
           streams built from those vetted shapes.  Tests are exempt
           (they hand-build known-bad programs on purpose).

``RL002``  ``<tracer>.span(...)`` must be used as a context manager
           (``with ... as sp:``) so spans always close, even on
           exceptions.  ``src/repro/obs/`` is exempt (it implements the
           span machinery).

``RL003``  ``repro.analysis`` may not be imported at module level outside
           the package itself: the executor and compiler lazily import it
           inside their ``verify`` paths, keeping the dependency edge
           analysis -> pim/core acyclic.

``RL004``  no per-instruction Python ``for`` loops over instruction
           streams (a loop variable whose ``.op`` is inspected in the
           body) outside ``pim/executor.py``, ``pim/plan.py`` (the
           lowering pass itself), ``pim/schedule.py`` (the DAG builder)
           and ``analysis/`` (the checker walks streams by design).
           Everything else must hand streams to
           ``ChipExecutor.run``/``lower`` — per-instruction dispatch in
           library code is exactly the hot path execution plans removed.
           Comprehensions are exempt (they filter, not dispatch).

``RL005``  no ``._dispatch`` references outside ``pim/executor.py``.
           Plan replay is the universal execution path; the serial
           dispatcher survives only as the executor-internal audit
           reference (``run(..., serial=True)``), and a new call site
           would silently fork the semantics the plan engine must mirror.

``RL007``  no silent swallowing of broad exceptions in ``src/``: an
           ``except Exception:`` / ``except BaseException:`` / bare
           ``except:`` handler whose body is only ``pass`` (or ``...``)
           hides crashes the service layer is specifically built to
           surface.  Swallowed exceptions must log through
           ``repro.obs`` or re-raise; narrowing the handler to the
           specific exception type also satisfies the rule.

``RL008``  no direct ``ExecutionPlan`` replay call sites outside the two
           executors: ``._run_plan`` may be
           referenced only in ``pim/executor.py`` (the replay engine) and
           ``pim/multichip.py`` (the sharded executor layered on it).
           Mirrors RL005 for the plan path — a third replay call site
           would fork the clock/counter semantics both executors must
           agree on.  Everything else goes through ``ChipExecutor.run``
           or ``ShardedExecutor.run_steps``.

``RL006``  every finding code emitted inside ``src/repro/analysis/`` (a
           ``XX123`` string literal passed as the first argument of a
           ``Finding(...)`` constructor or an ``add(...)`` emit helper)
           must be registered in ``repro.analysis.findings.FINDING_CODES``.
           ``Finding.__post_init__`` raises on unregistered codes, but
           only when the emitting branch actually runs — this catches the
           drift statically (a PL004 emit once shipped unregistered and
           only a rare scheduler-audit failure path would have tripped it).

``RL009``  ``MemoryBlock.data`` may be rebound only in
           ``src/repro/pim/block.py``: no assignment (plain, augmented,
           annotated, unpacking or ``setattr(x, "data", ...)``) to a
           ``.data`` attribute anywhere else in ``src/``.  On a chip a
           block's ``data`` is a view into its tile's array, and plan
           replay's lockstep programs index that array directly; a block
           whose ``data`` was rebound would be detached from it, so replay
           would write memory nobody reads.  Write through the view
           (``blk.data[...] = ...``) instead.

``RL010``  every ``REPRO_[A-Z_]+`` name in a string literal under
           ``src/`` must be one of the kept environment knobs in
           ``RL010_KNOBS``.  A knob that switches execution paths doubles
           the configurations tests must cover, and it can change compile
           results without entering the compile cache's fingerprint; a
           new knob has to show up as an edit to that list.

Usage::

    python scripts/lint_repo.py [--root PATH]

Exit status 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, Tuple

Violation = Tuple[Path, int, str, str]  # (file, line, code, message)

#: files/directories (relative to the repo root) allowed to construct
#: Instruction directly.
RL001_ALLOWED = (
    "src/repro/pim/isa.py",
    "src/repro/core/kernels/",
)

RL002_EXEMPT = ("src/repro/obs/",)

RL003_ALLOWED = ("src/repro/analysis/",)

RL004_ALLOWED = (
    "src/repro/pim/executor.py",
    "src/repro/pim/plan.py",
    "src/repro/pim/schedule.py",
    "src/repro/analysis/",
)

RL005_ALLOWED = ("src/repro/pim/executor.py",)

RL008_ALLOWED = (
    "src/repro/pim/executor.py",
    "src/repro/pim/multichip.py",
)
RL008_ATTRS = ("_run_plan",)

RL009_ALLOWED = ("src/repro/pim/block.py",)

#: RL010: the environment knobs ``src/`` may name.
RL010_KNOBS = frozenset({
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_JOBS",
    "REPRO_TRACE",
    "REPRO_TRACE_FILE",
    "REPRO_COUNTERS",
    "REPRO_LOG_LEVEL",
})
RL010_SCOPE = "src/"
RL010_NAME = re.compile(r"\bREPRO_[A-Z_]+")

#: RL006: where finding codes are registered / emitted.
RL006_REGISTRY = "src/repro/analysis/findings.py"
RL006_SCOPE = "src/repro/analysis/"
#: the shape of a finding code (mirrors findings.Finding's contract).
RL006_CODE = re.compile(r"^[A-Z]{2}\d{3}$")


def _registered_codes(root: Path) -> set:
    """FINDING_CODES keys, read statically from the registry module."""
    path = root / RL006_REGISTRY
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError):
        return set()
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.Assign) and node.targets:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if (target is not None and isinstance(target, ast.Name)
                and target.id == "FINDING_CODES"
                and isinstance(getattr(node, "value", None), ast.Dict)):
            return {k.value for k in node.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return set()


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def _lint_file(path: Path, root: Path,
               registered_codes: frozenset = frozenset()) -> List[Violation]:
    rel = _rel(path, root)
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, "RL000", f"syntax error: {exc.msg}")]
    out: List[Violation] = []

    # RL001: Instruction(...) construction sites
    if not rel.startswith(RL001_ALLOWED):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Instruction"):
                out.append((path, node.lineno, "RL001",
                            "Instruction() constructed outside pim/isa.py and "
                            "core/kernels/ — use the kernel emit helpers or "
                            "isa.barrier()"))

    # RL002: .span(...) only as a `with` context manager
    if not rel.startswith(RL002_EXEMPT):
        with_spans = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_spans.add(id(item.context_expr))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"
                    and id(node) not in with_spans):
                out.append((path, node.lineno, "RL002",
                            ".span(...) outside a `with` statement — spans "
                            "must close via the context manager"))

    # RL003: module-level repro.analysis imports
    if not rel.startswith(RL003_ALLOWED):
        for node in tree.body:  # module level only: lazy imports are the fix
            names: List[str] = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(n == "repro.analysis" or n.startswith("repro.analysis.")
                   for n in names):
                out.append((path, node.lineno, "RL003",
                            "module-level repro.analysis import outside the "
                            "package — import lazily (inside the function) to "
                            "keep analysis -> pim/core acyclic"))

    # RL004: per-instruction dispatch loops (for <v> in ...: ... <v>.op ...)
    if not rel.startswith(RL004_ALLOWED):
        for node in ast.walk(tree):
            if not isinstance(node, ast.For):
                continue
            targets = {t.id for t in ast.walk(node.target)
                       if isinstance(t, ast.Name)}
            for sub in node.body:
                hit = next(
                    (n for n in ast.walk(sub)
                     if isinstance(n, ast.Attribute) and n.attr == "op"
                     and isinstance(n.value, ast.Name)
                     and n.value.id in targets),
                    None,
                )
                if hit is not None:
                    out.append((path, hit.lineno, "RL004",
                                "per-instruction Python loop over an "
                                "instruction stream — lower the stream "
                                "(ChipExecutor.lower) or run it whole; only "
                                "the executor/lowering/analysis layers may "
                                "dispatch per instruction"))
                    break

    # RL005: serial-dispatch call sites stay inside the executor
    if not rel.startswith(RL005_ALLOWED):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_dispatch":
                out.append((path, node.lineno, "RL005",
                            "._dispatch referenced outside pim/executor.py — "
                            "plan replay is the only execution path; request "
                            "the audit reference via run(..., serial=True)"))

    # RL008: plan-replay internals stay inside the two executors
    if not rel.startswith(RL008_ALLOWED):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in RL008_ATTRS:
                out.append((path, node.lineno, "RL008",
                            f".{node.attr} referenced outside pim/executor.py "
                            "and pim/multichip.py — plan replay goes through "
                            "ChipExecutor.run / ShardedExecutor.run_steps"))

    # RL009: block storage is bound once, in MemoryBlock.__init__
    if not rel.startswith(RL009_ALLOWED):
        for node in ast.walk(tree):
            rebinds = (
                isinstance(node, ast.Attribute) and node.attr == "data"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "data"
            )
            if rebinds:
                out.append((path, node.lineno, "RL009",
                            ".data rebound outside pim/block.py — a block's "
                            "data is a view into its tile array; write "
                            "through it (x.data[...] = ...) instead"))

    # RL010: only the kept REPRO_* knobs may be named in src/
    if rel.startswith(RL010_SCOPE):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            for name in sorted(set(RL010_NAME.findall(node.value)) - RL010_KNOBS):
                out.append((path, node.lineno, "RL010",
                            f"{name} is not a kept environment knob — add it "
                            "to RL010_KNOBS in scripts/lint_repo.py if it "
                            "must exist"))

    # RL007: broad except handlers must not swallow silently
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = []
        if node.type is None:
            caught = ["<bare>"]
        elif isinstance(node.type, ast.Name):
            caught = [node.type.id]
        elif isinstance(node.type, ast.Tuple):
            caught = [e.id for e in node.type.elts if isinstance(e, ast.Name)]
        if not any(c in ("Exception", "BaseException", "<bare>") for c in caught):
            continue
        silent = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body
        )
        if silent:
            out.append((path, node.lineno, "RL007",
                        "broad except swallows silently (body is only "
                        "pass/...) — log via repro.obs.log, re-raise, or "
                        "narrow the exception type"))

    # RL006: emitted finding codes must be registered in FINDING_CODES
    if rel.startswith(RL006_SCOPE) and rel != RL006_REGISTRY:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None)
            if name not in ("Finding", "add"):
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and RL006_CODE.match(arg.value)):
                continue
            if arg.value not in registered_codes:
                out.append((path, node.lineno, "RL006",
                            f"finding code {arg.value!r} is not registered in "
                            "repro.analysis.findings.FINDING_CODES — register "
                            "it (Finding.__post_init__ would raise at emit "
                            "time)"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parents[1]

    files = sorted((root / "src").rglob("*.py"))
    if not files:
        print(f"lint_repo: no Python files under {root / 'src'}", file=sys.stderr)
        return 2

    registered = frozenset(_registered_codes(root))
    if not registered:
        print(f"lint_repo: no FINDING_CODES found in {RL006_REGISTRY} — "
              "RL006 cannot run", file=sys.stderr)
        return 2

    violations: List[Violation] = []
    for path in files:
        violations.extend(_lint_file(path, root, registered))

    for path, line, code, msg in violations:
        print(f"{_rel(path, root)}:{line}: {code} {msg}", file=sys.stderr)
    if violations:
        print(f"lint_repo: {len(violations)} violation"
              f"{'s' if len(violations) != 1 else ''}", file=sys.stderr)
        return 1
    print(f"lint_repo: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
