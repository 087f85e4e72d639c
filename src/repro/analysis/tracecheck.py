"""Trace-document validation (the observability side of ``repro check``).

The span-tree and Chrome ``trace_event`` validators used by CI's profiled
runs.  ``python -m repro check --trace FILE`` is the command line;
it calls :func:`validate_trace_file`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Union

from repro.obs.timeline import COUNTERS_PID

__all__ = [
    "EXPECTED_SCHEMA",
    "EXPECTED_KIND",
    "validate",
    "validate_chrome",
    "validate_counters",
    "validate_trace_file",
]

EXPECTED_SCHEMA = 1
EXPECTED_KIND = "repro-trace"


def _check_span(span: object, path: str, errors: List[str]) -> None:
    if not isinstance(span, dict):
        errors.append(f"{path}: span is not an object")
        return
    name = span.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}: missing span name")
        name = "?"
    here = f"{path}/{name}"
    start = span.get("start_s")
    end = span.get("end_s")
    if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
        errors.append(f"{here}: start_s/end_s must be numbers "
                      f"(got {start!r}, {end!r})")
    elif end < start:
        errors.append(f"{here}: end_s < start_s ({end} < {start})")
    children = span.get("children", [])
    if not isinstance(children, list):
        errors.append(f"{here}: children must be a list")
        return
    for child in children:
        _check_span(child, here, errors)


def _span_names(spans: Iterable[object]) -> Set[str]:
    names: Set[str] = set()
    stack = [s for s in spans if isinstance(s, dict)]
    while stack:
        span = stack.pop()
        name = span.get("name")
        if isinstance(name, str):
            names.add(name)
        stack.extend(c for c in span.get("children", []) if isinstance(c, dict))
    return names


def validate(doc: object, require: Sequence[str] = ()) -> List[str]:
    """Return a list of error strings; empty means the trace is valid."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    if doc.get("schema") != EXPECTED_SCHEMA:
        errors.append(f"schema must be {EXPECTED_SCHEMA}, got {doc.get('schema')!r}")
    if doc.get("kind") != EXPECTED_KIND:
        errors.append(f"kind must be {EXPECTED_KIND!r}, got {doc.get('kind')!r}")
    spans = doc.get("spans")
    if not isinstance(spans, list) or not spans:
        errors.append("trace has no spans (empty or missing 'spans' list)")
        return errors
    for i, span in enumerate(spans):
        _check_span(span, f"spans[{i}]", errors)
    names = _span_names(spans)
    for token in require:
        if not any(token in name for name in names):
            errors.append(f"required phase {token!r} not found in span tree "
                          f"(have: {', '.join(sorted(names))})")
    return errors


def validate_chrome(doc: object) -> List[str]:
    """Validate a Chrome ``trace_event`` export (the ``.chrome.json`` sibling)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["chrome trace is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("chrome trace has no traceEvents")
        return errors
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"traceEvents[{i}]: not an object")
            continue
        if not ev.get("name") or ev.get("ph") not in ("X", "B", "E", "i", "C", "M"):
            errors.append(f"traceEvents[{i}]: missing name or bad ph {ev.get('ph')!r}")
        if ev.get("ph") == "M":
            # metadata events (process_name/thread_name) carry no timestamp
            if not isinstance(ev.get("args"), dict):
                errors.append(f"traceEvents[{i}]: metadata event missing args")
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"traceEvents[{i}]: ts must be a number")
        if ev.get("ph") == "X" and not isinstance(ev.get("dur"), (int, float)):
            errors.append(f"traceEvents[{i}]: complete event missing dur")
    return errors


def validate_counters(doc: object, chrome_doc: object) -> List[str]:
    """Check the hardware-counter evidence of a ``--counters`` run.

    The JSON document's metrics must carry ``counters.*`` entries, and the
    Chrome sibling must contain the counter Gantt (see
    :mod:`repro.obs.timeline`): a ``process_name`` metadata event naming
    the ``"hardware counters"`` process, at least one ``thread_name``
    track on that pid, and ``ph: "X"`` occupancy slices on it.
    """
    errors: List[str] = []
    counters: object = None
    if isinstance(doc, dict):
        metrics = doc.get("metrics")
        if isinstance(metrics, dict):
            counters = metrics.get("counters")
    has_counters = isinstance(counters, dict) and any(
        isinstance(k, str) and k.startswith("counters.") for k in counters
    )
    if not has_counters:
        errors.append(
            "metrics carry no counters.* entries (was the run profiled "
            "with --counters / REPRO_COUNTERS=1?)"
        )
    if not isinstance(chrome_doc, dict):
        errors.append("chrome trace is not a JSON object")
        return errors
    raw_events = chrome_doc.get("traceEvents")
    events = [e for e in raw_events if isinstance(e, dict)] \
        if isinstance(raw_events, list) else []
    pid_events = [e for e in events if e.get("pid") == COUNTERS_PID]
    named = any(
        e.get("ph") == "M" and e.get("name") == "process_name"
        and isinstance(e.get("args"), dict)
        and e["args"].get("name") == "hardware counters"
        for e in pid_events
    )
    if not named:
        errors.append(
            'chrome trace has no "hardware counters" process metadata '
            f"(ph M, pid {COUNTERS_PID})"
        )
    if not any(e.get("ph") == "M" and e.get("name") == "thread_name"
               for e in pid_events):
        errors.append("chrome trace has no counter thread_name tracks "
                      "(per-block/link Gantt lanes)")
    if not any(e.get("ph") == "X" for e in pid_events):
        errors.append("chrome trace has no counter occupancy slices "
                      f"(ph X on pid {COUNTERS_PID})")
    return errors


def validate_trace_file(
    path: Union[str, Path],
    require: Sequence[str] = (),
    require_counters: bool = False,
) -> List[str]:
    """Validate a trace file on disk (and its Chrome sibling); never raises.

    ``require_counters`` additionally demands hardware-counter evidence
    (:func:`validate_counters`).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    errors = validate(doc, require=require)
    chrome_path = path.with_name(path.stem + ".chrome.json")
    if not chrome_path.exists():
        errors.append(f"missing Chrome export {chrome_path}")
        return errors
    try:
        chrome_doc = json.loads(chrome_path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"cannot read {chrome_path}: {exc}")
        return errors
    errors.extend(validate_chrome(chrome_doc))
    if require_counters:
        errors.extend(validate_counters(doc, chrome_doc))
    return errors

