"""Trace exporters: human tree, JSON document, Chrome ``trace_event``.

Three views of one recording:

* :func:`render_tree` — indented span tree with adaptive durations, meant
  for stderr after ``--profile`` runs;
* :func:`build_document` / :func:`write_trace` — the canonical JSON schema
  (``{"schema": 1, "kind": "repro-trace", "spans": [...], "metrics":
  {...}}``), written to ``REPRO_TRACE_FILE``; ``python -m repro check
  --trace`` checks it in CI;
* :func:`chrome_trace` — the Chrome ``trace_event`` array format, loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans may smuggle
  extra pre-built events through a ``chrome_events`` attribute (the Fig. 13
  pipeline timeline uses this to appear as its own lanes).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "build_document",
    "chrome_trace",
    "default_trace_path",
    "format_duration",
    "load_trace",
    "render_tree",
    "summarize",
    "write_trace",
]

TRACE_SCHEMA_VERSION = 1

_ENV_TRACE_FILE = "REPRO_TRACE_FILE"


def format_duration(seconds: float) -> str:
    """Adaptive precision: s >= 1, else ms, else us, else ns."""
    s = abs(seconds)
    if s >= 1.0:
        return f"{seconds:.2f}s"
    if s >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    if s >= 1e-6:
        return f"{seconds * 1e6:.1f}us"
    return f"{seconds * 1e9:.0f}ns"


def default_trace_path() -> Path:
    """``REPRO_TRACE_FILE`` or ``repro_trace.json`` in the working dir."""
    return Path(os.environ.get(_ENV_TRACE_FILE) or "repro_trace.json")


# --------------------------------------------------------------------- #
# document
# --------------------------------------------------------------------- #


def build_document(tracer, metrics=None, meta=None) -> dict:
    """The canonical JSON trace document from a tracer + metrics registry."""
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "kind": "repro-trace",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "meta": dict(meta or {}),
        "spans": tracer.export(),
        "metrics": metrics.snapshot() if metrics is not None else {},
    }


def write_trace(doc: dict, path=None) -> tuple:
    """Write the JSON document and its Chrome sibling; returns both paths.

    ``trace.json`` gets a ``trace.chrome.json`` next to it — the sibling is
    the file to drop into Perfetto / ``chrome://tracing``.
    """
    path = Path(path) if path is not None else default_trace_path()
    path.write_text(json.dumps(doc, indent=2, default=repr) + "\n")
    chrome_path = path.with_name(path.stem + ".chrome.json")
    chrome_path.write_text(json.dumps(chrome_trace(doc)) + "\n")
    return path, chrome_path


def load_trace(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != "repro-trace":
        raise ValueError(f"{path} is not a repro trace document")
    return doc


# --------------------------------------------------------------------- #
# human tree
# --------------------------------------------------------------------- #

#: span attributes worth echoing inline in the tree view.
_TREE_ATTRS = (
    "cache", "chip", "instructions", "n_instructions", "cells", "compiled",
    "jobs", "experiment", "error",
)


def _span_line(span: dict, depth: int) -> str:
    start, end = span.get("start_s", 0.0), span.get("end_s")
    dur = format_duration((end or start) - start) if end is not None else "open"
    attrs = span.get("attrs", {})
    shown = [f"{k}={attrs[k]}" for k in _TREE_ATTRS if k in attrs]
    suffix = f"  [{', '.join(shown)}]" if shown else ""
    return f"{'  ' * depth}{span.get('name', '?'):<{max(1, 44 - 2 * depth)}} {dur:>9}{suffix}"


def render_tree(doc: dict, max_depth: int = 12) -> str:
    """Indented span tree (one line per span) for stderr."""
    lines = ["trace tree (span, wall-clock):"]

    def walk(span, depth):
        lines.append(_span_line(span, depth))
        if depth + 1 < max_depth:
            for child in span.get("children", ()):
                walk(child, depth + 1)

    for root in doc.get("spans", ()):
        walk(root, 1)
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #


def chrome_trace(doc: dict) -> dict:
    """Chrome/Perfetto ``trace_event`` JSON (complete-event ``ph: "X"``).

    Emits ``process_name``/``thread_name`` metadata (``ph: "M"``) ahead of
    the span events, so Perfetto labels each track with its root span's
    name instead of a bare pid/tid.  Spans may smuggle extra pre-built
    events — the Fig. 13 pipeline lanes and the hardware-counter Gantt
    (:mod:`repro.obs.timeline`) carry their own metadata the same way.
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for i, root in enumerate(doc.get("spans", ())):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": i,
                "args": {"name": root.get("name", f"root {i}")},
            }
        )

    def walk(span, tid):
        start = float(span.get("start_s", 0.0))
        end = span.get("end_s")
        end = start if end is None else float(end)
        attrs = dict(span.get("attrs", {}))
        extra = attrs.pop("chrome_events", None)
        events.append(
            {
                "name": span.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in attrs.items()},
            }
        )
        if isinstance(extra, list):
            events.extend(extra)
        for child in span.get("children", ()):
            walk(child, tid)

    for i, root in enumerate(doc.get("spans", ())):
        walk(root, i)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"kind": "repro-trace", "schema": doc.get("schema")},
    }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# --------------------------------------------------------------------- #
# summary (the ``repro trace summary`` subcommand)
# --------------------------------------------------------------------- #


def _walk_spans(spans):
    for s in spans:
        yield s
        yield from _walk_spans(s.get("children", ()))


def summarize(doc: dict, top: int = 12) -> str:
    """Tree + aggregate per-span-name totals + headline metrics."""
    lines = [render_tree(doc), ""]

    totals: dict = {}
    for span in _walk_spans(doc.get("spans", ())):
        end = span.get("end_s")
        if end is None:
            continue
        dur = end - span.get("start_s", 0.0)
        name = span.get("name", "?")
        t, n = totals.get(name, (0.0, 0))
        totals[name] = (t + dur, n + 1)
    if totals:
        lines.append(f"top spans by total time (of {len(totals)} names):")
        ranked = sorted(totals.items(), key=lambda kv: kv[1][0], reverse=True)
        for name, (t, n) in ranked[:top]:
            lines.append(f"  {name:<44} {format_duration(t):>9}  x{n}")
        lines.append("")

    # executor runs: makespan / scheduler / binding-resource roll-up off
    # the pim/run span attributes (present on profiled executor runs).
    runs = [
        s for s in _walk_spans(doc.get("spans", ()))
        if s.get("name") == "pim/run" and s.get("attrs")
    ]
    if runs:
        makespan = sum(
            a.get("makespan_cycles") or 0.0
            for a in (s.get("attrs", {}) for s in runs)
        )
        emission = sum(
            a.get("emission_makespan_cycles") or 0.0
            for a in (s.get("attrs", {}) for s in runs)
        )
        lines.append(f"executor runs: {len(runs)}")
        lines.append(f"  makespan_cycles {'':<30} {makespan:,.0f}")
        if emission:
            lines.append(
                f"  emission_makespan_cycles {'':<21} {emission:,.0f}  "
                f"(scheduler {emission / makespan:.2f}x)" if makespan else
                f"  emission_makespan_cycles {'':<21} {emission:,.0f}"
            )
        bindings = [
            s["attrs"]["binding_resource"] for s in runs
            if s.get("attrs", {}).get("binding_resource")
        ]
        if bindings:
            top_binding = max(set(bindings), key=bindings.count)
            lines.append(
                f"  binding_resource {'':<29} {top_binding} "
                f"({bindings.count(top_binding)}/{len(bindings)} runs)"
            )
        lines.append("")

    counters = (doc.get("metrics") or {}).get("counters") or {}
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            shown = f"{value:.6g}" if isinstance(value, float) else f"{value:,}"
            lines.append(f"  {name:<44} {shown}")
    histograms = (doc.get("metrics") or {}).get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        for name, h in histograms.items():
            mean = (h.get("sum", 0.0) / h["count"]) if h.get("count") else 0.0
            lines.append(
                f"  {name:<44} n={h.get('count', 0)} mean={mean:.6g} "
                f"min={h.get('min')} max={h.get('max')}"
            )
    return "\n".join(lines)
