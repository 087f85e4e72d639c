"""Observability: tracer, metrics, exporters, logging, trace validation.

Also the satellite coverage for :class:`TimingReport` phase accounting —
the per-phase cycle totals must equal the sum of per-instruction cycles
under both the serial audit and plan-replay executor modes.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro.analysis import tracecheck
from repro.core.kernels.acoustic import AcousticOneBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg import AcousticMaterial, HexMesh, ReferenceElement
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Span,
    Tracer,
    build_document,
    chrome_trace,
    configure_logging,
    format_duration,
    get_logger,
    get_tracer,
    load_trace,
    render_tree,
    set_tracer,
    summarize,
    write_trace,
)
from repro.pim.chip import PimChip
from repro.pim.executor import PHASES, ChipExecutor, TimingReport, tag_phase
from repro.pim.params import CHIP_CONFIGS


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        t = Tracer(enabled=False)
        sp = t.span("anything", foo=1)
        assert sp is NULL_SPAN
        with sp as inner:
            assert inner is NULL_SPAN
        assert t.roots == []

    def test_nesting(self):
        t = Tracer(enabled=True)
        with t.span("outer", a=1):
            with t.span("inner"):
                pass
            with t.span("inner2") as sp:
                sp.set(k="v").inc("n", 3).inc("n")
        (root,) = t.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert root.children[1].attrs == {"k": "v", "n": 4}
        assert root.attrs == {"a": 1}
        assert root.end_s >= root.children[1].end_s >= root.start_s

    def test_exception_records_error_attr(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("nope")
        (root,) = t.roots
        assert root.attrs["error"] == "ValueError"
        assert root.end_s is not None

    def test_current(self):
        t = Tracer(enabled=True)
        assert t.current() is NULL_SPAN
        with t.span("a") as sp:
            assert t.current() is sp
        assert t.current() is NULL_SPAN

    def test_clear(self):
        t = Tracer(enabled=True)
        with t.span("x"):
            pass
        t.clear()
        assert t.roots == []

    def test_thread_spans_become_separate_roots(self):
        t = Tracer(enabled=True)

        def work():
            with t.span("worker"):
                pass

        with t.span("main-root"):
            th = threading.Thread(target=work)
            th.start()
            th.join()
        names = sorted(s.name for s in t.roots)
        assert names == ["main-root", "worker"]

    def test_export_round_trip(self):
        t = Tracer(enabled=True)
        with t.span("root", x=1):
            with t.span("child"):
                pass
        (payload,) = t.export()
        sp = Span.from_dict(payload)
        assert sp.name == "root"
        assert sp.attrs == {"x": 1}
        assert sp.children[0].name == "child"
        assert sp.to_dict() == payload

    def test_adopt_rebases_and_grafts(self):
        worker = Tracer(enabled=True)
        with worker.span("w-compile"):
            pass
        payload = worker.export()

        parent = Tracer(enabled=True)
        with parent.span("fanout") as sp:
            n = parent.adopt(payload, worker=True)
            assert n == 1
            (child,) = sp.children
        assert child.name == "w-compile"
        assert child.attrs["worker"] is True
        # re-based: earliest adopted start aligns with the adopting span
        assert child.start_s == pytest.approx(sp.start_s)
        assert child.end_s >= child.start_s

    def test_adopt_empty_payload(self):
        t = Tracer(enabled=True)
        assert t.adopt(None) == 0
        assert t.adopt([]) == 0

    def test_set_tracer_swap(self):
        fresh = Tracer(enabled=True)
        old = set_tracer(fresh)
        try:
            assert get_tracer() is fresh
        finally:
            set_tracer(old)
        assert get_tracer() is old


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        m.inc("b", 2.5)
        assert m.value("a") == 5
        assert m.value("b") == 2.5
        assert m.value("missing") == 0
        assert m.value("missing", None) is None

    def test_disabled_is_noop(self):
        m = MetricsRegistry(enabled=False)
        m.inc("a")
        m.observe("h", 3)
        snap = m.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_histogram(self):
        m = MetricsRegistry()
        for v in (1, 2, 100, 10**9):
            m.observe("h", v)
        h = m.snapshot()["histograms"]["h"]
        assert h["count"] == 4
        assert h["min"] == 1 and h["max"] == 10**9
        assert sum(h["buckets"]) == 4
        assert h["buckets"][-1] == 1  # the overflow bucket caught 1e9

    def test_merge_is_associative(self):
        snaps = []
        for base in (0, 10):
            m = MetricsRegistry()
            m.inc("c", base + 1)
            m.observe("h", base + 2)
            snaps.append(m.snapshot())

        folded = MetricsRegistry()
        for snap in snaps:
            folded.merge(snap)
        assert folded.value("c") == 12
        h = folded.snapshot()["histograms"]["h"]
        assert h["count"] == 2 and h["min"] == 2 and h["max"] == 12

    def test_merge_skips_mismatched_bounds(self):
        m = MetricsRegistry()
        m.histogram("h", bounds=(1, 2, 3))
        m.merge({"histograms": {"h": {"bounds": [5, 6], "count": 9, "sum": 1.0}}})
        assert m.snapshot()["histograms"]["h"]["count"] == 0

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("a")
        m.reset()
        assert m.value("a") == 0


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #


def _sample_doc():
    t = Tracer(enabled=True)
    m = MetricsRegistry()
    with t.span("run/test", experiment="test"):
        with t.span("compile", cache="miss"):
            pass
        with t.span("execute"):
            m.inc("executor.runs")
        with t.span("report"):
            pass
    return build_document(t, m, meta={"command": "run test"})


class TestExport:
    def test_format_duration_adaptive(self):
        assert format_duration(2.5) == "2.50s"
        assert format_duration(0.0123) == "12.3ms"
        assert format_duration(4.56e-5) == "45.6us"
        assert format_duration(7.8e-8) == "78ns"

    def test_document_shape(self):
        doc = _sample_doc()
        assert doc["schema"] == 1 and doc["kind"] == "repro-trace"
        assert doc["meta"]["command"] == "run test"
        (root,) = doc["spans"]
        assert [c["name"] for c in root["children"]] == ["compile", "execute", "report"]
        assert doc["metrics"]["counters"]["executor.runs"] == 1

    def test_write_and_load_round_trip(self, tmp_path):
        doc = _sample_doc()
        json_path, chrome_path = write_trace(doc, tmp_path / "t.json")
        assert json_path.exists() and chrome_path.exists()
        assert chrome_path.name == "t.chrome.json"
        assert load_trace(json_path)["spans"] == doc["spans"]
        with pytest.raises(ValueError):
            other = tmp_path / "other.json"
            other.write_text("{}")
            load_trace(other)

    def test_render_tree(self):
        out = render_tree(_sample_doc())
        assert "run/test" in out and "compile" in out and "cache=miss" in out
        assert render_tree({"spans": []}).endswith("(no spans recorded)")

    def test_chrome_trace(self):
        chrome = chrome_trace(_sample_doc())
        events = chrome["traceEvents"]
        assert {e["name"] for e in events} >= {"run/test", "compile", "execute", "report"}
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} >= {"process_name"}
        for e in events:
            if e["ph"] == "M":
                continue
            assert e["ph"] == "X"
            assert e["dur"] >= 0 and isinstance(e["ts"], float)

    def test_chrome_events_smuggling(self):
        t = Tracer(enabled=True)
        lane = {"name": "Volume", "ph": "X", "ts": 0, "dur": 5, "pid": 0, "tid": 101}
        with t.span("stage") as sp:
            sp.set(chrome_events=[lane])
        chrome = chrome_trace(build_document(t))
        names = [e["name"] for e in chrome["traceEvents"]]
        assert "Volume" in names
        stage = next(e for e in chrome["traceEvents"] if e["name"] == "stage")
        assert "chrome_events" not in stage["args"]

    def test_summarize(self):
        out = summarize(_sample_doc())
        assert "top spans by total time" in out
        assert "executor.runs" in out


# --------------------------------------------------------------------- #
# logging
# --------------------------------------------------------------------- #


class TestLogging:
    def test_get_logger_prefixes(self):
        assert get_logger("repro.core.compiler").name == "repro.core.compiler"
        assert get_logger("compiler").name == "repro.compiler"

    def test_configure_idempotent(self):
        configure_logging("info")
        configure_logging("warning")
        root = logging.getLogger("repro")
        tagged = [h for h in root.handlers if getattr(h, "_repro_handler", False)]
        assert len(tagged) == 1
        assert root.level == logging.WARNING

    def test_level_filters(self):
        configure_logging("warning")
        assert not logging.getLogger("repro.eval.experiments").isEnabledFor(logging.INFO)
        configure_logging("debug")
        assert logging.getLogger("repro.core.planner").isEnabledFor(logging.DEBUG)
        configure_logging("info")


# --------------------------------------------------------------------- #
# trace validator (repro check --trace, used by CI)
# --------------------------------------------------------------------- #


class TestValidator:
    def test_valid_document_passes(self):
        assert tracecheck.validate(_sample_doc()) == []
        assert tracecheck.validate(
            _sample_doc(), require=("compile", "execute", "report")
        ) == []

    def test_empty_and_malformed_fail(self):
        assert tracecheck.validate({}) != []
        assert tracecheck.validate({"schema": 1, "kind": "repro-trace", "spans": []})
        bad = _sample_doc()
        bad["spans"][0]["children"][0]["end_s"] = -1e9
        assert any("end_s < start_s" in e for e in tracecheck.validate(bad))

    def test_missing_required_phase_fails(self):
        errors = tracecheck.validate(_sample_doc(), require=("nonexistent",))
        assert any("nonexistent" in e for e in errors)

    def test_chrome_validation(self):
        assert tracecheck.validate_chrome(chrome_trace(_sample_doc())) == []
        assert tracecheck.validate_chrome({"traceEvents": []}) != []
        assert tracecheck.validate_chrome(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": "bad"}]}
        ) != []

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        def check(*argv):
            return main(["check", "--trace", *map(str, argv)])

        path = tmp_path / "trace.json"
        write_trace(_sample_doc(), path)
        assert check(path, "--require", "compile") == 0
        assert check(path, "--require", "bogus") == 1
        empty = tmp_path / "empty.json"
        empty.write_text('{"schema": 1, "kind": "repro-trace", "spans": []}')
        assert check(empty) == 1
        assert check(tmp_path / "missing.json") == 1


# --------------------------------------------------------------------- #
# TimingReport phase accounting (satellite: serial audit vs plan replay)
# --------------------------------------------------------------------- #


def _acoustic_step():
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(2)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
    kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "riemann")
    state = np.zeros((4, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    return kern.setup() + kern.load_state(state) + kern.time_step(1e-4)


class TestTimingReportPhases:
    def test_tag_phase_partition(self):
        for tag, phase in [
            ("volume", "volume"), ("flux:fetch", "transfer"), ("flux", "flux"),
            ("integration", "integration"), ("lut_sqrt", "lut"),
            ("setup", "dram"), ("host_sqrt", "host"), ("sync", "sync"),
            ("weird_tag", "other"),
        ]:
            assert tag_phase(tag) == phase
            assert tag_phase(tag) in PHASES or tag_phase(tag) == "other"

    @pytest.mark.parametrize("serial", [True, False], ids=["serial", "plan"])
    def test_phase_totals_equal_instruction_totals(self, serial):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        rep = ex.run(_acoustic_step(), functional=False, serial=serial)
        assert rep.n_instructions > 0
        phase_t = rep.phase_times()
        # the phases partition time_by_tag completely: sums must agree
        assert sum(phase_t.values()) == pytest.approx(
            sum(rep.time_by_tag.values()), rel=1e-12)
        clock = CHIP_CONFIGS["512MB"].clock_hz
        cycles = rep.phase_cycles(clock)
        for phase, t in phase_t.items():
            assert cycles[phase] == pytest.approx(t * clock, rel=1e-12)
        assert rep.transfers > 0 and rep.hops > 0
        assert rep.flits > 0 and rep.bytes_moved > 0

    def test_serial_and_plan_agree(self):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        step = _acoustic_step()
        serial = ex.run(step, functional=False, serial=True)
        plan = ex.run(step, functional=False)
        assert serial.n_instructions == plan.n_instructions
        assert serial.transfers == plan.transfers
        assert serial.hops == plan.hops
        for phase, t in serial.phase_times().items():
            assert plan.phase_times()[phase] == pytest.approx(t, rel=1e-9)

    def test_merge_folds_interconnect_fields(self):
        a = TimingReport()
        a.transfers, a.hops, a.flits, a.bytes_moved = 1, 2, 3, 4
        a.time_by_tag["volume"] = 1.0
        b = TimingReport()
        b.transfers, b.hops, b.flits, b.bytes_moved = 10, 20, 30, 40
        b.time_by_tag["flux"] = 2.0
        a.merge(b)
        assert (a.transfers, a.hops, a.flits, a.bytes_moved) == (11, 22, 33, 44)
        assert a.phase_times() == {"volume": 1.0, "flux": 2.0}


# --------------------------------------------------------------------- #
# executor / compiler publish into the live tracer + metrics
# --------------------------------------------------------------------- #


@pytest.fixture
def fresh_obs():
    """Swap in a private enabled tracer + registry, restore afterwards."""
    from repro.obs import set_metrics

    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    old_t = set_tracer(tracer)
    old_m = set_metrics(metrics)
    try:
        yield tracer, metrics
    finally:
        set_tracer(old_t)
        set_metrics(old_m)


class TestInstrumentation:
    def test_executor_publishes(self, fresh_obs):
        tracer, metrics = fresh_obs
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        rep = ex.run(_acoustic_step(), functional=False)
        # the raw stream auto-lowers first, so lowering traces its own root
        root = next(s for s in tracer.roots if s.name == "pim/run")
        assert root.attrs["n_instructions"] == rep.n_instructions
        clock = CHIP_CONFIGS["512MB"].clock_hz
        assert root.attrs["phase_cycles"] == rep.phase_cycles(clock)
        assert metrics.value("executor.runs") == 1
        assert metrics.value("executor.instructions") == rep.n_instructions
        # per-phase cycle counters sum to the report's per-tag busy cycles
        published = sum(metrics.value(f"executor.cycles.{p}") for p in PHASES)
        assert published == pytest.approx(
            sum(rep.time_by_tag.values()) * clock, rel=1e-9)
        assert metrics.value("interconnect.htree.transfers") == rep.transfers

    def test_compiler_publishes(self, fresh_obs):
        from repro.core.compiler import WavePimCompiler

        tracer, metrics = fresh_obs
        WavePimCompiler(order=2).compile("acoustic", 1, CHIP_CONFIGS["512MB"])
        root = next(s for s in tracer.roots if s.name == "compile/acoustic_1")
        assert root.attrs["cache"] == "off"
        child_names = [c.name for c in root.children]
        assert "compile/plan" in child_names
        assert "compile/volume_kernel" in child_names
        assert metrics.value("compiler.compiles") == 1
        assert metrics.value("compiler.instructions_emitted") > 0


# --------------------------------------------------------------------- #
# CLI --profile end-to-end
# --------------------------------------------------------------------- #


class TestCliProfile:
    def test_run_table5_profile(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "trace.json"
        old = set_tracer(Tracer(enabled=False))
        try:
            assert main(["run", "table5", "--profile",
                         "--trace-file", str(trace_path)]) == 0
        finally:
            set_tracer(old)
        err = capsys.readouterr().err
        assert "trace tree" in err
        doc = load_trace(trace_path)
        assert tracecheck.validate(
            doc, require=("compile", "execute", "report")) == []
        chrome = json.loads((tmp_path / "trace.chrome.json").read_text())
        assert tracecheck.validate_chrome(chrome) == []

    def test_trace_summary_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "t.json"
        write_trace(_sample_doc(), path)
        assert main(["trace", "summary", str(path)]) == 0
        assert "top spans by total time" in capsys.readouterr().out
        assert main(["trace", "summary", str(tmp_path / "nope.json")]) == 2
