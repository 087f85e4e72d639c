"""Experiment harness: every table/figure regenerates and holds its shape.

Experiments run at a reduced element order so the suite stays quick; the
paper-scale order-7 runs are the benchmark harness's job.
"""

import numpy as np
import pytest

from repro.eval import EXPERIMENTS, Table, format_table, run_experiment
from repro.eval.experiments import (
    PAPER_FIG11_AVG,
    PAPER_FIG14_SHARES,
    PAPER_NO_PIPELINE_THROUGHPUT,
)

ORDER = 3


class TestReport:
    def test_table_add_and_render(self):
        t = Table("Demo", ["a", "b"])
        t.add(a=1, b=2.5)
        out = t.render()
        assert "Demo" in out and "2.5" in out

    def test_missing_column_rejected(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(a=1)

    def test_format_large_numbers(self):
        t = Table("Demo", ["x"])
        t.add(x=1_234_567)
        assert "1,234,567" in format_table(t)


class TestRegistry:
    def test_all_registered(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "sec31",
            "sec7_summary",
            "energy_breakdown",
            "fault_sweep",
        }

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestStaticTables:
    def test_table2(self):
        t = run_experiment("table2")
        platforms = t.column("platform")
        assert "Tesla V100" in platforms and "Wave-PIM 2GB" in platforms
        pim = [r for r in t.rows if r["platform"] == "Wave-PIM 2GB"][0]
        assert pim["peak_tflops"] > 1.0

    def test_table3_within_2pct_of_paper(self):
        t = run_experiment("table3")
        for row in t.rows:
            if not np.isnan(row["paper_w"]) and row["paper_w"] > 0:
                assert row["value_w"] == pytest.approx(row["paper_w"], rel=0.03), row

    def test_table4_derived_counts(self):
        t = run_experiment("table4")
        quantities = t.column("quantity")
        assert "fp32 mul (derived)" in quantities

    def test_table5_matches_paper(self):
        t = run_experiment("table5")
        assert all(t.column("matches_paper"))

    def test_table6_ratios_bounded(self):
        t = run_experiment("table6", order=ORDER)
        # reduced order -> lower counts, but the cross-benchmark ordering
        # must match the paper's
        ours = t.column("fp_ops")
        paper = t.column("paper_fp_ops")
        assert np.argsort(ours).tolist() == np.argsort(paper).tolist()


class TestModelExperiments:
    def test_fig11_pim_wins(self):
        t = run_experiment("fig11", order=ORDER, n_steps=64)
        for row in t.rows:
            assert row["Unfused-1080Ti"] == pytest.approx(1.0)
            # the scaled 16GB PIM beats the baseline on every benchmark
            assert row["PIM-16GB-12nm"] < 1.0

    def test_fig11_scaling_monotone(self):
        """Bigger PIM is never slower (same benchmark, same node)."""
        t = run_experiment("fig11", order=ORDER, n_steps=64)
        for row in t.rows:
            assert row["PIM-16GB-12nm"] <= row["PIM-2GB-12nm"] * 1.01
            assert row["PIM-2GB-12nm"] <= row["PIM-512MB-12nm"] * 1.01

    def test_fig11_12nm_faster_than_28nm(self):
        t = run_experiment("fig11", order=ORDER, n_steps=64)
        for row in t.rows:
            assert row["PIM-2GB-12nm"] < row["PIM-2GB-28nm"]

    def test_fig12_energy_savings(self):
        t = run_experiment("fig12", order=ORDER, n_steps=64)
        for row in t.rows:
            assert row["PIM-2GB-12nm"] < 1.0  # saves energy vs baseline

    def test_fig12_small_chip_more_efficient_on_small_problem(self):
        """§7.4's trade-off: on level-4 problems the small chips win on
        energy (less static power)."""
        t = run_experiment("fig12", order=ORDER, n_steps=64)
        lvl4 = [r for r in t.rows if r["benchmark"].endswith("_4")]
        for row in lvl4:
            assert row["PIM-2GB-28nm"] < row["PIM-16GB-28nm"]

    def test_fig13_pipeline(self):
        t = run_experiment("fig13", order=ORDER)
        lanes = set(t.column("lane"))
        assert {"cpu_host", "volume", "flux_fetch", "flux_compute", "integration"} <= lanes
        # the §7.5 regime: unpipelined throughput in (0.5, 1.0)
        note = t.notes[0]
        ratio = float(note.split("=")[1].split("x")[0])
        assert 0.5 < ratio < 1.0
        assert abs(ratio - PAPER_NO_PIPELINE_THROUGHPUT) < 0.25

    def test_fig14_shapes(self):
        t = run_experiment("fig14", order=ORDER)
        rows = {(r["case"], r["interconnect"]): r for r in t.rows}
        for (case, ic), r in rows.items():
            assert 0 < r["inter_share"] < 1
        # bus always spends a larger share on inter-element transfer
        for case in {r["case"] for r in t.rows}:
            assert rows[(case, "bus")]["inter_share"] > rows[(case, "htree")]["inter_share"]

    def test_sec31_speedups_grow_with_gpu(self):
        t = run_experiment("sec31", order=ORDER, n_steps=64)
        by_level = {}
        for r in t.rows:
            by_level.setdefault(r["level"], []).append(r["speedup"])
        for level, sps in by_level.items():
            assert sps == sorted(sps)  # 1080Ti < P100 < V100

    def test_sec31_level5_widens(self):
        t = run_experiment("sec31", order=ORDER, n_steps=64)
        v4 = [r["speedup"] for r in t.rows if r["level"] == 4][-1]
        v5 = [r["speedup"] for r in t.rows if r["level"] == 5][-1]
        assert v5 > v4

    def test_sec7_summary_pim_wins(self):
        t = run_experiment("sec7_summary", order=ORDER, n_steps=64)
        for row in t.rows:
            assert row["avg_speedup"] > 1.0
            assert row["avg_energy_saving"] > 1.0
        # V100 is the hardest target
        sps = {r["gpu"]: r["avg_speedup"] for r in t.rows}
        assert sps["Tesla V100"] < sps["GTX 1080Ti"]
