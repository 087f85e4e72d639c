"""Planner (Table 5), batching DRAM traffic (§6.1), pipeline (Fig. 10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import batch_dram_traffic
from repro.core.pipeline import (
    StageTimes,
    pipeline_speedup,
    pipeline_timeline,
    pipelined_stage_time,
    serial_stage_time,
)
from repro.core.planner import PAPER_TABLE5, full_table5, plan_configuration
from repro.pim.params import CHIP_CONFIGS


class TestPlanner:
    def test_reproduces_paper_table5_exactly(self):
        """All sixteen cells of Table 5 from first principles."""
        assert full_table5() == PAPER_TABLE5

    def test_acoustic4_on_2gb_utilization(self):
        """§6.2.1: 'deploying a refinement-level 4 model on a 2GB chip will
        only utilize 25% of available PIM resources' — before expansion."""
        plan = plan_configuration("acoustic", 4, CHIP_CONFIGS["2GB"])
        naive_util = plan.n_elements * 1 / CHIP_CONFIGS["2GB"].n_blocks
        assert naive_util == pytest.approx(0.25)
        assert plan.expansion_parallel  # and the planner fixes it
        assert plan.utilization == pytest.approx(1.0)

    def test_elastic5_512mb_32_batches(self):
        """§7.3: 'the inputs have to be divided into 32 batches for the
        refinement-level 5 of elastic wave simulation' on 512 MB."""
        plan = plan_configuration("elastic", 5, CHIP_CONFIGS["512MB"])
        assert plan.n_batches == 32
        assert plan.label == "E_r&B"

    def test_acoustic5_2gb_two_batches(self):
        plan = plan_configuration("acoustic", 5, CHIP_CONFIGS["2GB"])
        assert plan.n_batches == 2

    def test_elastic4_2gb_exact_fit(self):
        plan = plan_configuration("elastic", 4, CHIP_CONFIGS["2GB"])
        assert plan.blocks_per_element == 4
        assert plan.utilization == pytest.approx(1.0)

    def test_rejects_unknown_physics(self):
        with pytest.raises(ValueError):
            plan_configuration("thermal", 4, CHIP_CONFIGS["2GB"])

    def test_elements_per_batch(self):
        plan = plan_configuration("elastic", 5, CHIP_CONFIGS["512MB"])
        assert plan.elements_per_batch == 1024


class TestVolumeBatching:
    def test_dram_traffic_zero_unbatched(self):
        """§7.4: 'zero overhead DRAM data transfer since batching is not
        needed' with a big enough chip."""
        t = batch_dram_traffic(4096, 512, 4, n_batches=1)
        assert t.bytes_per_step == 0.0

    def test_dram_traffic_scales(self):
        t2 = batch_dram_traffic(4096, 512, 4, n_batches=2)
        t8 = batch_dram_traffic(4096, 512, 4, n_batches=8)
        assert t2.bytes_per_step > 0
        # bytes per step are set by total model size, not batch count...
        assert t8.bytes_per_step == t2.bytes_per_step
        # ...but transaction count (fixed overheads) grows
        assert t8.transactions_per_step > t2.transactions_per_step

    def test_rejects_zero_batches(self):
        with pytest.raises(ValueError):
            batch_dram_traffic(64, 27, 4, 0)


class TestPipeline:
    def _stage(self):
        return StageTimes(
            volume=100e-6,
            flux_fetch_minus=30e-6,
            flux_compute_minus=40e-6,
            flux_fetch_plus=30e-6,
            flux_compute_plus=40e-6,
            integration=20e-6,
            host=50e-6,
        )

    def test_pipelined_shorter_than_serial(self):
        st_ = self._stage()
        assert pipelined_stage_time(st_) < serial_stage_time(st_)

    def test_overlap_formula(self):
        st_ = self._stage()
        expect = max(100, 50, 30) + max(40, 30) + 40 + 20
        assert pipelined_stage_time(st_) == pytest.approx(expect * 1e-6)

    def test_serial_is_sum(self):
        st_ = self._stage()
        assert serial_stage_time(st_) == pytest.approx(310e-6)

    def test_paper_no_pipeline_ratio_regime(self):
        """§7.5: without pipelining only ~0.77x throughput; our formula
        puts the ratio in (0.5, 1)."""
        ratio = 1.0 / pipeline_speedup(self._stage())
        assert 0.5 < ratio < 1.0

    def test_timeline_consistency(self):
        st_ = self._stage()
        entries = pipeline_timeline(st_)
        assert entries[-1].lane == "integration"
        assert entries[-1].end == pytest.approx(pipelined_stage_time(st_))
        for e in entries:
            assert e.end >= e.start >= 0

    def test_fetch_hidden_when_short(self):
        """A fetch shorter than the parallel compute adds zero time."""
        st_fast = StageTimes(100e-6, 1e-6, 40e-6, 1e-6, 40e-6, 20e-6, 1e-6)
        st_zero = StageTimes(100e-6, 0.0, 40e-6, 0.0, 40e-6, 20e-6, 0.0)
        assert pipelined_stage_time(st_fast) == pytest.approx(pipelined_stage_time(st_zero))

    @given(st.floats(min_value=1e-9, max_value=1e-3), st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=50, deadline=None)
    def test_pipeline_never_slower(self, vol, fetch):
        st_ = StageTimes(vol, fetch, vol / 2, fetch, vol / 2, vol / 4, fetch)
        assert pipelined_stage_time(st_) <= serial_stage_time(st_) + 1e-15

    def test_scaled(self):
        st_ = self._stage().scaled(0.5)
        assert st_.volume == pytest.approx(50e-6)
