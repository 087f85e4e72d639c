"""Wave-PIM core: mapping wave simulation onto the PIM substrate.

This subpackage is the paper's primary contribution:

* :mod:`layout` — the Fig. 5 single-element block layout (compute rows +
  constants storage rows, per-node column map);
* :mod:`mapper` — element-to-block placement (naive / expanded), Morton
  ordered so mesh neighbors share low H-tree switches;
* :mod:`kernels` — instruction-stream generators for the Volume, Flux and
  Integration computations (Fig. 2), in one-block and expanded forms
  (Figs. 8/9);
* :mod:`planner` — the capacity planner that reproduces Table 5's
  naive / expansion / batching configuration matrix;
* :mod:`batching` — the §6.1 DRAM traffic of a batched deployment (the
  batched run itself is :func:`repro.pim.multichip.single_chip_batched_makespan`);
* :mod:`pipeline` — §6.3 overlap of host pre-processing, neighbor
  fetches and compute (Figs. 10/13);
* :mod:`compiler` / :mod:`runtime` — end-to-end: benchmark + chip ->
  timing and energy estimates, plus a functional mode that executes the
  compiled acoustic kernels on the chip model and reproduces the numpy
  dG solver bit-for-bit (up to float32 rounding).
"""

from repro.core.layout import ElementLayout, AXIS_NAMES
from repro.core.mapper import ElementMapper, morton3_encode, morton3_decode
from repro.core.planner import Plan, plan_configuration, TABLE5_BENCHMARKS
from repro.core.batching import batch_dram_traffic
from repro.core.pipeline import StageTimes, pipelined_stage_time, serial_stage_time, pipeline_timeline
from repro.core.compiler import WavePimCompiler, CompiledBenchmark
from repro.core.runtime import PimRunEstimate, estimate_benchmark

__all__ = [
    "ElementLayout",
    "AXIS_NAMES",
    "ElementMapper",
    "morton3_encode",
    "morton3_decode",
    "Plan",
    "plan_configuration",
    "TABLE5_BENCHMARKS",
    "batch_dram_traffic",
    "StageTimes",
    "pipelined_stage_time",
    "serial_stage_time",
    "pipeline_timeline",
    "WavePimCompiler",
    "CompiledBenchmark",
    "PimRunEstimate",
    "estimate_benchmark",
]
