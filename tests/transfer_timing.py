"""Transfer-timing helpers shared by the interconnect contention tests.

Each transfer is a 32-row x 1-word TRANSFER on an analytic 512MB chip,
timed by ``ChipExecutor`` on the H-tree or the Bus.
"""

from functools import lru_cache

from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS


def xfer(src: int, dst: int) -> Instruction:
    """A 32-row x 1-word TRANSFER (8 flits of 4 words)."""
    return Instruction(Opcode.TRANSFER, block=dst, src_block=src, rows=(0, 32),
                       src_rows=(0, 32), dst=0, src1=0, words=1)


def run_transfers(pairs, kind: str, serial: bool = False, counters: bool = False):
    """``(makespan, executor)`` of ``src -> dst`` transfers on a 512MB chip."""
    ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"].with_interconnect(kind)),
                      counters=counters)
    rep = ex.run([xfer(s, d) for s, d in pairs], functional=False, serial=serial)
    return rep.total_time_s, ex


@lru_cache(maxsize=None)
def single_transfer_s(src: int, dst: int, kind: str) -> float:
    """Makespan of the one transfer ``src -> dst`` on an idle chip."""
    return run_transfers([(src, dst)], kind)[0]
