"""Inter-block interconnect substrate: H-tree and Bus topologies (paper §4.2).

A 256-block memory tile is served either by a 4-ary H-tree (64 + 16 + 4 + 1
= 85 switches, the paper's count) that lets transfers with disjoint switch
paths proceed concurrently, or by a single-switch Bus that serializes every
transfer.  These classes describe the topology (switch paths, counts,
power); :class:`~repro.pim.executor.ChipExecutor` times transfers along
their paths, which is what produces Fig. 14's H-tree/Bus comparison.
"""

from repro.interconnect.topology import Interconnect
from repro.interconnect.htree import HTree
from repro.interconnect.bus import Bus

__all__ = ["Interconnect", "HTree", "Bus"]
