"""The shard-scaling step workload (``repro bench --shards``).

Sharding pays off on the *capacity* axis: the level-2 step workload's 64
elements are deliberately paired with a proxy chip of 48 blocks (3 tiles
x 16 blocks).  Each of 4 shards holds its 16 owned elements plus exactly
32 ghost elements — a full, symmetric chip — and all four run
concurrently, while a single chip must run the same four Morton shards
as batches that take turns on it (the paper's §6.1 batching; two batches
with their halos would need 64 blocks).  A fitting workload would shard
at ~1.0x (makespan is block-bound: max per-element serial work), so this
workload is the honest one: the speedup measures chips added to a mesh
one chip cannot hold, which is precisely the r=6-and-beyond scaling
story.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.pim.params import ChipConfig

__all__ = [
    "SHARD_WORKLOAD_LEVEL",
    "SHARD_WORKLOAD_SHARDS",
    "shard_proxy_chip",
    "shard_step_workload",
]

#: refinement level of the step workload (64 elements).
SHARD_WORKLOAD_LEVEL = 2
#: default shard count of the bench entry and the CI job.
SHARD_WORKLOAD_SHARDS = 4


def shard_proxy_chip() -> ChipConfig:
    """A 48-block (3 tiles x 16) proxy chip the 64-element mesh overflows.

    Same device/power/H-tree parameters as the paper chips, scaled down so
    the capacity/batching effect is exercised at test speed; 16 H-tree
    leaves per tile keep the Morton leaf numbering intact.
    """
    block_bytes = 1024 * 1024 // 8  # one 1K x 1K bit-serial block
    return ChipConfig(
        name="shard-proxy",
        capacity_bytes=3 * 16 * block_bytes,
        blocks_per_tile=16,
    )


def shard_step_workload() -> Dict[str, Any]:
    """Mesh/element/material/chip + kernel factory of the step workload."""
    from repro.core.kernels.acoustic import AcousticOneBlockKernels
    from repro.dg import AcousticMaterial, HexMesh, ReferenceElement

    mesh = HexMesh.from_refinement_level(SHARD_WORKLOAD_LEVEL)
    element = ReferenceElement(2)
    material = AcousticMaterial.homogeneous(mesh.n_elements)

    def kernel_factory(mapper: Any) -> Any:
        return AcousticOneBlockKernels(mesh, element, material, mapper,
                                       "riemann")

    return {
        "mesh": mesh,
        "element": element,
        "material": material,
        "chip": shard_proxy_chip(),
        "kernel_factory": kernel_factory,
        "blocks_per_element": 1,
        "dt": 1e-4,
        "flux": "riemann",
        "physics": "acoustic",
    }
