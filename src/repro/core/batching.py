"""Batching: the DRAM cost of fitting big problems on small chips (§6.1).

When a mesh overflows the chip, the paper runs it in batches that take
turns on the chip, "executing our initial solution multiple times, since
there is no inter-element data dependency" for Volume/Integration, with
extra off-chip transactions per additional batch (store outputs, load
inputs; Figs. 6/7).  :func:`batch_dram_traffic` is the compiler's price of
that traffic, which sets the batched cells of Figs. 11/12.  The modeled
batched run itself — batches as shards that share one chip in time, with
every face computed against a swapped-in halo — is
:func:`repro.pim.multichip.single_chip_batched_makespan`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["batch_dram_traffic"]


@dataclass
class DramTraffic:
    """Per-time-step off-chip traffic induced by batching."""

    bytes_per_step: float
    transactions_per_step: int
    setup_bytes: float = 0.0


def batch_dram_traffic(
    n_elements: int,
    n_nodes: int,
    n_vars: int,
    n_batches: int,
    stages_per_step: int = 5,
    word_bytes: int = 4,
    constants_words_per_node: int = 4,
) -> DramTraffic:
    """Off-chip bytes per time-step caused by folding into batches.

    With one batch everything stays resident: zero steady-state traffic
    ("zero overhead DRAM data transfer since batching is not needed",
    §7.4).  With ``n_batches > 1``, every kernel stage must stream each
    element's state in and out once per stage.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    state_bytes = n_elements * n_nodes * n_vars * word_bytes
    setup = n_elements * n_nodes * constants_words_per_node * word_bytes
    if n_batches == 1:
        return DramTraffic(bytes_per_step=0.0, transactions_per_step=0, setup_bytes=setup)
    # per stage: load inputs + store outputs for the whole model, plus the
    # auxiliaries that integration needs (2x state in practice).
    per_stage = 2.0 * state_bytes
    return DramTraffic(
        bytes_per_step=stages_per_step * per_stage,
        transactions_per_step=stages_per_step * 2 * n_batches,
        setup_bytes=setup,
    )
