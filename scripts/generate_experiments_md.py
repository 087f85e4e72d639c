"""Regenerate EXPERIMENTS.md from the experiment harness.

Usage: python scripts/generate_experiments_md.py [output-path]

Runs every registered experiment at the paper's geometry (order-7
elements, 1024 time-steps) and writes the paper-vs-measured record.  The
output holds no wall-clock, so a re-run on an unchanged tree writes the
same bytes; CI regenerates it and fails on any diff.
"""

from __future__ import annotations

import sys

from repro.eval import EXPERIMENTS, run_experiment

PREAMBLE = """# EXPERIMENTS — paper vs. measured

Auto-generated by ``python scripts/generate_experiments_md.py``.
Every table below is produced by ``repro.eval.run_experiment(<id>)`` at the
paper's geometry (order-7 / 512-node elements, 1024 time-steps, the six
benchmarks of Table 6).

**Reading guide.** Absolute times cannot match the authors' testbed — our
GPUs are roofline models and our PIM is a cycle-level simulator built from
the paper's Table 3/4 device constants — so each artifact should be judged
on *shape*: who wins, by roughly what factor, orderings across benchmarks
and configurations, and where the crossovers fall.  Columns named
``paper_*`` carry the values printed in the paper.

Known quantitative deviations (and why we kept them):

* **Fig. 11 averages** land at roughly 0.5x of the paper's per-chip
  averages (e.g. 16GB: ~85x vs 172.8x), with every ordering — across
  chips, benchmarks, process nodes — matching.  Our PIM op latencies are
  *derived* from gate-level MAGIC netlists (Table 4 inputs) rather than
  copied from FloatPIM's internal tables, and come out conservative.
* **§7 grand average speedup** (PIM-16GB vs the fused GPUs) lands within
  ~10% of the paper's 41.98x headline; the per-GPU energy savings match
  within ~2x with the correct ordering.
* **Elastic-Riemann arithmetic**: our Riemann solver uses a componentwise
  closed form that is exact on axis-aligned faces and needs only ~1.1x
  the central flux's flops, where the paper's general-mesh implementation
  reports 1.49x.  This is an algorithmic simplification the uniform-mesh
  setting permits — our kernels remain bit-exact against the reference
  solver — so the Riemann columns of Table 6/Fig. 11 are closer to the
  central ones than in the paper.
* **Fig. 14 Bus penalty** is larger than the paper's (~5x flux-time saving
  vs ~2.16x): our Bus serializes the entire transfer window per §4.2.2's
  instruction sequence; the paper's bus appears to overlap more.  The
  H-tree inter-element *shares* match the paper within a few points.
* **§3.1 CPU baseline** efficiencies are explicitly fit to the paper's own
  94x number at level 4 (see ``repro/gpu/specs.py``); the level-5 spread
  then emerges from the LLC-spill model.
"""


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    parts = [PREAMBLE]
    for name in EXPERIMENTS:
        print(f"running {name} ...", flush=True)
        table = run_experiment(name)
        parts.append(f"\n## {name}\n\n```\n{table.render()}\n```\n")
    parts.append(
        "\n---\ngenerated on the repository's pure-Python models "
        "(no GPU, no memristor hardware).\n"
    )
    with open(out_path, "w") as fh:
        fh.write("".join(parts))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
