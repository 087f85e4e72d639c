"""Finding model of the static program checker.

Every checker pass reports :class:`Finding` records identified by a short
stable *code* (``DF001``, ``LY003``, ...).  Codes are the contract between
the passes, the tests (which assert exact codes for known-bad programs),
the ``repro check`` CLI (whose JSON report serializes them) and DESIGN.md's
"Static analysis" section.  Add new codes to :data:`FINDING_CODES`; never
recycle a code for a different defect class.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

__all__ = ["ERROR", "WARNING", "FINDING_CODES", "Finding"]

#: severity levels — errors corrupt downstream cycle/energy numbers,
#: warnings flag suspicious-but-survivable constructs.
ERROR = "error"
WARNING = "warning"

#: The finding-code catalogue (code -> one-line description).
FINDING_CODES: Dict[str, str] = {
    # dataflow (pass a)
    "DF001": "read of a never-written location (reported with assume_zero_init=False)",
    "DF002": "store clobbered by a later store with no intervening read",
    "DF003": "write into the constant/storage region (top rows) outside setup/load",
    # layout / capacity (pass b)
    "LY001": "row selection outside the 1Kx1K block",
    "LY002": "column selection outside the row's 32 words",
    "LY003": "LUT word offset does not fit the 5-bit Fig. 4 field",
    "LY004": "block id outside the chip (or missing where required)",
    "LY005": "block id beyond the mapper's planned occupancy",
    "LY006": "BROADCAST value shape does not match the row selection",
    # transfer legality (pass c)
    "TR001": "TRANSFER without a source block",
    "TR002": "TRANSFER endpoint outside the chip topology",
    "TR003": "TRANSFER route does not resolve on the active interconnect",
    "TR004": "TRANSFER source/destination row counts differ",
    # phase discipline (pass d)
    "PH001": "instruction tag not covered by tag_phase (cycles land in 'other')",
    "PH002": "barrier segment mixes two compute phases (Volume/Flux/Integration/LUT)",
    # batching / expansion hazards (pass e)
    "HZ001": "transfer write overlaps an unconsumed earlier write (lost update)",
    # fault readiness (pass f)
    "FT001": "layout leaves no spare rows for parity; fault protection cannot "
             "place its check rows",
    # lowering audit (pass g)
    "PL001": "lowered execution plan diverges from the instruction stream "
             "(instruction count, opcode, or vectorization coverage mismatch)",
    "PL002": "lowered TRANSFER route disagrees with the chip's current "
             "topology (stale or mis-resolved path)",
    "PL003": "lowered plan was built under a different routing epoch than "
             "the chip's current one (stale-route hazard)",
    "PL004": "scheduler reordering violates the dependency DAG (illegal "
             "permutation of the instruction stream)",
    "PL005": "halo coverage broken in a multi-chip sharding: an element "
             "owned by zero/multiple shards, a consumed cross-shard face "
             "missing from the halo (lost halo rows), or an exchange set "
             "that does not deliver each ghost element exactly once",
    # static performance analysis (pass h)
    "PF001": "scheduler optimality gap exceeds tolerance (measured makespan "
             "far above the static work/span/resource lower bound)",
    "PF002": "removable over-fencing BARRIER: no data dependency crosses the "
             "fence, so it only serializes independent work",
    "PF003": "TRANSFER serializes behind unrelated traffic (resource queueing "
             "delay far exceeds its own duration; reroute or reorder to overlap)",
    "PF004": "dead segment: every value the segment writes is overwritten "
             "before any read (compute contributes nothing to the result)",
    "PF005": "degenerate vectorization: most compute lands in segments below "
             "the width threshold, paying per-segment dispatch overhead",
    "PF006": "static cost bound disagrees with measured hardware counters "
             "(bound exceeds the measured makespan, or predicted occupancy "
             "diverges beyond epsilon — analyzer and hardware model diverged)",
    # repo-invariant lint (scripts/lint_repo.py; reported there, registered
    # here so the RL namespace shares the one catalogue and RL006 can vet
    # every emitted code against it)
    "RL001": "Instruction() constructed outside pim/isa.py and core/kernels/",
    "RL002": ".span(...) used outside a `with` context manager",
    "RL003": "module-level repro.analysis import outside the analysis package",
    "RL004": "per-instruction Python dispatch loop outside the executor/"
             "lowering/analysis layers",
    "RL005": "._dispatch referenced outside pim/executor.py",
    "RL006": "finding code emitted in analysis/ but not registered in "
             "FINDING_CODES",
    "RL007": "broad `except Exception:`/bare `except:` that silently "
             "swallows (body is only pass/...) — log via repro.obs or "
             "re-raise",
    "RL008": "ExecutionPlan replay internals (._run_plan) referenced "
             "outside ChipExecutor/ShardedExecutor",
    "RL009": "MemoryBlock.data rebound outside pim/block.py (detaches the "
             "block from its tile array, which lockstep replay writes)",
    "RL010": "REPRO_* environment knob named in src/ that is not one of the "
             "kept knobs (scripts/lint_repo.py RL010_KNOBS)",
}


@dataclass(frozen=True)
class Finding:
    """One defect reported by a checker pass."""

    code: str
    message: str
    severity: str = ERROR
    #: index of the offending instruction in the checked program (None for
    #: program-level findings).
    index: Optional[int] = None
    block: Optional[int] = None
    tag: str = ""
    passname: str = ""

    def __post_init__(self) -> None:
        if self.code not in FINDING_CODES:
            raise ValueError(f"unknown finding code {self.code!r}")
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"severity must be error|warning, got {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def format(self) -> str:
        """``CODE [severity] @inst/block: message`` one-liner."""
        where = []
        if self.index is not None:
            where.append(f"inst {self.index}")
        if self.block is not None:
            where.append(f"block {self.block}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"{self.code} [{self.severity}]{loc}: {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)
