"""Unified fragment IR and the lowering functions that compile it.

The package splits runtime code generation into three layers:

* :mod:`repro.codegen.ir` — the typed fragment IR (loads/stores,
  vector ALU, permutation gathers, reductions, counted/nested loops,
  scalar segments, whole-fragment chains) plus the superblock spec;
* :mod:`repro.codegen.lift` — recognition: decoded fragments and
  superblocks into IR;
* lowering: IR into the engines' closure kinds —
  :mod:`repro.codegen.numpy_backend` (``lower_chain``/``lower_loop``,
  whole-array fragment kernels) and :mod:`repro.codegen.superblock`
  (``emit_fused_block``, the window closure of a scalar self-loop, and
  ``emit_loop_timing``), all compiled through :mod:`repro.codegen.emit`.

See ``docs/codegen.md`` for the node catalog and the lowering
functions.
"""

from repro.codegen.ir import IRKind
from repro.codegen.lift import FragmentIR, lift_fragment, lift_superblock

__all__ = [
    "FragmentIR",
    "IRKind",
    "lift_fragment",
    "lift_superblock",
]
