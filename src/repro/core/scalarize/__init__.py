"""Compile-time half of Liquid SIMD: Table 1 scalarization + outlining."""

from repro.core.scalarize.codegen import (
    DEFAULT_MVL,
    build_baseline_program,
    build_liquid_program,
    build_native_program,
    check_width,
)
from repro.core.scalarize.crosscompile import (
    LoopRegion,
    cross_compile,
    find_candidate_loops,
    outline_loops,
)
from repro.core.scalarize.loop_ir import (
    Kernel,
    LoopIRError,
    ScalarBlock,
    SimdLoop,
    lane_value,
    vimm_lanes_for_width,
)
from repro.core.scalarize.scalarizer import (
    ScalarizedLoop,
    ScalarizeError,
    scalarize_loop,
)

__all__ = [
    "DEFAULT_MVL",
    "build_baseline_program",
    "build_liquid_program",
    "build_native_program",
    "check_width",
    "LoopRegion",
    "cross_compile",
    "find_candidate_loops",
    "outline_loops",
    "Kernel",
    "LoopIRError",
    "ScalarBlock",
    "SimdLoop",
    "lane_value",
    "vimm_lanes_for_width",
    "ScalarizedLoop",
    "ScalarizeError",
    "scalarize_loop",
]
