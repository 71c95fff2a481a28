"""The full Liquid SIMD machine: pipeline + translator + microcode cache.

:class:`Machine` wires every substrate together following Figure 1 of
the paper: a scalar in-order pipeline, a SIMD accelerator, a
post-retirement dynamic translator, and a microcode cache whose entries
the front end injects when a marked call's translation is ready.

Execution of one Liquid binary proceeds exactly as the paper describes:

1. The first time a marked (``blo``) call retires, the translator starts
   observing the outlined function's retire stream while the function
   runs in scalar form.  A self-loop's trips after its first run fused,
   without events: the window records the values its loads still owe
   the translator's value collectors and hands them over at its end.
2. At the function's ``ret`` the translation finalizes; after a
   configurable latency (cycles per observed instruction) the microcode
   becomes available in the cache.  Aborted translations blacklist the
   function — it simply keeps running in scalar form forever.
3. Subsequent calls whose microcode is resident and ready skip the
   scalar body entirely: the fragment's SIMD instructions are injected
   into the pipeline (bypassing instruction fetch) and executed on the
   accelerator at the translation's effective width.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.translate.translator import (
    AbortReason,
    DynamicTranslator,
    TranslationResult,
    TranslatorConfig,
)
from repro.core.translate.ucode_cache import MicrocodeCache, MicrocodeEntry
from repro.interp.events import RetireEvent
from repro.interp.executor import ENGINES, ExecutionError, Executor
from repro.interp.turbo import (
    fragment_tables_for_entry,
    superblock_table_for,
)
from repro.isa.decoded import predecode
from repro.memory.memory import MemoryError_
from repro.interp.state import MachineState
from repro.observability import telemetry as _telemetry
from repro.isa.program import Program
from repro.pipeline.core import PipelineConfig, PipelineModel
from repro.simd.accelerator import AcceleratorConfig
from repro.system.loader import load_program, snapshot_arrays
from repro.system.metrics import FunctionStats, RunResult


class MachineError(Exception):
    """Simulation-level failure (runaway program, execution fault)."""


@dataclass(frozen=True)
class MachineConfig:
    """One machine configuration (a point in the paper's design space).

    ``accelerator=None`` models the plain ARM-926EJ-S (no SIMD); Liquid
    binaries then simply execute their scalar representation.
    """

    accelerator: Optional[AcceleratorConfig] = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    translation_enabled: bool = True
    ucode_cache_entries: int = 8
    max_ucode_instructions: int = 64
    translation_cycles_per_instruction: int = 1
    collapse_offset_loads: bool = True
    const_immediates: bool = True
    #: attempt translation of plain ``bl`` calls too (the paper's
    #: unmarked-call variant, relying on legality checks against false
    #: positives).
    attempt_plain_bl: bool = False
    #: Pre-populate the microcode cache before timing starts, modelling the
    #: paper's "built-in ISA support" comparison point: the simulator is
    #: "modified to eliminate control generation" and treats every outlined
    #: function as native SIMD code from its first call.
    pretranslate: bool = False
    #: If set, deliver an external abort (context switch / interrupt) to the
    #: translator every N cycles — the paper's "abort signal from the base
    #: pipeline to stop translation in the event of a context switch".
    #: External aborts are transient: the machine retries translation on a
    #: later call instead of blacklisting the function.
    interrupt_interval: Optional[int] = None
    #: "hardware" (paper's design: post-retirement logic off the critical
    #: path, costing only latency) or "software" (the paper's JIT
    #: alternative: translation runs on the main core, stalling it for
    #: ``software_cycles_per_instruction`` per observed instruction, but
    #: the microcode is ready the moment the JIT finishes).
    translation_mode: str = "hardware"
    software_cycles_per_instruction: int = 30
    #: Where the hardware translator taps the pipeline.  "retirement"
    #: (the paper's choice) sees instructions *and* the data values they
    #: produced, enabling permutation/constant recognition, and is far
    #: off the critical path.  "decode" sees only the instructions: it
    #: finishes with zero extra latency but must abort any loop whose
    #: translation needs observed values (permutations) — the trade-off
    #: the paper's section 4 discussion weighs.
    observation_point: str = "retirement"
    #: Self-checking mode: before caching a completed translation, replay
    #: the scalar function and the microcode on cloned machine state and
    #: require bit-identical memory; a mismatch discards the translation
    #: (defense in depth against translator bugs and the paper's
    #: false-positive scenario).
    verify_translations: bool = False
    #: Execution engine: "fast" (the production default: scalar
    #: self-loops a window of trips at a time with batched timing and
    #: whole-loop numpy kernels for translated SIMD fragments, with the
    #: reference executor for every other step) or "reference" (the
    #: reference executor for every step, kept as the oracle).  Both
    #: are bit-identical; see docs/execution-engines.md and
    #: tests/test_engine_differential.py.
    engine: str = "fast"
    mvl: int = 16
    max_steps: int = 80_000_000

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.translation_mode not in ("hardware", "software"):
            raise ValueError(
                f"translation_mode must be 'hardware' or 'software', "
                f"got {self.translation_mode!r}"
            )
        if self.observation_point not in ("retirement", "decode"):
            raise ValueError(
                f"observation_point must be 'retirement' or 'decode', "
                f"got {self.observation_point!r}"
            )

    @property
    def name(self) -> str:
        if self.accelerator is None:
            return "scalar"
        mode = "liquid" if self.translation_enabled else "simd-off"
        return f"{mode}-w{self.accelerator.width}"

    def translator_config(self) -> TranslatorConfig:
        if self.accelerator is None:
            raise MachineError("no accelerator: nothing to translate for")
        return TranslatorConfig(
            width=self.accelerator.width,
            max_ucode_instructions=self.max_ucode_instructions,
            cycles_per_instruction=self.translation_cycles_per_instruction,
            collapse_offset_loads=self.collapse_offset_loads,
            const_immediates=self.const_immediates,
            supports_saturation=self.accelerator.supports_saturation,
            permutations=self.accelerator.permutations,
            supported_vector_ops=self.accelerator.effective_vector_ops(),
        )


#: PC offset applied to microcode events so the branch predictor and any
#: PC-indexed structure see a distinct address space per cached fragment.
_FRAGMENT_PC_BASE = 1 << 20
_FRAGMENT_PC_STRIDE = 1 << 12

#: Most trips of a scalar self-loop one ``account_loop`` window charges.
#: ``account_loop`` is exact for any trip count, so the cap only bounds
#: the window's address stream (and with it peak memory).
LOOP_WINDOW_TRIPS = 4096


class Machine:
    """Executes programs under one :class:`MachineConfig`.

    Pass a :class:`~repro.system.trace.TraceRecorder` as *tracer* to
    capture the interleaved scalar/microcode retirement stream.

    *preloaded_microcode* seeds the microcode cache with completed
    translations before execution starts (ready at cycle 0) — the
    mechanism behind cross-width retranslation: a fragment translated
    at another width runs here without the scalar observation pass.
    Preloading is deliberately **not** a :class:`MachineConfig` field:
    run-cache keys fingerprint the config, and a preloaded fragment must
    produce the same result as translating it locally, so it must not
    perturb the key.
    """

    def __init__(self, config: MachineConfig, tracer=None,
                 preloaded_microcode=None) -> None:
        self.config = config
        self.tracer = tracer
        self.preloaded_microcode = list(preloaded_microcode or ())
        if self.preloaded_microcode:
            if config.accelerator is None or not config.translation_enabled:
                raise MachineError(
                    "preloaded microcode needs an accelerator with "
                    "translation enabled")
            for entry in self.preloaded_microcode:
                if entry.width > config.accelerator.width:
                    raise MachineError(
                        f"preloaded microcode for {entry.function} is "
                        f"{entry.width} lanes wide; accelerator has "
                        f"{config.accelerator.width}")

    def run(self, program: Program) -> RunResult:
        """Run *program* to its ``halt``; return the collected metrics."""
        config = self.config
        # Observability (docs/observability.md): everything below is
        # gated on ``tel.enabled`` — the disabled shim costs one local
        # bool per *run*, never anything per instruction or per block.
        tel = _telemetry.get()
        tel_on = tel.enabled
        run_mark = tel.marker() if tel_on else None
        run_start = time.perf_counter() if tel_on else 0.0
        if tel_on:
            tel.count("machine.runs")
        memory, symbols = load_program(program, mvl=config.mvl)
        hw_width = (config.accelerator.width
                    if config.accelerator is not None else None)
        state = MachineState(program, memory, symbols, vector_width=hw_width)
        table = predecode(program) if config.engine == "fast" else None
        #: per-pc timing metadata (fast engine only): account() derives
        #: it per retirement when it is None.
        metas = table.metas if table is not None else None
        execute = Executor(state).execute
        pipeline = PipelineModel(config.pipeline)
        use_translation = (config.accelerator is not None
                           and config.translation_enabled)
        ucache = MicrocodeCache(config.ucode_cache_entries) if use_translation \
            else None
        if ucache is not None and config.pretranslate:
            scout = Machine(dataclasses.replace(config, pretranslate=False))
            for result in scout.run(program).translations:
                if result.ok and result.entry is not None:
                    ucache.insert(result.entry.with_ready_cycle(0))
        if ucache is not None and self.preloaded_microcode:
            for entry in self.preloaded_microcode:
                ucache.insert(entry.with_ready_cycle(0))
            if tel_on:
                tel.count("machine.preloaded_fragments",
                          len(self.preloaded_microcode))
        functions: Dict[str, FunctionStats] = {}
        translations: List[TranslationResult] = []
        blacklist = set()
        translating: Optional[DynamicTranslator] = None
        fragment_offsets: Dict[str, int] = {}
        #: entry.table_key -> (DecodedProgram, plan) from
        #: repro.interp.turbo.fragment_tables_for_entry, so repeated
        #: microcode runs pay the decode and plan passes once per run.
        #: Content keys, not ``id(entry)``: a re-translation after an
        #: eviction or a preloaded twin reuses the same tables.
        fragment_tables: Dict[tuple, tuple] = {}
        next_interrupt = (config.interrupt_interval
                          if config.interrupt_interval is not None else 0)

        steps = 0
        instructions = program.instructions
        n_instr = len(instructions)
        # Hot-loop locals: bound once, used every iteration.
        account = pipeline.account
        tracer = self.tracer
        max_steps = config.max_steps
        #: per-pc flag for the marked-call slow path, so the loop skips
        #: two string compares per instruction.
        marked_call = [
            (ins.opcode == "blo"
             or (ins.opcode == "bl" and config.attempt_plain_bl))
            and ins.target is not None
            for ins in instructions
        ]
        # Fast engine: a main-program self-loop (a block whose inline
        # closing branch targets its own entry) runs as one call of its
        # window closure and one account_loop() call per window of
        # trips; every other instruction takes the per-instruction path
        # below.  A tracer needs every RetireEvent, so tracing disables
        # fusion wholesale.  While a translation is in flight, one
        # DynamicTranslator.pending_values call per loop head picks the
        # path.  None: some pc has not retired in the attempt, and its
        # first encounter does translation work, so the loop steps per
        # instruction.  Empty: nothing is left to observe, so the plain
        # window runs.  Otherwise the loads whose value collectors are
        # still short: the recording window runs, and the values those
        # loads wrote go to record_values, which is all observing them
        # would do (block_at returns None, and the loop steps per
        # instruction, when one is not an inline load).  With
        # interrupt_interval set the whole call steps per instruction,
        # since the external-abort instant is read after every
        # instruction.  Both gates read the loop's lift-only spec, so a
        # loop that may not run fused compiles nothing.
        loop_at = block_at = None
        superblocks = None
        if table is not None and tracer is None:
            superblocks = superblock_table_for(table, pipeline,
                                               marked_call, hw_width, state)
            loop_at = superblocks.loop_at
            block_at = superblocks.block_at
        fuse_observed = config.interrupt_interval is None
        account_block = pipeline.account_block
        account_loop = pipeline.account_loop
        decode = config.observation_point == "decode"
        while not state.halted:
            pc = state.pc
            spec = loop_at(pc) if loop_at is not None else None
            # Near max_steps, fall through to the per-instruction path
            # so the step-limit error fires at the exact instruction it
            # would under the reference engine.
            block = None
            if spec is not None and steps + spec.blen <= max_steps:
                if translating is None:
                    recorded = ()
                elif fuse_observed:
                    recorded = translating.pending_values(spec.pcs)
                else:
                    recorded = None
                if recorded:
                    block = block_at(pc, recorded)
                elif recorded is not None:
                    block = block_at(pc)
            if block is not None:
                count = block.count
                # One call runs the window: trips until the branch falls
                # through, the window cap, the last trip max_steps
                # allows, or the last its prologue proves safe.  The
                # fresh list takes the window's addresses (only the
                # first trip's when block.slopes extends them) and is
                # dropped once charged.  Zero trips: the prologue could
                # not prove the next trip safe (a fault, an induction
                # wrap), so this step runs per instruction below.
                mem = []
                limit = min(LOOP_WINDOW_TRIPS, (max_steps - steps) // count)
                try:
                    if recorded:
                        values = []
                        trips, taken = block.run(state, limit, mem, values)
                    else:
                        trips, taken = block.run(state, limit, mem)
                except (ExecutionError, MemoryError_) as exc:
                    raise MachineError(
                        f"{program.name} @pc={state.pc}: {exc}"
                    ) from exc
                if trips:
                    steps += trips * count
                    if trips == 1:
                        account_block(block.timing, mem, taken)
                    else:
                        slopes = block.slopes
                        if slopes is not None:
                            mem = (np.asarray(mem, dtype=np.int64)
                                   + np.arange(trips, dtype=np.int64)[:, None]
                                   * slopes).ravel()
                        fallback = account_loop(block.timing, trips, mem,
                                                taken)
                        if tel_on:
                            tel.count("turbo.loop.windows")
                            tel.observe("turbo.loop.trips", trips)
                            if fallback is not None:
                                tel.count("turbo.loop.fallback." + fallback)
                    if recorded:
                        # Trip-major, in body order: each recorded pc's
                        # values are every len(recorded)-th one.
                        stride = len(recorded)
                        for i, load_pc in enumerate(recorded):
                            loaded = values[i::stride]
                            translating.record_values(
                                load_pc,
                                [None] * len(loaded) if decode else loaded)
                    if translating is not None and tel_on:
                        tel.count("translate.fused_blocks")
                        if recorded:
                            tel.count("translate.recording_windows")
                    continue
            steps += 1
            if steps > max_steps:
                raise MachineError(
                    f"{program.name}: exceeded {config.max_steps} steps"
                )
            if not 0 <= pc < n_instr:
                raise MachineError(f"{program.name}: pc {pc} out of range")
            instr = instructions[pc]

            if marked_call[pc]:
                if translating is not None:
                    # A call inside the observed call: the callee's ret
                    # must not finish the caller's translation.
                    translating.abort_nested_call(pc)
                target = instr.target
                stats = functions.setdefault(target, FunctionStats(target))
                stats.calls += 1
                stats.call_cycles.append(pipeline.now)
                if ucache is not None:
                    entry = ucache.lookup(target, pipeline.now)
                    if entry is not None:
                        # Front-end injection: charge the call, run microcode,
                        # resume after the call.
                        event = execute(instr)  # sets lr, jumps
                        pipeline.account(
                            event, metas[pc] if metas is not None else None)
                        if self.tracer is not None:
                            self.tracer.record(event, source="scalar")
                        self._run_fragment(entry, state, pipeline,
                                           fragment_offsets, fragment_tables)
                        stats.simd_runs += 1
                        state.pc = pc + 1
                        continue
                    if translating is None and target not in blacklist \
                            and not ucache.contains(target):
                        translating = DynamicTranslator(
                            config.translator_config(),
                            resolve_label=program.label_index,
                        )
                        translating.begin(target)
                stats.scalar_runs += 1
                event = execute(instr)
                pipeline.account(
                    event, metas[pc] if metas is not None else None)
                if self.tracer is not None:
                    self.tracer.record(event, source="scalar")
                continue

            try:
                event = execute(instr)
            except (ExecutionError, MemoryError_) as exc:
                raise MachineError(f"{program.name} @pc={pc}: {exc}") from exc
            meta = metas[pc] if metas is not None else None
            account(event, meta)
            if tracer is not None:
                tracer.record(event, source="scalar")
            if translating is not None:
                if config.interrupt_interval is not None \
                        and pipeline.now >= next_interrupt:
                    translating.abort_external()
                    next_interrupt = pipeline.now + config.interrupt_interval
                if config.observation_point == "decode":
                    # The decode stage never sees produced data values.
                    translating.observe(dataclasses.replace(event, value=None))
                else:
                    translating.observe(event)
                if translating.done or event.instr.opcode == "ret":
                    self._finish_translation(
                        translating, program, state, pipeline, ucache,
                        functions, translations, blacklist)
                    translating = None

        run_telemetry = None
        if tel_on:
            run_telemetry = self._flush_telemetry(
                tel, run_mark, run_start, pipeline, superblocks)

        return RunResult(
            program=program.name,
            config=config.name,
            cycles=pipeline.total_cycles(),
            instructions=pipeline.stats.instructions,
            pipeline=pipeline.stats,
            icache=pipeline.icache.stats,
            dcache=pipeline.dcache.stats,
            functions=functions,
            ucode_cache=ucache.stats if ucache is not None else None,
            arrays=snapshot_arrays(program, memory, symbols),
            translations=translations,
            telemetry=run_telemetry,
        )

    def _finish_translation(self, translating: DynamicTranslator,
                            program: Program, state: MachineState,
                            pipeline: PipelineModel,
                            ucache: Optional[MicrocodeCache],
                            functions: Dict[str, FunctionStats],
                            translations: List[TranslationResult],
                            blacklist: set) -> None:
        """Finalize the in-flight translation once the observed call's
        ``ret`` retired: cache the microcode, or blacklist the function."""
        config = self.config
        if config.translation_mode == "software":
            # The JIT runs on the core itself: charge its work as a
            # pipeline stall, after which the microcode is immediately
            # available.
            work = (config.software_cycles_per_instruction
                    * (len(translating.seen) + 1))
            pipeline.stall(work)
        result = translating.finish(ret_cycle=pipeline.now)
        if result.ok and (config.translation_mode == "software"
                          or config.observation_point == "decode"):
            result.entry.ready_cycle = pipeline.now
        translations.append(result)
        target = result.function
        if target in functions:
            functions[target].translation = result
        if result.ok and config.verify_translations \
                and not self._verify_translation(result, program, state):
            result.ok = False
            result.reason = AbortReason.INCONSISTENT
            result.detail = "verification replay mismatch"
            result.entry = None
            _telemetry.get().count("translate.verify-mismatch")
        if result.ok and ucache is not None:
            ucache.insert(result.entry)
        elif result.reason is not AbortReason.EXTERNAL:
            # Interrupt-induced aborts are transient; real rule
            # violations are permanent.
            blacklist.add(target)

    def _flush_telemetry(self, tel, run_mark, run_start: float,
                         pipeline: PipelineModel, superblocks) -> dict:
        """Fold end-of-run totals into the registry; return this run's slice.

        The pipeline and cache models keep their own per-run statistics;
        mirroring them into the telemetry registry once per run gives
        the ``repro telemetry`` dump one uniform counter namespace
        (docs/observability.md) without touching their hot paths.
        """
        stats = pipeline.stats
        tel.count("machine.cycles", pipeline.total_cycles())
        tel.count("pipeline.instructions", stats.instructions)
        tel.count("pipeline.simd_instructions", stats.simd_instructions)
        tel.count("pipeline.data_stall_cycles", stats.data_stall_cycles)
        tel.count("pipeline.fetch_stall_cycles", stats.fetch_stall_cycles)
        tel.count("pipeline.load_miss_cycles", stats.load_miss_cycles)
        tel.count("pipeline.branch_penalty_cycles",
                  stats.branch_penalty_cycles)
        tel.count("pipeline.branches", stats.branches)
        tel.count("pipeline.mispredicts", stats.mispredicts)
        for prefix, cache in (("icache", pipeline.icache),
                              ("dcache", pipeline.dcache)):
            cstats = cache.stats
            tel.count(f"{prefix}.reads", cstats.reads)
            tel.count(f"{prefix}.writes", cstats.writes)
            tel.count(f"{prefix}.read_misses", cstats.read_misses)
            tel.count(f"{prefix}.write_misses", cstats.write_misses)
            tel.count(f"{prefix}.writebacks", cstats.writebacks)
        if superblocks is not None:
            tel.count("turbo.superblock.compiles", superblocks.compiles)
        elapsed = time.perf_counter() - run_start
        tel.record_span("machine.run", elapsed)
        return {"counters": tel.delta_since(run_mark),
                "wall_seconds": elapsed}

    # -- translation verification --------------------------------------------------

    def _verify_translation(self, result, program: Program,
                            state: MachineState) -> bool:
        """Replay scalar body vs. microcode on cloned state; compare memory.

        Runs functionally (no timing).  Both replays start from the
        machine's *current* architectural state, i.e. right after the
        observed execution returned — any state works, since the two
        representations must agree from every reachable state.
        """
        entry = result.entry
        target = entry.function

        def replay(fragment: bool):
            memory = state.memory.clone()
            clone = MachineState(program, memory, state.symbols,
                                 vector_width=None)
            for name, value in state.regs.snapshot().items():
                clone.regs.write(name, value)
            if fragment:
                frag_state = MachineState(entry.fragment, memory,
                                          state.symbols,
                                          vector_width=entry.width)
                frag_state.regs = clone.regs
                executor = Executor(frag_state)
                count = len(entry.fragment.instructions)
                guard = 0
                while frag_state.pc < count:
                    guard += 1
                    if guard > self.config.max_steps:
                        raise MachineError("verification replay diverged")
                    executor.execute(
                        entry.fragment.instructions[frag_state.pc])
            else:
                clone.pc = program.label_index(target)
                clone.regs.write("r14", len(program.instructions))
                executor = Executor(clone)
                guard = 0
                while True:
                    guard += 1
                    if guard > self.config.max_steps:
                        raise MachineError("verification replay diverged")
                    instr = program.instructions[clone.pc]
                    executor.execute(instr)
                    if instr.opcode == "ret":
                        break
            return memory

        scalar_memory = replay(fragment=False)
        simd_memory = replay(fragment=True)
        return scalar_memory.read_bytes(0, scalar_memory.size) == \
            simd_memory.read_bytes(0, simd_memory.size)

    # -- microcode execution ----------------------------------------------------

    def _run_fragment(self, entry: MicrocodeEntry, state: MachineState,
                      pipeline: PipelineModel,
                      offsets: Dict[str, int],
                      tables: Dict[tuple, tuple]) -> None:
        """Execute one cached translation on the SIMD accelerator.

        The fast engine runs the fragment as its plan's kernels
        (:func:`repro.interp.macro.build_fragment_plan`): one
        whole-fragment chain kernel for every suite fragment.  Whatever
        no kernel covers or a kernel declines, and the whole fragment
        under a tracer or on the reference engine, runs as reference
        executor steps, whose events are charged one by one.
        """
        fragment = entry.fragment
        if entry.function not in offsets:
            offsets[entry.function] = (_FRAGMENT_PC_BASE
                                       + len(offsets) * _FRAGMENT_PC_STRIDE)
        offset = offsets[entry.function]
        table = plan = None
        # A content-key hit runs the byte-identical fragment program the
        # tables were built over.
        if self.config.engine == "fast":
            key = entry.table_key
            cached = tables.get(key)
            if cached is None:
                cached = tables[key] = fragment_tables_for_entry(
                    entry, pipeline, offset, state)
            table, plan = cached
            fragment = table.program
            if self.tracer is not None:
                plan = None
        frag_state = MachineState(fragment, state.memory, state.symbols,
                                  vector_width=entry.width)
        frag_state.regs = state.regs  # architectural scalar state is shared
        execute = Executor(frag_state).execute
        metas = table.metas if table is not None else None
        count = len(fragment.instructions)
        guard = 0
        max_steps = self.config.max_steps
        tel = _telemetry.get()
        tel_on = tel.enabled
        while frag_state.pc < count:
            if plan is not None:
                # A planned region headed here runs whole: the chain
                # covers the fragment in one kernel, a loop all its
                # remaining trips, each with batched timing calls.
                # trips()/run() return None/False for anything the
                # whole-array form cannot reproduce bit-identically;
                # the reference steps below then take over, raising any
                # error that is actually due at its exact instruction.
                # Near max_steps they take over too, so the step-limit
                # error fires where the reference engine raises it.
                kernel = plan.get(frag_state.pc)
                if kernel is not None:
                    trips = kernel.trips(frag_state)
                    if trips is not None \
                            and guard + trips * kernel.blen <= max_steps:
                        if kernel.run(frag_state, pipeline, trips):
                            if tel_on:
                                tel.count("macro.kernel.invocations")
                                tel.observe("macro.kernel.trips",
                                            kernel.iterations(trips))
                            guard += trips * kernel.blen
                            continue
                        elif tel_on:
                            tel.count(
                                "macro.fallback.runtime-precondition")
                    elif tel_on:
                        tel.count("macro.fallback.trips-window"
                                  if trips is None
                                  else "macro.fallback.step-limit")
            guard += 1
            if guard > max_steps:
                raise MachineError(
                    f"microcode for {entry.function} did not terminate"
                )
            frag_pc = frag_state.pc
            try:
                event = execute(fragment.instructions[frag_pc])
            except (ExecutionError, MemoryError_) as exc:
                raise MachineError(
                    f"microcode for {entry.function}: {exc}"
                ) from exc
            meta = metas[frag_pc] if metas is not None else None
            # Direct construction (not dataclasses.replace): this runs once
            # per injected microcode instruction and replace() is ~3x the
            # cost of the frozen-dataclass constructor.
            pipeline.account(
                RetireEvent(
                    pc=event.pc + offset,
                    instr=event.instr,
                    value=event.value,
                    mem_addr=event.mem_addr,
                    taken=event.taken,
                    next_pc=event.next_pc + offset,
                    in_vector_unit=True,
                    vector_width=event.vector_width,
                ),
                meta,
            )
            if self.tracer is not None:
                self.tracer.record(event, source="ucode")
