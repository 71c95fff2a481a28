"""Out-of-program layer tracing for the end-to-end benchmark.

The benchmark measures each layer from outside the program: it wraps the
public entry points the layers already expose (listed in
:data:`PATCH_POINTS`) and records how long each call took, which wrapped
call it ran inside, and a few counts taken from arguments and results.
Nothing under ``src/`` knows about it.

* Every wrapped call is aggregated per ``(name, parent, thread)`` into
  calls / total seconds / seconds spent in wrapped children, so memory
  stays bounded however hot the boundary is (``PipelineModel.account``
  runs once per simulated instruction).
* Coarse boundaries (``mode="span"``: batches, ``Machine.run``, builds,
  cache operations) are also kept as individual spans
  ``{id, name, start, end, parent}``, capped at :data:`MAX_SPANS`.
* A name's *self* time is its total minus the part its wrapped children
  cover.  The self times of every name on a thread plus the time no
  wrapped call covered (``unattributed``) add up to that thread's wall.

A patch point that no longer resolves (a renamed module, class or
function) is skipped and reported as an absent layer; tracing never
makes a workload fail.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Individual spans kept per trace; aggregation continues past the cap.
MAX_SPANS = 200_000


@dataclass(frozen=True)
class PatchPoint:
    """One wrapped entry point.

    ``target`` is ``module:attr.path``.  When the first attribute names
    a module object (``repro.evaluation.simserver:json.dumps``), only
    that module's *reference* is replaced by a proxy, so the wrap is
    scoped to the one caller.  ``post(tracer, args, result, parent)``
    turns arguments or results into counts.
    """

    layer: str
    name: str
    target: str
    mode: str = "span"  # "span" (kept individually) or "agg" (hot: totals only)
    post: Optional[Callable] = None


def _count_run(tracer: "Tracer", args, result, parent) -> None:
    if parent == "machine.run":
        return  # a nested scout run (pretranslate) is part of its parent
    tracer.count("machine.sim_instructions", result.instructions)
    tracer.count("machine.sim_cycles", result.cycles)
    translations = result.translations
    ok = sum(1 for t in translations if t.ok)
    tracer.count("translate.attempts", len(translations))
    tracer.count("translate.ok", ok)
    tracer.count("translate.aborted", len(translations) - ok)


def _count_kernel(tracer: "Tracer", args, result, parent) -> None:
    if result is False:
        tracer.count("macro.kernel_fallbacks")


def _count_load(tracer: "Tracer", args, result, parent) -> None:
    tracer.count("runcache.hits" if result is not None else "runcache.misses")


_M = "repro.system.machine"
_RC = "repro.evaluation.runcache"
_RUN = "repro.evaluation.runner"
_TR = "repro.core.translate.translator"
_PC = "repro.pipeline.core"
_MAC = "repro.interp.macro"
_SIM = "repro.evaluation.simserver"

#: Where each layer is measured.  Functions imported by name into a
#: caller's namespace are wrapped at that caller (the reference the
#: caller actually looks up), not at their defining module.
PATCH_POINTS: Tuple[PatchPoint, ...] = (
    PatchPoint("build", "build", f"{_RUN}:build_request_program"),
    PatchPoint("build", "build",
               "repro.evaluation.experiments:build_baseline_program"),
    PatchPoint("build", "build",
               "repro.evaluation.experiments:build_liquid_program"),
    PatchPoint("encode", "encode", f"{_RUN}:encode_program"),
    PatchPoint("decode", "predecode", "repro.isa.decoded:predecode"),
    PatchPoint("decode", "predecode", f"{_M}:predecode"),
    PatchPoint("decode", "predecode", "repro.interp.turbo:predecode"),
    PatchPoint("decode", "decode.superblocks", f"{_M}:superblock_table_for"),
    PatchPoint("decode", "decode.fragment_tables",
               f"{_M}:fragment_tables_for_entry"),
    PatchPoint("codegen", "codegen.compile",
               "repro.codegen.emit:compile_closure"),
    PatchPoint("machine", "machine.run", f"{_M}:Machine.run", post=_count_run),
    PatchPoint("fragment", "fragment", f"{_M}:Machine._run_fragment", "agg"),
    PatchPoint("fragment", "macro.kernel", f"{_MAC}:FragmentLoopShape.run",
               "agg", _count_kernel),
    PatchPoint("fragment", "macro.kernel", f"{_MAC}:FragmentChainShape.run",
               "agg", _count_kernel),
    PatchPoint("fragment", "macro.kernel", f"{_MAC}:FragmentNestShape.run",
               "agg", _count_kernel),
    PatchPoint("timing", "timing.account", f"{_PC}:PipelineModel.account",
               "agg"),
    PatchPoint("timing", "timing.account_block",
               f"{_PC}:PipelineModel.account_block", "agg"),
    PatchPoint("timing", "timing.account_loop",
               f"{_PC}:PipelineModel.account_loop", "agg"),
    PatchPoint("timing", "timing.stall", f"{_PC}:PipelineModel.stall", "agg"),
    PatchPoint("translate", "translate.begin",
               f"{_TR}:DynamicTranslator.begin", "agg"),
    PatchPoint("translate", "translate.observe",
               f"{_TR}:DynamicTranslator.observe", "agg"),
    PatchPoint("translate", "translate.finish",
               f"{_TR}:DynamicTranslator.finish", "agg"),
    PatchPoint("runcache", "runcache.key", f"{_RUN}:run_key_for_bytes"),
    PatchPoint("runcache", "runcache.probe", f"{_RC}:RunCache.contains_many"),
    PatchPoint("runcache", "runcache.load", f"{_RC}:RunCache.load",
               post=_count_load),
    PatchPoint("runcache", "runcache.store", f"{_RC}:RunCache.store"),
    PatchPoint("serialize", "serialize.to_dict",
               "repro.system.metrics:RunResult.to_dict"),
    PatchPoint("serialize", "serialize.from_dict",
               "repro.system.metrics:RunResult.from_dict"),
    PatchPoint("scheduler", "scheduler.run_many",
               f"{_RUN}:RunScheduler.run_many"),
    PatchPoint("scheduler", "scheduler.key_for", f"{_RUN}:RunScheduler.key_for"),
    PatchPoint("render", "render", "repro.evaluation.cli:run"),
    PatchPoint("serve", "serve.parse", f"{_SIM}:parse_run_request"),
    PatchPoint("serve", "serve.parse", f"{_SIM}:json.loads"),
    PatchPoint("serve", "serve.encode", f"{_SIM}:json.dumps"),
)

#: Layers a ``repro serve`` host process runs itself; simulation happens
#: in its pool workers, which are not traced.
SERVER_LAYERS = ("build", "encode", "runcache", "serialize", "scheduler",
                 "serve")


class Tracer:
    """Wraps patch points and accumulates per-boundary timings."""

    def __init__(self) -> None:
        self.agg: Dict[tuple, list] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.installed: List[str] = []
        self.absent: List[str] = []
        self.hook_errors = 0
        self._stacks: Dict[int, list] = {}
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self) -> None:
        """Drop everything recorded so far (the set-up phase)."""
        self.agg = {}
        self.counts = {}
        self.spans = []
        self.dropped_spans = 0

    def snapshot(self) -> "Tracer":
        """A copy to reduce while other threads keep recording."""
        copy = Tracer()
        copy.agg = {key: list(rec) for key, rec in dict(self.agg).items()}
        copy.counts = dict(self.counts)
        copy.spans = list(self.spans)
        copy.dropped_spans = self.dropped_spans
        copy.installed = list(self.installed)
        copy.absent = list(self.absent)
        copy.hook_errors = self.hook_errors
        return copy

    def _wrap(self, point: PatchPoint, fn: Callable) -> Callable:
        name = point.name
        keep = point.mode == "span"
        post = point.post
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            parent = stack[-1] if stack else None
            frame = [0.0, name, next(tracer._ids) if keep else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pname = None
                if parent is not None:
                    parent[0] += dur
                    pname = parent[1]
                key = (name, pname, tid)
                rec = tracer.agg.get(key)
                if rec is None:
                    rec = tracer.agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += frame[0]
                if keep:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (frame[2], name, t0, t1,
                             parent[2] if parent is not None else None))
                    else:
                        tracer.dropped_spans += 1
            if post is not None:
                try:
                    post(tracer, args, result, pname)
                except Exception:  # noqa: BLE001 - counts must not fail a run
                    tracer.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, layers: Optional[Tuple[str, ...]] = None,
                points: Optional[Tuple[PatchPoint, ...]] = None) -> "Tracer":
        """Wrap every resolvable patch point (of *layers*, if given)."""
        for point in PATCH_POINTS if points is None else points:
            if layers is not None and point.layer not in layers:
                continue
            try:
                self._install_one(point)
            except (ImportError, AttributeError, TypeError) as exc:
                self.absent.append(f"{point.layer}: {point.target} ({exc})")
                continue
            self.installed.append(point.target)
        if self.absent:
            print(f"e2e trace: {len(self.absent)} patch point(s) absent: "
                  + "; ".join(self.absent), file=sys.stderr)
        return self

    def _install_one(self, point: PatchPoint) -> None:
        module_name, _, attr_path = point.target.partition(":")
        owner = importlib.import_module(module_name)
        parts = attr_path.split(".")
        if len(parts) == 2 and isinstance(getattr(owner, parts[0]),
                                          types.ModuleType):
            owner = self._proxy_module(owner, parts[0])
            parts = parts[1:]
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               and attr in owner.__dict__ else getattr(owner, attr))
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(point, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(point, raw)
        else:
            raise TypeError("not a plain callable")
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def _proxy_module(self, owner, name: str):
        """Replace *owner*'s reference to a module with a private copy."""
        real = getattr(owner, name)
        if getattr(real, "_e2e_proxy", False):
            return real
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(vars(real))
        proxy._e2e_proxy = True
        setattr(owner, name, proxy)
        self._undo.append(lambda: setattr(owner, name, real))
        return proxy

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction ---------------------------------------------------------

    def absent_layers(self) -> List[str]:
        return sorted({entry.split(":", 1)[0] for entry in self.absent})

    def calls(self, names) -> int:
        names = _as_set(names)
        return sum(r[0] for (n, _p, _t), r in self.agg.items() if n in names)

    def busy(self, names) -> float:
        """Seconds inside *names*, not double-counting nested calls."""
        names = _as_set(names)
        return sum(r[1] for (n, p, _t), r in self.agg.items()
                   if n in names and p not in names)

    def self_time(self, names) -> float:
        names = _as_set(names)
        return sum(r[1] - r[2] for (n, _p, _t), r in self.agg.items()
                   if n in names)

    def thread_totals(self) -> Dict[int, Tuple[float, float]]:
        """Per thread: (seconds in top-level wrapped calls, sum of self)."""
        out: Dict[int, list] = {}
        for (_n, p, tid), r in self.agg.items():
            acc = out.setdefault(tid, [0.0, 0.0])
            if p is None:
                acc[0] += r[1]
            acc[1] += r[1] - r[2]
        return {tid: (a[0], a[1]) for tid, a in out.items()}

    def coverage(self, wall: float) -> dict:
        """Unattributed time and the self-time sum check on the busiest
        thread, against the *wall* the caller measured."""
        totals = self.thread_totals()
        top, self_sum = max(totals.values(), default=(0.0, 0.0))
        unattributed = wall - top
        return {
            "wall_s": wall,
            "unattributed_s": unattributed,
            "self_sum_frac": (self_sum + unattributed) / wall if wall else 0.0,
        }

    def to_json(self, wall: float) -> dict:
        names = sorted({k[0] for k in self.agg})
        tids = {tid: i for i, tid in enumerate(sorted({k[2] for k in self.agg}))}
        return {
            "coverage": self.coverage(wall),
            "installed": self.installed,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            "counts": dict(sorted(self.counts.items())),
            "layers": {name: {"calls": self.calls(name),
                              "busy_s": self.busy(name),
                              "self_s": self.self_time(name)}
                       for name in names},
            "edges": [{"name": n, "parent": p, "thread": tids[t],
                       "calls": r[0], "total_s": r[1], "self_s": r[1] - r[2]}
                      for (n, p, t), r in sorted(self.agg.items(),
                                                 key=lambda kv: -kv[1][1])],
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for (i, n, s, e, p) in self.spans],
            "dropped_spans": self.dropped_spans,
        }


def _as_set(names) -> frozenset:
    return frozenset((names,) if isinstance(names, str) else names)


#: Per-layer metrics of a traced run, in report order, with units.
#: Layers a workload never enters read 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("build.calls", "count"), ("build.busy_s", "s"),
    ("encode.calls", "count"), ("encode.busy_s", "s"),
    ("predecode.calls", "count"), ("decode.busy_s", "s"),
    ("codegen.compiles", "count"), ("codegen.busy_s", "s"),
    ("machine.runs", "count"), ("machine.busy_s", "s"),
    ("machine.self_s", "s"), ("machine.sim_instructions", "count"),
    ("machine.sim_cycles", "count"), ("machine.sim_minstr_per_s", "Minstr/s"),
    ("fragment.calls", "count"), ("fragment.self_s", "s"),
    ("macro.kernel_runs", "count"), ("macro.kernel_fallbacks", "count"),
    ("macro.kernel_ok_ratio", "ratio"),
    ("timing.account.calls", "count"), ("timing.account_block.calls", "count"),
    ("timing.account_loop.calls", "count"), ("timing.self_s", "s"),
    ("translate.attempts", "count"), ("translate.ok", "count"),
    ("translate.aborted", "count"), ("translate.ok_ratio", "ratio"),
    ("translate.busy_s", "s"),
    ("runcache.key.busy_s", "s"),
    ("runcache.probe.calls", "count"), ("runcache.probe.busy_s", "s"),
    ("runcache.load.calls", "count"), ("runcache.load.self_s", "s"),
    ("runcache.store.calls", "count"), ("runcache.store.busy_s", "s"),
    ("runcache.hits", "count"), ("runcache.misses", "count"),
    ("serialize.to_dict.calls", "count"), ("serialize.to_dict.busy_s", "s"),
    ("serialize.from_dict.calls", "count"),
    ("serialize.from_dict.busy_s", "s"),
    ("scheduler.self_s", "s"), ("render.self_s", "s"),
    ("serve.parse.busy_s", "s"), ("serve.key.busy_s", "s"),
    ("serve.encode.busy_s", "s"),
    ("serve.hits", "count"), ("serve.coalesced", "count"),
    ("serve.cold", "count"), ("serve.executed", "count"),
    ("serve.errors", "count"),
    ("loadgen.lat_p50_ms.r150", "ms"), ("loadgen.lat_p99_ms.r150", "ms"),
    ("loadgen.lat_p99_ms.r300", "ms"),
    ("loadgen.late_p99_ms.r150", "ms"), ("loadgen.late_p99_ms.r300", "ms"),
    ("loadgen.rate_within_limit", "1/s"),
    ("unattributed.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.self_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"), ("trace.absent_layers", "count"),
)

_TIMING = ("timing.account", "timing.account_block", "timing.account_loop",
           "timing.stall")
_TRANSLATE = ("translate.begin", "translate.observe", "translate.finish")
_DECODE = ("predecode", "decode.superblocks", "decode.fragment_tables")


def layer_metrics(tracer: Tracer, wall: float,
                  server: bool = False) -> Dict[str, float]:
    """The tracer-derived part of :data:`PER_LAYER` for one traced phase.

    *wall* is the phase's wall-clock seconds as the caller measured it.
    ``serve.*`` busy times are only read in a ``repro serve`` host
    (*server*); the ``/stats`` counts, load-generator numbers and the
    tracing overhead are filled in by the caller.
    """
    t = tracer
    counts = t.counts
    busy_machine = t.busy("machine.run")
    instructions = counts.get("machine.sim_instructions", 0)
    kernels = t.calls("macro.kernel")
    fallbacks = counts.get("macro.kernel_fallbacks", 0)
    attempts = counts.get("translate.attempts", 0)
    coverage = t.coverage(wall)
    return {
        "build.calls": t.calls("build"),
        "build.busy_s": t.busy("build"),
        "encode.calls": t.calls("encode"),
        "encode.busy_s": t.busy("encode"),
        "predecode.calls": t.calls("predecode"),
        "decode.busy_s": t.busy(_DECODE),
        "codegen.compiles": t.calls("codegen.compile"),
        "codegen.busy_s": t.busy("codegen.compile"),
        "machine.runs": sum(r[0] for (n, p, _), r in t.agg.items()
                            if n == "machine.run" and p != "machine.run"),
        "machine.busy_s": busy_machine,
        "machine.self_s": t.self_time("machine.run"),
        "machine.sim_instructions": instructions,
        "machine.sim_cycles": counts.get("machine.sim_cycles", 0),
        "machine.sim_minstr_per_s": (instructions / busy_machine / 1e6
                                     if busy_machine else 0.0),
        "fragment.calls": t.calls("fragment"),
        "fragment.self_s": t.self_time(("fragment", "macro.kernel")),
        "macro.kernel_runs": kernels,
        "macro.kernel_fallbacks": fallbacks,
        "macro.kernel_ok_ratio": ((kernels - fallbacks) / kernels
                                  if kernels else 0.0),
        "timing.account.calls": t.calls("timing.account"),
        "timing.account_block.calls": t.calls("timing.account_block"),
        "timing.account_loop.calls": t.calls("timing.account_loop"),
        "timing.self_s": t.self_time(_TIMING),
        "translate.attempts": attempts,
        "translate.ok": counts.get("translate.ok", 0),
        "translate.aborted": counts.get("translate.aborted", 0),
        "translate.ok_ratio": (counts.get("translate.ok", 0) / attempts
                               if attempts else 0.0),
        "translate.busy_s": t.busy(_TRANSLATE),
        "runcache.key.busy_s": t.busy("runcache.key"),
        "runcache.probe.calls": t.calls("runcache.probe"),
        "runcache.probe.busy_s": t.busy("runcache.probe"),
        "runcache.load.calls": t.calls("runcache.load"),
        "runcache.load.self_s": t.self_time("runcache.load"),
        "runcache.store.calls": t.calls("runcache.store"),
        "runcache.store.busy_s": t.busy("runcache.store"),
        "runcache.hits": counts.get("runcache.hits", 0),
        "runcache.misses": counts.get("runcache.misses", 0),
        "serialize.to_dict.calls": t.calls("serialize.to_dict"),
        "serialize.to_dict.busy_s": t.busy("serialize.to_dict"),
        "serialize.from_dict.calls": t.calls("serialize.from_dict"),
        "serialize.from_dict.busy_s": t.busy("serialize.from_dict"),
        "scheduler.self_s": t.self_time(("scheduler.run_many",
                                         "scheduler.key_for")),
        "render.self_s": t.self_time("render"),
        "serve.parse.busy_s": t.busy("serve.parse") if server else 0.0,
        "serve.key.busy_s": t.busy("scheduler.key_for") if server else 0.0,
        "serve.encode.busy_s": t.busy("serve.encode") if server else 0.0,
        "unattributed.self_s": coverage["unattributed_s"],
        "trace.wall_s": wall,
        "trace.self_sum_frac": coverage["self_sum_frac"],
        "trace.absent_layers": len(t.absent_layers()),
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
