"""The parallel run scheduler: deduplicated, cached machine runs.

Every experiment reduces to a set of independent, deterministic
simulations — ``Machine(config).run(program)`` with no shared state —
so the evaluation layer funnels them all through one
:class:`RunScheduler`:

1. Experiments declare :class:`RunRequest`\\ s (benchmark, program kind,
   machine config) up front; the scheduler deduplicates the union, so a
   run shared by several experiments (Figure 6 and Table 6 both need
   the width-8 Liquid runs) is simulated once.
2. Requests already answered this process (memo) or by a previous
   process (the persistent :class:`~repro.evaluation.runcache.RunCache`)
   are skipped.  Cache presence is probed for the whole batch in **one**
   ``contains_many`` round-trip — one directory scan locally, one HTTP
   request against a shared ``repro cache serve`` daemon — instead of a
   per-key probe loop.
3. The remainder fans out across a ``ProcessPoolExecutor``
   (``--jobs N``, default ``os.cpu_count()``).  ``--jobs 1`` keeps
   everything in-process — today's sequential behavior, the right mode
   for pdb and profiling.  Programs are built and encoded once per
   ``program_id`` in the parent (a width sweep shares one program
   across every width) and shipped to workers as their canonical
   encoded bytes; workers ship the result back as its ``to_dict``
   form, the same wire format the cache persists.

Results are bit-identical whichever path produced them, so rendered
tables never depend on ``--jobs`` or cache state; a determinism test
(``tests/test_runner.py``) and the acceptance benchmark
(``benchmarks/test_parallel_speedup.py``) both enforce this.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.scalarize import (
    DEFAULT_MVL,
    build_baseline_program,
    build_liquid_program,
)
from repro.evaluation.runcache import RunCache, run_key_for_bytes
from repro.isa.encoding import decode_program, encode_program
from repro.isa.program import Program
from repro.observability import telemetry as _telemetry
from repro.kernels.suite import build_kernel
from repro.system.machine import Machine, MachineConfig
from repro.system.metrics import RunResult

PROGRAM_KINDS = ("baseline", "liquid")


@dataclass(frozen=True)
class RunRequest:
    """One simulation to perform: what to build and how to run it.

    ``program_kind`` selects the scalar baseline binary or the Liquid
    (outlined, translatable) binary; ``repeat_factor`` scales the
    kernel's schedule length (the overhead experiment's 2x runs).
    Requests are frozen and hashable — they are dict keys in the
    scheduler's memo and dedup set.
    """

    benchmark: str
    program_kind: str
    config: MachineConfig
    repeat_factor: int = 1

    def __post_init__(self) -> None:
        if self.program_kind not in PROGRAM_KINDS:
            raise ValueError(
                f"program_kind must be one of {PROGRAM_KINDS}, "
                f"got {self.program_kind!r}"
            )
        if self.repeat_factor < 1:
            raise ValueError(
                f"repeat_factor must be >= 1, got {self.repeat_factor}"
            )

    @property
    def program_id(self) -> Tuple[str, str, int]:
        """Key identifying the program this request needs."""
        return (self.benchmark, self.program_kind, self.repeat_factor)


def build_request_program(request: RunRequest) -> Program:
    """Construct the program a request runs (deterministic per request)."""
    kernel = build_kernel(request.benchmark)
    if request.repeat_factor != 1:
        kernel.repeats *= request.repeat_factor
    if request.program_kind == "baseline":
        return build_baseline_program(kernel, DEFAULT_MVL)
    return build_liquid_program(kernel, DEFAULT_MVL)


def execute_request(request: RunRequest,
                    program: Optional[Program] = None) -> RunResult:
    """Simulate one request (building its program unless provided)."""
    if program is None:
        program = build_request_program(request)
    return Machine(request.config).run(program)


def _pool_worker(request: RunRequest,
                 encoded_program: Optional[bytes] = None) -> dict:
    """Process-pool entry point: simulate and return the wire form.

    The parent ships the program as its canonical encoded bytes —
    built and encoded once per ``program_id`` — so workers decode
    instead of rebuilding the kernel (falling back to a rebuild when no
    bytes were shipped).  Returning ``to_dict()`` rather than the live
    object keeps transport on the same serialization path the cache
    uses (and exercises it on every parallel run).
    """
    program = (decode_program(encoded_program)
               if encoded_program is not None else None)
    return execute_request(request, program).to_dict()


@dataclass
class SchedulerStats:
    """Where each scheduled request was answered from."""

    requested: int = 0
    deduplicated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    parallel_executed: int = 0


@dataclass
class RunScheduler:
    """Deduplicates, caches, and fans out machine runs.

    Attributes:
        jobs: worker-process budget; ``1`` means strictly in-process.
        cache: persistent run cache, or None to always simulate.
    """

    jobs: Optional[int] = None
    cache: Optional[RunCache] = None
    stats: SchedulerStats = field(default_factory=SchedulerStats)

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        #: Where each request of the most recent ``run_many`` batch was
        #: answered from: ``"memo"`` | ``"cache"`` | ``"simulated"``.
        #: Sweep manifests (:mod:`repro.evaluation.shard`) read this to
        #: attribute per-key provenance without a second cache probe.
        self.last_batch: Dict[RunRequest, str] = {}
        self._memo: Dict[RunRequest, RunResult] = {}
        self._programs: Dict[Tuple[str, str, int], Program] = {}
        self._encoded: Dict[Tuple[str, str, int], bytes] = {}
        self._keys: Dict[RunRequest, str] = {}

    # -- public API -----------------------------------------------------------

    def run(self, request: RunRequest) -> RunResult:
        """Answer one request (memo -> cache -> simulate in-process)."""
        return self.run_many([request])[request]

    def run_many(self, requests: Iterable[RunRequest]
                 ) -> Dict[RunRequest, RunResult]:
        """Answer a batch of requests, simulating misses in parallel."""
        ordered = list(requests)
        unique: List[RunRequest] = list(dict.fromkeys(ordered))
        self.stats.requested += len(ordered)
        self.stats.deduplicated += len(ordered) - len(unique)

        # Spans (docs/observability.md): one per batch plus a nested one
        # around the simulate phase — memo/cache lookups stay untimed so
        # "scheduler.batch.simulate" isolates actual simulation time.
        tel = _telemetry.get()
        results: Dict[RunRequest, RunResult] = {}
        self.last_batch = {}
        with tel.span("scheduler.batch"):
            missing: List[RunRequest] = []
            for request in unique:
                memo = self._memo.get(request)
                if memo is not None:
                    self.stats.memo_hits += 1
                    self.last_batch[request] = "memo"
                    results[request] = memo
                    continue
                missing.append(request)

            # One batched presence probe for everything the memo could
            # not answer — a single directory scan (or HTTP round-trip
            # against a shared cache daemon) instead of a per-key load
            # probe; only keys the probe reports present are then read.
            keys: Dict[RunRequest, str] = {}
            present: set = set()
            if self.cache is not None and missing:
                keys = {request: self.key_for(request)
                        for request in missing}
                present = self.cache.contains_many(keys.values())

            pending: List[Tuple[RunRequest, Optional[str]]] = []
            for request in missing:
                key = keys.get(request)
                if key is not None and key in present:
                    hit = self.cache.load(key)
                    if hit is not None:
                        self.stats.cache_hits += 1
                        self.last_batch[request] = "cache"
                        self._memo[request] = hit
                        results[request] = hit
                        continue
                pending.append((request, key))

            with tel.span("simulate"):
                if len(pending) > 1 and self.jobs > 1:
                    self._execute_parallel(pending, results)
                else:
                    for request, key in pending:
                        program = self._program_for(request)
                        self._finish(request, key,
                                     execute_request(request, program),
                                     results)
        return results

    # -- internals ------------------------------------------------------------

    def _program_for(self, request: RunRequest) -> Program:
        program = self._programs.get(request.program_id)
        if program is None:
            program = build_request_program(request)
            self._programs[request.program_id] = program
        return program

    def encoded_for(self, request: RunRequest) -> bytes:
        """Canonical program bytes, built/encoded once per program_id.

        A width sweep issues many requests against the same program;
        memoizing the encoded form means one kernel build and one
        encode serve every key computation and every worker shipment.
        The sim server (:mod:`repro.evaluation.simserver`) rides the
        same memo to ship cold requests to its persistent pool.
        """
        encoded = self._encoded.get(request.program_id)
        if encoded is None:
            encoded = encode_program(self._program_for(request))
            self._encoded[request.program_id] = encoded
        return encoded

    def key_for(self, request: RunRequest) -> str:
        """The run-cache key a request resolves to, derived once per
        request.

        The first call hashes the config fingerprint and the program's
        encoded bytes (themselves encoded once per ``program_id``); a
        repeated request — a warm ``repro serve`` hit, a sweep's probe
        after its manifest keyed it — is one dict lookup.  Requests that
        differ only in engine are distinct entries with the same key.
        """
        key = self._keys.get(request)
        if key is None:
            key = run_key_for_bytes(self.encoded_for(request),
                                    request.config)
            self._keys[request] = key
        return key

    def _finish(self, request: RunRequest, key: Optional[str],
                result: RunResult,
                results: Dict[RunRequest, RunResult]) -> None:
        self.stats.executed += 1
        self.last_batch[request] = "simulated"
        if key is not None and self.cache is not None:
            self.cache.store(key, result)
        self._memo[request] = result
        results[request] = result

    def _execute_parallel(self, pending, results) -> None:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_pool_worker, request,
                                   self.encoded_for(request)):
                       (request, key)
                       for request, key in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    request, key = futures[future]
                    result = RunResult.from_dict(future.result())
                    self.stats.parallel_executed += 1
                    self._finish(request, key, result, results)
