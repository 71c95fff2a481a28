"""The benchmark's five workloads, and the subprocess that runs one.

``run.py`` starts every workload in a fresh process
(``python workloads.py SPEC_JSON``), so set-up is measured from process
start and no workload inherits another's warm state.  The process sets
up, reports when set-up ended, runs the measured phase, checks every
output against the oracle in ``expected.json``, and prints one JSON
line.  The workload classes are also called in-process by the smoke
test with one- or two-key inputs.

Every workload uses default configurations (no ``engine=``), so it
measures what ``repro evaluate`` and ``repro serve`` users get.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import loadgen
import trace as e2e_trace

HERE = loadgen.HERE
SRC = loadgen.SRC
EXPECTED_PATH = HERE / "expected.json"

#: Vector widths of the paper's Figure 6 request set.
WIDTHS = (2, 4, 8, 16)
#: Open-loop rates of ``serve-warm`` (requests per second) and the p99
#: latency each must meet.
OPEN_RATES = (150, 300)
LATENCY_LIMIT_MS = 10.0
#: Load-generator connections: one per core of the 2-core reference box.
CONNECTIONS = 2
#: Shares of ``--seconds`` for serve-warm's closed, r150 and r300 phases.
SERVE_WARM_SHARES = (0.7, 0.15, 0.15)
_MAX_ERRORS_KEPT = 20

clock = time.perf_counter


# -- inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class Key:
    """One simulation request, in the form every workload can issue."""

    kind: str                    # "baseline" or "liquid"
    benchmark: str
    width: Optional[int] = None  # liquid only
    repeat: int = 1

    @property
    def id(self) -> str:
        return f"{self.kind}/{self.benchmark}/w{self.width or '-'}/x{self.repeat}"

    def request(self):
        """The in-process :class:`RunRequest` (default machine config)."""
        from repro.evaluation.runner import RunRequest
        from repro.simd.accelerator import config_for_width
        from repro.system.machine import MachineConfig
        accelerator = config_for_width(self.width) if self.width else None
        return RunRequest(self.benchmark, self.kind,
                          MachineConfig(accelerator=accelerator),
                          repeat_factor=self.repeat)

    def payload(self) -> dict:
        """The ``POST /v1/runs`` body (server-default engine)."""
        body = {"benchmark": self.benchmark, "program_kind": self.kind}
        if self.width is not None:
            body["width"] = self.width
        if self.repeat != 1:
            body["repeat_factor"] = self.repeat
        return body


def fast_subset() -> List[str]:
    from repro.evaluation.cli import FAST_SUBSET
    return list(FAST_SUBSET)


def all_benchmarks() -> List[str]:
    from repro.kernels.suite import BENCHMARK_ORDER
    return list(BENCHMARK_ORDER)


def sweep_keys(benchmarks) -> List[Key]:
    """The Figure 6 request set (baseline + every width) over *benchmarks*."""
    keys = []
    for name in benchmarks:
        keys.append(Key("baseline", name))
        keys.extend(Key("liquid", name, w) for w in WIDTHS)
    return keys


def scalar_cold_keys() -> List[Key]:
    return [Key("baseline", b) for b in all_benchmarks()]


def liquid_cold_keys() -> List[Key]:
    return [Key("liquid", b, w) for b in all_benchmarks() for w in (4, 16)]


def serve_cold_keys() -> List[Key]:
    return [Key("liquid", b, w, r) for b in fast_subset() for w in WIDTHS
            for r in (2, 3)]


def all_keys() -> List[Key]:
    """Every request any workload issues (the oracle's coverage)."""
    keys = (scalar_cold_keys() + liquid_cold_keys()
            + sweep_keys(fast_subset()) + serve_cold_keys())
    return list(dict.fromkeys(keys))


# -- the oracle ---------------------------------------------------------------

def result_digest(wire: dict) -> str:
    """sha256 of a telemetry-stripped ``RunResult.to_dict()``."""
    stripped = {k: v for k, v in wire.items() if k != "telemetry"}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_FOOTER = re.compile(r"cache: (\d+) hits / (\d+) simulated")


def split_footer(stdout: str):
    """``(body lines, footer)`` of one ``repro evaluate`` output; the
    footer is the trailing ``[...s, jobs: ...]`` timing line."""
    lines = stdout.rstrip("\n").split("\n")
    if lines and lines[-1].startswith("["):
        return lines[:-1], lines[-1]
    return lines, ""


def sweep_digest(stdout: str) -> str:
    """sha256 of the rendered tables without the timing footer.

    Lines are sorted first: the seed shuffles the ``--benchmarks`` order,
    which reorders rows but must not change any of them.
    """
    body, _ = split_footer(stdout)
    return hashlib.sha256("\n".join(sorted(body)).encode("utf-8")).hexdigest()


def _sweep_id(benchmarks) -> str:
    return "|".join(sorted(benchmarks))


class Oracle:
    """Expected cycles and result digests per request, and expected
    rendered-output digests per ``evaluate`` benchmark set."""

    def __init__(self, runs: Dict[str, dict], sweeps: Dict[str, str],
                 engine: str = "reference") -> None:
        self.runs = runs
        self.sweeps = sweeps
        self.engine = engine

    @classmethod
    def load(cls, path: Path = EXPECTED_PATH) -> "Oracle":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(data["runs"], data["sweeps"], data.get("engine", "?"))

    def to_json(self) -> dict:
        return {"engine": self.engine,
                "runs": dict(sorted(self.runs.items())),
                "sweeps": dict(sorted(self.sweeps.items()))}

    def check_run(self, key: Key, wire: dict) -> Optional[str]:
        want = self.runs.get(key.id)
        if want is None:
            return f"{key.id}: not in the oracle"
        if wire.get("cycles") != want["cycles"]:
            return (f"{key.id}: {wire.get('cycles')} cycles, "
                    f"expected {want['cycles']}")
        if result_digest(wire) != want["sha256"]:
            return f"{key.id}: result differs from the oracle"
        return None

    def check_sweep(self, benchmarks, stdout: str) -> Optional[str]:
        want = self.sweeps.get(_sweep_id(benchmarks))
        if want is None:
            return f"sweep over {benchmarks}: not in the oracle"
        if sweep_digest(stdout) != want:
            return "rendered evaluate output differs from the oracle"
        return None


def build_oracle(keys, sweep_benchmarks, engine: str, jobs: int,
                 tmp: Path) -> Oracle:
    """Simulate *keys* under *engine* and render the sweep over
    *sweep_benchmarks* from those results."""
    from repro.evaluation.runcache import RunCache
    from repro.evaluation.runner import RunScheduler

    cache_dir = tempfile.mkdtemp(prefix="oracle-", dir=tmp)
    scheduler = RunScheduler(jobs=jobs, cache=RunCache(cache_dir))
    requests = {}
    for key in keys:
        request = key.request()
        requests[key] = replace(request,
                                config=replace(request.config, engine=engine))
    answers = scheduler.run_many(requests.values())
    runs = {}
    for key, request in requests.items():
        wire = answers[request].to_dict()
        runs[key.id] = {"cycles": wire["cycles"], "sha256": result_digest(wire)}
    sweeps = {}
    if sweep_benchmarks:
        rc, stdout = _evaluate(_sweep_args(sweep_benchmarks, cache_dir)
                               + ["--engine", engine])
        if rc != 0:
            raise RuntimeError(f"evaluate exited {rc}")
        sweeps[_sweep_id(sweep_benchmarks)] = sweep_digest(stdout)
    return Oracle(runs, sweeps, engine)


# -- results -----------------------------------------------------------------

@dataclass
class Result:
    """What one workload process measured and checked.

    Times are recorded as ``(start, end)`` spans; :meth:`scale_times`
    turns them into seconds, both as measured (``raw_*``) and scaled to
    the reference host speed (see :mod:`hostspeed`), which the
    end-to-end metrics use.
    """

    latency_spans: List[tuple] = field(default_factory=list)  # one per op
    busy_spans: List[tuple] = field(default_factory=list)  # what ``ops`` took
    ops: int = 0             # operations the throughput counts
    latencies: List[float] = field(default_factory=list)  # scaled seconds
    raw_latencies: List[float] = field(default_factory=list)
    busy: float = 0.0        # scaled seconds the ``ops`` took
    raw_busy: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS_KEPT:
            self.errors.append(message)

    def add_busy(self, start: float, end: float, ops: int) -> None:
        """*ops* operations kept the workload busy over the span."""
        self.busy_spans.append((start, end))
        self.ops += ops

    def add_latencies(self, samples) -> None:
        self.latency_spans += [(s.sent, s.sent + s.latency) for s in samples]

    def add_op(self, start: float, end: float) -> None:
        """One sequential operation that lasted the span."""
        self.add_busy(start, end, 1)
        self.latency_spans.append((start, end))

    def scale_times(self, speed: hostspeed.HostSpeed) -> None:
        def seconds(span):
            start, end = span
            raw = end - start - speed.stalled(start, end)
            return raw, raw * speed.scale(start, end)

        lat = [seconds(span) for span in self.latency_spans]
        busy = [seconds(span) for span in self.busy_spans]
        self.raw_latencies = [raw for raw, _ in lat]
        self.latencies = [scaled for _, scaled in lat]
        self.raw_busy = sum(raw for raw, _ in busy)
        self.busy = sum(scaled for _, scaled in busy)

    def to_json(self) -> dict:
        return {"latencies": self.latencies,
                "raw_latencies": self.raw_latencies, "ops": self.ops,
                "busy": self.busy, "raw_busy": self.raw_busy,
                "peak_rss_mb": self.peak_rss_mb, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors,
                "extra": self.extra, "layers": self.layers}


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


@dataclass
class Context:
    """Everything a workload needs from its launcher."""

    seed: int
    seconds: float
    tmp: Path
    oracle: Oracle
    speed: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)
    trace: bool = False
    trace_path: Optional[Path] = None   # where a traced run writes spans
    server_cpu: Optional[int] = None
    pgid_log: Optional[Path] = None
    keys: Optional[List[Key]] = None             # smaller input (tests)
    benchmarks: Optional[List[str]] = None       # sweep-warm's, likewise


@contextlib.contextmanager
def tracing(ctx: Context):
    """The layer tracer for a traced run (None otherwise), removed on
    exit so checks after the phase are not counted."""
    if not ctx.trace:
        yield None
        return
    tracer = e2e_trace.Tracer().install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def finish_trace(ctx: Context, tracer, result: Result, wall: float) -> None:
    if tracer is not None:
        result.layers = e2e_trace.layer_metrics(tracer, wall)
        write_trace(ctx, tracer.to_json(wall))


def write_trace(ctx: Context, payload: dict) -> None:
    if ctx.trace_path is not None:
        e2e_trace.write_json(ctx.trace_path, payload)


def _shuffled(items, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{seed}:{salt}").shuffle(out)
    return out


# -- workloads -----------------------------------------------------------------

class Workload:
    name = ""
    #: Probe host speed on the server's CPU (through a sidecar) instead
    #: of this process's: the server does the work being timed.
    uses_server_cpu = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.setup_errors: List[str] = []

    def setup(self) -> None:
        """Everything before the measured phase."""

    def measure(self) -> Result:
        raise NotImplementedError

    def teardown(self) -> List[str]:
        """Release resources; returns problems found while doing so."""
        return []

    def new_result(self) -> Result:
        result = Result()
        for message in self.setup_errors:
            result.fail(message)
        return result


class ColdBatch(Workload):
    """Cold simulations: one ``run_many`` over an empty run cache answers
    the request set in seeded order.  The batch is the operation, as it
    is what a cold ``repro evaluate`` makes its user wait for."""

    def default_keys(self) -> List[Key]:
        raise NotImplementedError

    def setup(self) -> None:
        keys = self.ctx.keys or self.default_keys()
        self.order = [(key, key.request())
                      for key in _shuffled(keys, self.ctx.seed, self.name)]

    def measure(self) -> Result:
        from repro.evaluation.runcache import RunCache
        from repro.evaluation.runner import RunScheduler

        ctx = self.ctx
        result = self.new_result()
        cache = RunCache(tempfile.mkdtemp(prefix="cold-", dir=ctx.tmp))
        scheduler = RunScheduler(jobs=1, cache=cache)
        answers = {}
        with tracing(ctx) as tracer:
            start = clock()
            try:
                answers = scheduler.run_many(r for _, r in self.order)
            except Exception as exc:  # noqa: BLE001 - a failed batch
                result.fail(f"run_many raised {exc!r}")
            end = clock()
            result.add_op(start, end)
            finish_trace(ctx, tracer, result, end - start)
        ctx.speed.sample()
        result.scale_times(ctx.speed)
        result.attempted = len(self.order)
        for key, request in self.order:
            answer = answers.get(request)
            problem = (f"{key.id}: no result" if answer is None
                       else ctx.oracle.check_run(key, answer.to_dict()))
            if problem:
                result.fail(problem)
        stats = scheduler.stats
        if stats.executed != len(self.order) or stats.cache_hits:
            result.fail(f"cold batch simulated {stats.executed} and hit the "
                        f"cache {stats.cache_hits} times for "
                        f"{len(self.order)} requests")
        result.peak_rss_mb = loadgen.peak_rss_mb()
        return result


class ScalarCold(ColdBatch):
    name = "scalar-cold"

    def default_keys(self) -> List[Key]:
        return scalar_cold_keys()


class LiquidCold(ColdBatch):
    name = "liquid-cold"

    def default_keys(self) -> List[Key]:
        return liquid_cold_keys()


def _sweep_args(benchmarks, cache_dir) -> List[str]:
    return ["--experiments", "table5", "table6", "figure6", "codesize",
            "--benchmarks", *benchmarks, "--jobs", "1",
            "--cache-dir", str(cache_dir)]


def _evaluate(args):
    """One ``repro evaluate`` invocation; returns (exit code, stdout)."""
    from repro.evaluation import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(args)
    return code, buffer.getvalue()


class SweepWarm(Workload):
    """Warm ``repro evaluate`` reruns over a filled run cache."""

    name = "sweep-warm"

    def setup(self) -> None:
        ctx = self.ctx
        benchmarks = ctx.benchmarks or fast_subset()
        self.benchmarks = _shuffled(benchmarks, ctx.seed, self.name)
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=ctx.tmp)
        self.args = _sweep_args(self.benchmarks, cache_dir)
        code, stdout = _evaluate(self.args)  # the cold fill
        problem = self._check(code, stdout, warm=False)
        if problem:
            self.setup_errors.append(f"fill: {problem}")

    def _check(self, code: int, stdout: str, warm: bool) -> Optional[str]:
        if code != 0:
            return f"evaluate exited {code}"
        if warm:
            match = _FOOTER.search(split_footer(stdout)[1])
            if match is None:
                return "no cache footer in evaluate output"
            if int(match.group(2)):
                return f"simulated {match.group(2)} runs during a warm pass"
        return self.ctx.oracle.check_sweep(self.benchmarks, stdout)

    def measure(self) -> Result:
        ctx = self.ctx
        speed = ctx.speed
        result = self.new_result()
        with tracing(ctx) as tracer:
            start = clock()
            end = start + ctx.seconds
            while True:
                t0 = clock()
                code, stdout = _evaluate(self.args)
                t1 = clock()
                result.add_op(t0, t1)
                result.attempted += 1
                problem = self._check(code, stdout, warm=True)
                if problem:
                    result.fail(problem)
                if t1 >= end:
                    break
            finish_trace(ctx, tracer, result, clock() - start)
        speed.sample()
        result.scale_times(speed)
        result.peak_rss_mb = loadgen.peak_rss_mb()
        return result


def _slices(seconds: float, slice_s: float = 0.25) -> List[float]:
    """*seconds* cut into near-equal slices of about *slice_s*."""
    count = max(1, round(seconds / slice_s))
    return [seconds / count] * count


class ServeWorkload(Workload):
    """Common server handling: boot, verify replies, stop."""

    uses_server_cpu = True
    server: Optional[loadgen.Server] = None

    def start_server(self) -> None:
        ctx = self.ctx
        trace_out = (Path(tempfile.mkdtemp(prefix="trace-", dir=ctx.tmp))
                     / "server.json" if ctx.trace else None)
        self.server = loadgen.Server(
            Path(tempfile.mkdtemp(prefix="serve-", dir=ctx.tmp)), ctx.tmp,
            cpu=ctx.server_cpu, trace_out=trace_out, pgid_log=ctx.pgid_log)
        self.wire = [loadgen.post_bytes(self.server.host, key.payload())
                     for key in self.keys]
        self.tails: Dict[int, str] = {}

    def session(self, check) -> loadgen.Session:
        return loadgen.Session(self.server.host, self.server.port, self.wire,
                               check, CONNECTIONS)

    def verify(self, index: int, status: int, body: bytes) -> Optional[str]:
        """Check one reply: parsed and compared with the oracle the first
        time a key is answered, by digest of its result bytes after."""
        key = self.keys[index]
        if status != 200:
            return f"{key.id}: HTTP {status}"
        cut = body.find(b'"result":')
        if cut < 0:
            return f"{key.id}: no result in reply"
        tail = hashlib.sha256(body[cut + 9:]).hexdigest()
        known = self.tails.get(index)
        if known is not None:
            return None if tail == known else f"{key.id}: result bytes changed"
        try:
            wire = json.loads(body)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"{key.id}: unreadable reply ({exc})"
        problem = self.ctx.oracle.check_run(key, wire)
        if problem is None:
            self.tails[index] = tail
        return problem

    def serve_stats(self, before: dict, after: dict) -> Dict[str, float]:
        return {f"serve.{name}": after[name] - before.get(name, 0)
                for name in ("hits", "coalesced", "cold", "executed",
                             "errors")}

    def finish(self, result: Result, report: Optional[dict],
               samples) -> None:
        """Per-layer metrics and trace file of a traced serve run."""
        if report is None:
            return
        result.layers = dict(report["metrics"])
        write_trace(self.ctx, {
            "server": report["trace"],
            "client": {"spans": [
                {"id": s.index, "name": "http.request", "start": s.sent,
                 "end": s.sent + s.latency, "error": s.error}
                for s in samples]},
        })

    def teardown(self) -> List[str]:
        if self.server is None:
            return []
        return self.server.stop()


class ServeWarm(ServeWorkload):
    """Warm ``repro serve`` traffic: every request is a memo hit."""

    name = "serve-warm"

    def setup(self) -> None:
        ctx = self.ctx
        self.keys = ctx.keys or sweep_keys(fast_subset())
        self.start_server()
        for index, key in enumerate(self.keys):  # the cold fill
            status, body = self.server.request(
                "POST", "/v1/runs", json.dumps(key.payload()).encode("utf-8"))
            ctx.speed.sample()  # set-up time is scaled too
            problem = self.verify(index, status, body)
            if problem:
                self.setup_errors.append(f"fill: {problem}")

    def check(self, index: int, status: int, body: bytes) -> Optional[str]:
        if status == 200 and body.find(b'"source":"hit"', 0, 256) < 0:
            return f"{self.keys[index].id}: simulated during a warm workload"
        return self.verify(index, status, body)

    def sequence(self, salt: str, count: int) -> List[int]:
        rng = random.Random(f"{self.ctx.seed}:{self.name}:{salt}")
        return [rng.randrange(len(self.keys)) for _ in range(count)]

    async def _traffic(self, result: Result):
        """The closed loop, then each open-loop rate, in slices with a
        host-speed probe of the server's CPU after each.  The closed
        loop's requests are the workload's operations."""
        speed = self.ctx.speed
        closed_s, *open_s = (share * self.ctx.seconds
                             for share in SERVE_WARM_SHARES)
        closed: List[loadgen.Sample] = []
        phases: Dict[int, List[loadgen.Sample]] = {r: [] for r in OPEN_RATES}
        async with self.session(self.check) as session:
            speed.sample()
            sequence, index = self.sequence("closed", 4096), 0
            for seconds in _slices(closed_s):
                start = clock()
                samples, _, index = await session.closed(
                    sequence, index, seconds)
                result.add_busy(start, clock(), len(samples))
                result.add_latencies(samples)
                closed += samples
                speed.sample()
            for rate, seconds in zip(OPEN_RATES, open_s):
                sequence, index = self.sequence(f"r{rate}",
                                                round(rate * seconds)), 0
                for part in _slices(seconds):
                    samples, index = await session.open_loop(
                        sequence, index, rate, part)
                    phases[rate] += samples
                    speed.sample()
        return closed, phases

    def measure(self) -> Result:
        server = self.server
        result = self.new_result()
        stats_before = server.stats()
        server.window_start()
        closed, phases = asyncio.run(self._traffic(result))
        report = server.window_end()
        result.scale_times(self.ctx.speed)
        result.extra.update(self.serve_stats(stats_before, server.stats()))
        result.peak_rss_mb = server.peak_rss_mb()

        samples = closed + [s for rate in OPEN_RATES for s in phases[rate]]
        for sample in samples:
            if sample.error:
                result.fail(sample.error)
        result.attempted += len(samples) + len(self.keys)
        within = 0
        for rate in OPEN_RATES:
            lat = [s.latency for s in phases[rate]]
            late = [s.late for s in phases[rate] if s.late is not None]
            p99_ms = percentile(lat, 0.99) * 1e3
            result.extra[f"loadgen.lat_p50_ms.r{rate}"] = \
                percentile(lat, 0.5) * 1e3
            result.extra[f"loadgen.lat_p99_ms.r{rate}"] = p99_ms
            result.extra[f"loadgen.late_p99_ms.r{rate}"] = \
                percentile(late, 0.99) * 1e3
            if p99_ms <= LATENCY_LIMIT_MS and not any(
                    s.error for s in phases[rate]):
                within = rate
        result.extra["loadgen.rate_within_limit"] = within
        for name in ("executed", "cold"):
            for _ in range(int(result.extra[f"serve.{name}"])):
                result.fail(f"serve.{name} rose during a warm workload")
        self.finish(result, report, samples)
        return result


class ServeCold(ServeWorkload):
    """Never-cached keys, each requested by two callers at once."""

    name = "serve-cold"

    def setup(self) -> None:
        ctx = self.ctx
        self.keys = _shuffled(ctx.keys or serve_cold_keys(), ctx.seed,
                              self.name)
        self.start_server()

    async def _traffic(self, result: Result, record):
        """Each key on every connection at once, with a host-speed probe
        of the server's CPU after each."""
        speed = self.ctx.speed
        samples: List[loadgen.Sample] = []
        async with self.session(record) as session:
            speed.sample()
            for index in range(len(self.keys)):
                start = clock()
                step = await session.lockstep(index, index)
                result.add_busy(start, clock(), len(step))
                result.add_latencies(step)
                samples += step
                speed.sample()
        return samples

    def measure(self) -> Result:
        server = self.server
        result = self.new_result()
        replies = []

        def record(index: int, status: int, body: bytes) -> None:
            replies.append((index, status, body))  # checked after the phase

        stats_before = server.stats()
        server.window_start()
        samples = asyncio.run(self._traffic(result, record))
        report = server.window_end()
        result.scale_times(self.ctx.speed)
        result.extra.update(self.serve_stats(stats_before, server.stats()))
        result.peak_rss_mb = server.peak_rss_mb()

        for sample in samples:
            if sample.error:
                result.fail(sample.error)
        for index, status, body in replies:
            problem = self.verify(index, status, body)
            if problem:
                result.fail(problem)
        duplicates = int(result.extra["serve.executed"]) - len(self.keys)
        for _ in range(max(0, duplicates)):
            result.fail("a key was simulated twice (single-flight broke)")
        result.attempted += len(samples)
        self.finish(result, report, samples)
        return result


WORKLOADS = {cls.name: cls for cls in (ScalarCold, LiquidCold, SweepWarm,
                                       ServeWarm, ServeCold)}


# -- the workload process -------------------------------------------------------

def child_main(spec: dict) -> dict:
    """Run one workload as ``run.py`` asked; returns the JSON report.

    Set-up is bracketed by host-speed probes (on the server's CPU for
    serve workloads), so its time can be scaled like every other.
    """
    tmp = Path(spec["tmp"])
    cls = WORKLOADS[spec["workload"]]
    sidecar = (hostspeed.Sidecar(spec.get("server_cpu"), loadgen.child_env(tmp))
               if cls.uses_server_cpu else None)
    speed = hostspeed.HostSpeed(sidecar)
    start = clock()
    speed.sample()
    speed.start_sampling()
    ctx = Context(
        seed=spec["seed"], seconds=spec["seconds"], tmp=tmp,
        oracle=Oracle.load(), speed=speed, trace=spec["trace"],
        trace_path=Path(spec["trace_path"]) if spec.get("trace_path") else None,
        server_cpu=spec.get("server_cpu"), pgid_log=tmp / "servers.pgid")
    workload = cls(ctx)
    result = None
    try:
        workload.setup()
        setup_end, setup_done = time.monotonic(), clock()
        speed.sample()
        result = (workload.new_result() if spec["mode"] == "setup"
                  else workload.measure())
    finally:
        problems = workload.teardown()
        speed.close()
    if getattr(workload, "server", None) is not None:
        result.attempted += 1  # the clean-stop check
    for problem in problems:
        result.fail(problem)
    report = result.to_json()
    report["setup_end"] = setup_end
    report["setup_scale"] = speed.scale(start, setup_done)
    report["probe_s"] = speed.samples
    return report


def _terminate(signum, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")


if __name__ == "__main__":
    import signal

    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(SRC))
    print(json.dumps(child_main(json.loads(sys.argv[1]))))
