"""End-to-end benchmark: cold and warm paper sweeps and ``repro serve`` traffic.

    python3 benchmarks/e2e/run.py [--workload NAME ...] --seed N
                                  [--seconds S] [--trace [0|1]] [--out DIR]
    python3 benchmarks/e2e/run.py --regen-expected

Each workload runs in fresh subprocesses pinned to the first allowed
CPU (a server it starts gets the second).  An untraced run starts the
workload :data:`SETUP_REPEATS` times and measures the last start;
``setup_s`` is the median set-up time.  Times are scaled to the
reference host speed by interleaved probes (hostspeed.py); the
unscaled values are printed as diagnostics.  ``--trace`` instead runs
the workload twice for half of ``--seconds`` each, untraced and with
the layer tracer, and reports the per-layer metrics and the tracing
overhead.

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Results and traces
go to ``--out`` (default ``benchmarks/e2e/out``).  The exit code is 0
only if every output matched the oracle in ``expected.json``.  See
README.md for the metric catalog and what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import loadgen
import trace as e2e_trace
import workloads

HERE = loadgen.HERE
ROOT = loadgen.ROOT
SRC = loadgen.SRC

#: End-to-end metrics and units; every workload reports all of them.
E2E_METRICS = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
               ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Whole-invocation budget per workload, in seconds.
WORKLOAD_BUDGET_S = 170.0


class WorkloadError(RuntimeError):
    """A workload process crashed or ran out of time."""


def placement():
    """(workload CPU, server CPU): the first two allowed CPUs, or no
    pinning on a single-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def machine_record() -> dict:
    workload_cpu, server_cpu = placement()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "workload_cpu": workload_cpu,
        "server_cpu": server_cpu,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "probe_s": statistics.median(hostspeed.probe() for _ in range(21)),
        "probe_reference_s": hostspeed.REFERENCE_S,
    }


def _spawn(spec: dict, tmp: Path, cpu, deadline: float) -> dict:
    """Run one workload process; its report plus ``setup_s``."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=str(ROOT), env=loadgen.child_env(tmp), stdout=subprocess.PIPE,
        preexec_fn=loadgen.pin_to(cpu))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise WorkloadError(f"{spec['workload']}: out of time") from None
    except BaseException:
        _stop(proc)  # interrupted: leave no workload process behind
        raise
    finally:
        loadgen.reap_groups(tmp / "servers.pgid")
    if proc.returncode != 0:
        raise WorkloadError(f"{spec['workload']}: workload process exited "
                            f"{proc.returncode}")
    report = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    report["raw_setup_s"] = report["setup_end"] - start
    report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
    return report


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM a workload process (it stops its server), then SIGKILL."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path) -> dict:
    """Measure one workload; returns its metrics and accounting."""
    workload_cpu, server_cpu = placement()
    tmp = out_dir / "tmp" / f"{name}-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    spec = {"workload": name, "seed": seed, "seconds": seconds,
            "tmp": str(tmp), "server_cpu": server_cpu, "trace": False}
    try:
        if traced:
            half = dict(spec, seconds=seconds / 2, mode="measure")
            plain = _spawn(half, tmp, workload_cpu, deadline)
            trace_path = out_dir / f"{name}.trace.json"
            traced_report = _spawn(dict(half, trace=True,
                                        trace_path=str(trace_path)),
                                   tmp, workload_cpu, deadline)
            reports = [plain, traced_report]
            metrics = layer_report(plain, traced_report)
            units = dict(e2e_trace.PER_LAYER)
        else:
            reports = [_spawn(dict(spec, mode="setup"), tmp, workload_cpu,
                              deadline) for _ in range(SETUP_REPEATS - 1)]
            reports.append(_spawn(dict(spec, mode="measure"), tmp,
                                  workload_cpu, deadline))
            metrics = end_to_end(reports)
            units = dict(E2E_METRICS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    diagnostics = {} if traced else diagnostics_of(reports)
    diagnostics["failed_frac"] = failed / attempted if attempted else 1.0
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "diagnostics": diagnostics,
        "attempted": attempted, "failed": failed,
        "errors": [e for r in reports for e in r["errors"]],
        "setup_s_samples": [r["setup_s"] for r in reports],
        "latencies_s": reports[-1]["latencies"],
    }


def ops_per_s(report: dict, raw: bool = False) -> float:
    busy = report["raw_busy" if raw else "busy"]
    return report["ops"] / busy if busy > 0 else 0.0


def end_to_end(reports) -> dict:
    """The end-to-end metrics, host-speed scaled (see hostspeed.py)."""
    measured = reports[-1]
    latencies = measured["latencies"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "ops_per_s": ops_per_s(measured),
        "op_p50_ms": workloads.percentile(latencies, 0.5) * 1e3,
        "op_p90_ms": workloads.percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def diagnostics_of(reports) -> dict:
    """Unscaled times, the host-speed probe, and workload extras."""
    measured = reports[-1]
    raw = measured["raw_latencies"]
    return dict(
        measured["extra"],
        **{"raw.setup_s": statistics.median(r["raw_setup_s"] for r in reports),
           "raw.ops_per_s": ops_per_s(measured, raw=True),
           "raw.op_p50_ms": workloads.percentile(raw, 0.5) * 1e3,
           "raw.op_p90_ms": workloads.percentile(raw, 0.9) * 1e3,
           "host.probe_ms": statistics.median(measured["probe_s"]) * 1e3})


def layer_report(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: layers and ``/stats`` counts from the traced
    process, load-generator numbers from the untraced one."""
    metrics = {name: 0.0 for name, _ in e2e_trace.PER_LAYER}
    for source, prefix in ((traced["layers"], ""), (traced["extra"], "serve."),
                           (plain["extra"], "loadgen.")):
        metrics.update({k: v for k, v in source.items()
                        if k in metrics and k.startswith(prefix)})
    if ops_per_s(traced) > 0:
        metrics["trace.overhead_frac"] = \
            ops_per_s(plain) / ops_per_s(traced) - 1.0
    return metrics


def regen_expected(out_dir: Path) -> int:
    """Rewrite expected.json from reference-engine simulations."""
    sys.path.insert(0, str(SRC))
    tmp = out_dir / "tmp" / f"regen-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        oracle = workloads.build_oracle(
            workloads.all_keys(), workloads.fast_subset(), "reference",
            jobs=len(os.sched_getaffinity(0)), tmp=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = dict(oracle.to_json(), note=(
        "Generated by `python3 benchmarks/e2e/run.py --regen-expected`: "
        "cycles and sha256 of the telemetry-stripped RunResult.to_dict() "
        "(sorted-key JSON) per request, and sha256 of the sorted lines of "
        "the rendered evaluate output without its timing footer."))
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(oracle.runs)} runs and {len(oracle.sweeps)} sweep(s) "
          f"to {workloads.EXPECTED_PATH}")
    return 0


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return text == "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(workloads.WORKLOADS), metavar="NAME",
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the time-bounded phases")
    parser.add_argument("--trace", nargs="?", type=_trace_flag, const=True,
                        default=False,
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and trace files")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected.json with the reference engine")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.regen_expected:
        return regen_expected(out_dir)
    if not workloads.EXPECTED_PATH.is_file():
        print(f"e2e: missing oracle {workloads.EXPECTED_PATH}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(f"stopped by signal {signum}"))
    machine = machine_record()
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    names = args.workload or list(workloads.WORKLOADS)
    results = []
    for name in dict.fromkeys(names):
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  out_dir)
        except WorkloadError as exc:
            print(f"e2e: {exc}", file=sys.stderr)
            return 1
        result["machine"] = machine
        suffix = ".traced" if args.trace else ""
        with open(out_dir / f"{name}.seed{args.seed}{suffix}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for metric, value in sorted(result["diagnostics"].items()):
            print(f"{name} {metric} {value:.6g} (diagnostic)")
        for error in result["errors"]:
            print(f"{name} FAILED: {error}", file=sys.stderr)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
