"""``python -m repro`` — command-line front end.

Subcommands:

* ``evaluate``  — regenerate the paper's tables/figures
  (thin wrapper over :mod:`repro.evaluation`); same flags as
  ``examples/run_evaluation.py``.
* ``list``      — list the benchmark suite.
* ``run NAME``  — run one benchmark across the width sweep and print its
  Figure 6 row plus translation outcomes.
* ``cache``     — inspect (``cache info``), empty (``cache clear``), or
  share over HTTP (``cache serve``) the persistent run cache *and*
  fragment store (docs/evaluation-runner.md, docs/retranslation.md).
  ``info``/``clear`` take ``--cache-url`` to address a running server
  instead of a local directory; ``cache serve`` is ``serve`` over one
  cache directory on port 8742.
* ``sweep``     — run (one shard of) the paper-figure sweep through the
  run cache and write a JSON manifest; ``--shard K/N`` executes a
  disjoint hash-slice against a shared backend, ``--incremental``
  simulates only cache misses, and ``--merge`` verifies and combines
  shard manifests (docs/evaluation-runner.md).
* ``serve``     — run the simulation farm: an async HTTP service where
  clients POST (benchmark, program_kind, width, engine) jobs to
  ``/v1/runs``; warm requests answer from the run cache in O(1),
  identical in-flight requests coalesce onto one machine-run, and
  distinct cold runs fan out over a bounded worker pool.  The same
  server answers the run-cache protocol ``--cache-url`` clients speak
  (docs/serving.md).
* ``retranslate`` — re-lower one benchmark's translated fragments to
  another SIMD width and print the cross-width differential verdict
  (docs/retranslation.md).
* ``telemetry`` — run one benchmark with the observability registry
  enabled and dump its counters/histograms/spans
  (docs/observability.md), as text or ``--json``.
* ``codegen``   — lift one benchmark's translated fragments into the
  shared codegen IR (docs/codegen.md) and print the per-fragment
  shape-recognition table (recognized loop/chain shapes, IR node
  kinds, recognition counters).
* ``bench``     — ``bench compare OLD.json NEW.json`` diffs two
  benchmark payloads (the ``BENCH_*.json`` files benchmarks/ writes)
  and exits nonzero on speedup regressions beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.scalarize import (
    build_baseline_program,
    build_liquid_program,
    check_width,
)
from repro.evaluation import DEFAULT_WIDTHS, EvalContext, figure6_requests
from repro.evaluation.cli import FAST_SUBSET, positive_int
from repro.interp.executor import ENGINES
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.metrics import arrays_equal


def _width(text: str) -> int:
    """argparse ``type=`` of every width flag: :func:`check_width` on
    the flag's integer, refused as a usage error."""
    try:
        return check_width(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_list(_args) -> int:
    print("benchmark suite (paper order):")
    for name in BENCHMARK_ORDER:
        kernel = build_kernel(name)
        loops = ", ".join(s.name for s in kernel.simd_loops)
        print(f"  {name:<14} {kernel.description}")
        print(f"  {'':<14} hot loops: {loops}")
    return 0


def _cmd_run(args) -> int:
    name = args.benchmark
    ctx = EvalContext([name])
    runs = ctx.results(figure6_requests(ctx, args.widths))
    base = runs[(name, "baseline")]
    print(f"{name}: baseline {base.cycles:,} cycles")
    print(f"{'width':<8}{'cycles':>12}{'speedup':>9}{'translations':>14}"
          f"{'results':>9}")
    for width in args.widths:
        run = runs[(name, width)]
        ok = sum(1 for t in run.translations if t.ok)
        bad = sum(1 for t in run.translations if not t.ok)
        match = "match" if arrays_equal(base, run) else "DIVERGED"
        print(f"{width:<8}{run.cycles:>12,}{run.speedup_over(base):>9.2f}"
              f"{f'{ok} ok / {bad} abort':>14}{match:>9}")
        for t in run.translations:
            if not t.ok:
                print(f"         {t.function}: {t.reason.value}")
    return 0


def _cmd_cache(args) -> int:
    from repro.evaluation.runcache import FragmentStore, RunCache

    if args.action == "serve":
        # The local directory, even when $REPRO_CACHE_URL is set: a
        # server whose backend is its own URL would call itself.
        from repro.evaluation.runcache import default_cache_dir
        return _serve(RunCache(args.cache_dir or default_cache_dir()),
                      args.host, args.port, jobs=None)

    cache = RunCache.default(args.cache_dir, cache_url=args.cache_url)
    backend = cache.describe()
    remote = backend["backend"] != "local"
    # The fragment store is directory-backed only; with a --cache-url
    # there is no local directory to pair it with.
    fragments = (None if remote
                 else FragmentStore.default(args.cache_dir).backend)

    if args.action == "clear":
        removed = cache.clear()
        frag_note = ""
        if fragments is not None:
            frag_removed = fragments.clear()
            frag_note = (f" and {frag_removed} "
                         f"fragment{'s' if frag_removed != 1 else ''}")
        print(f"cleared {removed} cached run{'s' if removed != 1 else ''}"
              f"{frag_note} from {backend['location']}")
        return 0

    kind = ("http (repro cache serve)" if remote else "local directory")
    print(f"run cache backend: {kind}")
    print(f"  location  {backend['location']}")
    if remote:
        status = "reachable" if backend["reachable"] else "unreachable"
        print(f"  status    {status}")
        if not backend["reachable"]:
            return 1
    print(f"  entries   {cache.entry_count()}")
    print(f"  size      {cache.size_bytes() / 1024:.1f} KB")
    if fragments is not None:
        paths = list(fragments.entry_paths())
        size = sum(path.stat().st_size for path in paths)
        print(f"fragment store at {fragments.root}")
        print(f"  entries   {len(paths)}")
        print(f"  size      {size / 1024:.1f} KB")
    return 0


def _sweep_scheduler(args):
    """The scheduler one sweep invocation runs against."""
    from repro.evaluation.runcache import RunCache
    from repro.evaluation.runner import RunScheduler
    cache = None
    if not args.no_cache:
        cache = RunCache.default(args.cache_dir, cache_url=args.cache_url)
    return RunScheduler(jobs=args.jobs, cache=cache)


def _cmd_sweep(args) -> int:
    import json
    from pathlib import Path

    from repro.evaluation.shard import (
        SweepError,
        merge_sweeps,
        parse_shard_spec,
        run_sweep,
    )

    try:
        if args.merge:
            manifests = []
            for path in args.merge:
                try:
                    manifests.append(json.loads(
                        Path(path).read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    print(f"sweep merge: {path}: {exc}", file=sys.stderr)
                    return 2
            manifest = merge_sweeps(manifests)
        else:
            benchmarks = args.benchmarks or FAST_SUBSET
            shard = (parse_shard_spec(args.shard)
                     if args.shard is not None else None)
            scheduler = _sweep_scheduler(args)
            manifest = run_sweep(benchmarks, tuple(args.widths),
                                 engine=args.engine, scheduler=scheduler,
                                 shard=shard,
                                 incremental=args.incremental)
    except SweepError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1

    if args.out:
        Path(args.out).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    sweep = manifest["sweep"]
    stats = manifest["stats"]
    coverage = manifest["coverage"]
    widths = ", ".join(str(w) for w in sweep["widths"])
    print(f"sweep: {len(sweep['benchmarks'])} benchmark(s) x "
          f"widths ({widths}) + baselines = "
          f"{coverage['total_requests']} runs (engine {sweep['engine']})")
    if args.merge:
        print(f"merged {stats['shards_merged']} shard manifest(s): "
              f"coverage OK, {stats['machine_runs']} machine-runs total, "
              f"no duplicates")
    else:
        backend = manifest["backend"]
        if sweep["shard"]:
            print(f"shard {sweep['shard']}: {coverage['selected']} of "
                  f"{coverage['total_requests']} keys")
        print(f"backend: {backend['backend']} at "
              f"{backend.get('location', '-')}")
        probe = (f", probe round-trips {stats['probe_calls']}"
                 if "probe_calls" in stats else "")
        mode = "incremental: " if sweep["incremental"] else ""
        print(f"{mode}simulated {stats['machine_runs']}, "
              f"warm {stats['cache_hits']}{probe}, "
              f"{stats['wall_seconds']:.2f}s")
    if manifest.get("speedups"):
        speedups = manifest["speedups"]
        mean = sum(speedups.values()) / len(speedups)
        print(f"speedups: {len(speedups)} records, mean {mean:.2f}x "
              f"(gate with `repro bench compare OLD NEW`)")
    if args.out:
        print(f"wrote manifest to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    from repro.evaluation.runcache import RunCache

    cache = (None if args.no_cache
             else RunCache.default(args.cache_dir, cache_url=args.cache_url))
    return _serve(cache, args.host, args.port, args.jobs)


def _serve(cache, host: str, port: int, jobs) -> int:
    """Run the farm until Ctrl-C or SIGTERM (``serve``, ``cache serve``)."""
    import signal
    import time

    from repro.evaluation.simserver import SimServer

    server = SimServer(host=host, port=port, jobs=jobs, cache=cache)
    server.start()
    backend = "no cache (every request simulates)" if cache is None \
        else cache.describe()["location"]
    print(f"serving simulations at {server.url} "
          f"({server.jobs} worker{'s' if server.jobs != 1 else ''}, "
          f"cache: {backend}; Ctrl-C to stop)")
    # SIGTERM takes the Ctrl-C path: shutdown() stops the pool workers,
    # which would otherwise outlive us holding the listening socket.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_retranslate(args) -> int:
    import json

    from repro.evaluation.crosswidth import crosswidth_differential
    from repro.evaluation.runcache import FragmentStore

    store = None if args.no_cache else FragmentStore.default(args.cache_dir)
    report = crosswidth_differential(args.benchmark, args.from_width,
                                     args.to_width, store=store)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    print(f"{args.benchmark}: retranslate w{args.from_width} -> "
          f"w{args.to_width}")
    for function, info in sorted(report["functions"].items()):
        if not info["source_ok"]:
            status = f"source abort ({info['source_reason']})"
        elif info["retranslate_ok"]:
            status = "retranslated"
        else:
            status = f"rejected ({info['retranslate_reason']})"
        print(f"  {function:<24} {status}")
    print(f"{'engine':<12}{'fresh cycles':>14}{'retr cycles':>14}"
          f"{'arrays':>9}{'vs ref':>8}{'ucode':>7}")
    for engine, row in report["engines"].items():
        print(f"{engine:<12}{row['cycles_fresh']:>14,}"
              f"{row['cycles_retranslated']:>14,}"
              f"{'match' if row['arrays_match_fresh'] else 'DIVERGE':>9}"
              f"{'match' if row['arrays_match_reference'] else 'DIVERGE':>8}"
              f"{'ran' if row['microcode_ran'] else 'NO':>7}")
    print("verdict: " + ("OK" if report["ok"] else "DIVERGED"))
    return 0 if report["ok"] else 1


def _cmd_telemetry(args) -> int:
    import json

    from repro.observability import telemetry

    kernel = build_kernel(args.benchmark)
    program = (build_baseline_program(kernel) if args.program == "baseline"
               else build_liquid_program(kernel))
    accelerator = (config_for_width(args.width) if args.program == "liquid"
                   else None)
    config = MachineConfig(accelerator=accelerator, engine=args.engine)
    tel = telemetry.enable()
    try:
        result = Machine(config).run(program)
    finally:
        telemetry.disable()
    if args.json:
        payload = tel.to_dict()
        payload["run"] = {
            "program": result.program,
            "config": result.config,
            "engine": args.engine,
            "cycles": result.cycles,
            "telemetry": result.telemetry,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{result.program} on {result.config} ({args.engine}): "
              f"{result.cycles:,} cycles in "
              f"{result.telemetry['wall_seconds']:.3f}s")
        print(tel.render_text())
    return 0


def _cmd_codegen(args) -> int:
    import json

    from repro.codegen.ir import LoopNode
    from repro.observability import telemetry

    kernel = build_kernel(args.benchmark)
    program = build_liquid_program(kernel)
    config = MachineConfig(accelerator=config_for_width(args.width))
    result = Machine(config).run(program)
    entries = [t.entry for t in result.translations
               if t.ok and t.entry is not None]
    tel = telemetry.enable()
    try:
        rows = []
        for entry in entries:
            ir = entry.lift_ir()
            shapes = []
            for head in sorted(ir.loops):
                node = ir.loops[head]
                kind = "nested-loop" if node.inner is not None \
                    else "canonical-loop"
                shapes.append({"head": head, "shape": kind,
                               "trip": node.trip, "step": node.step})
            chain = None
            if ir.chain is not None:
                loops = [r for r in ir.chain.regions
                         if isinstance(r, LoopNode)]
                chain = {"regions": len(ir.chain.regions),
                         "loops": len(loops),
                         "fission": len(loops) >= 2,
                         "retired": ir.chain.total_retired}
            rows.append({"function": entry.function,
                         "width": entry.width,
                         "instructions": len(entry.fragment.instructions),
                         "node_kinds": sorted(k.name
                                              for k in ir.node_kinds()),
                         "loops": shapes, "chain": chain})
    finally:
        telemetry.disable()
    counters = {name: value
                for name, value in tel.to_dict().get("counters", {}).items()
                if name.startswith("macro.plan.")}
    if args.json:
        print(json.dumps({"benchmark": args.benchmark, "width": args.width,
                          "fragments": rows, "counters": counters},
                         indent=2, sort_keys=True))
        return 0
    print(f"{args.benchmark} @ width {args.width}: "
          f"{len(rows)} translated fragment(s)")
    for row in rows:
        print(f"  {row['function']} "
              f"({row['instructions']} instructions)")
        for shape in row["loops"]:
            print(f"    loop @ pc {shape['head']:<4} {shape['shape']:<15} "
                  f"trip {shape['trip']} step {shape['step']}")
        chain = row["chain"]
        if chain is not None:
            tag = "fission-chain" if chain["fission"] else "chain"
            print(f"    whole-fragment {tag}: {chain['regions']} regions, "
                  f"{chain['loops']} loop(s), "
                  f"{chain['retired']} retired/invocation")
        print(f"    IR nodes: {', '.join(row['node_kinds'])}")
    if counters:
        print("recognition counters:")
        for name in sorted(counters):
            print(f"  {name:<44} {counters[name]}")
    return 0


def _cmd_bench_compare(args) -> int:
    import json

    from repro.observability.benchdiff import (
        compare_files,
        render_comparison,
    )

    try:
        comparison = compare_files(args.old, args.new,
                                   tolerance=args.tolerance / 100.0)
    except (OSError, ValueError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "evaluate":
        # Delegate everything after the subcommand to the evaluation CLI,
        # which owns its own flags.
        from repro.evaluation.cli import run as eval_run
        return eval_run(argv[1:])

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    run_p = sub.add_parser("run", help="run one benchmark across widths")
    run_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    run_p.add_argument("--widths", nargs="*", type=_width,
                       default=DEFAULT_WIDTHS)

    sub.add_parser("evaluate", help="regenerate evaluation artifacts "
                                    "(see `repro evaluate --help`)")

    cache_p = sub.add_parser("cache", help="inspect, clear, or serve the "
                                           "persistent run cache")
    cache_p.add_argument("action", choices=("info", "clear", "serve"),
                         help="'info' prints backend, entry count, and "
                              "size; 'clear' deletes every cached run; "
                              "'serve' runs `repro serve` over the cache "
                              "directory, sharing it with --cache-url "
                              "clients")
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro-liquid-simd)")
    cache_p.add_argument("--cache-url", default=None, metavar="URL",
                         help="address a running `repro serve` or "
                              "`repro cache serve` server instead of a "
                              "local directory (default: "
                              "$REPRO_CACHE_URL; info/clear only)")
    cache_p.add_argument("--host", default="127.0.0.1",
                         help="serve: bind address (default: 127.0.0.1)")
    cache_p.add_argument("--port", type=int, default=8742,
                         help="serve: port, 0 for ephemeral "
                              "(default: 8742)")

    sweep_p = sub.add_parser(
        "sweep",
        help="run (one shard of) the paper-figure sweep through the run "
             "cache and write a JSON manifest; --merge verifies and "
             "combines shard manifests")
    sweep_p.add_argument("--benchmarks", nargs="*", default=None,
                         metavar="NAME", choices=BENCHMARK_ORDER,
                         help="benchmarks to sweep (default: the fast "
                              "evaluation subset)")
    sweep_p.add_argument("--widths", nargs="*", type=_width,
                         default=DEFAULT_WIDTHS,
                         help="SIMD widths to sweep (default: "
                              f"{' '.join(map(str, DEFAULT_WIDTHS))})")
    sweep_p.add_argument("--engine", default="fast", choices=ENGINES,
                         help="execution engine (default: fast)")
    sweep_p.add_argument("--jobs", type=positive_int, metavar="N",
                         help="worker processes (default: cpu count)")
    sweep_p.add_argument("--shard", default=None, metavar="K/N",
                         help="execute only this sweep's K-th of N "
                              "disjoint hash-slices (requires a cache)")
    sweep_p.add_argument("--incremental", action="store_true",
                         help="probe the cache for the whole sweep in one "
                              "round-trip and simulate only misses")
    sweep_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="run-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/"
                              "repro-liquid-simd)")
    sweep_p.add_argument("--cache-url", default=None, metavar="URL",
                         help="shared run-cache server to run against "
                              "(default: $REPRO_CACHE_URL)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="bypass the run cache (incompatible with "
                              "--shard/--incremental)")
    sweep_p.add_argument("--merge", nargs="+", default=None,
                         metavar="MANIFEST",
                         help="instead of running: verify and merge these "
                              "shard manifest files")
    sweep_p.add_argument("--out", default=None, metavar="FILE",
                         help="write the manifest JSON to FILE")
    sweep_p.add_argument("--json", action="store_true",
                         help="print the manifest as JSON instead of a "
                              "summary")

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation farm: POST (benchmark, program_kind, "
             "width, engine) jobs to /v1/runs; warm hits answer from "
             "the run cache, identical in-flight requests coalesce, "
             "cold runs fan out over a bounded worker pool")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8979,
                         help="port, 0 for ephemeral (default: 8979)")
    serve_p.add_argument("--jobs", type=positive_int, metavar="N",
                         help="simulation worker processes "
                              "(default: cpu count)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="run-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/"
                              "repro-liquid-simd)")
    serve_p.add_argument("--cache-url", default=None, metavar="URL",
                         help="answer warm hits from another server's "
                              "run cache instead of a local directory "
                              "(default: $REPRO_CACHE_URL)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without a persistent cache "
                              "(every distinct request simulates)")

    retr_p = sub.add_parser(
        "retranslate",
        help="re-lower one benchmark's fragments to another width and "
             "print the cross-width differential verdict")
    retr_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    retr_p.add_argument("--from-width", type=_width, default=4, metavar="W",
                        help="source translation width (default: 4)")
    retr_p.add_argument("--to-width", type=_width, default=None, metavar="T",
                        help="target width (default: 2*W)")
    retr_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="fragment-store directory root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/"
                             "repro-liquid-simd)")
    retr_p.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent fragment store")
    retr_p.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")

    tel_p = sub.add_parser(
        "telemetry",
        help="run one benchmark with telemetry enabled and dump the "
             "counter/histogram/span registry")
    tel_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    tel_p.add_argument("--width", type=_width, default=8,
                       help="accelerator width (default: 8)")
    tel_p.add_argument("--engine", default="fast", choices=ENGINES,
                       help="execution engine (default: fast)")
    tel_p.add_argument("--program", choices=("liquid", "baseline"),
                       default="liquid",
                       help="program form to run (default: liquid)")
    tel_p.add_argument("--json", action="store_true",
                       help="emit the registry as JSON instead of text")

    cg_p = sub.add_parser(
        "codegen",
        help="lift one benchmark's translated fragments into codegen IR "
             "and print the per-fragment shape-recognition table")
    cg_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    cg_p.add_argument("--width", type=_width, default=8,
                      help="accelerator width (default: 8)")
    cg_p.add_argument("--json", action="store_true",
                      help="emit the table as JSON instead of text")

    bench_p = sub.add_parser(
        "bench", help="benchmark payload utilities (bench compare)")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    cmp_p = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json payloads; exit 1 on speedup "
             "regressions beyond --tolerance, 2 on unreadable input")
    cmp_p.add_argument("old", help="baseline payload (BENCH_*.json)")
    cmp_p.add_argument("new", help="candidate payload (BENCH_*.json)")
    cmp_p.add_argument("--tolerance", type=float, default=10.0,
                       metavar="PCT",
                       help="allowed speedup drop in percent "
                            "(default: 10)")
    cmp_p.add_argument("--json", action="store_true",
                       help="emit the comparison as JSON instead of text")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "retranslate":
        if args.to_width is None:
            try:
                args.to_width = check_width(2 * args.from_width)
            except ValueError as exc:
                retr_p.error(f"--to-width defaults to 2*W: {exc}")
        return _cmd_retranslate(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "bench":
        return _cmd_bench_compare(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
