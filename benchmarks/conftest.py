"""Shared state for the benchmark harness.

One :class:`EvalContext` serves the session.  Each experiment reads its
own declared runs through the context's :class:`RunScheduler`, whose
memo keeps every result, so experiments that need the same simulations
(Figure 6, Table 6, the overhead callout) share them across benchmark
modules instead of re-simulating.  The scheduler is backed by the
persistent run cache (docs/evaluation-runner.md), so a benchmark
session that follows an ``evaluate --all`` — or a previous benchmark
session — skips those simulations entirely; set ``REPRO_CACHE_DIR`` to
relocate the cache or ``REPRO_JOBS`` to bound worker processes.

The ``*_bench_records`` fixtures collect timing records (filled in by
``test_engine_speedup.py``, ``test_parallel_speedup.py``, the
fragment-store sweep in ``test_ucode_cache_ablation.py`` and
``test_shard_speedup.py``) and write them through one shared
:func:`write_bench_json` at session teardown, so
successive runs leave machine-readable ``BENCH_*.json`` records with a
common schema::

    {
      "machine":  {platform, python, cpu_count, processor},
      "records":  {<record name>: {...timings...}, ...},
      "speedups": {<record name>: <derived speedup>, ...}
    }
"""

import json
import os
import platform
import sys
from pathlib import Path

import pytest

from repro.evaluation.experiments import EvalContext
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import RunScheduler

_BENCH_DIR = Path(__file__).resolve().parent
ENGINE_BENCH_PATH = _BENCH_DIR / "BENCH_engine.json"
PARALLEL_BENCH_PATH = _BENCH_DIR / "BENCH_parallel.json"
FRAGSTORE_BENCH_PATH = _BENCH_DIR / "BENCH_fragstore.json"
SHARD_BENCH_PATH = _BENCH_DIR / "BENCH_shard.json"


def _bench_jobs():
    env = os.environ.get("REPRO_JOBS")
    return int(env) if env else None  # None -> os.cpu_count()


def machine_info() -> dict:
    """Hardware/software context a timing record is meaningless without."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
    }


def write_bench_json(path: Path, records: dict) -> None:
    """Write one BENCH_*.json: machine info, timings, derived speedups."""
    payload = {
        "machine": machine_info(),
        "records": records,
        "speedups": {
            name: record["speedup"]
            for name, record in records.items()
            if isinstance(record, dict) and "speedup" in record
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def ctx() -> EvalContext:
    """One evaluation context (all fifteen benchmarks) per session."""
    scheduler = RunScheduler(jobs=_bench_jobs(), cache=RunCache.default())
    return EvalContext(scheduler=scheduler)


def _records_fixture(path: Path):
    records = {}
    yield records
    if records:
        write_bench_json(path, records)


@pytest.fixture(scope="session")
def engine_bench_records():
    """Mutable dict of engine-timing records, dumped as BENCH_engine.json."""
    yield from _records_fixture(ENGINE_BENCH_PATH)


@pytest.fixture(scope="session")
def parallel_bench_records():
    """Scheduler/cache timing records, dumped as BENCH_parallel.json."""
    yield from _records_fixture(PARALLEL_BENCH_PATH)


@pytest.fixture(scope="session")
def fragstore_bench_records():
    """Fragment-store warm-over-cold record, dumped as BENCH_fragstore.json."""
    yield from _records_fixture(FRAGSTORE_BENCH_PATH)


@pytest.fixture(scope="session")
def shard_bench_records():
    """Sharded/incremental sweep records, dumped as BENCH_shard.json."""
    yield from _records_fixture(SHARD_BENCH_PATH)
