"""Fault-injection and keying tests for the persistent fragment store.

The store must *never* make a run incorrect or crash it: truncated
files, garbage JSON, stale format versions, entries filed under another
key, racing writers and a cache root that cannot be written all degrade
to a miss or a skipped write (``fragstore.corrupt`` / ``fragstore.race``
/ ``fragstore.write_error``), and the caller keeps or recomputes its
translation — with no cycle-count or run-key drift versus running
without the store at all (the differential suite's
``test_store_does_not_drift_cycles`` covers the end-to-end half).
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.scalarize import build_liquid_program
from repro.core.translate.translator import TranslatorConfig
from repro.evaluation.crosswidth import (
    retranslate_at_width,
    translate_at_width,
)
from repro.evaluation.runcache import (
    CACHE_FORMAT_VERSION,
    FragmentStore,
    RunCache,
    encode_entry,
    fragment_key,
    translator_config_fingerprint,
)
from repro.kernels.suite import build_kernel
from repro.observability import telemetry
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig

CFG = TranslatorConfig(width=4)


def _store(tmp_path) -> FragmentStore:
    return FragmentStore(tmp_path / "fragments")


def _payload(tag="x") -> dict:
    return {"function": tag, "ok": True}


def _entry_count(store: FragmentStore) -> int:
    return sum(1 for _ in store.backend.entry_paths())


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def test_key_is_stable_and_sensitive():
    base = fragment_key(b"frag", 4, 8, CFG, function="f")
    assert base == fragment_key(b"frag", 4, 8, CFG, function="f")
    assert base != fragment_key(b"frag2", 4, 8, CFG, function="f")
    assert base != fragment_key(b"frag", 2, 8, CFG, function="f")
    assert base != fragment_key(b"frag", 4, 16, CFG, function="f")
    assert base != fragment_key(b"frag", 4, 8, CFG, function="g")
    narrower = TranslatorConfig(
        width=4, supported_vector_ops=frozenset({"vld", "vst"}))
    assert base != fragment_key(b"frag", 4, 8, narrower, function="f")


def test_key_is_versioned_by_cache_format_version():
    """Fragment keys carry the run cache's format version, so the bump
    that the golden-results test demands on result drift also orphans
    every stored fragment."""
    base = fragment_key(b"frag", 4, 8, CFG, function="f")
    assert base == fragment_key(b"frag", 4, 8, CFG, function="f",
                                format_version=CACHE_FORMAT_VERSION)
    assert base != fragment_key(b"frag", 4, 8, CFG, function="f",
                                format_version=CACHE_FORMAT_VERSION + 1)


def test_fingerprint_excludes_width():
    """One fingerprint describes a generation across hardware widths."""
    assert translator_config_fingerprint(TranslatorConfig(width=2)) == \
        translator_config_fingerprint(TranslatorConfig(width=16))


def test_round_trip(tmp_path):
    store = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    assert store.load(key, dict) is None
    store.store(key, _payload())
    assert store.load(key, dict) == _payload()
    assert store.stats.hits == 1 and store.stats.misses == 1
    # The entry is the run cache's envelope, byte for byte.
    assert store.backend.load(key) == encode_entry(key, _payload())
    assert _entry_count(store) == 1
    assert store.backend.clear() == 1
    assert store.load(key, dict) is None


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corruption",
                         ["truncate", "garbage", "version", "other-key"])
def test_corrupt_entries_fall_back_to_miss(tmp_path, corruption):
    store = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    path = store.backend.path_for(key)
    if corruption == "other-key":
        # A well-formed entry copied into another key's slot.
        other = fragment_key(b"other", 4, 8, CFG)
        store.store(other, _payload())
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(store.backend.path_for(other), path)
    else:
        store.store(key, _payload())
    if corruption == "truncate":
        path.write_text(path.read_text()[:10], encoding="utf-8")
    elif corruption == "garbage":
        path.write_text("{not json", encoding="utf-8")
    elif corruption == "version":
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")

    tel = telemetry.enable()
    try:
        assert store.load(key, dict) is None
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()
    assert counters.get("fragstore.corrupt") == 1
    assert counters.get("fragstore.miss") == 1
    assert store.stats.errors == 1
    # The bad entry was deleted so the rewrite is a clean store.
    assert not path.exists()
    store.store(key, _payload())
    assert store.load(key, dict) == _payload()


def test_concurrent_writer_loses_race_gracefully(tmp_path):
    """Two processes storing the same key: first wins, second is a race.

    Translation is deterministic, so the loser's payload is identical
    byte-for-byte and skipping the write is correct, not lossy.
    """
    a = _store(tmp_path)
    b = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    a.store(key, _payload())
    tel = telemetry.enable()
    try:
        b.store(key, _payload())
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()
    assert counters.get("fragstore.race") == 1
    assert "fragstore.store" not in counters
    assert b.stats.races == 1 and b.stats.stores == 0
    assert a.load(key, dict) == _payload()
    assert _entry_count(a) == 1


def test_unwritable_root_fails_open(tmp_path):
    """A cache root that is a regular file loses the entries, not the
    translations: both store-backed sweeps return what a store-free
    sweep returns, and every refused write is counted."""
    root = tmp_path / "not-a-directory"
    root.write_text("", encoding="utf-8")
    store = FragmentStore.default(root)
    program = build_liquid_program(build_kernel("FIR"))
    config = MachineConfig(accelerator=config_for_width(4), engine="fast")
    target_tcfg = MachineConfig(
        accelerator=config_for_width(8)).translator_config()

    def sweep(store):
        translations = translate_at_width(program, config, store)
        entries = [t.entry for t in translations.values()
                   if t.ok and t.entry is not None]
        retranslations = retranslate_at_width(entries, 8, target_tcfg, store)
        return ({fn: t.to_dict() for fn, t in translations.items()},
                {fn: r.to_dict() for fn, r in retranslations.items()})

    tel = telemetry.enable()
    try:
        translations, retranslations = sweep(store)
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()
    assert (translations, retranslations) == sweep(None)
    assert retranslations and all(r["ok"] for r in retranslations.values())
    writes = len(translations) + len(retranslations)
    assert store.stats.errors == counters["fragstore.write_error"] == writes
    assert store.stats.stores == 0 and "fragstore.store" not in counters


# ---------------------------------------------------------------------------
# Coexistence with the run cache
# ---------------------------------------------------------------------------

def test_store_is_invisible_to_run_cache(tmp_path):
    """Both caches share a root; neither sees the other's entries."""
    run_cache = RunCache(tmp_path)
    store = FragmentStore.default(tmp_path)
    assert store.backend.root == tmp_path / "fragments"
    store.store(fragment_key(b"frag", 4, 8, CFG), _payload())
    assert run_cache.entry_count() == 0
    assert run_cache.clear() == 0
    assert _entry_count(store) == 1


def _assert_scout_rerun_recovers(tmp_path, corrupt) -> None:
    """Corrupt every stored FIR translation with *corrupt*, then require
    a second sweep to count each as corrupt and reproduce the cold
    sweep's results (and so re-store the same bytes)."""
    store = _store(tmp_path)
    program = build_liquid_program(build_kernel("FIR"))
    config = MachineConfig(accelerator=config_for_width(4), engine="fast")
    cold = translate_at_width(program, config, store)
    for path in store.backend.entry_paths():
        corrupt(path)
    recovered = translate_at_width(program, config, store)
    assert {fn: t.to_dict() for fn, t in recovered.items()} == \
        {fn: t.to_dict() for fn, t in cold.items()}
    assert store.stats.errors == len(cold)


def test_corrupt_store_entry_does_not_change_outcome(tmp_path):
    """A corrupted translation entry degrades to a scout re-run whose
    results (and re-stored bytes) are identical to the cold path."""
    _assert_scout_rerun_recovers(
        tmp_path,
        lambda path: path.write_text("{truncated", encoding="utf-8"))


def test_undecodable_store_entry_does_not_change_outcome(tmp_path):
    """A sound envelope around a result ``TranslationResult.from_dict``
    cannot read is refused like a corrupt entry, as ``RunCache.load``
    refuses one ``RunResult.from_dict`` cannot read."""
    _assert_scout_rerun_recovers(
        tmp_path,
        lambda path: path.write_bytes(
            encode_entry(path.stem, {"function": "f"})))
