"""Persistent content-addressed cache of machine runs.

Simulations are pure functions of (program, machine configuration), so
their results can be cached across processes: a second ``evaluate``
invocation — or the benchmarks/ suite after an ``evaluate --all`` —
skips simulation entirely on hits.  Entries are addressed by the
SHA-256 of

* the canonical program bytes (:func:`repro.isa.encoding.encode_program`,
  a fully reversible serialization, so two structurally identical
  programs share a key no matter how they were built),
* a canonical JSON rendering of every result-relevant
  :class:`~repro.system.machine.MachineConfig` field
  (:func:`config_fingerprint`),
* :data:`CACHE_FORMAT_VERSION`.

The execution engine is deliberately **not** part of the key: the
engines are bit-identical by contract (the differential conformance
suite enforces it), so a result simulated under any engine is valid for
all of them and cache entries are shared across engines.

Invalidation therefore never needs timestamps: change the program or
any config knob and the key changes; change what a simulation *means*
(timing model, translator semantics, serialization layout) and
``CACHE_FORMAT_VERSION`` must be bumped, which orphans every old entry.
Orphaned and corrupted entries are simply misses — the scheduler falls
back to re-simulation and overwrites them.

Storage is pluggable: :class:`RunCache` handles keys, (de)serialization
and corruption fall-back, and delegates raw byte storage to a
:class:`CacheBackend` —

* :class:`LocalDirectoryBackend` (the default) keeps two-level sharded
  JSON files under ``~/.cache/repro-liquid-simd/`` (overridable with
  ``--cache-dir`` or ``REPRO_CACHE_DIR``);
* :class:`~repro.evaluation.cacheserver.HTTPCacheBackend` talks to a
  ``repro serve`` farm (``--cache-url`` / ``REPRO_CACHE_URL``) so many
  worker processes or hosts share one result store.

Both backends answer each other's entries byte-identically: the server
stores the exact payload bytes the local backend writes, under the same
key.  See ``docs/evaluation-runner.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Protocol, Set, Union

from repro.isa.encoding import encode_program
from repro.isa.program import Program
from repro.observability import telemetry as _telemetry
from repro.system.machine import MachineConfig
from repro.system.metrics import RunResult

#: Bump whenever simulation or translation semantics or the RunResult
#: wire format change in a way that makes old cached results wrong or
#: unreadable.  It versions run entries in their keys and in their
#: stored envelope.
#: 2: keys became engine-invariant (entries shared across engines).
CACHE_FORMAT_VERSION = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable selecting a shared ``repro serve`` farm's cache
#: (e.g. ``http://127.0.0.1:8742``); takes precedence over the local
#: directory when set.
CACHE_URL_ENV = "REPRO_CACHE_URL"

_DEFAULT_SUBDIR = Path(".cache") / "repro-liquid-simd"

#: What :func:`decode_entry` and ``RunResult.from_dict`` raise on an
#: entry that cannot be used.
_ENTRY_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def default_cache_dir() -> Path:
    """Resolution order: ``REPRO_CACHE_DIR`` env var, then ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / _DEFAULT_SUBDIR


def config_fingerprint(config: MachineConfig) -> dict:
    """Canonical JSON-safe dict of every result-relevant config field.

    Display-only fields (``AcceleratorConfig.name``) are excluded so a
    renamed generation still hits; everything that can change a
    simulation outcome — widths, repertoires, latencies, cache
    geometries, translator knobs — is included.
    """
    accel = None
    if config.accelerator is not None:
        a = config.accelerator
        accel = {
            "width": a.width,
            "permutations": [p.name for p in a.permutations],
            "vector_ops": sorted(a.vector_ops),
            "supports_saturation": a.supports_saturation,
        }

    def cache_cfg(c) -> dict:
        return {
            "size_bytes": c.size_bytes,
            "assoc": c.assoc,
            "line_bytes": c.line_bytes,
            "hit_latency": c.hit_latency,
            "miss_penalty": c.miss_penalty,
        }

    pipe = config.pipeline
    return {
        "accelerator": accel,
        "pipeline": {
            "icache": cache_cfg(pipe.icache),
            "dcache": cache_cfg(pipe.dcache),
            "mispredict_penalty": pipe.mispredict_penalty,
            "call_redirect_penalty": pipe.call_redirect_penalty,
            "pipeline_depth": pipe.pipeline_depth,
            "code_base": pipe.code_base,
        },
        "translation_enabled": config.translation_enabled,
        "ucode_cache_entries": config.ucode_cache_entries,
        "max_ucode_instructions": config.max_ucode_instructions,
        "translation_cycles_per_instruction":
            config.translation_cycles_per_instruction,
        "collapse_offset_loads": config.collapse_offset_loads,
        "const_immediates": config.const_immediates,
        "attempt_plain_bl": config.attempt_plain_bl,
        "pretranslate": config.pretranslate,
        "interrupt_interval": config.interrupt_interval,
        "translation_mode": config.translation_mode,
        "software_cycles_per_instruction":
            config.software_cycles_per_instruction,
        "observation_point": config.observation_point,
        "verify_translations": config.verify_translations,
        # config.engine is intentionally omitted: engines are
        # bit-identical, so results are engine-invariant.
        "mvl": config.mvl,
        "max_steps": config.max_steps,
    }


def run_key_for_bytes(encoded: bytes, config: MachineConfig,
                      format_version: int = CACHE_FORMAT_VERSION) -> str:
    """Content address of one simulation given pre-encoded program bytes.

    Splitting this out of :func:`run_key` lets the scheduler encode a
    program once per ``program_id`` and key many configs against the
    same bytes (a width sweep shares one program across every width).
    """
    h = hashlib.sha256(json.dumps(
        {"format_version": format_version,
         "config": config_fingerprint(config)},
        sort_keys=True, separators=(",", ":")).encode("utf-8"))
    h.update(b"\x00")
    h.update(encoded)
    return h.hexdigest()


def run_key(program: Program, config: MachineConfig,
            format_version: int = CACHE_FORMAT_VERSION) -> str:
    """Content address of one simulation: SHA-256 hex digest."""
    return run_key_for_bytes(encode_program(program), config, format_version)


def entry_payload(key: str, result: RunResult) -> bytes:
    """The canonical serialized cache entry for (*key*, *result*).

    This is exactly what every backend persists, so digesting these
    bytes (the sweep manifests in :mod:`repro.evaluation.shard` do)
    compares stored entries without re-reading them.  Telemetry is
    observational metadata about *how* a run was simulated, not part of
    the (engine-invariant, deterministic) result — it is stripped so
    telemetry-on and telemetry-off runs persist byte-identical entries
    under the same key.
    """
    wire = result.to_dict()
    wire.pop("telemetry", None)
    return encode_entry(key, wire)


def encode_entry(key: str, result: dict) -> bytes:
    """The stored bytes of one entry: ``{format_version, key, result}``
    as compact JSON."""
    return json.dumps(
        {"format_version": CACHE_FORMAT_VERSION, "key": key, "result": result},
        separators=(",", ":"),
    ).encode("utf-8")


def decode_entry(key: str, raw: bytes):
    """The ``result`` of the entry bytes *raw* read under *key*.

    Raises one of ``_ENTRY_ERRORS`` unless *raw* is an
    :func:`encode_entry` envelope of this :data:`CACHE_FORMAT_VERSION`
    stored under *key*: a truncated or hand-edited entry, a stale
    format, and an entry stored under another key (a bad
    ``PUT /runs/<key>``, a copied file) are all refused.
    """
    payload = json.loads(raw.decode("utf-8"))
    if payload.get("format_version") != CACHE_FORMAT_VERSION:
        raise ValueError("format version mismatch")
    if payload.get("key") != key:
        raise ValueError("entry stored under another key")
    return payload["result"]


class CacheBackend(Protocol):
    """Raw byte storage under content keys; shared by N processes/hosts.

    Implementations must be safe for concurrent writers of the *same*
    key: entries are outputs of deterministic simulations, so racing
    writers hold identical bytes and first-writer-wins (``store``
    returning False for the loser) is always correct.  Backends deal in
    opaque payload bytes — validation, corruption fall-back, and
    telemetry accounting live in :class:`RunCache`.
    """

    def load(self, key: str) -> Optional[bytes]:
        """Stored bytes for *key*, or None (absent or unreachable)."""
        ...

    def store(self, key: str, payload: bytes) -> bool:
        """Persist atomically; False when an entry already won the race
        (or, for remote backends, the store failed open)."""
        ...

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        """The subset of *keys* with stored entries, in one round-trip
        (one directory scan locally, one HTTP request remotely)."""
        ...

    def delete(self, key: str) -> None:
        """Best-effort removal (corrupt-entry fall-back); never raises."""
        ...

    def entry_paths(self) -> Iterator[Path]:
        """Paths of every entry, for maintenance; empty for remote
        backends, which report only counts via :meth:`describe`."""
        ...

    def describe(self) -> dict:
        """Backend type/location/health for ``repro cache info``."""
        ...

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        ...


class LocalDirectoryBackend:
    """Two-level sharded JSON files: ``<root>/<key[:2]>/<key>.json``.

    Writes are atomic (temp file + rename) and first-writer-wins, so
    concurrent writers — several ``evaluate`` processes or sweep shards
    sharing one directory — never expose partial entries, and a losing
    writer simply skips its (byte-identical) store.
    """

    kind = "local"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def store(self, key: str, payload: bytes) -> bool:
        path = self.path_for(key)
        if path.exists():
            # First writer wins: the result is deterministic, so the
            # existing entry already holds these bytes.
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            # link() is the atomic arbiter: unlike replace(), it fails
            # when the destination exists, so exactly one of N racing
            # writers (processes or server threads) observes a win.
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        # One listdir per touched two-hex-digit shard instead of a
        # stat() per key: a 15-benchmark width sweep touches at most
        # 256 shards however many keys it probes.
        by_shard: Dict[str, list] = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        present: Set[str] = set()
        for shard, shard_keys in by_shard.items():
            try:
                names = set(os.listdir(self.root / shard))
            except OSError:
                continue
            present.update(k for k in shard_keys if f"{k}.json" in names)
        return present

    def delete(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def describe(self) -> dict:
        return {"backend": self.kind, "location": str(self.root),
                "reachable": True}

    def clear(self) -> int:
        removed = 0
        for path in list(self.entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class RunCacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    races: int = 0   # store skipped because an entry already existed
    errors: int = 0  # corrupt or unreadable entries, and failed writes
    probe_calls: int = 0  # contains_many round-trips
    probed: int = 0       # keys covered by those round-trips


class RunCache:
    """Store of serialized :class:`RunResult`\\ s, keyed by content.

    Owns key semantics, (de)serialization, corruption fall-back, and
    telemetry; raw byte storage is delegated to a :class:`CacheBackend`
    (a local sharded directory by default, or an HTTP client against a
    ``repro serve`` farm).
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 backend: Optional[CacheBackend] = None) -> None:
        if backend is None:
            if root is None:
                raise ValueError("RunCache needs a root directory "
                                 "or an explicit backend")
            backend = LocalDirectoryBackend(root)
        self.backend = backend
        self.stats = RunCacheStats()

    @classmethod
    def default(cls, cache_dir: Optional[Union[str, Path]] = None,
                cache_url: Optional[str] = None) -> "RunCache":
        """Cache for the standard knobs, in precedence order:
        *cache_url*, ``$REPRO_CACHE_URL``, *cache_dir*,
        ``$REPRO_CACHE_DIR``, ``~/.cache``.
        """
        url = cache_url or os.environ.get(CACHE_URL_ENV)
        if url:
            from repro.evaluation.cacheserver import HTTPCacheBackend
            return cls(backend=HTTPCacheBackend(url))
        return cls(Path(cache_dir) if cache_dir else default_cache_dir())

    @property
    def root(self) -> Optional[Path]:
        """The local directory root, or None for remote backends."""
        return getattr(self.backend, "root", None)

    def path_for(self, key: str) -> Path:
        return self.backend.path_for(key)

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result for *key*, or None (miss / corrupt entry).

        A corrupted entry — truncated write from a killed process,
        hand-edited JSON, wrong format version, or an entry stored under
        another key (a bad ``PUT /runs/<key>``) — is deleted best-effort
        and reported as a miss so the scheduler re-simulates.
        """
        raw = self.backend.load(key)
        if raw is None:
            self.stats.misses += 1
            _telemetry.get().count("runcache.misses")
            return None
        try:
            result = RunResult.from_dict(decode_entry(key, raw))
        except _ENTRY_ERRORS:
            self.stats.errors += 1
            self.stats.misses += 1
            tel = _telemetry.get()
            tel.count("runcache.errors")
            tel.count("runcache.misses")
            self.backend.delete(key)
            return None
        self.stats.hits += 1
        _telemetry.get().count("runcache.hits")
        return result

    def store(self, key: str, result: RunResult) -> None:
        """Atomically persist *result* under *key* (first writer wins).

        A backend that cannot write — a full or read-only directory, a
        root that is a regular file — loses the entry, not the run: the
        ``OSError`` is counted under ``errors`` and not raised, so the
        caller still answers with the result it simulated.
        """
        try:
            stored = self.backend.store(key, entry_payload(key, result))
        except OSError:
            self.stats.errors += 1
            _telemetry.get().count("runcache.errors")
            return
        if stored:
            self.stats.stores += 1
            _telemetry.get().count("runcache.stores")
        else:
            self.stats.races += 1
            _telemetry.get().count("runcache.races")

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        """The subset of *keys* with entries, probed in one round-trip.

        The scheduler batch-probes a whole sweep through this before
        fanning out, instead of paying a per-key ``load`` probe;
        ``runcache.probe.batched`` counts the per-key round-trips that
        batching saved.
        """
        keys = list(keys)
        present = self.backend.contains_many(keys)
        self.stats.probe_calls += 1
        self.stats.probed += len(keys)
        if keys:
            tel = _telemetry.get()
            tel.count("runcache.probe.calls")
            tel.count("runcache.probe.batched", len(keys))
        return present

    def describe(self) -> dict:
        """Backend type, location, and health (``repro cache info``)."""
        return self.backend.describe()

    # -- maintenance (the ``repro cache`` subcommand) -------------------------

    def entry_paths(self):
        yield from self.backend.entry_paths()

    def entry_count(self) -> int:
        described = self.backend.describe()
        if "entries" in described:
            return described["entries"]
        return sum(1 for _ in self.entry_paths())

    def size_bytes(self) -> int:
        described = self.backend.describe()
        if "size_bytes" in described:
            return described["size_bytes"]
        return sum(p.stat().st_size for p in self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return self.backend.clear()

