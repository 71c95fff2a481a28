"""The microcode cache: storage for completed translations.

Models the paper's proposed control cache — "8 entries of 64 SIMD
instructions each ... a 2 KB SRAM" (section 5) — indexed by the PC of
the marked branch-and-link.  When the front end encounters a marked call
whose translation is resident *and* ready (translation takes time; see
Table 6's discussion), it injects the cached SIMD microcode instead of
executing the scalar body.  Replacement is LRU.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.program import Program
from repro.observability import telemetry as _telemetry


@dataclass(eq=False)
class MicrocodeEntry:
    """One completed translation.

    Identity is *content-based*: two entries are interchangeable when
    ``(function, width, encoded_bytes())`` agree, no matter whether they
    came from the dynamic translator or a cross-width retranslation —
    so retranslated and freshly-translated twins share one
    :attr:`table_key` and the machine's fragment tables never
    double-compile them.

    Attributes:
        function: label of the outlined function this entry translates.
        fragment: the SIMD microcode as a miniature program (instructions
            plus internal loop labels).
        width: effective vector width the microcode was generated for
            (<= the accelerator's hardware width; capped by each loop's
            trip count).
        ready_cycle: first cycle the entry may be injected (models
            translation latency).
        static_instructions: scalar instructions observed (Table 5 data).
    """

    function: str
    fragment: Program
    width: int
    ready_cycle: int = 0
    static_instructions: int = 0

    @property
    def simd_instruction_count(self) -> int:
        return len(self.fragment.instructions)

    def encoded_bytes(self) -> bytes:
        """Canonical bytes of the fragment (memoized).

        The machine keys its per-run fragment tables by
        ``(function, width, encoded_bytes())`` — a content key that,
        unlike ``id(fragment)``, cannot alias when Python recycles the
        address of a collected per-run fragment.  ``dataclasses.replace``
        builds a fresh instance, so the memo never outlives its entry.
        """
        cached = getattr(self, "_encoded", None)
        if cached is None:
            from repro.isa.encoding import encode_program
            cached = encode_program(self.fragment)
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def table_key(self) -> tuple:
        """Content identity: the machine's fragment-table key."""
        return (self.function, self.width, self.encoded_bytes())

    def lift_ir(self):
        """This entry's :class:`~repro.codegen.lift.FragmentIR` (memoized).

        Lifting is deterministic over ``(encoded_bytes(), width)``, so
        the memo is safe under content identity; the codegen import is
        deferred because most entry consumers (the cache, the store)
        never need IR.
        """
        cached = getattr(self, "_ir", None)
        if cached is None:
            from repro.codegen.lift import lift_fragment
            cached = lift_fragment(self.fragment, self.width)
            object.__setattr__(self, "_ir", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, MicrocodeEntry):
            return NotImplemented
        return (self.table_key == other.table_key
                and self.ready_cycle == other.ready_cycle
                and self.static_instructions == other.static_instructions)

    def __hash__(self) -> int:
        return hash(self.table_key)

    def with_ready_cycle(self, cycle: int) -> "MicrocodeEntry":
        """A copy available at *cycle*, preserving the encoding memo.

        Unlike ``dataclasses.replace`` this carries the memoized
        canonical bytes over, so the copy's :attr:`table_key` needs no
        re-encode.
        """
        clone = MicrocodeEntry(
            function=self.function, fragment=self.fragment,
            width=self.width, ready_cycle=cycle,
            static_instructions=self.static_instructions,
        )
        cached = getattr(self, "_encoded", None)
        if cached is not None:
            object.__setattr__(clone, "_encoded", cached)
        return clone

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`).

        The fragment rides along as the base64 of its reversible binary
        encoding (:func:`repro.isa.encoding.encode_program`), so nothing
        about the microcode — labels, data, operands — is lost.
        """
        return {
            "function": self.function,
            "fragment": base64.b64encode(
                self.encoded_bytes()).decode("ascii"),
            "width": self.width,
            "ready_cycle": self.ready_cycle,
            "static_instructions": self.static_instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MicrocodeEntry":
        from repro.isa.encoding import decode_program
        raw = base64.b64decode(data["fragment"])
        entry = cls(
            function=data["function"],
            fragment=decode_program(raw),
            width=data["width"],
            ready_cycle=data["ready_cycle"],
            static_instructions=data["static_instructions"],
        )
        # Seed the memo with the wire bytes: a store round-trip keeps
        # the exact content key its twin fresh translation computes, so
        # the two dedupe in the fragment tables without a re-encode.
        object.__setattr__(entry, "_encoded", raw)
        return entry


@dataclass
class MicrocodeCacheStats:
    lookups: int = 0
    hits: int = 0
    not_ready: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "not_ready": self.not_ready,
            "evictions": self.evictions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MicrocodeCacheStats":
        return cls(
            lookups=data["lookups"],
            hits=data["hits"],
            not_ready=data["not_ready"],
            evictions=data["evictions"],
        )


class MicrocodeCache:
    """LRU cache of completed translations, keyed by function label."""

    def __init__(self, entries: int = 8) -> None:
        if entries < 1:
            raise ValueError("microcode cache needs at least one entry")
        self.capacity = entries
        self.stats = MicrocodeCacheStats()
        self._entries: Dict[str, MicrocodeEntry] = {}
        self._lru: List[str] = []  # least recently used first

    def insert(self, entry: MicrocodeEntry) -> Optional[MicrocodeEntry]:
        """Insert a completed translation; returns any evicted entry."""
        evicted: Optional[MicrocodeEntry] = None
        if entry.function in self._entries:
            self._lru.remove(entry.function)
        elif len(self._entries) >= self.capacity:
            victim = self._lru.pop(0)
            evicted = self._entries.pop(victim)
            self.stats.evictions += 1
        self._entries[entry.function] = entry
        self._lru.append(entry.function)
        # Inserts are rare (one per completed translation), so occupancy
        # sampled here traces the cache's fill curve over a run.
        tel = _telemetry.get()
        tel.count("ucode_cache.inserts")
        tel.observe("ucode_cache.occupancy", len(self._entries))
        if evicted is not None:
            tel.count("ucode_cache.evictions")
        return evicted

    def lookup(self, function: str, now: int) -> Optional[MicrocodeEntry]:
        """Return the ready entry for *function* at cycle *now*, if any."""
        self.stats.lookups += 1
        entry = self._entries.get(function)
        if entry is None:
            return None
        if now < entry.ready_cycle:
            self.stats.not_ready += 1
            return None
        self.stats.hits += 1
        self._lru.remove(function)
        self._lru.append(function)
        return entry

    def contains(self, function: str) -> bool:
        return function in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def storage_bytes(self, instruction_bytes: int = 4,
                      instructions_per_entry: int = 64) -> int:
        """SRAM footprint of this geometry (the paper's 8x64x4 = 2 KB)."""
        return self.capacity * instructions_per_entry * instruction_bytes
