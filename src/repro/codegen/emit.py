"""Shared ``exec()``-compile helpers for every generated closure.

All runtime code generation in the repo — the fused superblocks, the
whole-loop numpy kernels and whole-chain kernels, and the compiled
loop-timing specializations — funnels through :func:`compile_closure`.
The helpers standardize the idioms the generators used to hand-roll
separately:

* **Source assembly** (:func:`assemble`): a ``def`` header plus body
  lines carrying their own relative indentation, joined under one
  level of function indentation.
* **Stable synthetic filenames** (:func:`closure_filename`):
  ``<kind:label@entry>`` — e.g. ``<macro-kernel:fir_mac_fn_ucode_w16@2>``
  — so profiler output and tracebacks attribute time to a named kernel
  instead of ``<string>``.

One thing is cached here, per process: the compiled module code object
of each source, so a source met again (the same Liquid binary at
another width, another benchmark's identical loop, another run of the
same program) is only ``exec``-ed.  The cache is keyed on the source
alone: a source met under another filename reuses the code object with
its ``co_filename`` (and its nested code objects') set to the new one,
so tracebacks and profiles still name their own closure.  A code object
holds the source's literals and names, never a namespace, so the
functions built from it still live as long as the tables of the one
machine run that built them.  Telemetry: every ``compile()`` bumps
``codegen.compile.<kind>`` and every cache hit ``codegen.reuse.<kind>``,
one of ``superblock``, ``loop-timing`` and ``numpy-kernel``
(docs/observability.md).
"""

from __future__ import annotations

import hashlib
import math
import threading
from types import CodeType
from typing import Dict, Iterable, List, Optional

from repro.observability import telemetry as _telemetry

#: Most code objects :func:`compile_closure` keeps, each ~4 KB.  Bounded
#: FIFO: a full cache drops its oldest insertion (dicts preserve
#: insertion order), and a source met again after that compiles again.
CODE_ENTRIES = 1024

#: ``sha256(source)`` -> compiled module code, under the filename it
#: was first compiled with.  The digest keeps the sources themselves
#: out of memory.
_code: Dict[bytes, CodeType] = {}
#: Guards the evict-then-insert of a miss; a lookup needs no lock.
_code_lock = threading.Lock()


def closure_filename(kind: str, label: str, entry) -> str:
    """The stable synthetic filename for one generated closure."""
    return f"<{kind}:{label}@{entry}>"


def literal(value) -> Optional[str]:
    """An exact source literal for *value*, or None if there isn't one."""
    if value is True or value is False:
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)  # repr round-trips binary64 exactly
    return None


def assemble(header: str, body: Iterable[str], indent: str = "    ") -> str:
    """One function's source: *header* plus indented *body* lines.

    Body lines may carry additional relative indentation of their own
    (nested ``if``/``for`` bodies); an empty body becomes ``pass``.
    """
    lines: List[str] = [header]
    lines.extend(indent + line for line in body)
    if len(lines) == 1:
        lines.append(indent + "pass")
    return "\n".join(lines)


def _renamed(code: CodeType, filename: str) -> CodeType:
    """*code* with ``co_filename`` *filename*, its nested code objects
    (the functions the module defines) included."""
    consts = tuple(_renamed(const, filename)
                   if isinstance(const, CodeType) else const
                   for const in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def compile_closure(source: str, filename: str, namespace: dict,
                    fn_name: str, kind: str = "closure"):
    """``exec()`` *source*'s code into *namespace* and return
    ``namespace[fn_name]``, compiling it only on a cache miss."""
    key = hashlib.sha256(source.encode()).digest()
    code = _code.get(key)
    if code is None:
        _telemetry.get().count("codegen.compile." + kind)
        code = compile(source, filename, "exec")
        with _code_lock:
            if len(_code) >= CODE_ENTRIES:
                _code.pop(next(iter(_code)))
            _code[key] = code
    else:
        _telemetry.get().count("codegen.reuse." + kind)
        if code.co_filename != filename:
            code = _renamed(code, filename)
    exec(code, namespace)
    return namespace[fn_name]
