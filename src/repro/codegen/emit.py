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

Nothing is cached here: generated code lives as long as the tables of
the one machine run that compiled it.  Telemetry: every ``compile()``
bumps ``codegen.compile.<kind>``, one of ``superblock``,
``loop-timing`` and ``numpy-kernel`` (docs/observability.md).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from repro.observability import telemetry as _telemetry


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


def compile_closure(source: str, filename: str, namespace: dict,
                    fn_name: str, kind: str = "closure"):
    """``exec()``-compile *source* and return ``namespace[fn_name]``."""
    _telemetry.get().count("codegen.compile." + kind)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[fn_name]
