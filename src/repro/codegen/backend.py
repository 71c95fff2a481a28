"""Pluggable codegen backends behind one small protocol.

A *backend* turns lifted IR (:mod:`repro.codegen.ir`) into executable
closures.  Two ship today:

* ``"numpy"`` (:class:`~repro.codegen.numpy_backend.NumpyBackend`) —
  whole-array kernels for the fragment plan's loop/chain/nest shapes;
* ``"superblock"``
  (:class:`~repro.codegen.superblock.SuperblockBackend`) — fused run
  closures for superblocks and loop-timing closures for loop blocks.

Backends register by name in :data:`BACKENDS`; a future
numexpr/C-emitting backend plugs in through :func:`register_backend`
with the same ``lower_loop``/``lower_chain`` surface as the numpy
backend — callers resolve by name via :func:`get_backend` and never
import a concrete backend class.  A lowering method returning ``None``
means "no bit-identical lowering exists" and the caller falls back
(for a fragment kernel, to the per-block path).
"""

from __future__ import annotations

from typing import Dict, Protocol

from repro.codegen.numpy_backend import NumpyBackend
from repro.codegen.superblock import SuperblockBackend


class Backend(Protocol):
    """Minimal surface every codegen backend exposes."""

    name: str


#: Registry of available backends, keyed by :attr:`Backend.name`.
BACKENDS: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register *backend* under its name (last registration wins)."""
    BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend called *name*."""
    backend = BACKENDS.get(name)
    if backend is None:
        known = ", ".join(sorted(BACKENDS))
        raise KeyError(f"unknown codegen backend {name!r} (known: {known})")
    return backend


register_backend(NumpyBackend())
register_backend(SuperblockBackend())
