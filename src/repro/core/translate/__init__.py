"""Run-time half of Liquid SIMD: the post-retirement dynamic translator."""

from repro.core.translate.hw_model import TranslatorHardwareModel
from repro.core.translate.retranslate import (
    RetranslateReason,
    RetranslationResult,
    retranslate_chain,
    retranslate_entry,
)
from repro.core.translate.register_state import (
    RegKind,
    RegState,
    RegisterStateTable,
    ValueTrace,
)
from repro.core.translate.translator import (
    AbortReason,
    DynamicTranslator,
    TranslationResult,
    TranslatorConfig,
)
from repro.core.translate.ucode_buffer import BufferOverflow, MicrocodeBuffer, UEntry
from repro.core.translate.ucode_cache import (
    MicrocodeCache,
    MicrocodeCacheStats,
    MicrocodeEntry,
)

__all__ = [
    "RetranslateReason",
    "RetranslationResult",
    "retranslate_chain",
    "retranslate_entry",
    "TranslatorHardwareModel",
    "RegKind",
    "RegState",
    "RegisterStateTable",
    "ValueTrace",
    "AbortReason",
    "DynamicTranslator",
    "TranslationResult",
    "TranslatorConfig",
    "BufferOverflow",
    "MicrocodeBuffer",
    "UEntry",
    "MicrocodeCache",
    "MicrocodeCacheStats",
    "MicrocodeEntry",
]
