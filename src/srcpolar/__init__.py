"""Source polarization toolkit.

Polar transforms over small alphabets, polarization spectra, high-entropy
index sets, sequential likelihood-ratio decoding, and three codecs:
compression with side information, channel coding via duality, and
Slepian-Wolf corner-point coding.

Every public name, and every submodule, is imported on first use (PEP 562),
so a command loads only the modules it runs: `import srcpolar` loads none.
The names are looked up in their modules on every access, never kept here.
"""

import importlib
import sys

_EXPORTS = {
    "codec": (
        "CompressedBlock", "SWConfig", "compress", "compress_blocks", "compress_file", "decompress",
        "decompress_blocks", "decompress_file", "error_bound", "sw_config", "sw_decode",
        "sw_decode_blocks", "sw_encode_x", "sw_encode_y", "sw_error_bound",
    ),
    "duality": (
        "ChannelModel", "DualityCode", "channel_decode", "channel_decode_batch", "channel_encode",
        "induced_source", "make_duality_code", "parse_channel", "simulate", "sw_simulate",
        "symmetric_capacity",
    ),
    "errors": (
        "BudgetExceededError", "DomainError", "FingerprintMismatchError", "FormatError", "ProtocolError",
        "SrcPolarError", "UnsupportedAlphabetError",
    ),
    "field": ("FieldSpec",),
    "scdec": (
        "L_MAX", "SC_TIE", "SequentialDecoder", "base_llr", "decode_batch", "decode_block",
        "genie_llr_profile", "llr_combine_even", "llr_combine_odd",
    ),
    "sources": (
        "JointSource", "ZHReport", "bhattacharyya", "binary_entropy", "check_z_h_inequalities",
        "conditional_entropy", "parse_preset", "renyi_entropy",
    ),
    "spectrum": (
        "HighEntropySet", "PolarSpectrum", "build_high_entropy_set", "exact_spectrum",
        "montecarlo_spectrum", "polarization_fractions", "tv_spectrum", "zbound_spectrum",
    ),
    "transform": (
        "OpCounter", "SymbolBlock", "bit_reverse_indices", "bit_reverse_permute", "polar_forward",
        "polar_inverse",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "pipeline")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:  # sys.modules first: import_module alone costs about 4 us an access
        return getattr(sys.modules.get(_HOME[name]) or importlib.import_module(_HOME[name]), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
