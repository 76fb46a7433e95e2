"""Source polarization toolkit.

Polar transforms over small alphabets, polarization spectra, high-entropy
index sets, sequential likelihood-ratio decoding, and three codecs:
compression with side information, channel coding via duality, and
Slepian-Wolf corner-point coding.
"""

from .codec import (
    CompressedBlock,
    SWConfig,
    compress,
    compress_blocks,
    compress_file,
    decompress,
    decompress_blocks,
    decompress_file,
    error_bound,
    sw_config,
    sw_decode,
    sw_decode_blocks,
    sw_encode_x,
    sw_encode_y,
    sw_error_bound,
)
from .duality import (
    ChannelModel,
    DualityCode,
    channel_decode,
    channel_decode_batch,
    channel_encode,
    induced_source,
    make_duality_code,
    parse_channel,
    simulate,
    sw_simulate,
    symmetric_capacity,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    FingerprintMismatchError,
    FormatError,
    ProtocolError,
    SrcPolarError,
    UnsupportedAlphabetError,
)
from .field import FieldSpec
from .scdec import (
    L_MAX,
    SC_TIE,
    SequentialDecoder,
    base_llr,
    decode_batch,
    decode_block,
    genie_llr_profile,
    llr_combine_even,
    llr_combine_odd,
)
from .sources import (
    JointSource,
    ZHReport,
    bhattacharyya,
    binary_entropy,
    check_z_h_inequalities,
    conditional_entropy,
    parse_preset,
    renyi_entropy,
)
from .spectrum import (
    HighEntropySet,
    PolarSpectrum,
    build_high_entropy_set,
    exact_spectrum,
    montecarlo_spectrum,
    polarization_fractions,
    tv_spectrum,
    zbound_spectrum,
)
from .transform import (
    OpCounter,
    SymbolBlock,
    bit_reverse_indices,
    bit_reverse_permute,
    polar_forward,
    polar_inverse,
)

__version__ = "0.1.0"
