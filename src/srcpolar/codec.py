"""Lossless block compression with side information, plus Slepian-Wolf.

Wire format of one compressed block:

    magic  "PLSC"          4 bytes
    version u8             2; 1 (no crc32, read unchecked) is never written
    n       u8             block length is 2^n
    fingerprint            8 bytes (index-set manifest hash prefix)
    payload-bit-count u32  little endian
    crc32  u32 LE          of the source block, which turns a block SC misses into an error
    payload                bits in increasing index order, MSB-first

A container is a file's blocks, all of one version, then a u32 LE count of its
zero pad bits, whole bytes fewer than N.  Bits travel as uint8, one bit per byte,
payloads as (blocks, k) arrays.

The write path lays blocks out positions-major, (N, blocks), always in a
copy of the input, and transform._forward_take runs the butterflies in
its blocked order and takes the payloads at the bit-reversed kept
positions.  compress_file bit-slices each chunk, eight blocks to a byte,
one per bit lane (_sliced), so the same transform call XORs eight blocks
at once, and turns the kept rows back into packed payloads with the same
8x8 bit transpose (_unsliced).  It writes a chunk's blocks as one byte
array, a header template, a crc32 column and the payloads, without
building a CompressedBlock; its chunks are framed on every usable core
through the ordered chunk pipeline (pipeline.ordered), so the bytes do
not depend on the core count.  decompress_file reads a container the
same way: its blocks as one (blocks, header + payload) byte array whose
rows must repeat the first block's header, and every payload from one
unpackbits (_read_blocks).  Every reader, decompress, decompress_file
and sw_decode (y alone, then x given the restored y), restores through
_restore: the payloads are scattered straight into the decoder's
positions-major known bits (scdec._decode_known), every crc32 is checked
from one packbits of the decoded rows, and a version 2 block whose crc32
fails is decoded again by SC-Flip, through the decoder's chunk loop
(scdec._sc_flips); the reference decoder never runs.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import DomainError, FingerprintMismatchError, FormatError, UnsupportedAlphabetError
from .field import FieldSpec
from .scdec import _decode_known, _sc_flips
from .sources import JointSource, conditional_entropy
from .spectrum import METHOD_MC, HighEntropySet, PolarSpectrum, build_high_entropy_set, zbound_spectrum
from .transform import SymbolBlock, _forward_take, _kept_rows

_GF2 = FieldSpec.binary()

MAGIC = b"PLSC"
VERSION_PLAIN = 1
VERSION_CRC = 2
_PAD_TRAILER = 4  # u32 LE count of zero pad bits appended before encoding
# Bytes of the chunks compress_file frames at once, in all, which is the size
# of their bit-sliced arrays, rounded to whole blocks; bounds its memory
# whatever the file size.
COMPRESS_BYTES = 1 << 19
# Decisions SC-Flip tries to flip, one per pass, in a version 2 block whose crc32 fails.
FLIP_TRIES = 16


@dataclass(frozen=True, eq=False)
class CompressedBlock:
    version: int
    n: int
    fingerprint: str  # 16 hex chars
    payload: np.ndarray  # uint8 bit array, length = payload bit count
    crc: int | None = None

    @property
    def N(self) -> int:
        return 1 << self.n

    def to_bytes(self) -> bytes:
        head = _header(self.version, self.n, self.fingerprint, len(self.payload), self.crc)
        return head + np.packbits(self.payload).tobytes()

    @staticmethod
    def from_bytes(buf: bytes, offset: int = 0) -> tuple["CompressedBlock", int]:
        """Parse one block starting at offset; returns (block, next offset)."""
        if len(buf) < offset + 18:
            raise FormatError("truncated compressed block header")
        if buf[offset : offset + 4] != MAGIC:
            raise FormatError("bad magic; not a compressed block")
        version = buf[offset + 4]
        if version not in (VERSION_PLAIN, VERSION_CRC):
            raise FormatError(f"unsupported block version {version}")
        pos = offset + (22 if version == VERSION_CRC else 18)
        if len(buf) < pos:
            raise FormatError("truncated compressed block header")
        n = buf[offset + 5]
        fingerprint = buf[offset + 6 : offset + 14].hex()
        nbits = int.from_bytes(buf[offset + 14 : offset + 18], "little")
        crc = int.from_bytes(buf[offset + 18 : pos], "little") if version == VERSION_CRC else None
        nbytes = (nbits + 7) // 8
        raw = buf[pos : pos + nbytes]
        if len(raw) < nbytes:
            raise FormatError("truncated compressed block")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:nbits]
        return CompressedBlock(version, n, fingerprint, bits, crc), pos + nbytes


def _header(version: int, n: int, fingerprint: str, nbits: int, crc: int | None) -> bytes:
    """A block's wire header: magic, version, n, fingerprint, payload bit count, crc32 if version 2."""
    head = MAGIC + bytes((version, n)) + bytes.fromhex(fingerprint) + nbits.to_bytes(4, "little")
    return head + int(crc).to_bytes(4, "little") if version == VERSION_CRC else head


def compress(x: SymbolBlock, hset: HighEntropySet) -> CompressedBlock:
    """u = x G_N; emit u restricted to the high-entropy indices, with the crc32 of x."""
    if not x.field.is_binary:
        raise UnsupportedAlphabetError("compression requires a binary source")
    return CompressedBlock(VERSION_CRC, hset.N.bit_length() - 1, hset.fingerprint,
                           compress_blocks(x.data.reshape(1, -1), hset)[0],
                           int(_crcs(np.packbits(x.data)[None])[0]))


def compress_blocks(X, hset: HighEntropySet) -> np.ndarray:
    """Payloads of every row of a (blocks, N) array of bits, with one transform call.

    X holds 0/1 symbols of the binary field, of any integer or bool dtype
    and memory order.  It is always copied, positions-major, to an (N,
    blocks) uint8 array for the in-place stages, so X is never written.  Row
    b of the (blocks, k) uint8 result is the payload of block b alone.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != hset.N:
        raise DomainError(f"blocks of shape {X.shape} do not have length {hset.N}")
    if X.dtype.kind not in "biu" or (X.size and (X.min() < 0 or X.max() > 1)):
        raise DomainError("compression takes bits: 0/1 symbols of the binary field")
    # np.array copies even where X.T is already C-ordered (one row, or X in Fortran order).
    return _forward_take(_GF2, np.array(X.T, dtype=np.uint8, order="C"), _kept_rows(hset.mask))


def compress_file(fh, hset: HighEntropySet) -> bytearray:
    """The container of the bytes read from the binary file fh, in chunks framed on every usable core.

    The calling thread reads the chunks, each a whole number of blocks and
    of bytes, and the chunk pipeline (pipeline.ordered) frames them in
    order (_framed_chunk), so the container is the same whatever the core
    count.  The chunks being framed at once hold about COMPRESS_BYTES bytes
    in all, the size of their bit-sliced arrays, and at least one block
    each: with w workers a chunk holds about COMPRESS_BYTES / w bytes, and
    no more workers run than COMPRESS_BYTES holds whole blocks.
    """
    N = hset.N
    unit = max(N, 8) // 8  # bytes of a whole number of blocks
    units = max(1, COMPRESS_BYTES // unit)
    workers = min(pipeline._workers(), units)
    chunk_bytes = unit * (units // workers)
    n = N.bit_length() - 1
    head = np.frombuffer(_header(VERSION_CRC, n, hset.fingerprint, len(hset.indices), 0), dtype=np.uint8)
    kept, pad = _kept_rows(hset.mask, min(n, 3)), 0  # the take index of a sliced chunk (_sliced), once per file

    def chunks():
        nonlocal pad
        while raw := fh.read(chunk_bytes):
            if pad:  # a short read before the end: padding it would insert zero bits
                raise DomainError("file read returned a partial block before its end")
            pad = -8 * len(raw) % N  # nonzero only in the last, short chunk
            yield raw, N, head, kept

    out = bytearray()
    for framed in pipeline.ordered(_framed_chunk, chunks(), workers):
        out += memoryview(framed)
    out += pad.to_bytes(_PAD_TRAILER, "little")  # in place: a copy would raise the peak
    return out


def _framed_chunk(raw: bytes, N: int, head: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The blocks of one chunk of file bytes as a (blocks, header + payload) uint8 array, zero-padded to whole blocks.

    The chunk is bit-sliced (_sliced): blocks 8g..8g+7 share column g of an
    (N, groups) uint8 array, one bit lane each, so one transform call runs
    every butterfly on eight blocks per byte.  An XOR acts on each bit
    alone, so every lane gets the bits its block alone would.  The kept
    rows are unsliced (_unsliced) into each block's packed payload, and the
    zero blocks that fill the last group are dropped.  A block's crc32 is
    taken from its source bytes, which are packbits of its bits, and
    written into the header template head.  kept is transform._kept_rows of
    the set's mask, for the sliced row order.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    B = -(-8 * data.size // N)  # blocks, the last one zero-padded
    if data.size % N:  # N bytes hold a group of eight blocks
        data = np.concatenate([data, np.zeros(-data.size % N, dtype=np.uint8)])
    # The sliced chunk goes to _forward_take without a name, so it is freed once its transposed copy exists.
    payloads = _unsliced(_forward_take(_GF2, _sliced(data, N), kept))
    G, _, K = payloads.shape
    rows = np.empty((8 * G, head.size + K), dtype=np.uint8)
    rows[:, : head.size] = head
    rows.reshape(G, 8, -1)[:, :, head.size :] = payloads
    rows = rows[:B]
    source = data.reshape(-1, N // 8) if N >= 8 else np.packbits(np.unpackbits(data).reshape(-1, N), axis=1)
    rows[:, head.size - 4 : head.size] = _crcs(source[:B]).view(np.uint8).reshape(-1, 4)
    return rows


def _crcs(rows: np.ndarray) -> np.ndarray:
    """The crc32 of each row of a (blocks, bytes) uint8 array, as a little-endian uint32 column."""
    return np.fromiter(map(zlib.crc32, rows), dtype="<u4", count=len(rows))


# The rounds of Hacker's Delight's transpose8 on uint64 words, byte i holding row i of an 8x8 bit
# matrix and its bit j column j: swap the off-diagonal 1x1, then 2x2, then 4x4 blocks.  Each is
# (shift, mask, 2^shift + 1): the masked bits and the same bits shifted never overlap, so one
# multiply forms t ^ (t << shift).
_TRANSPOSE8 = tuple((np.uint64(s), np.uint64(m), np.uint64((1 << s) + 1))
                    for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _transpose8(w: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix in each uint64 of w in place, row i in byte i (little endian).

    Five in-place passes per round, and no temporary but one array like w.
    """
    t = np.empty_like(w)
    for s, m, spread in _TRANSPOSE8:
        np.right_shift(w, s, out=t)
        t ^= w
        t &= m
        t *= spread
        w ^= t
    return w


def _sliced(data: np.ndarray, N: int) -> np.ndarray:
    """The blocks of length N that data's bits make, bit-sliced: an (N, groups) uint8 array, positions major.

    data holds whole groups of eight blocks, N bytes each.  Bit t of column
    g holds block 8g + t.  The rows hold the positions with their low
    min(n, 3) index bits on top (transform._blocked_rows' low): for N >= 8,
    row r N/8 + m holds position 8m + r, so the copy that lays them out
    runs inner loops of N/8 groups bytes; below 8 it is the natural order.
    For N >= 8, byte m of the eight blocks of a group makes one uint64
    whose 8x8 bit transpose holds position 8m + r of every block in byte
    7 - r, block t in bit t.  Below 8, packbits across the blocks slices
    them.
    """
    G = data.size // N
    if N < 8:
        X = np.unpackbits(data).reshape(G, 8, N)
        return np.packbits(X, axis=1, bitorder="little").reshape(G, N).T.copy()
    words = data.reshape(G, 8, N // 8).transpose(2, 0, 1).copy()  # (byte, group, block in group)
    _transpose8(words.view("<u8"))
    return np.ascontiguousarray(words[:, :, ::-1].transpose(2, 0, 1)).reshape(N, G)


def _unsliced(P: np.ndarray) -> np.ndarray:
    """The (groups, k) bit-sliced payloads P as each lane's packed payload bytes, a (groups, 8, ceil(k/8)) view.

    P is _forward_take's result, a transposed view of a C-ordered (k,
    groups) array.  Payload bits 8m..8m+7 of a group, padded with zeros,
    make one uint64, bit 8m + r in byte 7 - r, whose 8x8 bit transpose
    holds byte m of each lane's packed payload, lane t in byte t.
    """
    G, k = P.shape
    U = P.T
    if k % 8:
        U = np.concatenate([U, np.zeros((-k % 8, G), dtype=np.uint8)])
    words = U.reshape(-1, 8, G)[:, ::-1].transpose(0, 2, 1).copy()  # (payload byte, group, bit in byte)
    _transpose8(words.view("<u8"))
    return words.transpose(1, 2, 0)


def decompress(block: CompressedBlock, y, hset: HighEntropySet, source: JointSource) -> SymbolBlock:
    """Reconstruction of x from one block's payload and side block y."""
    Y = None if y is None else np.asarray(y).reshape(1, -1)
    return SymbolBlock(source.field, _restore(*_payload(block, hset), Y, hset, source)[0])


def decompress_file(container: bytes, side, hset: HighEntropySet, source: JointSource) -> bytes:
    """The file's bytes from its container and its side symbols, one per byte, or None.

    The container's blocks are read as one array (_read_blocks), and the pad
    trailer and the side input are checked against their count before the
    decode.
    """
    N = hset.N
    if len(container) < _PAD_TRAILER:
        raise FormatError("truncated container")
    pad = int.from_bytes(container[-_PAD_TRAILER:], "little")
    P, crcs = _read_blocks(memoryview(container)[:-_PAD_TRAILER], hset)
    B = len(P)
    if pad % 8 or pad >= N or pad > B * N:
        raise FormatError(f"pad trailer {pad} does not fit {B} blocks of {N} bits")
    if side is not None and len(side) != B * N:
        raise FormatError("side-information length does not match the container")
    Y = None if side is None else np.frombuffer(side, dtype=np.uint8).reshape(B, N)
    x = _restore(P, crcs, Y, hset, source).ravel()
    if x[x.size - pad :].any():
        raise FormatError(f"pad trailer {pad} drops bits that are not zero padding")
    return np.packbits(x[: x.size - pad]).tobytes()


# Header bytes every block of a container shares: magic, version, n, fingerprint and payload bit count.
_SHARED = 18


def _read_blocks(body, hset: HighEntropySet) -> tuple[np.ndarray, np.ndarray | None]:
    """The (blocks, k) payload bits of a container's blocks and their crc32 column, None for version 1.

    The first block is parsed by CompressedBlock.from_bytes and checked
    against hset (_payload); it gives the row width, and the body must be
    whole rows of it.  The body is then viewed as one (blocks, width) uint8
    array: every row must repeat the first one's _SHARED header bytes, so a
    container holds one version, and one unpackbits gives every payload.  A
    row that differs only in its fingerprint raises
    FingerprintMismatchError, any other FormatError.
    """
    k = len(hset.indices)
    if not body:
        return np.zeros((0, k), dtype=np.uint8), None
    first, width = CompressedBlock.from_bytes(body)
    _payload(first, hset)
    if len(body) % width:
        raise FormatError(f"container body of {len(body)} bytes is not whole blocks of {width}")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    differs = rows[:, :_SHARED] != rows[0, :_SHARED]
    if differs.any():
        b = int(differs.any(axis=1).argmax())
        if not (differs[b, :6].any() or differs[b, 14:].any()):
            raise FingerprintMismatchError(f"block {b}: fingerprint {bytes(rows[b, 6:14]).hex()} != "
                                           f"{hset.fingerprint}")
        raise FormatError(f"block {b}'s header does not match the first block's")
    head = width - (k + 7) // 8
    crcs = None if first.version == VERSION_PLAIN else rows[:, _SHARED:head].copy().view("<u4").ravel()
    return np.unpackbits(rows[:, head:], axis=1, count=k), crcs


def decompress_blocks(P, Y, hset: HighEntropySet, source: JointSource) -> np.ndarray:
    """Reconstruct every block from its payload; returns x as a (blocks, N) uint8 array.

    P is the (blocks, k) array of payload bits and Y the (blocks, N) array of side
    symbols, or None without side information.  P is checked once to hold 0/1 and
    scattered straight into the decoder's positions-major known bits
    (scdec._decode_known); Y is read in its own dtype.  The decoder returns x
    itself, so no transform runs.
    """
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[1] != len(hset.indices):
        raise DomainError(f"payloads of shape {P.shape} do not have {len(hset.indices)} bits")
    return _decode_known(source, Y, hset.mask, P)


def _payload(blk: CompressedBlock, hset: HighEntropySet) -> tuple[np.ndarray, np.ndarray | None]:
    """A wire block's (1, k) payload, checked against hset's fingerprint, N and k, and its crc32 column, None in version 1."""
    if blk.fingerprint != hset.fingerprint:
        raise FingerprintMismatchError(f"fingerprint {blk.fingerprint} != {hset.fingerprint}")
    if blk.N != hset.N or len(blk.payload) != len(hset.indices):
        raise FormatError(f"block (N={blk.N}, {len(blk.payload)} bits) does not fit the set")
    return np.reshape(blk.payload, (1, -1)), np.array([blk.crc], "<u4") if blk.version == VERSION_CRC else None


def _restore(P, crcs, Y, hset: HighEntropySet, source: JointSource) -> np.ndarray:
    """x from the (blocks, k) payloads P and side blocks Y, each row checked against its crc32 in crcs.

    crcs is a uint32 column, or None for version 1 blocks, which come back
    unchecked.  A row that fails is replaced by the first SC-Flip pass
    (scdec._sc_flips, FLIP_TRIES of them) whose crc32 matches; the first
    row that no pass repairs raises FormatError, which names that row and
    how many rows failed their crc32.
    """
    x_hat = decompress_blocks(P, Y, hset, source)
    if crcs is None:
        return x_hat
    bad = np.flatnonzero(_crcs(np.packbits(x_hat, axis=1)) != crcs)
    if not bad.size:  # rows that pass cost no SC-Flip set-up
        return x_hat
    flips = _sc_flips(source, None if Y is None else Y[bad], x_hat[bad], hset.mask, FLIP_TRIES)
    for b, passes in zip(bad, flips):
        x = next((v for v in passes if _crcs(np.packbits(v)[None])[0] == crcs[b]), None)
        if x is None:
            raise FormatError(f"checksum mismatch after decompression: block {b} not repaired, "
                              f"{bad.size} of {len(x_hat)} blocks failed their crc32")
        x_hat[b] = x
    return x_hat


def error_bound(hset: HighEntropySet, spec: PolarSpectrum) -> float:
    """Union bound on block error: sum of z over the unselected indices.

    Only certified spectra (exact, zbound or tv) are accepted.
    """
    if spec.method == METHOD_MC:
        raise DomainError("Monte-Carlo estimates are not certificates")
    if spec.z is None:
        raise DomainError("spectrum has no z values")
    if spec.N != hset.N:
        raise DomainError("spectrum and set lengths disagree")
    total = float(spec.z[~hset.mask].sum())
    return min(max(total, 0.0), 1.0)


# Slepian-Wolf corner point: decode Y alone, then X given the Y estimate.


@dataclass(frozen=True, eq=False)
class SWConfig:
    joint: JointSource  # P_{X,Y}, both binary
    y_marginal: JointSource  # P_Y as a source with no side information
    rate_x: float
    rate_y: float
    set_x: HighEntropySet  # built for X given Y
    set_y: HighEntropySet  # built for Y alone
    spec_x: PolarSpectrum  # certified z bounds set_x was built from
    spec_y: PolarSpectrum  # and those of set_y

    def to_manifest(self) -> dict:
        return {
            "joint": self.joint.description(),
            "R_x": self.rate_x,
            "R_y": self.rate_y,
            "set_x": self.set_x.to_manifest(),
            "set_y": self.set_y.to_manifest(),
        }


def sw_config(joint: JointSource, N: int, rate_x: float, rate_y: float) -> SWConfig:
    """Build the two z-bound index sets for the corner-point scheme."""
    if not joint.field.is_binary or joint.y_size != 2:
        raise UnsupportedAlphabetError("Slepian-Wolf coding requires binary X and Y")
    y_marg = JointSource(joint.field, joint.p_y().reshape(2, 1))
    h_xy = conditional_entropy(joint)
    h_y = conditional_entropy(y_marg)
    # A rate of 1 keeps every index, so that stage decodes exactly whatever H is (H(Y) = 1 for uniform Y).
    if rate_x != 1 and rate_x <= h_xy:
        raise DomainError(f"R_x={rate_x} must exceed H(X|Y)={h_xy:.6f}")
    if rate_y != 1 and rate_y <= h_y:
        raise DomainError(f"R_y={rate_y} must exceed H(Y)={h_y:.6f}")
    spec_x, spec_y = zbound_spectrum(joint, N), zbound_spectrum(y_marg, N)
    set_x = build_high_entropy_set(spec_x, rate_x)
    set_y = build_high_entropy_set(spec_y, rate_y)
    return SWConfig(joint, y_marg, rate_x, rate_y, set_x, set_y, spec_x, spec_y)


def sw_encode_x(x: SymbolBlock, cfg: SWConfig) -> CompressedBlock:
    return compress(x, cfg.set_x)


def sw_encode_y(y: SymbolBlock, cfg: SWConfig) -> CompressedBlock:
    return compress(y, cfg.set_y)


def sw_decode(cx: CompressedBlock, cy: CompressedBlock, cfg: SWConfig):
    """Two-stage joint decoding, y alone and then x given y_hat, each through _restore; returns (x_hat, y_hat)."""
    px, py = _payload(cx, cfg.set_x), _payload(cy, cfg.set_y)
    y_hat = _restore(*py, None, cfg.set_y, cfg.y_marginal)
    x_hat = _restore(*px, y_hat, cfg.set_x, cfg.joint)
    return SymbolBlock(cfg.joint.field, x_hat[0]), SymbolBlock(cfg.y_marginal.field, y_hat[0])


def sw_decode_blocks(PX, PY, cfg: SWConfig):
    """Two-stage joint decoding of the (blocks, k) payloads PX and PY; returns (x_hat, y_hat).

    Every Y block is decoded alone first, then every X block given its Y
    estimate; both results are (blocks, N) uint8 arrays.
    """
    y_hat = decompress_blocks(PY, None, cfg.set_y, cfg.y_marginal)
    x_hat = decompress_blocks(PX, y_hat, cfg.set_x, cfg.joint)
    return x_hat, y_hat


def sw_error_bound(cfg: SWConfig) -> float:
    """Sum of the two stages' union-bound certificates (may exceed 1)."""
    return error_bound(cfg.set_x, cfg.spec_x) + error_bound(cfg.set_y, cfg.spec_y)
