"""Polar transform u = x G_N with G_N = F^(kron n) B_N, plus its inverse.

F = [[1,0],[1,1]].  B_N (bit reversal) commutes with the Kronecker power,
so each pass permutes the input once and then runs n in-place butterfly
stages (see _stage); total work is (N/2) log2 N field operations.  Where
only some positions of u are wanted (_forward_take), the stages run first
and the bit reversal is applied to the wanted positions alone.

Stage s (half-width h = 2^s) combines the positions that differ in index
bit s alone, so stages on distinct bits commute and may run in any order.
_forward_take uses that on a positions-major (N, B) chunk, where a stage's
inner loops run over h*B adjacent bytes: it runs the stages of the top
half of the index bits, copies the chunk once with those bits moved to
the bottom (a transpose of whole rows, as in the "four-step" FFT), and
runs the other half there, so no stage runs short loops.  Every stage
applies the same kernel to one index bit, so the stages also compute v
on a chunk whose rows hold the positions with their index bits rotated,
as a bit-sliced one does; _kept_rows then finds the payloads.
_forward_rows and _inverse_rows keep the natural order, h = N/2 down to
1, in place: the transposing copy would double their peak memory.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .field import FieldSpec


class OpCounter:
    """Running count of field combine operations (for complexity checks)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass
class SymbolBlock:
    """Length-N vector over a field alphabet; N must be a power of two."""

    field: FieldSpec
    data: np.ndarray

    def __post_init__(self):
        arr = _integers(self.data, "block data").astype(np.int64, copy=False)
        if arr.ndim != 1:
            raise DomainError("block data must be one-dimensional")
        _check_block_length(arr.shape[0])
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.q):
            raise DomainError(f"symbols out of range for q={self.field.q}")
        object.__setattr__(self, "data", arr)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolBlock)
            and self.field == other.field
            and np.array_equal(self.data, other.data)
        )


def _integers(a, what: str) -> np.ndarray:
    """a in its integer dtype, or bools and whole-valued floats as int64; 0.5 raises DomainError."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return a
    if a.dtype.kind in "bf" and np.isfinite(a).all() and (a == np.trunc(a)).all():
        return a.astype(np.int64)
    raise DomainError(f"{what} must be whole numbers")


MAX_BLOCK_LENGTH = 1 << 30  # the block lengths scdec._decode_node's clamp proof covers


def _check_block_length(N: int) -> int:
    """log2 N; a block length that is not a power of two, or exceeds MAX_BLOCK_LENGTH, raises DomainError."""
    if N < 1 or N & (N - 1):
        raise DomainError(f"block length {N} is not a power of two")
    if N > MAX_BLOCK_LENGTH:
        raise DomainError(f"block length {N} exceeds 2**30")
    return N.bit_length() - 1


def _check_count(value, what: str, least: int) -> int:
    """value as an int of at least `least`; anything else (-1, 2.5, None) raises DomainError."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


@lru_cache(maxsize=None)
def bit_reverse_indices(n_bits: int) -> np.ndarray:
    """Permutation p with p[i] = i with its n_bits bits reversed."""
    N = 1 << n_bits
    idx = np.arange(N, dtype=np.int64)
    rev = np.zeros(N, dtype=np.int64)
    for b in range(n_bits):
        rev |= ((idx >> b) & 1) << (n_bits - 1 - b)
    rev.setflags(write=False)
    return rev


def bit_reverse_permute(block: SymbolBlock) -> SymbolBlock:
    n = block.N.bit_length() - 1
    perm = bit_reverse_indices(n)
    return SymbolBlock(block.field, block.data[perm])


def _stage(field: FieldSpec, w: np.ndarray, h: int, sub: bool = False) -> None:
    """One butterfly stage in place: the last axis read as (N/2h, 2, h), head <- head +- tail."""
    # Splitting only the last axis keeps this a view of w in any memory order.
    shaped = w.reshape(w.shape[:-1] + (w.shape[-1] // (2 * h), 2, h))
    head = shaped[..., 0, :]
    (field.sub_array if sub else field.add_array)(head, shaped[..., 1, :], out=head)


def _stages(field: FieldSpec, w: np.ndarray, halves, ops: OpCounter | None = None, sub=False) -> np.ndarray:
    """The butterfly stages of the given half-widths, in that order, in place on each row of w."""
    for h in halves:
        _stage(field, w, h, sub)
        if ops is not None:
            ops.add(w.size // 2)
    return w


def _halves(n: int, low: int) -> list:
    """Half-widths 2^(n-1) down to 2^low: the stages of index bits n-1 .. low."""
    return [1 << s for s in range(n - 1, low - 1, -1)]


def _forward_rows(field: FieldSpec, rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
    """Forward transform applied to each row of a (..., N) array, in its dtype."""
    n = rows.shape[-1].bit_length() - 1
    # For a (B, N) array this gather returns a column-major copy, whose B bits
    # per position are adjacent, so even the stages with short halves run long
    # inner loops; a row-major copy made the transform about 3x slower.
    return _stages(field, rows[..., bit_reverse_indices(n)], _halves(n, 0), ops)


@lru_cache(maxsize=None)
def _blocked_rows(n: int, low: int = 0) -> np.ndarray:
    """Row of _forward_take's transposed copy that holds v[rev(i)], for each position i of u.

    With a = n // 2 and b = n - a, the copy holds natural position p*2^b + q
    at row q*2^a + p.  Write i = s*2^a + t: then rev(i) = rev_a(t)*2^b + rev_b(s),
    at row rev_b(s)*2^a + rev_a(t).

    With low, V's rows hold x with its low `low` index bits on top, as a
    bit-sliced chunk does (codec._sliced): row rotr(p) holds position p,
    rotated right by low bits within n.  Every stage applies the same kernel
    F to one index bit, so the stages compute v = x F^(kron n) in that order
    too, and v[rev(i)] sits at row rotr(rev(i)) = rev(rotl(i)): where the
    natural layout holds u at rotl(i).
    """
    a, b = n // 2, n - n // 2
    rows = (bit_reverse_indices(b)[:, None] << a | bit_reverse_indices(a)).ravel()
    if low:  # entry i = p 2^(n-low) + q takes the natural entry rotl(i) = q 2^low + p
        rows = rows.reshape(-1, 1 << low).T.ravel()
    rows.setflags(write=False)
    return rows


def _kept_rows(mask: np.ndarray, low: int = 0) -> np.ndarray:
    """The rows of _forward_take's transposed copy that hold the positions a boolean mask over N keeps, in order.

    low is _blocked_rows': the rows of V hold x with its low `low` index
    bits on top.  A caller that takes the same positions of many chunks
    computes this once.
    """
    return _blocked_rows(mask.size.bit_length() - 1, low)[mask]


def _forward_take(field: FieldSpec, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """u = x G_N at the kept positions, for each column x of the C-ordered, positions-major (N, B) V.

    rows is _kept_rows of the mask of kept positions.  The stages compute
    v = x F^(kron n), and G_N = F^(kron n) B_N makes u_i = v[rev(i)], so
    the bit reversal is paid only on the kept rows.  Stages on distinct
    index bits commute, so they run blocked: with n = a + b and a = n // 2,
    the a stages of the top bits (h = N/2 down to 2^b) run in place on V,
    whose inner loops are then at least 2^b*B elements long.  One copy then
    transposes V, read as a (2^a, 2^b) matrix of whole rows, each moved as
    one np.void item; in the copy the b low bits are on top, so the other b
    stages also run loops of at least 2^a*B elements.  The transpose is
    folded into the index of the one take (_blocked_rows).  V is
    overwritten, and dropped once the copy exists: a caller that passes V
    without keeping a name for it frees it there.  Returns the (B, k)
    payloads.
    """
    N, B = V.shape
    n = N.bit_length() - 1
    a, b = n // 2, n - n // 2
    _stages(field, V.T, _halves(n, b))  # the transposed view: _stage splits the last axis of any layout
    if a and V.size:
        item = np.dtype((np.void, B * V.itemsize))
        V = V.view(item).reshape(1 << a, 1 << b).T.copy().view(V.dtype).reshape(N, B)
    _stages(field, V.T, _halves(n, a))
    return V.take(rows, axis=0).T


def _inverse_rows(field: FieldSpec, rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
    """Inverse transform on each row: B_N commutes with the stages, so unpermute, then subtract."""
    n = rows.shape[-1].bit_length() - 1
    return _stages(field, rows[..., bit_reverse_indices(n)], _halves(n, 0), ops, sub=True)


def polar_forward(block: SymbolBlock, ops: OpCounter | None = None) -> SymbolBlock:
    """u = x G_N over the block's field."""
    return SymbolBlock(block.field, _forward_rows(block.field, block.data, ops))


def polar_inverse(block: SymbolBlock, ops: OpCounter | None = None) -> SymbolBlock:
    """x such that polar_forward(x) == block.

    Over GF(2) and GF(4) the transform is an involution, so this equals
    polar_forward; for odd prime q the kernel inverse [[1,0],[-1,1]] is
    applied stage by stage.
    """
    return SymbolBlock(block.field, _inverse_rows(block.field, block.data, ops))
