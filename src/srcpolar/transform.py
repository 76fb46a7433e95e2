"""Polar transform u = x G_N with G_N = F^(kron n) B_N, plus its inverse.

F = [[1,0],[1,1]].  B_N (bit reversal) commutes with the Kronecker power,
so the forward pass permutes the input once and then runs n in-place
combine stages; total work is (N/2) log2 N field additions.
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
        arr = np.asarray(self.data, dtype=np.int64)
        n = arr.shape[0]
        if n == 0 or (n & (n - 1)) != 0:
            raise DomainError(f"block length {n} is not a power of two")
        if arr.ndim != 1:
            raise DomainError("block data must be one-dimensional")
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


def _kron_rows(field: FieldSpec, w: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
    """w F^(kron n) for each row of a (..., N) array, computed in place; returns w.

    w keeps its dtype, so a uint8 array of bits stays one byte per bit.
    """
    N = w.shape[-1]
    h = N >> 1
    while h >= 1:
        # Splitting only the last axis keeps this a view of w in any memory order.
        shaped = w.reshape(w.shape[:-1] + (N // (2 * h), 2, h))
        head = shaped[..., 0, :]
        field.add_array(head, shaped[..., 1, :], out=head)
        if ops is not None:
            ops.add(w.size // 2)
        h >>= 1
    return w


def _forward_rows(field: FieldSpec, rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
    """Forward transform applied to each row of a (..., N) array, in its dtype."""
    n = rows.shape[-1].bit_length() - 1
    # For a (B, N) array this gather returns a column-major copy, whose B bits
    # per position are adjacent, so even the stages with short halves run long
    # inner loops; a row-major copy made the transform about 3x slower.
    return _kron_rows(field, rows[..., bit_reverse_indices(n)], ops)


def _inverse_rows(field: FieldSpec, rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
    """Inverse transform on each row: undo stages in reverse, then unpermute."""
    N = rows.shape[-1]
    n = N.bit_length() - 1
    w = rows.copy()
    h = 1
    while h < N:
        shaped = w.reshape(w.shape[:-1] + (N // (2 * h), 2, h))
        shaped[..., 0, :] = field.sub_array(shaped[..., 0, :], shaped[..., 1, :])
        if ops is not None:
            ops.add((N // (2 * h)) * h * int(np.prod(rows.shape[:-1], dtype=np.int64)))
        h <<= 1
    return w[..., bit_reverse_indices(n)]


def polar_forward(block: SymbolBlock, ops: OpCounter | None = None) -> SymbolBlock:
    """u = x G_N over the block's field."""
    return SymbolBlock(block.field, _forward_rows(block.field, block.data, ops))


def polar_inverse(block: SymbolBlock, ops: OpCounter | None = None) -> SymbolBlock:
    """x such that polar_forward(x) == block.

    Over GF(2) and GF(4) the transform is an involution, so this equals
    polar_forward; for odd prime q the kernel inverse [[1,0],[-1,1]] is
    applied stage by stage in reverse.
    """
    return SymbolBlock(block.field, _inverse_rows(block.field, block.data, ops))
