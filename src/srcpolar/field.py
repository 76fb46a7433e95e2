"""Arithmetic over the source alphabet.

Supports integers mod q for prime q, plus GF(4) with addition defined as
bitwise XOR on {0,1,2,3}.  Only elementwise addition and subtraction of
symbol arrays are provided (add_array, sub_array), the operations the
butterfly stages of the forward and inverse transforms run; their inputs are
symbols already checked to lie in 0..q-1.  The transform matrices are
0/1-valued, so multiplication is never needed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_PRIME_KIND = "prime"
_GF4_KIND = "gf4"


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Alphabet descriptor: kind ('prime' or 'gf4') and size q."""

    kind: str
    q: int

    @staticmethod
    def prime(q: int) -> "FieldSpec":
        if not _is_prime(q):
            raise DomainError(f"q={q} is not prime")
        return FieldSpec(_PRIME_KIND, q)

    @staticmethod
    def gf4() -> "FieldSpec":
        return FieldSpec(_GF4_KIND, 4)

    @staticmethod
    def binary() -> "FieldSpec":
        return FieldSpec(_PRIME_KIND, 2)

    @staticmethod
    def for_alphabet(q: int) -> "FieldSpec":
        """Field for a size-q alphabet: prime mod-q, or GF(4) when q=4."""
        if q == 4:
            return FieldSpec.gf4()
        return FieldSpec.prime(q)

    @property
    def is_binary(self) -> bool:
        return self.q == 2

    def add_array(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a + b; written into out, in out's dtype, when out is given."""
        if self.kind == _GF4_KIND or self.q == 2:
            return np.bitwise_xor(a, b, out=out)
        return np.remainder(np.add(a, b, dtype=np.int64), self.q, out=out, casting="unsafe")

    def sub_array(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a - b; written into out, in out's dtype, when out is given."""
        if self.kind == _GF4_KIND or self.q == 2:
            return np.bitwise_xor(a, b, out=out)
        return np.remainder(np.subtract(a, b, dtype=np.int64), self.q, out=out, casting="unsafe")
