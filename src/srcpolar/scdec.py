"""Successive-cancellation (SC) likelihood-ratio decoding.

All likelihoods live in the natural-log domain, saturated to +-L_MAX.
Every codec decodes through `decode_batch`, a tree SC decoder that runs
many blocks at once on numpy arrays.  Because G_N = F^(kron n) B_N, it
works on the channel llrs in bit-reversed order: a node splits its llrs
into halves a and b, decodes its first half of u from f(a, b), then its
second half from g = b +- a, signed by the first half's partial sums.  A
node whose u positions are all known (rate 0) does no llr math.

`SequentialDecoder` is the step-by-step reference: it yields one
decision llr per index and performs N log2 N combine operations per
block.  Both decoders resolve ties alike (see SC_TIE), so they decide
the same bits.
"""

import math

import numpy as np

from .errors import DomainError, ProtocolError, UnsupportedAlphabetError
from .field import FieldSpec
from .sources import JointSource
from .transform import _kron_rows, bit_reverse_indices

L_MAX = 700.0
# An llr within SC_TIE of zero is a tie and decides 0, so that decisions do
# not depend on float rounding near zero.
SC_TIE = 1e-9
# LLRs held per decode_batch chunk: blocks are decoded max(1, BATCH_LLRS // N)
# at a time, which bounds the decoder's memory whatever the batch size.
BATCH_LLRS = 1 << 14

_LN = math.log
_LOG1P = math.log1p
_EXP = math.exp


def _clamp(v: float) -> float:
    if v > L_MAX:
        return L_MAX
    if v < -L_MAX:
        return -L_MAX
    return v


def base_llr(s: JointSource, y: int) -> float:
    """ln P(X=0|Y=y) / P(X=1|Y=y), saturated to +-L_MAX."""
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("decoder requires a binary source")
    if not 0 <= y < s.y_size:
        raise DomainError(f"side symbol {y} out of range")
    p0, p1 = s.probs[0, y], s.probs[1, y]
    if p0 == 0.0 and p1 == 0.0:
        raise DomainError(f"observed side symbol {y} has probability zero")
    if p1 == 0.0:
        return L_MAX
    if p0 == 0.0:
        return -L_MAX
    return _clamp(_LN(p0 / p1))


def llr_combine_odd(a: float, b: float) -> float:
    """Log-domain image of L -> (L_a L_b + 1) / (L_a + L_b)."""
    aa, ab = abs(a), abs(b)
    m = aa if aa < ab else ab
    if (a < 0.0) != (b < 0.0):
        m = -m
    return _clamp(m + _LOG1P(_EXP(-abs(a + b))) - _LOG1P(_EXP(-abs(a - b))))


def llr_combine_even(a: float, b: float, u_prev: int) -> float:
    """Log-domain image of L -> L_a^{+-1} L_b with sign set by u_prev."""
    return _clamp(b + a if u_prev == 0 else b - a)


class SequentialDecoder:
    """One-pass estimator of u_1..u_N from side information y^N.

    decide_next must be called for i = 1..N in order; pass known= to
    commit a bit at a position whose value the decoder already has.
    """

    def __init__(self, source: JointSource, y=None, N: int | None = None):
        if y is None:
            if N is None:
                raise DomainError("N is required when no side block is given")
            if source.y_size != 1:
                raise DomainError("side block required for a source with side information")
            y = np.zeros(N, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        n = y.shape[0]
        if n == 0 or (n & (n - 1)) != 0:
            raise DomainError(f"block length {n} is not a power of two")
        if N is not None and N != n:
            raise DomainError("explicit N disagrees with side block length")
        self.N = n
        self.source = source
        self.combine_count = 0
        self._next_i = 1
        llrs = [base_llr(source, int(sym)) for sym in y]
        self._gen = self._walk(llrs, 0, n)
        self._pending = self._gen.send(None)

    def _walk(self, llrs, lo, hi):
        if hi - lo == 1:
            yield llrs[lo]
            return
        mid = (lo + hi) >> 1
        left = self._walk(llrs, lo, mid)
        right = self._walk(llrs, mid, hi)
        a = left.send(None)
        b = right.send(None)
        last = mid - lo - 1
        for k in range(mid - lo):
            u_odd = yield llr_combine_odd(a, b)
            u_even = yield llr_combine_even(a, b, u_odd)
            self.combine_count += 2
            if k < last:
                a = left.send(u_odd ^ u_even)
                b = right.send(u_even)
            else:
                _finish(left, u_odd ^ u_even)
                _finish(right, u_even)

    def decide_next(self, i: int, known: int | None = None):
        """Return (bit, llr) for position i (1-based); i must be the next index."""
        if i != self._next_i:
            raise ProtocolError(f"expected index {self._next_i}, got {i}")
        llr = self._pending
        if known is None:
            bit = 0 if llr >= -SC_TIE else 1
        else:
            if known not in (0, 1):
                raise DomainError(f"known bit must be 0 or 1, got {known}")
            bit = known
        self._next_i += 1
        if i < self.N:
            self._pending = self._gen.send(bit)
        else:
            _finish(self._gen, bit)
            self._pending = None
        return bit, llr


def _finish(gen, bit):
    try:
        gen.send(bit)
    except StopIteration:
        return
    raise ProtocolError("decoder recursion yielded past the final index")


def decode_block(source: JointSource, y, known_bits: dict[int, int], N: int | None = None):
    """Run a full pass; known_bits maps 1-based indices to committed bits.

    Returns the decided u as an int64 array.
    """
    dec = SequentialDecoder(source, y, N)
    out = np.empty(dec.N, dtype=np.int64)
    for i in range(1, dec.N + 1):
        bit, _ = dec.decide_next(i, known_bits.get(i))
        out[i - 1] = bit
    return out, dec.combine_count


def batch_rows(N: int) -> int:
    """Blocks of length N that one decode_batch chunk holds."""
    return max(1, BATCH_LLRS // N)


def decode_batch(source: JointSource, Y, known_mask, known_vals) -> np.ndarray:
    """SC-decode B blocks at once; returns u as a (B, N) int64 array.

    Y is the (B, N) array of side symbols, or None for a source without
    side information.  known_mask (N,) marks the positions whose bits the
    caller already has; known_vals (B, N) holds them, and its other
    entries are ignored.  Row b is what decode_block returns for Y[b] with
    those known bits.  Blocks are decoded batch_rows(N) at a time.
    """
    known_vals = np.asarray(known_vals, dtype=np.int64)
    known_mask = np.asarray(known_mask, dtype=bool)
    if known_vals.ndim != 2:
        raise DomainError("known values must be a (blocks, N) array")
    B, N = known_vals.shape
    if N == 0 or (N & (N - 1)) != 0:
        raise DomainError(f"block length {N} is not a power of two")
    if known_mask.shape != (N,):
        raise DomainError(f"known mask must have {N} entries")
    if ((known_vals[:, known_mask] & ~1) != 0).any():
        raise DomainError("known bits must be 0 or 1")
    if Y is None:
        if source.y_size != 1:
            raise DomainError("side block required for a source with side information")
        Y = np.broadcast_to(np.int64(0), (B, N))
    Y = np.asarray(Y, dtype=np.int64)
    if Y.shape != (B, N):
        raise DomainError(f"side blocks of shape {Y.shape} do not match {(B, N)}")
    table = _llr_table(source, Y)
    perm = bit_reverse_indices(N.bit_length() - 1)
    unknown_before = [0, *np.cumsum(~known_mask).tolist()]
    u = np.empty((B, N), dtype=np.int64)
    step = batch_rows(N)
    for s in range(0, B, step):
        rows = slice(s, s + step)
        _decode_node(table[Y[rows][:, perm]], unknown_before, known_vals[rows], u[rows], 0)
    return u


def _llr_table(source: JointSource, Y: np.ndarray) -> np.ndarray:
    """base_llr of every side symbol, checked against the symbols Y holds."""
    if not source.field.is_binary:
        raise UnsupportedAlphabetError("decoder requires a binary source")
    if Y.size and (Y.min() < 0 or Y.max() >= source.y_size):
        raise DomainError("side symbol out of range")
    seen = np.zeros(source.y_size, dtype=bool)
    seen[Y] = True
    return np.array([base_llr(source, y) if seen[y] else 0.0 for y in range(source.y_size)])


_GF2 = FieldSpec.binary()


def _decode_node(L, unknown_before, known, u, lo):
    """Decode u[:, lo:lo+m] from the node's llrs L (B, m); returns their partial sums.

    unknown_before[i] counts the unknown positions below i.  The partial
    sums are u[:, lo:lo+m] F^(kron m), the node's part of the re-encoded
    block, which its parent needs for g.
    """
    m = L.shape[1]
    hi = lo + m
    if unknown_before[hi] == unknown_before[lo]:
        u[:, lo:hi] = known[:, lo:hi]
        return _kron_rows(_GF2, known[:, lo:hi].copy())
    if m == 1:
        u[:, lo:hi] = L < -SC_TIE
        return u[:, lo:hi]
    h = m >> 1
    a, b = L[:, :h], L[:, h:]
    left = _decode_node(_combine_odd_vec(a, b), unknown_before, known, u, lo)
    right = _decode_node(_clamp_vec(b + np.where(left == 0, a, -a)), unknown_before, known, u, lo + h)
    return np.concatenate((left ^ right, right), axis=1)


def genie_llr_profile(chan_llr: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Vectorized per-index llrs with the true prefix fed at every step.

    chan_llr and u_true are (samples, N); returns the (samples, N) array of
    decision llrs a sequential decoder would see given the true u prefix.
    """
    N = chan_llr.shape[1]
    if N == 1:
        return chan_llr
    u_odd = u_true[:, 0::2]
    u_even = u_true[:, 1::2]
    a = genie_llr_profile(chan_llr[:, : N // 2], u_odd ^ u_even)
    b = genie_llr_profile(chan_llr[:, N // 2 :], u_even)
    out = np.empty_like(chan_llr)
    out[:, 0::2] = _combine_odd_vec(a, b)
    out[:, 1::2] = _clamp_vec(b + np.where(u_odd == 0, a, -a))
    return out


def _combine_odd_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    m = m + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    return _clamp_vec(m)


def _clamp_vec(v: np.ndarray) -> np.ndarray:
    """Saturate a fresh array to +-L_MAX in place (np.clip costs more on small arrays)."""
    return np.minimum(np.maximum(v, -L_MAX, out=v), L_MAX, out=v)
