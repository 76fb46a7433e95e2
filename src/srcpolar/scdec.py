"""Successive-cancellation (SC) likelihood-ratio decoding.

All likelihoods live in the natural-log domain, saturated to +-L_MAX.
Every codec decodes through one tree SC decoder that runs many blocks at
once on numpy arrays, BATCH_LLRS = 2^16 llrs per chunk: `decode_batch`
takes the known bits as (B, N) values, and the codecs hand their (B, k)
payloads to `_decode_known`, which decode_batch also runs.
Because G_N = F^(kron n) B_N, it works on the channel llrs in
bit-reversed order: a node splits its llrs into halves a and b, decodes
its first half of u from f(a, b), then its second half from g = b +- a,
signed by the first half's partial sums.  A node with every position
known (rate 0) needs no llr math: its partial sums are the known bits'.
Two rules decide a node without the split, each giving SC's bits (see
_decode_node):

- Rep, only the last position unknown: one signed sum of its llrs,
  equal to SC's chain of g steps to that position.
- Any other node: the hard decisions of its llrs, behind a guard on
  min |llr| (none at a leaf) and, where it has known positions, a check
  that the u they give equals the known bits in every row.  A node that
  misses the guard or the check splits.

The node tree, with each node's Rep flag, guard, parity check matrix and
g-depth (the g steps from the channel to its llrs), is compiled once per
known mask (_schedule).  A check is one float32 matmul of the node's bits
with its matrix, exact because every sum is a small integer
(_parity_holds).  A sign set by partial sums, in g and the Rep sum, is
XORed into the float64 sign bit: exact negation, with no branch on the
bits (_signed).  The clamp to +-L_MAX runs only where it can act:
llrs at g-depth j are bounded by M 2^j, M the largest |llr| of the
source's side symbols of nonzero probability, so a call skips the clamps
up to the g-depth its M allows (_clamp_depth).  The known bits enter
positions major, as one (N, B) array that the codecs scatter their
payloads into (_decode_known); every node writes its partial sums in
place, into its rows of one (N, B) array.  The root's partial sums are
u F^(kron n), the decoded block x = u G_N in bit-reversed order, so
`decode_batch` returns x without a transform.

SC-Flip (_sc_flips) decodes a block again with one decision flipped:
it ranks the decisions by the genie's llrs of SC's own decisions, from
x as in Monte-Carlo construction, and runs each pass through the same
chunk loop, on a schedule that shares every node past the flip with the
cached one.

`SequentialDecoder` is the step-by-step reference: it yields one
decision llr per index and performs N log2 N combine operations per
block.  Both decoders resolve ties alike (see SC_TIE), so they decide
the same bits.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ProtocolError, UnsupportedAlphabetError
from .field import FieldSpec
from .sources import JointSource
from .transform import _check_block_length, _halves, _integers, _stage, _stages, bit_reverse_indices

L_MAX = 700.0
# An llr within SC_TIE of zero is a tie and decides 0, so that decisions do
# not depend on float rounding near zero.
SC_TIE = 1e-9
# LLRs held per decode_batch chunk: blocks are decoded max(1, BATCH_LLRS // N)
# at a time, which bounds the decoder's memory whatever the batch size.
BATCH_LLRS = 1 << 16

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
        y = _integers(y, "side symbols")
        if y.ndim != 1:
            raise DomainError("side block must be one-dimensional")
        n = y.shape[0]
        _check_block_length(n)
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
    """SC-decode B blocks at once; returns x = u G_N as a (B, N) uint8 array.

    Y is the (B, N) array of side symbols, or None for a source without
    side information.  known_mask (N,) marks the positions of u whose bits
    the caller already has; known_vals (B, N) holds them, and its other
    entries are ignored.  Row b is what decode_block returns for Y[b] with
    those known bits, times G_N.  The bits at the known positions are handed
    to _decode_known, the form the codecs decode payloads in.
    """
    known_vals = np.asarray(known_vals)
    known_mask = np.asarray(known_mask, dtype=bool)
    if known_vals.ndim != 2:
        raise DomainError("known values must be a (blocks, N) array")
    _check_block_length(known_vals.shape[1])
    if known_mask.shape != known_vals.shape[1:]:
        raise DomainError(f"known mask must have {known_vals.shape[1]} entries")
    return _decode_known(source, Y, known_mask, known_vals[:, known_mask])


def _decode_known(source: JointSource, Y, known_mask: np.ndarray, P) -> np.ndarray:
    """decode_batch with the known bits given as P, the (B, k) bits at known_mask's k positions in order.

    known_mask is a checked (N,) bool array.  P is checked once to hold 0/1
    and scattered straight into the (N, B) uint8 array of known bits,
    positions major like every SC tree array, which the chunk loop reads.
    Integer Y and P are read in their own dtype, so uint8 bits and side
    symbols are never widened as a whole.  Blocks are decoded
    batch_rows(N) at a time.
    """
    N, P = known_mask.size, _integers(P, "known bits")
    B = len(P)
    if P.size and (P.min() < 0 or P.max() > 1):
        raise DomainError("known bits must be 0 or 1")
    known = np.zeros((N, B), dtype=np.uint8)
    known[known_mask] = P.T
    if Y is None:
        if source.y_size != 1:
            raise DomainError("side block required for a source with side information")
        Y = np.broadcast_to(np.uint8(0), (B, N))
    Y = _integers(Y, "side symbols")
    if Y.shape != (B, N):
        raise DomainError(f"side blocks of shape {Y.shape} do not match {(B, N)}")
    return _decode_chunks(source, Y, known, _schedule(known_mask.tobytes()))


def _decode_chunks(source: JointSource, Y, known: np.ndarray, root) -> np.ndarray:
    """The chunk loop on checked arguments: known is the (N, B) uint8 array of known bits, 0 where
    unknown, and root the compiled schedule of its mask.

    A chunk's channel llrs are two takes, its side symbols in bit-reversed
    order and then their llrs, and x is written through one take of the
    root's partial sums.
    """
    N, B = known.shape
    n = N.bit_length() - 1
    table = _llr_table(source, Y)
    J = _clamp_depth(table, n)
    perm = bit_reverse_indices(n)
    x = np.empty((B, N), dtype=np.uint8)
    step = batch_rows(N)
    for s in range(0, B, step):
        rows = slice(s, s + step)
        sums = _known_sums(known[:, rows])
        beta = sums[-1]  # only the root reads this level, before it writes it
        if root is not None:
            _decode_node(table.take(Y[rows].T.take(perm, axis=0)), root, sums, beta, J)
        x[rows] = beta.take(perm, axis=0).T  # the root's partial sums, x in bit-reversed order
    return x


def _sc_flips(source: JointSource, Y, X: np.ndarray, known_mask: np.ndarray, tries: int):
    """SC-Flip's passes for blocks that decode_batch decoded to the rows of X: one iterator per row.

    Y and known_mask are the decode's side blocks (None without side
    information) and known mask.  Row b's iterator yields the x that SC gives
    with one decision of row b flipped, for the `tries` unknown positions of
    smallest decision |llr|, smallest first (Afisiadis, Balatsoukas-Stimming
    and Burg, arXiv:1412.5501).  A decision's llr depends only on the
    decisions before it, so the genie fed SC's own decisions gives SC's
    decision llrs; as in Monte-Carlo construction, its partial sums come
    from x (_sums_from_x: sums[0] is SC's u) and its idle clamps are
    skipped, batch_rows(N) rows per call: a caller that stops at a row has
    ranked no chunk after that row's.
    """
    Y = np.zeros(X.shape, dtype=np.uint8) if Y is None else _integers(Y, "side symbols")
    n, step = X.shape[1].bit_length() - 1, batch_rows(X.shape[1])
    unknown, root, perm = np.flatnonzero(~known_mask), _schedule(known_mask.tobytes()), bit_reverse_indices(n)
    for s in range(0, len(X), step):
        Ys, sums = Y[s : s + step], _sums_from_x(X[s : s + step].T[perm])
        table = _llr_table(source, Ys)
        llrs = np.abs(_genie_llrs(table[Ys.T[perm]], sums, _clamp_depth(table, n)))
        for y, u, a in zip(Ys, sums[0].T, llrs.T):
            flips = unknown[np.argsort(a[unknown], kind="stable")[:tries]]
            yield _flip_passes(source, y, u, known_mask, root, flips)


def _flip_passes(source: JointSource, y, u: np.ndarray, known_mask: np.ndarray, root, candidates):
    """x from SC on side block y with u[i] flipped, for each i of candidates in turn.

    A pass also knows SC's u before i, the bits SC decides there anyway, so
    its schedule is root, known_mask's cached one, with the nodes up to i
    dropped as rate 0, those across i + 1 compiled again and the rest shared
    (_compile).  It is never cached.
    """
    for i in candidates:
        mask = known_mask.copy()
        mask[: i + 1] = True
        known = (u & mask)[:, None]
        known[i] ^= 1
        yield _decode_chunks(source, y[None], known, _compile(mask, root, i + 1))[0]


def _llr_table(source: JointSource, Y: np.ndarray) -> np.ndarray:
    """base_llr of every side symbol of nonzero probability, 0.0 for the others; Y's symbols are checked.

    A symbol out of range, or of probability zero, in Y raises DomainError.
    Y is searched only when the source has a symbol of probability zero;
    otherwise its min and max, the range check, are all it costs.  A symbol
    that Y does not hold can only raise max |table|, so _clamp_depth can
    only fall, which runs clamps that are idle.
    """
    if not source.field.is_binary:
        raise UnsupportedAlphabetError("decoder requires a binary source")
    if Y.size and (Y.min() < 0 or Y.max() >= source.y_size):
        raise DomainError("side symbol out of range")
    possible = source.p_y() > 0  # base_llr raises exactly where p_y is 0
    if Y.size and not possible.all() and not possible.take(Y).all():
        raise DomainError("an observed side symbol has probability zero")
    return np.array([base_llr(source, y) if p else 0.0 for y, p in enumerate(possible)])


def _clamp_depth(table: np.ndarray, n: int) -> int:
    """The largest g-depth j <= n whose llrs no clamp can change, for channel llrs from table; -1 if none.

    With M = max |table|, llrs at g-depth j are at most M 2^j + 1 in magnitude
    (see _decode_node), so their clamps are idle while M 2^j + 1 <= L_MAX.
    """
    M = float(np.abs(table).max())
    j = -1
    while j < n and M * 2.0 ** (j + 1) + 1.0 <= L_MAX:
        j += 1
    return j


# A node of size 2^d whose llrs all exceed RATE1_GUARD * d + 2 SC_TIE in
# magnitude decides their hard decisions, if its known bits allow them; see
# _decode_node.
RATE1_GUARD = math.log(2) + 1e-12

_GF2 = FieldSpec.binary()


class _Node(NamedTuple):
    """One node of a compiled SC schedule: positions lo..hi-1 of u, hi - lo = 2^d."""

    rep: bool  # only the last position unknown
    lo: int
    hi: int
    d: int
    j: int  # g-depth: the g steps from the channel to the node's llrs
    guard: float  # RATE1_GUARD d + 2 SC_TIE, the bound min |L| must exceed
    check: tuple | None  # _parity_check of the node's known positions; None if rate 1
    left: "_Node | None"  # None for a half with no unknown position (rate 0)
    right: "_Node | None"


@lru_cache(maxsize=8)
def _schedule(mask: bytes) -> _Node | None:
    """The node tree of decode_batch for a known mask given as bool bytes; None if all known.

    Compiled once per mask, so a visit reads its node's Rep flag, guard, parity
    check matrix and g-depth instead of deriving them.  A tree holds up to 2N
    nodes, so only the few masks a caller decodes with are kept.
    """
    return _compile(np.frombuffer(mask, dtype=bool))


def _compile(known: np.ndarray, base: _Node | None = None, start: int = 0) -> _Node | None:
    """The schedule of the known mask, uncached; with base, sharing base's nodes from start on.

    base is the schedule of a mask that equals known from position start on
    and knows less below it.  A node depends only on its positions' part of
    the mask, so every node of base lying wholly at or above start is reused
    as it is, and only the nodes across start are compiled.
    """
    before = np.concatenate(([0], np.cumsum(~known)))  # unknown positions below i
    if base is None:  # read at every node: Python ints index faster than numpy scalars
        before = before.tolist()

    def node(lo: int, hi: int, old: _Node | None) -> _Node | None:
        unknown = before[hi] - before[lo]
        m = hi - lo
        d = m.bit_length() - 1
        if unknown == 0:
            return None
        if base is not None and lo >= start:  # the same positions and mask as in base
            return old
        j = (lo >> d).bit_count()  # one g step for every right half on the path from the root
        if d and unknown == 1 and before[hi - 1] == before[lo]:  # a leaf is rate 1, not Rep
            return _Node(True, lo, hi, d, j, 0.0, None, None, None)
        check = None if unknown == m else _parity_check(known[lo:hi])
        left, right = (old.left, old.right) if old else (None, None)
        children = (node(lo, lo + m // 2, left), node(lo + m // 2, hi, right)) if d else (None, None)
        return _Node(False, lo, hi, d, j, RATE1_GUARD * d + 2 * SC_TIE, check, *children)

    root = node(0, known.size, base)
    del node  # node refers to itself through its closure: this frees `before` now, not at a gc pass
    return root


# Positions one check matrix spans.  A node up to this size holds its own (k, m)
# matrix, at most 16 KiB; a larger one, which rarely passes its guard, shares
# the full matrix of this size.
_CHECK_SPAN = 64


def _parity_check(known: np.ndarray) -> tuple:
    """A mixed node's parity check (C, rows) for _parity_holds, from its part of the known mask.

    A node of m <= _CHECK_SPAN positions gets its own read-only float32 (k, m) matrix
    C = F^(kron d)[:, known]^T, which maps the node's partial sums to u at its k known
    positions, and rows = Ellipsis.  A larger node shares the full (_CHECK_SPAN,
    _CHECK_SPAN) matrix, and rows is its known mask in spans of _CHECK_SPAN positions.
    """
    if known.size > _CHECK_SPAN:
        return _polar_matrix(_CHECK_SPAN), known.reshape(-1, _CHECK_SPAN)
    C = _polar_matrix(known.size)[known]
    C.flags.writeable = False
    return C, ...


@lru_cache(maxsize=None)
def _polar_matrix(m: int) -> np.ndarray:
    """F^(kron log2 m)^T as a read-only float32 (m, m) array: u = T v for partial sums v, positions major."""
    T = _stages(_GF2, np.eye(m, dtype=np.uint8).T, _halves(m.bit_length() - 1, 0)).T.astype(np.float32)
    T.flags.writeable = False
    return T


def _known_sums(known: np.ndarray) -> list:
    """sums[d][lo:lo+2^d] = F^(kron 2^d) applied to known[lo:lo+2^d] for every aligned block.

    known is (N, B), positions major like every SC tree array, so a stage over halves of h
    positions is one over h B entries of the flat array.  The stages commute: running them
    from the shortest half up gives every block size in one pass.
    """
    return _levels(known, range(known.shape[0].bit_length() - 1))


def _sums_from_x(xr: np.ndarray) -> list:
    """_known_sums of u = x G_N for every column x, from xr = x in bit-reversed order, (N, B).

    The root's partial sums u F^(kron n) are x B_N (see decode_batch), so sums[n] = xr.  Each
    stage is its own inverse and the stages commute, so running them from the widest half
    down takes away one block size at a time; the last level is u = sums[0].
    """
    return _levels(xr, range(xr.shape[0].bit_length() - 2, -1, -1))[::-1]


def _levels(v: np.ndarray, ds) -> list:
    """[v, then per d in ds a C-ordered copy of the level before with its stage over halves of 2^d positions].

    v is (N, B), positions major; each copy's stage runs on its flat array (see _known_sums).
    """
    levels = [v]
    for d in ds:
        levels.append(levels[-1].copy())
        _stage(_GF2, levels[-1].reshape(-1), v.shape[1] << d)
    return levels


def _decode_node(L, node, sums, beta, J):
    """Decode u[lo:hi] from the node's llrs L (m, B) into beta[lo:hi], its partial sums.

    node is its entry in the compiled _schedule; it has an unknown position.
    The partial sums u[lo:hi] F^(kron m) are the node's part of the
    re-encoded block, which its parent needs for g; sums (see _known_sums)
    holds those of the known bits, unknown ones set to 0.  beta is the
    tree's one (N, B) partial-sum array: a split node reads its left half's
    sums there for g, then XORs its right half's into them.  J is the
    call's _clamp_depth: llrs at a g-depth up to J are not clamped.  Besides
    the plain SC split these rules apply, each deciding the bits SC decides:

    - A child with no unknown position (rate 0) copies its partial sums
      from sums, and its llrs (f for a left child, g for a right one) are
      never computed.
    - Rep: only the last position is unknown.  With c = sums[d][lo:hi], its
      llr is the signed sum of (-1)^c L (a sign-bit flip, _signed), halved
      d times as L[:h] + L[h:], each halving clamped unless its g-depth is
      at most J.  Its decision
      then flips every partial sum, since the last row of F^(kron m) is all
      ones.  Proof that the sum is SC's chain of g steps, each against a
      rate-0 left half: write c = (c_L xor c_R, c_R) for the partial sums
      c_L of the left half and c_R of the right half, as F^(kron m) builds
      them.  SC's first step gives the right half b + (-1)^c_L a, and the
      halving gives (-1)^(c_L xor c_R) a + (-1)^c_R b = (-1)^c_R (b +
      (-1)^c_L a): negation is exact and commutes with rounding and with the
      clamp, an odd function.  So by induction on d the halvings carry SC's
      llrs with the signs (-1)^c_R pushed onto them, and the last one carries
      the sign of the unknown position's partial sum, which sums holds as 0.
      Only a zero's sign can differ (x + -x is +0 either way), and a zero
      decides 0 whatever its sign.
    - Guarded, every other node: if every |L| exceeds d (ln 2 + 1e-12) +
      2 SC_TIE and, in every row, u_hd = HD(L) F^(kron d) equals the known
      bits at the node's known positions (F^(kron d) is its own inverse over
      GF(2), so u_hd is the u whose partial sums are HD(L); _parity_holds
      checks it with the node's compiled matrix), its partial sums are the
      hard decisions HD(L) = (L < 0).  A leaf (d = 0) is a rate-1 node of
      size 1; its hard decision is SC's, with no guard.
      Proof with no known position (rate 1): the correction log1p(e^-|a+b|) -
      log1p(e^-|a-b|) in f lies in [-ln 2, ln 2] and float error adds under
      2e-13 for |a|, |b| <= L_MAX, so |f(a, b)| >= min(|a|, |b|) - ln 2 - 2e-13
      and sign f = sign a sign b once that minimum exceeds ln 2.  f thus meets
      the bound for d - 1.  If the left half decides the hard decisions of f,
      HD(a) xor HD(b), then g adds a and b with equal signs, so |g| >= |b|
      (clamping only lowers values above L_MAX >= |b|) and sign g = sign b.  By
      induction every leaf llr lies beyond 2 SC_TIE of zero and decides its
      hard decision, and the node's partial sums (HD(a) xor HD(b) xor HD(b),
      HD(b)) are HD(L).  Without the guard this fails: for llrs (0, b) from a g
      that cancelled, f(0, b) = 0 is a tie that decides 0, so SC's partial sums
      are (HD(b), HD(b)) where the hard decisions are (0, HD(b)).
      The 2 SC_TIE margin is not what keeps leaves off a tie: for |a|, |b| >=
      x, |f(a, b)| >= phi(x) = x - ln 2 + log1p(e^-2x), with equality at |a| =
      |b| = x.  So a guard up to 1e-7 lower holds for both halves by the same
      induction and leaves every leaf llr beyond phi(ln 2 - 1e-7) - 2e-13 >
      0.223: it decides the same bits, and no test can tell it from this one.
      Proof with known positions (mixed): run SC on the node as if every
      position were unknown.  That is the rate-1 case, so it decides u_hd.  The
      real run agrees with it leaf by leaf, since a leaf's llr depends only on
      the decisions before it: an unknown leaf decides the same hard decision,
      and a known leaf is forced to its known bit, which the check made equal
      to u_hd's.
    A node that misses the guard or the check in any row splits as SC does.

    The clamps skipped up to g-depth J are idle, so every llr is SC's.  With
    M = max |channel llr|, an llr at g-depth j has |L| <= M 2^j + 1: |g| <=
    |a| + |b| (a float sum of two values at most X is at most 2X), and |f| <=
    min(|a|, |b|) + 2e-13, where the 2e-13 of at most n f steps, doubled by
    at most n g steps, stays under 1 for N <= 2^30.  _clamp_depth picks J so
    that M 2^J + 1 <= L_MAX: no llr up to g-depth J exceeds L_MAX, and a
    clamp acts only above it.
    """
    rep, lo, hi, d, j, guard, check, left, right = node
    if rep:
        c = sums[d][lo:hi]
        beta[lo:hi] = c ^ (_rep_llr(L, c, j, J) < -SC_TIE).view(np.uint8)
        return
    if d:
        h = 1 << (d - 1)
        mag = np.abs(L)
        mag = np.minimum(mag[:h], mag[h:])  # min(|a|, |b|): the guard's min |L|, and f's
    if d == 0 or np.minimum.reduce(mag, axis=None) > guard:
        hard = (L < -SC_TIE).view(np.uint8)
        if check is None or _parity_holds(hard, check, sums[d][lo:hi]):
            beta[lo:hi] = hard
            return
    a, b = L[:h], L[h:]
    if left is None:
        beta[lo : lo + h] = sums[d - 1][lo : lo + h]
    else:
        _decode_node(_combine_odd_vec(a, b, mag, j > J), left, sums, beta, J)
    del mag  # f, the left child's llrs: not held while the right child runs
    if right is None:
        beta[lo + h : hi] = sums[d - 1][lo + h : hi]
    else:
        _decode_node(_g(a, b, beta[lo : lo + h], j + 1 > J), right, sums, beta, J)
    beta[lo : lo + h] ^= beta[lo + h : hi]


def _rep_llr(L: np.ndarray, c: np.ndarray, j: int, J: int) -> np.ndarray:
    """The (1, B) llr of a Rep node's last position: (-1)^c L summed by halving, as SC's g chain.

    L (m, B) holds the node's llrs at g-depth j and c its partial sums, whose signs
    _signed applies exactly; a halving to a g-depth above J is clamped.  See
    _decode_node for why this is SC's llr.
    """
    L = _signed(L, c)
    while L.shape[0] > 1:
        h = L.shape[0] >> 1
        L = L[:h] + L[h:]
        j += 1
        if j > J:
            _clamp_vec(L)
    return L


def _parity_holds(hard: np.ndarray, check: tuple, sums: np.ndarray) -> bool:
    """Whether u_hd = hard F^(kron d) equals the known bits at the known positions in every row.

    check is the node's _parity_check (C, rows), and sums its partial sums of its known bits,
    unknown ones set to 0.  F^(kron d) is its own inverse over GF(2), so (hard xor sums)
    F^(kron d) is u_hd xor the known bits, and C (hard xor sums) holds its known positions as
    integers whose parity is the mismatch.  A node of more than _CHECK_SPAN positions first
    runs the butterfly stages over halves of _CHECK_SPAN positions or more; they commute with
    the rest, which the shared matrix applies to each span.  The float32 matmul is exact: an
    entry sums at most _CHECK_SPAN products of zeros and ones, an integer far below 2^24, in
    any order of summation and on any number of threads.
    """
    C, rows = check
    v = hard ^ sums
    m, B = v.shape
    span = C.shape[1]
    if m > span:
        _stages(_GF2, v.T, _halves(m.bit_length() - 1, span.bit_length() - 1))
    u = np.matmul(C, v.reshape(-1, span, B), dtype=np.float32)[rows]
    return not np.fmod(u, 2).any()


def _signed(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(-1)^c a as a fresh float64 array, for 0/1 c of a's shape: c shifted into a's sign bit.

    Flipping the sign bit is exact negation, signed zeros and subnormals included, so this
    is np.where(c, -a, a) bit for bit, without a branch on c.
    """
    s = c.astype(np.uint64)
    s <<= 63
    s ^= a.view(np.uint64)
    return s.view(np.float64)


def _g(a: np.ndarray, b: np.ndarray, left: np.ndarray, clamp: bool = True) -> np.ndarray:
    """b + a where the left half's partial sum is 0, b - a where it is 1; clamped if clamp.

    Computed as (-1)^left a + b: IEEE addition commutes and _signed negates exactly, so
    this is b +- a bit for bit.
    """
    v = _signed(a, left)
    v += b
    return _clamp_vec(v) if clamp else v


def genie_llr_profile(chan_llr: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Vectorized per-index llrs with the true prefix fed at every step.

    chan_llr and u_true are (samples, N); returns the (samples, N) array of
    decision llrs a sequential decoder would see given the true u prefix.
    """
    L = chan_llr[:, bit_reverse_indices(chan_llr.shape[1].bit_length() - 1)].T
    return _genie_llrs(L, _known_sums(np.asarray(u_true, dtype=np.uint8).T), -1).T


def _genie_llrs(L: np.ndarray, sums: list, J: int) -> np.ndarray:
    """Every position's decision llrs given the true u, as an (N, B) array.

    L is the (N, B) array of channel llrs in bit-reversed order, one row
    per position; a C-ordered L is overwritten with the result.  sums is
    _known_sums of the true (N, B) u.  A genie knows every u, so nothing
    waits on a decision and the tree runs level by level: at level t each
    of the 2^t nodes splits into halves a and b, its left child gets
    f(a, b) and its right child g(a, b) signed by the left child's true
    partial sums, as in _decode_node.  After log2 N levels row i holds
    u_i's llrs.  Positions major keeps every inner loop B llrs long, even
    where the halves hold one position.  J is the call's _clamp_depth (-1
    clamps everything): at level t the left children sit at g-depth at
    most t and the right children at most t + 1, so a level's f or g
    clamps are skipped when that depth is at most J, where _decode_node
    proves them idle.
    """
    N, B = L.shape
    n = N.bit_length() - 1
    flat = L.reshape(-1)
    for t in range(n):
        nodes = flat.reshape(1 << t, 2, -1)
        a, b = nodes[:, 0], nodes[:, 1]
        right = _g(a, b, sums[n - t - 1].reshape(1 << t, 2, -1)[:, 0], t + 1 > J)
        nodes[:, 0] = _combine_odd_vec(a, b, clamp=t > J)
        nodes[:, 1] = right
    return flat.reshape(N, B)


def _combine_odd_vec(a: np.ndarray, b: np.ndarray, mag: np.ndarray | None = None,
                     clamp: bool = True) -> np.ndarray:
    """llr_combine_odd elementwise, computed in place in two buffers; clamped if clamp.

    mag, if given, is min(|a|, |b|) as a fresh array, which becomes the result.
    copysign(min, a b) is sign(a) sign(b) min: |a b| <= L_MAX^2 cannot
    overflow, an underflow keeps its sign, and min is 0 when a or b is.
    """
    m = np.minimum(np.abs(a), np.abs(b)) if mag is None else mag
    np.copysign(m, a * b, out=m)
    m += _log1p_exp_neg_abs(np.add(a, b))
    m -= _log1p_exp_neg_abs(np.subtract(a, b))
    return _clamp_vec(m) if clamp else m


def _log1p_exp_neg_abs(v: np.ndarray) -> np.ndarray:
    """log1p(exp(-|v|)) of a fresh array, in place."""
    np.abs(v, out=v)
    np.negative(v, out=v)
    np.exp(v, out=v)
    return np.log1p(v, out=v)


def _clamp_vec(v: np.ndarray) -> np.ndarray:
    """Saturate a fresh array to +-L_MAX in place (np.clip costs more on small arrays)."""
    return np.minimum(np.maximum(v, -L_MAX, out=v), L_MAX, out=v)
