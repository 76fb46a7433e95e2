"""Polarization spectra and high-entropy index sets.

Four ways to obtain per-index statistics of U^N = X^N G_N:

* exact enumeration of the joint law (hard-capped state budget),
* propagation of the Bhattacharyya bound pair (2z - z^2, z^2), giving
  certified upper bounds that are exact for erasure-type side information,
* Tal-Vardy degrading merges of the equivalent symmetric channel, giving
  certified upper bounds much tighter than the pair recursion,
* Monte-Carlo genie-aided estimation (estimates, never certificates).
  Samples are drawn and processed in chunks, on every usable core through
  the ordered chunk pipeline (pipeline.ordered), so memory does not grow
  with the sample count; the estimates are the same, bit for bit, whatever
  the thread count.  The calling thread draws the uniforms, in stream
  order; the jobs invert them into the cells
  Generator.choice would draw, take the genie's partial sums straight
  from x, and skip the clamps the side symbols' llrs prove idle.  `freeze`
  reads only z, so it asks for no h terms.  Only this estimator uses scdec
  and pipeline, and it imports them when it runs.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, DomainError, FormatError, UnsupportedAlphabetError
from .field import FieldSpec
from .sources import JointSource, _entropy_nats, bhattacharyya
from .transform import MAX_BLOCK_LENGTH, _check_block_length, _check_count, _forward_rows, bit_reverse_indices

METHOD_EXACT = "exact"
METHOD_ZBOUND = "zbound"
METHOD_MC = "mc"
METHOD_TV = "tv"

STATE_BUDGET = 1 << 24
_PERM_CHUNK = 1 << 16

# Tal-Vardy merging: each synthetic channel keeps at most TV_MERGE_SIZE
# conjugate output pairs, binned uniformly in log(1 + LLR); pairs with an
# LLR above _TV_LLR_CAP (z below 1e-13) share the last bin.
TV_MERGE_SIZE = 32
_TV_LLR_CAP = 64.0
_TV_BIN_SCALE = (TV_MERGE_SIZE - 1) / math.log1p(_TV_LLR_CAP)
_TV_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class PolarSpectrum:
    """Per-index h/z values (or bounds/estimates) for one block length."""

    N: int
    method: str
    h: np.ndarray | None
    z: np.ndarray | None
    source_desc: dict | None = None
    samples: int | None = None
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class HighEntropySet:
    """Index set E(N, R): the ceil(NR) indices of largest z (1-based).

    indices, given as a 1-D integer array or a sequence of Python ints, is
    kept as the set's own sorted, read-only int64 array, and mask is built
    from it.  Two sets are equal when their manifests are.  N is a power of
    two up to transform.MAX_BLOCK_LENGTH (2**30), and R a number (not a
    bool) in (0, 1].  to_json writes the manifest file and from_json reads
    it.
    """

    N: int
    rate: float
    indices: np.ndarray
    fingerprint: str
    method: str
    seed: int | None
    source_desc: dict | None
    mask: np.ndarray = field(init=False, repr=False)  # read-only, True at i-1

    def __post_init__(self):
        N, R, idx, fp = self.N, self.rate, self.indices, self.fingerprint
        if type(N) is not int or not 1 <= N <= MAX_BLOCK_LENGTH or N & (N - 1) or isinstance(R, bool) or not 0.0 < R <= 1.0:
            raise FormatError(f"N={N!r}, R={R!r}: N must be a power of two up to 2**30 and R a number in (0, 1]")
        if not (isinstance(fp, str) and len(fp) == 16 and set(fp) <= set("0123456789abcdef")):
            raise FormatError(f"fingerprint {fp!r} is not 16 lowercase hex digits")
        bad = FormatError(f"indices must be ceil(NR) strictly increasing integers in 1..{N}")
        if isinstance(idx, np.ndarray):
            if idx.ndim != 1 or idx.dtype.kind != "i":
                raise bad
            arr = idx.astype(np.int64)  # the set's own copy: a later write into idx leaves the set as it is
        elif set(map(type, idx)) != {int}:  # bool is not int
            raise bad
        else:
            try:
                arr = np.fromiter(idx, np.int64, len(idx))
            except OverflowError:
                raise bad from None
        if arr.size != math.ceil(N * R) or arr[0] < 1 or arr[-1] > N or (arr[1:] <= arr[:-1]).any():
            raise bad
        arr.setflags(write=False)
        mask = np.zeros(N, dtype=bool)
        mask[arr - 1] = True
        mask.setflags(write=False)
        object.__setattr__(self, "indices", arr)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        return self.to_manifest() == other.to_manifest() if isinstance(other, HighEntropySet) else NotImplemented

    def to_manifest(self) -> dict:
        return self._manifest(self.indices.tolist())

    def _manifest(self, indices) -> dict:
        return {
            "N": self.N,
            "R": self.rate,
            "indices": indices,
            "fingerprint": self.fingerprint,
            "method": self.method,
            "seed": self.seed,
            "source": self.source_desc,
        }

    def to_json(self) -> bytes:
        """The manifest file: (json.dumps(self.to_manifest(), sort_keys=True, indent=2) + "\\n").encode().

        json writes every other field, with 0 for the index list, and the
        list's lines take the place of that 0, written for all indices of
        one digit count at once (_index_lines).
        """
        head, _, tail = json.dumps(self._manifest(0), sort_keys=True, indent=2).partition('\n  "indices": 0')
        groups = np.split(self.indices, self.indices.searchsorted(10 ** np.arange(1, len(str(self.N)))))
        body = b"".join(_index_lines(g, digits) for digits, g in enumerate(groups, 1))[1:]  # no comma before the first
        return f'{head}\n  "indices": ['.encode() + body + f"\n  ]{tail}\n".encode()

    @staticmethod
    def from_manifest(doc: dict) -> "HighEntropySet":
        """The set of a manifest dict; its "indices" are a list of Python ints, or an int64 array (from_json)."""
        try:
            return HighEntropySet(
                N=doc["N"],
                rate=doc["R"],
                indices=doc["indices"],
                fingerprint=doc["fingerprint"],
                method=doc["method"],
                seed=doc.get("seed"),
                source_desc=doc["source"],
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed index-set manifest: {exc!r}") from None

    @staticmethod
    def from_json(text: str) -> "HighEntropySet":
        """from_manifest(json.loads(text)), with the top-level index list read as one int64 array (_manifest_doc)."""
        return HighEntropySet.from_manifest(_manifest_doc(text))


_INDEX_BYTES = b"0123456789, \t\n\r"  # the bytes _int_array reads; any other leaves the list to json
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # v in 1..10**18 - 1 has _POW10.searchsorted(v, "right") digits
_INDICES_KEY = re.compile(r'"indices"[ \t\n\r]*:[ \t\n\r]*\[')  # json's whitespace only, not \s


def _manifest_doc(text: str) -> dict:
    """json.loads(text), except that a top-level "indices" list of JSON integers comes back as one int64 array.

    The reverse of to_json's splice: _int_array reads the list after the
    first '"indices": [' up to the next "]", and json.loads reads the rest
    of the text with 0 in the list's place.  That result, with the array
    for the 0, is returned only when _int_array took the list, neither the
    text before the key nor the text after the list holds a backslash or
    "indices", and the result is a dict with a top-level "indices".  Why it
    is json.loads(text) then: with no escape and no second "indices"
    outside the list, the key is the only string "indices" in the text.
    The two texts give json the same tokens everywhere but the value (a
    list of JSON integers in one, 0 in the other), so one parses exactly
    when the other does, to the same values, and a top-level "indices" in
    the result is the spliced one.  Every other text goes to json.loads,
    which gives its value or raises its error.
    """
    key = _INDICES_KEY.search(text)
    close = text.find("]", key.end()) if key else -1
    arr = None if close < 0 else _int_array(text[key.end() : close].encode())
    parts = () if arr is None else (text[: key.start()], text[close + 1 :])
    if parts and not any("\\" in part or "indices" in part for part in parts):
        try:
            doc = json.loads('"indices": 0'.join(parts))
        except ValueError:
            return json.loads(text)  # raises: text fails wherever the spliced text does
        if isinstance(doc, dict) and "indices" in doc:
            doc["indices"] = arr
            return doc
    return json.loads(text)


def _int_array(raw: bytes) -> np.ndarray | None:
    """The integers of raw, the inside of a JSON list, as int64; None unless each lies in 1..10**18 - 1.

    np.fromstring reads them.  It also reads what json rejects (+1, 01, a
    trailing comma, a missing number as 0, \\v as whitespace) and saturates
    past int64, so the list is taken only where raw holds nothing but
    digits, commas and json's whitespace, one value is read per
    comma-separated item, every value lies in 1..10**18 - 1 (none is a 0
    read from no digits, or saturated), and the values' decimal digits add
    up to the digits of raw (no number starts with 0, and none is left
    unread).  An index set holds no other list; json reads any other.
    """
    if raw.translate(None, _INDEX_BYTES):
        return None
    try:
        values = np.fromstring(raw, dtype=np.int64, sep=",")
    except ValueError:  # a separator missing
        return None
    c = np.frombuffer(raw, dtype=np.uint8)
    flags = np.equal(c, ord(","))
    if values.size != np.count_nonzero(flags) + 1 or values.min() < 1 or values.max() >= 10**18:
        return None
    digits = np.count_nonzero(np.greater_equal(c, ord("0"), out=flags))
    return values if _POW10.searchsorted(values, side="right").sum() == digits else None


def _index_lines(values: np.ndarray, digits: int) -> bytes:
    """The manifest lines of values that all have `digits` digits, each a comma, a newline, 4 spaces and its digits."""
    rows = np.empty((values.size, 6 + digits), dtype=np.uint8)
    rows[:, :6] = np.frombuffer(b",\n    ", dtype=np.uint8)
    for col in range(5 + digits, 5, -1):
        values, rows[:, col] = np.divmod(values, 10)
    rows[:, 6:] += ord("0")
    return rows.tobytes()


def spectrum_fingerprint(source_desc, N: int, method: str, seed) -> str:
    # The merge size decides which indices tv selects, so it is hashed too;
    # a change to the bin rule must change this tag as well.
    tag = f"{METHOD_TV}{TV_MERGE_SIZE}" if method == METHOD_TV else method
    blob = json.dumps(
        {"source": source_desc, "N": N, "method": tag, "seed": seed},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@lru_cache(maxsize=32)
def _transform_permutation(field: FieldSpec, N: int) -> np.ndarray:
    """perm[x_index] = index of x G_N, both in most-significant-first digits."""
    q = field.q
    total = q**N
    weights = q ** np.arange(N - 1, -1, -1, dtype=np.int64)
    perm = np.empty(total, dtype=np.int64)
    for start in range(0, total, _PERM_CHUNK):
        xs = np.arange(start, min(start + _PERM_CHUNK, total), dtype=np.int64)
        digits = (xs[:, None] // weights[None, :]) % q
        perm[start : start + xs.shape[0]] = _forward_rows(field, digits) @ weights
    return perm


def exact_spectrum(s: JointSource, N: int) -> PolarSpectrum:
    """Exact h (and, for q=2, z) spectrum by full enumeration."""
    _check_block_length(N)
    q, ys = s.q, s.y_size
    if N * math.log2(q * ys) > math.log2(STATE_BUDGET):  # the power itself has millions of digits near N=2^30
        raise BudgetExceededError(f"(q*y_size)^N = {q * ys}^{N} exceeds the {STATE_BUDGET} state budget")
    joint = s.probs
    for _ in range(N - 1):
        joint = np.kron(joint, s.probs)
    # joint is (q^N, ys^N) with symbol 1 as the most significant digit.
    perm = _transform_permutation(s.field, N)
    pu = np.empty_like(joint)
    pu[perm] = joint

    lnq = math.log(q)
    h = np.empty(N)
    z = np.empty(N) if s.field.is_binary else None
    marg = pu
    ent_hi = _entropy_nats(marg)
    for i in range(N, 0, -1):
        shaped = marg.reshape(q ** (i - 1), q, ys**N)
        if z is not None:
            z[i - 1] = 2.0 * float(np.sqrt(shaped[:, 0, :] * shaped[:, 1, :]).sum())
        marg = shaped.sum(axis=1)
        ent_lo = _entropy_nats(marg)
        h[i - 1] = (ent_hi - ent_lo) / lnq
        ent_hi = ent_lo
    np.clip(h, 0.0, None, out=h)
    if z is not None:
        np.clip(z, 0.0, 1.0, out=z)
    return PolarSpectrum(N=N, method=METHOD_EXACT, h=h, z=z, source_desc=s.description())


def zbound_spectrum(s: JointSource, N: int) -> PolarSpectrum:
    """Certified z upper bounds via n levels of (2z - z^2, z^2).

    Index i's branch sequence is read from the bits of i-1, most
    significant first (0 -> minus, 1 -> plus).
    """
    n = _check_block_length(N)
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("z-bound propagation requires q = 2")
    z = np.array([bhattacharyya(s)])
    for _ in range(n):
        nxt = np.empty(2 * z.shape[0])
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    np.clip(z, 0.0, 1.0, out=z)
    return PolarSpectrum(N=N, method=METHOD_ZBOUND, h=None, z=z, source_desc=s.description())


def tv_spectrum(s: JointSource, N: int) -> PolarSpectrum:
    """Certified z upper bounds by Tal-Vardy degrading merges.

    The source is the symmetric channel V -> (Y, V xor X).  Each side
    symbol y gives one conjugate output pair whose likelihoods under V = 0
    are (P(0, y), P(1, y)) and, swapped, under V = 1.  A channel is held as
    rows of such pairs (a, b) with a >= b; Z = sum 2 sqrt(a b).  After every
    minus/plus step the pairs are merged into TV_MERGE_SIZE bins of LLR.
    Merging outputs degrades a channel, and the polar steps preserve
    degradation, so every z_i is an upper bound; pairs of equal LLR merge
    losslessly, which makes the result exact for erasure side information.
    Index order matches zbound_spectrum.
    """
    n = _check_block_length(N)
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("Tal-Vardy construction requires q = 2")
    p0, p1 = s.probs
    a, b = _tv_merge(np.maximum(p0, p1)[None, :], np.minimum(p0, p1)[None, :])
    for _ in range(n):
        a, b = _tv_level(a, b)
    z = 2.0 * np.sqrt(a * b).sum(axis=1)
    np.clip(z, 0.0, 1.0, out=z)
    return PolarSpectrum(N=N, method=METHOD_TV, h=None, z=z, source_desc=s.description())


def _tv_level(a: np.ndarray, b: np.ndarray) -> tuple:
    """Minus (even rows) and plus (odd rows) children of every channel row."""
    rows, k = a.shape
    # (j, m) and (m, j) give identical pairs, so only j <= m is formed.
    j, m = np.triu_indices(k)
    twice = np.where(j == m, 1.0, 2.0)
    out_a = np.empty((2 * rows, TV_MERGE_SIZE))
    out_b = np.empty((2 * rows, TV_MERGE_SIZE))
    step = max(1, _TV_CHUNK // j.size)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        a1, b1 = a[lo:hi, j], b[lo:hi, j]
        a2, b2 = a[lo:hi, m] * twice, b[lo:hi, m] * twice
        aa, bb, ab, ba = a1 * a2, b1 * b2, a1 * b2, b1 * a2
        minus = _tv_merge(aa + bb, ab + ba)
        plus = _tv_merge(
            np.hstack([aa, np.maximum(ab, ba)]), np.hstack([bb, np.minimum(ab, ba)])
        )
        out_a[2 * lo : 2 * hi : 2], out_b[2 * lo : 2 * hi : 2] = minus
        out_a[2 * lo + 1 : 2 * hi : 2], out_b[2 * lo + 1 : 2 * hi : 2] = plus
    return out_a, out_b


def _tv_merge(a: np.ndarray, b: np.ndarray) -> tuple:
    """Sum each row's pairs (a, b) into TV_MERGE_SIZE bins of log(1 + LLR).

    Rows of at most TV_MERGE_SIZE pairs are only padded with empty pairs.
    """
    rows, k = a.shape
    if k <= TV_MERGE_SIZE:
        pad = ((0, 0), (0, TV_MERGE_SIZE - k))
        return np.pad(a, pad), np.pad(b, pad)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        llr = np.log(a / b)
    # b = 0 gives +inf (last bin); fmax sends 0/0, a pair of zero mass, and
    # rounding just below a = b to bin 0.
    scaled = np.log1p(np.fmax(llr, 0.0)) * _TV_BIN_SCALE
    bins = np.minimum(scaled, TV_MERGE_SIZE - 1).astype(np.int64)
    bins += np.arange(0, rows * TV_MERGE_SIZE, TV_MERGE_SIZE)[:, None]
    size = rows * TV_MERGE_SIZE
    merged_a = np.bincount(bins.ravel(), weights=a.ravel(), minlength=size)
    merged_b = np.bincount(bins.ravel(), weights=b.ravel(), minlength=size)
    return merged_a.reshape(rows, -1), merged_b.reshape(rows, -1)


def montecarlo_spectrum(s: JointSource, N: int, samples: int, seed: int, *,
                        _entropy: bool = True) -> PolarSpectrum:
    """Genie-aided Monte-Carlo estimates of the h and z spectra.

    Samples are drawn and processed in chunks of batch_rows(N) rows, and at
    most one chunk per usable core, plus one, is in flight at a time, so
    memory does not grow with the sample count.  The calling thread draws
    the uniforms, rng.random((rows, N)), in order, and the chunk pipeline
    (pipeline.ordered) runs one job per chunk on every usable core, the
    calling thread's included: it inverts the uniforms against the cdf of
    s.probs (_cells), which gives the cells rng.choice(p=...) would draw
    from the same stream, and computes the chunk's genie llrs and its h and
    z terms; numpy releases the GIL in those loops.  One chunk runs inline,
    without a pool.  The partial sums come straight from x
    (scdec._sums_from_x), and the genie skips the clamps that the side
    symbols' largest |llr| proves idle (scdec._clamp_depth).  The terms are
    summed in sample order, so the estimates are the same, bit for bit, as
    one pass over all samples, whatever the thread count.  With _entropy
    off, h is None and no h term is computed: `freeze` reads only z.
    """
    from . import pipeline
    from .scdec import _clamp_depth, _llr_table, batch_rows

    n = _check_block_length(N)
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("Monte-Carlo estimation requires q = 2")
    _check_count(samples, "samples", 1)
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    cdf = _choice_cdf(s)
    table = _llr_table(s, np.flatnonzero(s.p_y() > 0))  # every side symbol a draw can hold
    cell_llrs = np.concatenate([table, table])  # cell x * y_size + y -> base_llr of y
    shared = (cdf, cell_llrs, bit_reverse_indices(n), _clamp_depth(table, n), _entropy)
    step = batch_rows(N)
    chunks = ((rng.random((min(step, samples - start), N)), *shared) for start in range(0, samples, step))
    totals = (None, None)
    for terms in pipeline.ordered(_genie_terms, chunks, pipeline._workers()):
        totals = _add_terms(totals, terms)
    h, z = totals
    return PolarSpectrum(
        N=N,
        method=METHOD_MC,
        h=None if h is None else h / samples / math.log(2.0),
        z=np.clip(z / samples, 0.0, 1.0),
        source_desc=s.description(),
        samples=samples,
        seed=seed,
    )


def _choice_cdf(s: JointSource) -> np.ndarray:
    """rng.choice's own cdf of the joint cells x * y_size + y; JointSource has checked p more strictly than choice does."""
    cdf = s.probs.reshape(-1).cumsum()
    cdf /= cdf[-1]
    return cdf


def _cells(uniforms: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(uniforms, side="right"), the cells rng.choice draws, in the smallest unsigned dtype.

    That is the count of cdf entries <= u, one compare-and-add pass per entry.
    The last entry is 1.0 and every u < 1, so it is never counted.
    """
    cells = np.zeros(uniforms.shape, np.min_scalar_type(cdf.size - 1))
    hit = np.empty(uniforms.shape, dtype=bool)
    for c in cdf[:-1]:
        cells += np.greater_equal(uniforms, c, out=hit).view(np.uint8)
    return cells


def _genie_terms(uniforms, cdf, cell_llrs, perm, J, entropy) -> tuple:
    """Per-sample h and z terms of a (B, N) chunk of uniforms, each C-ordered (B, N); h None without entropy.

    A cell indexes s.probs flattened, x * y_size + y, so x is 1 from cell
    y_size on.  The h term is -ln P(true bit) = logaddexp(0, -llr) for
    u = 0, logaddexp(0, llr) for u = 1; the z term is sech(llr / 2).
    """
    from .scdec import _genie_llrs, _sums_from_x

    cells = _cells(uniforms, cdf).T[perm]  # bit-reversed, positions major
    sums = _sums_from_x(np.greater_equal(cells, cell_llrs.size // 2).view(np.uint8))
    llrs = _genie_llrs(cell_llrs[cells], sums, J)
    llrs = np.ascontiguousarray(llrs.T)
    z = 1.0 / np.cosh(0.5 * llrs)
    if not entropy:
        return None, z
    u = np.ascontiguousarray(sums[0].T)
    return np.logaddexp(0.0, np.where(u == 0, -llrs, llrs)), z


def _add_terms(totals: tuple, terms: tuple) -> tuple:
    """The running sums (h, z) plus one chunk's terms, adding row after row; None stays None.

    A sum over axis 0 of a C-ordered array adds its rows in order, so each
    chunk continues the running sums exactly as one sum over every sample.
    (At N = 1 numpy sums a column pairwise, so there that holds only while
    every sample fits in one chunk.)
    """
    out = []
    for total, chunk in zip(totals, terms):
        if chunk is not None and total is not None:
            chunk[0] += total
        out.append(None if chunk is None else chunk.sum(axis=0))
    return tuple(out)


def build_high_entropy_set(spec: PolarSpectrum, R: float) -> HighEntropySet:
    """Select the ceil(NR) largest-z indices; ties go to the smaller index.

    One partition finds the k-th largest z, the cut: every z above it is
    kept, and of the z equal to it, the first k - #above.  That is the
    first k of a stable argsort of -z.  A NaN z raises DomainError.
    """
    _check_rate(R)
    z = spec.z
    if z is None:
        raise DomainError("spectrum has no z values to select on")
    if np.isnan(z).any():
        raise DomainError("spectrum has a NaN z value")
    k = math.ceil(spec.N * R)
    cut = np.partition(z, z.size - k)[z.size - k]
    chosen = z > cut
    chosen[np.flatnonzero(z == cut)[: k - np.count_nonzero(chosen)]] = True
    return HighEntropySet(
        N=spec.N,
        rate=R,
        indices=np.flatnonzero(chosen) + 1,
        fingerprint=spectrum_fingerprint(spec.source_desc, spec.N, spec.method, spec.seed),
        method=spec.method,
        seed=spec.seed,
        source_desc=spec.source_desc,
    )


def polarization_fractions(spec: PolarSpectrum, delta: float) -> dict:
    """Fractions of indices with h > 1-delta (high), h < delta (low), rest (mid)."""
    _check_delta(delta)
    if spec.h is None:
        raise DomainError("spectrum has no h values")
    high = float((spec.h > 1.0 - delta).mean())
    low = float((spec.h < delta).mean())
    return {"high": high, "low": low, "mid": 1.0 - high - low}


def _check_rate(R: float) -> None:
    """A rate outside (0, 1] raises DomainError."""
    if not 0.0 < R <= 1.0:
        raise DomainError(f"rate {R} outside (0, 1]")


def _check_delta(delta: float) -> None:
    """A polarization threshold outside (0, 1) raises DomainError."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta {delta} outside (0, 1)")
