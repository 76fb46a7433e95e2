"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the dense
transform matrix is built from np.kron, and the successive-MAP decoder
enumerates all source vectors through that matrix.
"""

import math

import numpy as np
import pytest

from srcpolar import CompressedBlock, FieldSpec, JointSource

F_KERNEL = np.array([[1, 0], [1, 1]], dtype=np.int64)


def bitrev(i: int, nbits: int) -> int:
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def dense_transform_matrix(q: int, N: int) -> np.ndarray:
    """G_N = kron-power of [[1,0],[1,1]] with bit-reversed columns, mod q."""
    n = N.bit_length() - 1
    g = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        g = np.kron(g, F_KERNEL)
    cols = [bitrev(j, n) for j in range(N)]
    return g[:, cols] % q


def dense_forward(x: np.ndarray, q: int, gf4: bool = False) -> np.ndarray:
    """u = x G_N by plain matrix multiply (XOR-fold for GF(4))."""
    N = len(x)
    g = dense_transform_matrix(q, N)
    if gf4:
        out = np.zeros(N, dtype=np.int64)
        for i in range(N):
            if x[i]:
                out = np.bitwise_xor(out, x[i] * g[i])  # entries of g are 0/1
        return out
    return (np.asarray(x, dtype=np.int64) @ g) % q


def successive_map_oracle(source: JointSource, y, known: dict | None = None):
    """Exhaustive sequential MAP decisions and exact posterior llrs.

    known maps 1-based indices to committed bits.  Returns (bits, llrs)
    with llr = ln P(U_i=0|...)/P(U_i=1|...), +-inf when degenerate.
    """
    known = known or {}
    N = len(y)
    q = source.q
    assert q == 2
    weights = {}
    for xi in range(2**N):
        digits = [(xi >> (N - 1 - j)) & 1 for j in range(N)]
        p = 1.0
        for d, yy in zip(digits, y):
            p *= source.probs[d, yy]
        u = tuple(int(v) for v in dense_forward(np.array(digits), 2))
        weights[u] = weights.get(u, 0.0) + p
    prefix = ()
    bits, llrs = [], []
    for i in range(1, N + 1):
        p0 = sum(w for u, w in weights.items() if u[: i - 1] == prefix and u[i - 1] == 0)
        p1 = sum(w for u, w in weights.items() if u[: i - 1] == prefix and u[i - 1] == 1)
        if p1 == 0.0:
            llr = math.inf
        elif p0 == 0.0:
            llr = -math.inf
        else:
            llr = math.log(p0 / p1)
        if i in known:
            bit = known[i]
        else:
            bit = 0 if llr >= 0 else 1
        bits.append(bit)
        llrs.append(llr)
        prefix = prefix + (bit,)
    return bits, llrs


def random_binary_source(rng: np.random.Generator, y_size: int, floor: float = 0.0) -> JointSource:
    table = rng.random((2, y_size)) + floor
    return JointSource(FieldSpec.binary(), table / table.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Writers make version 2 blocks only; these derive the version 1 form that older
# writers made of the same bits, so that the readers' version 1 path stays tested.
def plain_block(blk: CompressedBlock) -> CompressedBlock:
    """blk as a version 1 block: the same payload, without its crc32."""
    return CompressedBlock(1, blk.n, blk.fingerprint, blk.payload)


def plain_container(container) -> bytes:
    """A container of version 2 blocks as version 1: each block's crc32 (bytes 18-21) dropped, byte 4 set to 1."""
    body, pad = bytes(container[:-4]), bytes(container[-4:])
    if not body:
        return pad
    width = CompressedBlock.from_bytes(body)[1]
    rows = np.delete(np.frombuffer(body, dtype=np.uint8).reshape(-1, width), np.s_[18:22], axis=1)
    rows[:, 4] = 1
    return rows.tobytes() + pad


def _replace_indices(at: int, value):
    def edit(doc):
        indices = list(doc["indices"])
        indices[at] = value(doc)
        return {**doc, "indices": indices}

    return edit


# Malformed index-set manifests, each made from a valid manifest dict; loading
# any of them must fail with FormatError.
BAD_MANIFESTS = {
    **{
        f"missing_{key}": (lambda doc, key=key: {k: v for k, v in doc.items() if k != key})
        for key in ("N", "R", "indices", "fingerprint", "source")
    },
    "non_integer_index": _replace_indices(0, lambda doc: doc["indices"][0] + 0.5),
    "bool_index": _replace_indices(0, lambda doc: True),  # JSON true: a bool, though True == 1
    "index_0": _replace_indices(0, lambda doc: 0),
    "index_N_plus_1": _replace_indices(-1, lambda doc: doc["N"] + 1),
    "index_beyond_int64": _replace_indices(-1, lambda doc: 2**70),
    "duplicate_index": _replace_indices(1, lambda doc: doc["indices"][0]),
    "reversed_order": lambda doc: {**doc, "indices": doc["indices"][::-1]},
    "one_index_short": lambda doc: {**doc, "indices": doc["indices"][:-1]},
    "N_not_power_of_two": lambda doc: {**doc, "N": 12},
    "rate_above_one": lambda doc: {**doc, "R": 1.5},
    "rate_bool": lambda doc: {**doc, "R": True, "indices": list(range(1, doc["N"] + 1))},  # JSON true, N indices
    # a valid set but for N, past the 2**30 that scdec's clamp proof covers; ceil(NR) stays the list's length
    "N_beyond_2^30": lambda doc: {**doc, "N": 2**62, "R": len(doc["indices"]) / 2**62},
    "fingerprint_not_hex": lambda doc: {**doc, "fingerprint": "z" * 16},
}
