import time
import tracemalloc
import weakref

import numpy as np
import pytest

from srcpolar import (
    DomainError,
    FieldSpec,
    JointSource,
    OpCounter,
    SequentialDecoder,
    SymbolBlock,
    bit_reverse_permute,
    decode_batch,
    exact_spectrum,
    montecarlo_spectrum,
    polar_forward,
    polar_inverse,
    tv_spectrum,
    zbound_spectrum,
)
from srcpolar import transform
from srcpolar.transform import _forward_take, _inverse_rows, _kept_rows

from conftest import F_KERNEL, bitrev, dense_forward

GF2 = FieldSpec.binary()
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
GF4 = FieldSpec.gf4()


def blk(field, data):
    return SymbolBlock(field, data)


class TestBitReversal:
    def test_n2_identity(self):
        assert bit_reverse_permute(blk(GF2, [1, 0])) == blk(GF2, [1, 0])

    def test_n4(self):
        # 2-bit reversals: 00,10,01,11
        b = bit_reverse_permute(blk(GF3, [0, 1, 2, 0]))
        assert list(b.data) == [0, 2, 1, 0]

    def test_n8_index_map(self):
        b = bit_reverse_permute(blk(FieldSpec.prime(11), list(range(8))))
        assert list(b.data) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_self_inverse(self, rng):
        data = rng.integers(0, 2, 64)
        b = blk(GF2, data)
        assert bit_reverse_permute(bit_reverse_permute(b)) == b

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            blk(GF2, [0, 1, 0])


class TestForward:
    def test_fig1_pair(self):
        assert list(polar_forward(blk(GF2, [1, 1])).data) == [0, 1]

    def test_n4_hand_example(self):
        assert list(polar_forward(blk(GF2, [1, 1, 0, 0])).data) == [0, 0, 1, 0]

    def test_zeros_map_to_zeros(self):
        for N in [2, 8, 64]:
            assert list(polar_forward(blk(GF2, [0] * N)).data) == [0] * N

    def test_q3_pair(self):
        assert list(polar_forward(blk(GF3, [1, 2])).data) == [0, 2]

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(DomainError):
            blk(GF2, [0, 2])
        with pytest.raises(DomainError):
            blk(GF2, [0.5, 1.0])  # not truncated to [0, 1]
        with pytest.raises(DomainError):
            blk(GF2, 5)  # not one-dimensional
        assert blk(GF2, [0.0, 1.0]) == blk(GF2, [0, 1])


class TestInverse:
    def test_n4_inverts_hand_example(self):
        assert list(polar_inverse(blk(GF2, [0, 0, 1, 0])).data) == [1, 1, 0, 0]

    def test_gf2_inverse_is_forward(self, rng):
        for _ in range(1000):
            b = blk(GF2, rng.integers(0, 2, 256))
            u = polar_forward(b)
            assert polar_inverse(u) == polar_forward(u)

    def test_q3_pair(self):
        assert list(polar_inverse(blk(GF3, [0, 2])).data) == [1, 2]

    @pytest.mark.parametrize("field", [GF2, GF3, GF5, GF4], ids=str)
    def test_round_trip_all_fields(self, field, rng):
        for N in [1, 2, 4, 64, 1024, 4096]:
            b = blk(field, rng.integers(0, field.q, N))
            assert polar_inverse(polar_forward(b)) == b

    def test_gf2_forward_twice_is_identity(self, rng):
        b = blk(GF2, rng.integers(0, 2, 512))
        assert polar_forward(polar_forward(b)) == b


class TestMatrixOracle:
    @pytest.mark.parametrize("field", [GF2, GF3, GF5, GF4], ids=str)
    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_matches_dense_multiply(self, field, N, rng):
        for _ in range(40):
            x = rng.integers(0, field.q, N)
            want = dense_forward(x, field.q, gf4=field.kind == "gf4")
            assert list(polar_forward(blk(field, x)).data) == list(want)

    def test_exhaustive_gf2_n8(self):
        for xi in range(256):
            x = np.array([(xi >> (7 - j)) & 1 for j in range(8)])
            assert np.array_equal(polar_forward(blk(GF2, x)).data, dense_forward(x, 2))



class TestBlockedTake:
    """_forward_take runs half the stages, one transposing copy, then the other half."""

    @pytest.mark.parametrize("n", range(13))
    def test_matches_dense_multiply(self, n, rng):
        # Odd n gives halves of different sizes; n <= 1 leaves one half empty.
        N = 1 << n
        G = np.ones((1, 1), dtype=np.float32)  # 0/1 entries: sums up to 4N stay exact
        for _ in range(n):
            G = np.kron(G, F_KERNEL.astype(np.float32))
        G = G[:, [bitrev(j, n) for j in range(N)]]
        for field, dtype in ((GF2, np.uint8), (GF4, np.uint8), (GF5, np.int64)):
            for B in (1, 3, 16, 64):
                X = rng.integers(0, field.q, (B, N)).astype(dtype)
                if field.kind == "gf4":  # addition is XOR: multiply bit by bit
                    U = sum((((X >> c) & 1) @ G % 2).astype(np.int64) << c for c in range(2))
                else:
                    U = (X @ G % field.q).astype(np.int64)
                for mask in (rng.random(N) < 0.5, np.ones(N, dtype=bool), np.arange(N) == rng.integers(N)):
                    got = _forward_take(field, np.array(X.T, order="C"), _kept_rows(mask))  # a copy: V is overwritten
                    assert got.dtype == dtype and np.array_equal(got, U[:, mask])

    def test_chunk_freed_before_the_second_half(self, rng, monkeypatch):
        # Passed without a name, the untransposed chunk dies with the copy.
        chunk, alive = None, []
        stages = transform._stages

        def make():
            nonlocal chunk
            V = rng.integers(0, 2, (1024, 16), dtype=np.uint8)
            chunk = weakref.ref(V)
            return V

        def spy(*args):
            alive.append(chunk() is not None)
            return stages(*args)

        monkeypatch.setattr(transform, "_stages", spy)
        _forward_take(GF2, make(), _kept_rows(np.ones(1024, dtype=bool)))
        assert alive == [True, False]

def test_linearity(rng):
    for field in [GF2, GF3, GF4]:
        x = rng.integers(0, field.q, 64)
        y = rng.integers(0, field.q, 64)
        s = field.add_array(x, y)
        lhs = polar_forward(blk(field, s)).data
        rhs = field.add_array(polar_forward(blk(field, x)).data, polar_forward(blk(field, y)).data)
        assert np.array_equal(lhs, rhs)


def test_op_counter_counts_butterfly_adds():
    for N in [8, 64, 1024]:
        ops = OpCounter()
        polar_forward(blk(GF2, np.zeros(N, dtype=int)), ops)
        n = N.bit_length() - 1
        assert ops.count == (N // 2) * n


def test_inverse_needs_one_copy_of_its_input(rng):
    # The unpermuting gather makes the one new array; the stages run in place.
    rows = rng.integers(0, 2, (2048, 1024), dtype=np.uint8)
    want = np.array([polar_inverse(blk(GF2, r)).data for r in rows[:4]])
    tracemalloc.start()
    try:
        got = _inverse_rows(GF2, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * rows.nbytes
    assert got.dtype == np.uint8 and np.array_equal(got[:4], want)


def test_runtime_scales_quasilinearly(rng):
    # doubling N at n >= 12 should cost at most ~2.6x (smoke check)
    def best_of(N, reps=5):
        b = blk(GF2, rng.integers(0, 2, N))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            polar_forward(b)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = best_of(1 << 12)
    t_big = best_of(1 << 13)
    assert t_big <= 2.6 * max(t_small, 1e-4)  # floor guards timer noise


@pytest.mark.parametrize("make", [
    lambda: SymbolBlock(GF2, np.zeros(6, dtype=np.int64)),
    lambda: SequentialDecoder(JointSource.bernoulli(0.1), np.zeros(6, dtype=np.int64)),
    lambda: decode_batch(JointSource.bernoulli(0.1), None, np.zeros(6, dtype=bool),
                         np.zeros((1, 6), dtype=np.uint8)),
    lambda: exact_spectrum(JointSource.bernoulli(0.1), 6),
    lambda: zbound_spectrum(JointSource.bernoulli(0.1), 6),
    lambda: tv_spectrum(JointSource.bernoulli(0.1), 6),
    lambda: montecarlo_spectrum(JointSource.bernoulli(0.1), 6, 10, 0),
], ids=["SymbolBlock", "SequentialDecoder", "decode_batch", "exact", "zbound", "tv", "mc"])
def test_one_block_length_check(make):
    with pytest.raises(DomainError, match="^block length 6 is not a power of two$"):
        make()


def test_block_length_beyond_2_30_rejected():
    assert transform._check_block_length(1 << 30) == 30
    with pytest.raises(DomainError, match=r"^block length 2147483648 exceeds 2\*\*30$"):
        transform._check_block_length(1 << 31)
