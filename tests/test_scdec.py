import gc
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcpolar import (
    DomainError,
    FieldSpec,
    JointSource,
    L_MAX,
    ProtocolError,
    SC_TIE,
    SequentialDecoder,
    SymbolBlock,
    UnsupportedAlphabetError,
    base_llr,
    decode_batch,
    decode_block,
    genie_llr_profile,
    llr_combine_even,
    llr_combine_odd,
    polar_forward,
    polar_inverse,
    scdec,
)

from srcpolar.duality import ChannelModel, channel_decode_batch, channel_encode, make_duality_code
from srcpolar.spectrum import build_high_entropy_set, montecarlo_spectrum, zbound_spectrum
from srcpolar.transform import _forward_rows, _stage

from conftest import random_binary_source, successive_map_oracle


class TestBaseLlr:
    def test_balanced_is_zero(self):
        assert base_llr(JointSource.bernoulli(0.5), 0) == 0.0

    def test_ber011_closed_form(self):
        assert base_llr(JointSource.bernoulli(0.11), 0) == pytest.approx(
            math.log(0.89 / 0.11), abs=1e-3
        )

    def test_saturation_on_deterministic(self):
        s = JointSource.bec_pair(0.3)
        assert base_llr(s, 0) == L_MAX  # y=0 reveals x=0
        assert base_llr(s, 1) == -L_MAX
        assert base_llr(s, 2) == 0.0  # erasure

    def test_invalid_observation(self):
        s = JointSource(
            JointSource.bernoulli(0.5).field, np.array([[0.5, 0.0], [0.5, 0.0]])
        )
        with pytest.raises(DomainError):
            base_llr(s, 1)
        with pytest.raises(DomainError):
            base_llr(JointSource.bernoulli(0.5), 3)

    def test_nonbinary_rejected(self):
        with pytest.raises(UnsupportedAlphabetError):
            base_llr(JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3)), 0)


class TestCombines:
    def test_erasure_absorbs(self):
        for b in [-5.0, 0.0, 3.2, L_MAX]:
            assert llr_combine_odd(0.0, b) == pytest.approx(0.0, abs=1e-15)
            assert llr_combine_odd(b, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_min_sum_limit_signs(self):
        assert llr_combine_odd(L_MAX, L_MAX) == pytest.approx(L_MAX, abs=1.0)
        assert llr_combine_odd(L_MAX, -L_MAX) == pytest.approx(-L_MAX, abs=1.0)

    def test_ln3_example(self):
        v = llr_combine_odd(math.log(3), math.log(3))
        assert v == pytest.approx(math.log(10 / 6), abs=1e-6)

    def test_commutative(self, rng):
        for _ in range(100):
            a, b = rng.normal(0, 5, 2)
            assert llr_combine_odd(a, b) == llr_combine_odd(b, a)

    def test_matches_ratio_formula(self, rng):
        for _ in range(200):
            a, b = rng.normal(0, 3, 2)
            la, lb = math.exp(a), math.exp(b)
            want = math.log((la * lb + 1) / (la + lb))
            assert llr_combine_odd(a, b) == pytest.approx(want, abs=1e-10)

    def test_vectorised_matches_scalar(self, rng):
        a = np.concatenate([rng.normal(0, 10, 500), [0.0, -0.0, 0.0, L_MAX, -L_MAX, 1e-300]])
        b = np.concatenate([rng.normal(0, 10, 500), [0.0, 3.0, -3.0, L_MAX, L_MAX, -1e-300]])
        got = scdec._combine_odd_vec(a[None], b[None])[0]
        want = [llr_combine_odd(x, y) for x, y in zip(a, b)]
        # numpy's exp and log1p may differ from math's in the last place
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        assert np.array_equal(np.sign(got), np.sign(want))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 100.0), da=st.floats(0.0, 100.0), db=st.floats(0.0, 100.0),
           sa=st.sampled_from([-1.0, 1.0]), sb=st.sampled_from([-1.0, 1.0]))
    def test_odd_magnitude_lower_bound(self, x, da, db, sa, sb):
        # For |a|, |b| >= x, |f(a, b)| >= phi(x) = x - ln 2 + log1p(e^-2x), with
        # equality at |a| = |b| = x: the lemma behind the guard's margin in
        # _decode_node.  Float error is under 2e-13 here.
        phi = x - math.log(2) + math.log1p(math.exp(-2 * x))
        a, b = np.array([sa * (x + da), sa * x]), np.array([sb * (x + db), sb * x])
        f = scdec._combine_odd_vec(a, b)
        assert abs(f[0]) >= phi - 2e-13
        assert abs(f[1]) == pytest.approx(phi, rel=0, abs=2e-13)

    def test_even_branch(self):
        assert llr_combine_even(1.5, 2.0, 0) == pytest.approx(3.5)
        assert llr_combine_even(1.5, 2.0, 1) == pytest.approx(0.5)
        assert llr_combine_even(2.0907, 2.0907, 0) == pytest.approx(4.1814)

    def test_even_saturates(self):
        assert llr_combine_even(L_MAX, L_MAX, 0) == L_MAX
        assert llr_combine_even(L_MAX, -L_MAX, 1) == -L_MAX


class TestDecideNext:
    def test_tie_decodes_zero(self):
        dec = SequentialDecoder(JointSource.bernoulli(0.5), N=2)
        bit, llr = dec.decide_next(1)
        assert llr == 0.0 and bit == 0

    def test_known_overrides(self):
        dec = SequentialDecoder(JointSource.bernoulli(0.11), N=2)
        bit, llr = dec.decide_next(1, known=1)
        assert bit == 1 and llr > 0  # llr says 0, the known bit wins

    def test_out_of_order_rejected(self):
        dec = SequentialDecoder(JointSource.bernoulli(0.11), N=4)
        dec.decide_next(1)
        with pytest.raises(ProtocolError):
            dec.decide_next(3)
        with pytest.raises(ProtocolError):
            dec.decide_next(1)

    @pytest.mark.parametrize("source, y, N, message", [
        (JointSource.bernoulli(0.11), None, None, "N is required when no side block is given"),
        (JointSource.bsc_pair(0.11), None, 4, "side block required for a source with side information"),
        (JointSource.bsc_pair(0.11), np.zeros(4, dtype=np.int64), 8, "explicit N disagrees with side block length"),
    ], ids=["no_N_no_side", "side_information_without_side", "N_disagrees"])
    def test_block_arguments_checked(self, source, y, N, message):
        with pytest.raises(DomainError, match=message):
            SequentialDecoder(source, y, N)

    def test_known_bit_must_be_a_bit(self):
        dec = SequentialDecoder(JointSource.bernoulli(0.11), N=2)
        with pytest.raises(DomainError, match="known bit must be 0 or 1, got 2"):
            dec.decide_next(1, known=2)

    def test_side_symbols_must_be_whole_numbers(self):
        # rejected, not truncated to whole symbols and decoded
        s = JointSource.bsc_pair(0.11)
        for y in ([0.5, 1.7], [0.0, np.nan], 5):
            with pytest.raises(DomainError):
                decode_block(s, y, {})
        assert np.array_equal(decode_block(s, [0.0, 1.0], {})[0], decode_block(s, [0, 1], {})[0])

    def test_n4_matches_successive_map(self):
        s = JointSource.bernoulli(0.11)
        dec = SequentialDecoder(s, N=4)
        got = [dec.decide_next(i)[0] for i in range(1, 5)]
        want, _ = successive_map_oracle(s, [0, 0, 0, 0])
        assert got == want


class TestOracleEquivalence:
    @pytest.mark.parametrize("N", [2, 4])
    @pytest.mark.parametrize("y_size", [1, 2])
    def test_all_side_blocks(self, N, y_size, rng):
        for _ in range(5):
            s = random_binary_source(rng, y_size, floor=0.02)
            for y in itertools.product(range(y_size), repeat=N):
                self._check_case(s, list(y))

    def test_random_configs_n8(self, rng):
        for _ in range(200):
            y_size = int(rng.integers(1, 4))
            s = random_binary_source(rng, y_size, floor=0.02)
            y = [int(v) for v in rng.integers(0, y_size, 8)]
            self._check_case(s, y)

    @staticmethod
    def _check_case(s, y):
        dec = SequentialDecoder(s, np.array(y))
        got = [dec.decide_next(i) for i in range(1, len(y) + 1)]
        # replay the decoder's path through the oracle so a hard tie
        # (llr within rounding of zero) cannot fork the comparison
        path = {i: bit for i, (bit, _) in enumerate(got, start=1)}
        _, want_llrs = successive_map_oracle(s, y, path)
        for (bit, llr), want in zip(got, want_llrs):
            if abs(want) < 600:
                assert llr == pytest.approx(want, abs=1e-9)
            if abs(want) > 1e-9:
                assert bit == (0 if want >= 0 else 1)


def test_known_positions_match_oracle(rng):
    for _ in range(50):
        s = random_binary_source(rng, 2, floor=0.02)
        y = [int(v) for v in rng.integers(0, 2, 8)]
        known = {int(i): int(rng.integers(0, 2)) for i in rng.choice(8, 3, replace=False) + 1}
        got, _ = decode_block(s, np.array(y), known)
        path = {i: int(b) for i, b in enumerate(got, start=1)}
        _, want_llrs = successive_map_oracle(s, y, path)
        for i, (b, want) in enumerate(zip(got, want_llrs), start=1):
            if i in known:
                assert b == known[i]
            elif abs(want) > 1e-9:
                assert b == (0 if want >= 0 else 1)


def test_combine_count_is_nlogn():
    s = JointSource.bernoulli(0.11)
    for n in range(1, 11):
        N = 1 << n
        _, count = decode_block(s, None, {}, N=N)
        assert count == N * n


def test_determinism():
    s = JointSource.bsc_pair(0.11)
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    a, _ = decode_block(s, y, {1: 1, 5: 0})
    b, _ = decode_block(s, y, {1: 1, 5: 0})
    assert np.array_equal(a, b)


def test_genie_profile_matches_sequential_decoder(rng):
    # feeding the true bits into decide_next reproduces the vectorized path
    s = JointSource.bsc_pair(0.2)
    for _ in range(20):
        N = 16
        y = rng.integers(0, 2, N)
        u_true = rng.integers(0, 2, N)
        chan = np.array([[base_llr(s, int(v)) for v in y]])
        prof = genie_llr_profile(chan, u_true.reshape(1, N))[0]
        dec = SequentialDecoder(s, y)
        for i in range(1, N + 1):
            _, llr = dec.decide_next(i, known=int(u_true[i - 1]))
            assert llr == pytest.approx(prof[i - 1], rel=1e-12, abs=1e-12)


SOURCES = [
    JointSource.bsc_pair(0.11),
    JointSource.bec_pair(0.4),
    JointSource.bernoulli(0.11),
]


def _row_by_row(s, Y, mask, known_vals):
    """decode_block's u times G_N for each row: what decode_batch returns."""
    rows = []
    for y, vals in zip(Y, known_vals):
        known = {int(i) + 1: int(vals[i]) for i in np.flatnonzero(mask)}
        rows.append(polar_forward(SymbolBlock(s.field, decode_block(s, y, known)[0])).data)
    return np.array(rows)


class TestDecodeBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        N=st.sampled_from([1, 2, 8, 64, 1024]),
        B=st.sampled_from([1, 3, 16]),
        kind=st.integers(0, len(SOURCES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sequential_decoder(self, N, B, kind, seed):
        rng = np.random.default_rng(seed)
        s = SOURCES[kind] if kind < len(SOURCES) else random_binary_source(rng, 3, floor=0.02)
        mask = rng.random(N) < rng.random()
        known_vals = rng.integers(0, 2, (B, N))
        Y = rng.integers(0, s.y_size, (B, N))
        got = decode_batch(s, Y, mask, known_vals)
        assert got.shape == (B, N)
        assert np.array_equal(got, _row_by_row(s, Y, mask, known_vals))
        u = np.array([polar_inverse(SymbolBlock(s.field, x)).data for x in got])
        assert np.array_equal(u[:, mask], known_vals[:, mask])

    def test_chunks_give_the_same_bits(self, rng, monkeypatch):
        s = JointSource.bsc_pair(0.11)
        mask = rng.random(8) < 0.3
        known_vals = rng.integers(0, 2, (16, 8))
        Y = rng.integers(0, 2, (16, 8))
        whole = decode_batch(s, Y, mask, known_vals)
        monkeypatch.setattr(scdec, "BATCH_LLRS", 24)  # 3 blocks per chunk, the last one short
        assert scdec.batch_rows(8) == 3
        assert np.array_equal(decode_batch(s, Y, mask, known_vals), whole)

    def test_uint8_bits_in_and_out(self, rng):
        # Bits and side symbols travel as uint8; the known values of unknown
        # positions are ignored whatever they hold.
        s = JointSource.bsc_pair(0.11)
        mask = rng.random(64) < 0.5
        known_vals = rng.integers(0, 2, (5, 64))
        Y = rng.integers(0, 2, (5, 64))
        want = decode_batch(s, Y, mask, known_vals)
        known8 = np.where(mask, known_vals, 255).astype(np.uint8)
        got = decode_batch(s, Y.astype(np.uint8), mask, known8)
        assert want.dtype == got.dtype == np.uint8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 1024])
    def test_never_writes_its_inputs(self, N):
        # The tree writes its partial sums in place, starting from the known
        # bits; at one row the transposed chunk of known_vals is a view, so
        # only the known mask's & keeps those writes off the caller's array.
        # Known bits of 1 where y = 0 decides 0: a write would show.
        s = JointSource.bsc_pair(0.11)
        mask = np.arange(N) % 2 == 1
        known_vals, Y = np.ones((1, N), dtype=np.uint8), np.zeros((1, N), dtype=np.uint8)
        given_vals, given_y = known_vals.copy(), Y.copy()
        got = decode_batch(s, Y, mask, known_vals)
        assert np.array_equal(known_vals, given_vals) and np.array_equal(Y, given_y)
        assert not np.shares_memory(got, known_vals) and not np.shares_memory(got, Y)

    def test_exact_tie_in_g(self):
        # y = (0, 0) gives a = b; with u_1 = 1 known, g = b - a is exactly 0
        s = JointSource.bsc_pair(0.11)
        dec = SequentialDecoder(s, np.array([0, 0]))
        dec.decide_next(1, known=1)
        bit, llr = dec.decide_next(2)
        assert llr == 0.0 and bit == 0
        got = decode_batch(s, np.array([[0, 0]]), np.array([True, False]), np.array([[1, 0]]))
        assert got.tolist() == [[1, bit]]

    def test_near_zero_llr_is_a_tie(self):
        # ln(P(0)/P(1)) is about -4e-13: inside the tie band, so both decide 0
        s = JointSource.bernoulli(0.5 + 1e-13)
        assert -SC_TIE < base_llr(s, 0) < 0.0
        for N in (1, 2):
            want, _ = decode_block(s, None, {}, N=N)
            got = decode_batch(s, None, np.zeros(N, dtype=bool), np.zeros((1, N)))
            assert want.tolist() == got[0].tolist() == [0] * N

    def test_invalid_inputs(self):
        s = JointSource.bsc_pair(0.11)
        mask = np.zeros(4, dtype=bool)
        ok_y = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(DomainError):
            decode_batch(s, ok_y, mask, np.zeros(4))  # known values not 2-D
        with pytest.raises(DomainError):
            decode_batch(s, np.zeros((2, 3)), np.zeros(3, dtype=bool), np.zeros((2, 3)))
        with pytest.raises(DomainError):
            decode_batch(s, ok_y, np.zeros(2, dtype=bool), np.zeros((2, 4)))
        with pytest.raises(DomainError):
            decode_batch(s, ok_y, np.ones(4, dtype=bool), np.full((2, 4), 2))
        with pytest.raises(DomainError):
            decode_batch(s, None, mask, np.zeros((2, 4)))  # side information required
        with pytest.raises(DomainError):
            decode_batch(s, np.zeros((1, 4)), mask, np.zeros((2, 4)))
        with pytest.raises(DomainError):
            decode_batch(s, np.full((2, 4), 2), mask, np.zeros((2, 4)))
        with pytest.raises(DomainError):
            decode_batch(s, ok_y, np.ones(4, dtype=bool), np.full((2, 4), 0.5))  # not a bit
        with pytest.raises(DomainError):
            decode_batch(s, np.full((2, 4), 1.7), mask, np.zeros((2, 4)))  # not a symbol
        with pytest.raises(DomainError):
            decode_batch(s, np.full((2, 4), np.nan), mask, np.zeros((2, 4)))
        with pytest.raises(UnsupportedAlphabetError):
            decode_batch(JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3)), None,
                         mask, np.zeros((2, 4)))

    def test_unobserved_impossible_symbol_is_fine(self):
        s = JointSource(JointSource.bernoulli(0.5).field, np.array([[0.5, 0.0], [0.5, 0.0]]))
        mask = np.zeros(2, dtype=bool)
        assert decode_batch(s, np.zeros((1, 2)), mask, np.zeros((1, 2))).shape == (1, 2)
        with pytest.raises(DomainError):
            decode_batch(s, np.array([[0, 1]]), mask, np.zeros((1, 2)))


class TestPinnedScBytes:
    """decode_batch's exact output where SC itself decodes some rows wrongly.

    bsc_pair(0.11) at N=1024, 64 rows drawn from seed 2: the Monte-Carlo set
    at R=0.8 that the sideinfo_codec benchmark builds (10^4 samples, seed 5),
    and the zbound set at R=0.7, under which SC gets 3 rows wrong.  Any
    decision that departs from SC, right or wrong, changes a hash.  The
    hashes were recorded before node rules beyond rate 0, Rep and rate 1.
    """

    PINS = {
        "mc": ("f679e54df84515575cd59e482fdb4b3b920a592264f2106fb8e98d1ac2de2c66", 0),
        "zbound": ("8e8aab03305fc1827419b9400c46593de1a01ba8b007ec8b992ad4173b68e11d", 3),
    }

    def test_sc_bytes(self):
        s = JointSource.bsc_pair(0.11)
        sets = {"mc": build_high_entropy_set(montecarlo_spectrum(s, 1024, 10000, 5), 0.8),
                "zbound": build_high_entropy_set(zbound_spectrum(s, 1024), 0.7)}
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, (64, 1024), dtype=np.uint8)
        Y = X ^ (rng.random((64, 1024)) < 0.11)
        U = _forward_rows(s.field, X)
        for name, hset in sets.items():
            got = decode_batch(s, Y, hset.mask, U)
            want_hash, want_wrong = self.PINS[name]
            assert (got != X).any(axis=1).sum() == want_wrong
            assert hashlib.sha256(got.tobytes()).hexdigest() == want_hash


def _edge_source(d: int) -> JointSource:
    """Side symbols with llrs of either sign around d ln 2, the rate-1 guard of a size-2^d node.

    The guard is d (ln 2 + 1e-12) + 2 SC_TIE: d ln 2 - 1e-6 and d ln 2 + 1e-10
    lie below it, d ln 2 + 1e-8 and d ln 2 + 1e-3 above it.
    """
    offsets = (-1e-6, 1e-10, 1e-8, 1e-3)
    llrs = [sign * (d * math.log(2) + off) for sign in (1, -1) for off in offsets]
    p0 = np.array([1 / (1 + math.exp(-v)) for v in llrs])
    return JointSource(FieldSpec.binary(), np.array([p0, 1 - p0]) / len(llrs))


def _node_mask(rng, N: int, mixed: bool = False) -> np.ndarray:
    """Known mask of aligned blocks that are rate 0, rate 1, Rep, or split again; never all known.

    With mixed, a block may also hold known positions drawn at random.  An
    all-known mask compiles no node, so it is drawn again.
    """
    while (mask := _node_blocks(rng, N, mixed)).all():
        pass
    return mask


def _node_blocks(rng, N: int, mixed: bool) -> np.ndarray:
    """_node_mask's draw, which may come back all known."""
    kind = int(rng.integers(4 + mixed if N > 1 else 2))
    if kind == 0:
        return np.ones(N, dtype=bool)
    if kind == 1:
        return np.zeros(N, dtype=bool)
    if kind == 2:
        return np.arange(N) < N - 1
    if kind == 4:
        return rng.random(N) < rng.random()
    return np.concatenate([_node_blocks(rng, N // 2, mixed), _node_blocks(rng, N // 2, mixed)])


def _source(kind: str) -> JointSource:
    if kind == "bec":
        return JointSource.bec_pair(0.4)  # exact zeros
    if kind == "bsc":
        return JointSource.bsc_pair(0.11)  # g = b - a cancels to exactly 0
    return _edge_source(int(kind[4:]))


def _mixed_case(rng, s: JointSource, N: int, B: int):
    """Mask, side blocks and known bits for a "mixed" case.

    The blocks are drawn from the source and the known bits are their true
    u, so a mixed node's check on its known bits passes where its hard
    decisions are right and fails where they are not.
    """
    mask = _node_mask(rng, N, mixed=True)
    xy = rng.choice(s.probs.size, size=(B, N), p=s.probs.reshape(-1))
    X, Y = np.divmod(xy, s.y_size)
    return mask, Y, _forward_rows(s.field, X.astype(np.uint8))


class TestNodeKinds:
    """decode_batch decides rate-1, Rep and mixed nodes at once; the bits must stay SC's."""

    @settings(max_examples=80, deadline=None)
    @given(
        N=st.sampled_from([2, 4, 8, 64]),
        B=st.sampled_from([1, 4, 16]),
        shape=st.sampled_from(["rate1", "rep", "tree", "mixed"]),
        kind=st.sampled_from(["bec", "bsc", "edge1", "edge2", "edge3", "edge6"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sequential_decoder(self, N, B, shape, kind, seed):
        rng = np.random.default_rng(seed)
        s = _source(kind)
        if shape == "mixed":
            mask, Y, known_vals = _mixed_case(rng, s, N, B)
        else:
            mask = {"rate1": np.zeros(N, dtype=bool), "rep": np.arange(N) < N - 1,
                    "tree": _node_mask(rng, N)}[shape]
            known_vals = rng.integers(0, 2, (B, N))
            Y = rng.integers(0, s.y_size, (B, N))
        if shape in ("tree", "mixed"):
            assert scdec._schedule(mask.tobytes()) is not None  # a node to compare
        got = decode_batch(s, Y, mask, known_vals)
        assert np.array_equal(got, _row_by_row(s, Y, mask, known_vals))

    def test_equals_sequential_decoder_at_large_n(self):
        # N = 2^14: mixed nodes up to 2^14 positions sharing one check matrix,
        # rate-1 and Rep nodes up to 2^11, and clamps from g-depth 9
        # (bsc_pair(0.11): 2.09 2^9 + 1 > L_MAX) up to n.  The known bits are
        # the true u, so checks pass where the hard decisions are right.
        rng = np.random.default_rng(14)
        s, N = JointSource.bsc_pair(0.11), 1 << 14
        mask = np.concatenate([_node_blocks(rng, 1024, True) for _ in range(16)])  # a sub-mask may be all known
        X = rng.integers(0, 2, (3, N), dtype=np.uint8)
        Y, known_vals = X ^ (rng.random((3, N)) < 0.11), _forward_rows(s.field, X)
        assert 0.4 < mask.mean() < 0.6 and scdec._clamp_depth(scdec._llr_table(s, Y), 14) == 8
        assert np.array_equal(decode_batch(s, Y, mask, known_vals), _row_by_row(s, Y, mask, known_vals))

    @pytest.mark.parametrize("seed", range(4))
    def test_flip_passes_are_sc_with_one_decision_flipped(self, seed):
        # Each pass of SC-Flip is decode_block with that position forced to the
        # other bit, the positions in the reference's order of |decision llr|.
        rng = np.random.default_rng(seed)
        s, N, tries = JointSource.bsc_pair(0.11), 256, 5
        mask, Y, known_vals = _mixed_case(rng, s, N, 2)
        X = decode_batch(s, Y, mask, known_vals)
        U = _forward_rows(s.field, X)
        for y, u, passes in zip(Y, U, scdec._sc_flips(s, Y, X, mask, tries)):
            known = {int(i) + 1: int(u[i]) for i in np.flatnonzero(mask)}
            flips = list(passes)
            assert len(flips) == min(tries, (~mask).sum())
            dec = SequentialDecoder(s, y)
            llrs = np.abs([dec.decide_next(i + 1, known.get(i + 1))[1] for i in range(N)])
            unknown = np.flatnonzero(~mask)
            for i, x in zip(unknown[np.argsort(llrs[unknown], kind="stable")], flips):
                want = decode_block(s, y, {**known, int(i) + 1: 1 - int(u[i])})[0]
                assert np.array_equal(x, polar_forward(SymbolBlock(s.field, want)).data)

    @pytest.mark.parametrize("N", [16, 256, 1 << 14])
    @pytest.mark.parametrize("s", [JointSource.bsc_pair(0.11), JointSource.bec_pair(0.3),
                                   JointSource.bernoulli(0.11)], ids=["bsc", "bec", "bernoulli"])
    def test_flip_candidates_are_the_public_genies_ranking(self, s, N, monkeypatch):
        # _sc_flips ranks from x with idle clamps skipped (J = 4 and 8 for
        # bsc_pair(0.11), -1 for bec_pair(0.3), whose llrs reach L_MAX); its
        # candidates must be those of genie_llr_profile, fed u = x G_N with every
        # clamp run.  Five rows make two chunks at N = 2^14.
        rng, tries, B = np.random.default_rng(N), 16, 5
        mask = build_high_entropy_set(zbound_spectrum(s, N), 0.5).mask
        X, Y = np.divmod(rng.choice(s.probs.size, (B, N), p=s.probs.reshape(-1)), s.y_size)
        X = decode_batch(s, Y, mask, _forward_rows(s.field, X.astype(np.uint8)))
        assert scdec._clamp_depth(scdec._llr_table(s, Y), N.bit_length() - 1) == (
            -1 if s.y_size == 3 else min(N.bit_length() - 1, 8))
        got = []
        monkeypatch.setattr(scdec, "_flip_passes", lambda *a: got.append(a[-1].tolist()))
        list(scdec._sc_flips(s, None if s.y_size == 1 else Y, X, mask, tries))
        llrs = np.abs(genie_llr_profile(scdec._llr_table(s, Y)[Y], _forward_rows(s.field, X)))
        unknown = np.flatnonzero(~mask)
        assert got == [unknown[np.argsort(a[unknown], kind="stable")[:tries]].tolist() for a in llrs]

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_schedule_is_the_compiled_one(self, seed):
        rng = np.random.default_rng(seed)
        N = 1024
        base_mask = _node_mask(rng, N, mixed=True)
        start = int(rng.integers(0, N + 1))
        mask = base_mask.copy()
        mask[:start] = True
        base = scdec._compile(base_mask)
        shared, whole = scdec._compile(mask, base, start), scdec._compile(mask)
        stack = [(shared, whole)]
        while stack:
            a, b = stack.pop()
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert a[:6] == b[:6]
            assert (a.check is None) == (b.check is None)
            if a.check is not None:
                assert np.array_equal(a.check[0], b.check[0]) and np.array_equal(a.check[1], b.check[1])
            if a.lo >= start:  # wholly at or above start: base's own node
                node = base
                while node.lo != a.lo or node.hi != a.hi:
                    node = node.left if a.lo < (node.lo + node.hi) // 2 else node.right
                assert node is a
            stack += [(a.left, b.left), (a.right, b.right)]

    def test_compile_leaves_no_reference_cycle(self):
        # Every SC-Flip pass compiles a schedule; a cycle would hold its
        # N + 1 unknown counts until the next garbage collection.
        mask = _node_mask(np.random.default_rng(0), 1024, mixed=True)
        base = scdec._compile(mask)
        gc.collect()
        gc.disable()
        try:
            scdec._compile(mask | (np.arange(1024) < 300), base, 300)
            scdec._compile(mask)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mixed_rule_fires(self, monkeypatch):
        # the "mixed" cases above, on fixed seeds: the check on the known bits
        # both passes and fails, and the bits stay SC's either way
        checks = []
        parity = scdec._parity_holds
        monkeypatch.setattr(scdec, "_parity_holds", lambda *a: checks.append(parity(*a)) or checks[-1])
        for seed, kind in enumerate(["bec", "bsc", "edge1", "edge2", "edge3", "edge6"] * 4):
            rng = np.random.default_rng(seed)
            s = _source(kind)
            mask, Y, known_vals = _mixed_case(rng, s, 64, 4)
            got = decode_batch(s, Y, mask, known_vals)
            assert np.array_equal(got, _row_by_row(s, Y, mask, known_vals))
        assert checks.count(True) > 0 and checks.count(False) > 0

    def test_one_row_failing_the_check_splits_the_batch(self, monkeypatch):
        # every llr is ln 9999 = 9.21, above the root's guard 2 ln 2, and the hard
        # decisions are all 0; row 2's known u_1 = 1 fails the check, so the root
        # splits: a Rep left half, and a rate-1 right half whose g cancels to 0 in
        # row 2, so it splits into its two leaves
        visits, checks = [], []
        node, parity = scdec._decode_node, scdec._parity_holds
        monkeypatch.setattr(scdec, "_decode_node", lambda *a: visits.append(1) or node(*a))
        monkeypatch.setattr(scdec, "_parity_holds", lambda *a: checks.append(parity(*a)) or checks[-1])
        s = JointSource.bernoulli(1e-4)
        mask = np.array([True, False, False, False])
        known_vals = np.array([[0, 0, 0, 0], [1, 0, 0, 0]])
        got = decode_batch(s, None, mask, known_vals)
        assert got.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0]]
        assert np.array_equal(got, _row_by_row(s, np.zeros((2, 4), dtype=np.int64), mask, known_vals))
        assert checks == [False]
        assert len(visits) == 5

    def test_schedule_compiled_once_per_mask(self, rng, monkeypatch):
        # N = 256 has mixed nodes above the 64 positions a check matrix spans
        s = JointSource.bsc_pair(0.11)
        mask = rng.random(256) < 0.5
        Y = rng.integers(0, 2, (3, 256))
        known_vals = rng.integers(0, 2, (3, 256))
        compiled = []
        parity_check = scdec._parity_check
        monkeypatch.setattr(scdec, "_parity_check", lambda k: compiled.append(parity_check(k)) or compiled[-1])
        scdec._schedule.cache_clear()
        first = decode_batch(s, Y, mask, known_vals)
        built = len(compiled)
        assert np.array_equal(decode_batch(s, Y, mask.copy(), known_vals), first)
        info = scdec._schedule.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # one check per mixed node, built with the schedule and read-only
        stack, checks = [scdec._schedule(mask.tobytes())], []
        while stack:
            node = stack.pop()
            if node is not None:
                checks += [node.check] if node.check is not None else []
                stack += [node.left, node.right]
        assert built == len(compiled) == len(checks) and any(rows is not ... for _, rows in checks)
        assert {id(c) for c in compiled} == {id(c) for c in checks}
        for C, rows in checks:
            assert C.dtype == np.float32 and not C.flags.writeable
            assert rows is ... or not rows.flags.writeable

    def test_guard_keeps_a_tie_from_g(self):
        # u_1 known as 1 and y = (0, 0, 1, 1): g hands llrs (0, -2b) to the rate-1
        # right half, where f(0, -2b) = 0 ties to 0 and SC decides partial sums
        # (1, 1); their hard decisions would be (0, 1).
        s = JointSource.bsc_pair(0.11)
        Y = np.array([[0, 0, 1, 1]])
        mask = np.array([True, True, False, False])
        known_vals = np.array([[1, 0, 0, 0]])
        got = decode_batch(s, Y, mask, known_vals)
        assert np.array_equal(got, _row_by_row(s, Y, mask, known_vals))

    def test_rate1_root_needs_no_f(self, monkeypatch):
        # every llr is ln 9999 = 9.21, above the root's guard 10 ln 2 = 6.93
        calls, visits = [], []
        combine, node = scdec._combine_odd_vec, scdec._decode_node
        monkeypatch.setattr(scdec, "_combine_odd_vec",
                            lambda *a: calls.append(1) or combine(*a))
        monkeypatch.setattr(scdec, "_decode_node", lambda *a: visits.append(1) or node(*a))
        s = JointSource.bernoulli(1e-4)
        mask, known_vals = np.zeros(1024, dtype=bool), np.zeros((2, 1024), dtype=np.int64)
        got = decode_batch(s, None, mask, known_vals)
        assert calls == [] and len(visits) == 1
        assert np.array_equal(got, np.broadcast_to(decode_block(s, None, {}, N=1024)[0], (2, 1024)))
        # the hooks see the split of a root that misses the guard: ln(0.89/0.11) = 2.09
        decode_batch(JointSource.bernoulli(0.11), None, mask, known_vals)
        assert calls and len(visits) > 1

    def test_noise_free_channel_code_visits_few_nodes(self, monkeypatch):
        w = ChannelModel.bsc(0.11)
        code = make_duality_code(w, 1024, 0.35, 1)
        data = np.random.default_rng(5).integers(0, 2, (8, code.data_size))
        Y = np.array([channel_encode(d, code).data for d in data])
        visits = []
        node = scdec._decode_node
        monkeypatch.setattr(scdec, "_decode_node", lambda *a: visits.append(1) or node(*a))
        assert np.array_equal(channel_decode_batch(Y, code), data)
        # 17 with guarded mixed nodes, 188 with guarded rate-1 nodes alone; the
        # plain SC split visits 905 nodes
        assert 0 < len(visits) <= 17


def _llr_source(llrs) -> JointSource:
    """Equally likely side symbols with the given llrs, up to float rounding.

    p0 = 1 / (1 + e^-v) and p1 = 1 / (1 + e^v) keep both probabilities off an
    underflow to zero for |v| up to L_MAX.
    """
    v = np.asarray(llrs, dtype=float)
    return JointSource(FieldSpec.binary(), np.array([1 / (1 + np.exp(-v)), 1 / (1 + np.exp(v))]) / v.size)


def _parity_reference(hard, known, sums) -> bool:
    """_parity_holds by d butterfly stages over the node's bits, then a look at its known positions."""
    v = hard ^ sums
    m, B = v.shape
    for k in range(m.bit_length() - 1):
        _stage(FieldSpec.binary(), v.reshape(-1), B << k)
    return not v[known].any()


_SIGN_POOL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, L_MAX, -L_MAX, np.nextafter(L_MAX, 0), 1.0, -2.09]


class TestExactShortcuts:
    """The Rep sum, the skipped clamps, the sign-bit flips and the compiled check give SC's llrs and bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        N=st.sampled_from([2, 4, 8, 16, 32, 64]),
        B=st.sampled_from([1, 4]),
        j=st.integers(0, 3),
        side=st.sampled_from(["below", "above", "saturated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sequential_decoder_near_the_clamp_bound(self, N, B, j, side, seed):
        # M = max |llr| sits just below or just above (L_MAX - 1) / 2^j, where the
        # clamp at g-depth j starts to be needed, or a symbol's llr is L_MAX.  The
        # other symbols' llrs are fractions of M of either sign, so sums of them
        # pass L_MAX one g step further down, and a clamp skipped there changes bits.
        rng = np.random.default_rng(seed)
        M = (L_MAX - 1) / 2**j + (1e-3 if side == "above" else -1e-3)
        llrs = np.concatenate([[M, -M], M * rng.uniform(0.5, 1, 4) * rng.choice([-1, 1], 4)])
        s = _llr_source(llrs)
        if side == "saturated":
            s = JointSource(FieldSpec.binary(), np.column_stack([s.probs, [0.1, 0.0]]) / 1.1)
        table = scdec._llr_table(s, np.arange(s.y_size))
        want_J = {"below": j, "above": j - 1, "saturated": -1}[side]
        assert scdec._clamp_depth(table, 6) == want_J
        mask = rng.random(N) < rng.random()
        known_vals = rng.integers(0, 2, (B, N))
        Y = rng.integers(0, s.y_size, (B, N))
        assert np.array_equal(decode_batch(s, Y, mask, known_vals), _row_by_row(s, Y, mask, known_vals))

    @pytest.mark.parametrize("s, J", [
        (JointSource.bsc_pair(1e-3), 6),  # M = 6.91: a g at depth 7 reaches 884 and is clamped
        (JointSource.bsc_pair(0.11), 8),
        (JointSource.bec_pair(0.4), -1),  # M = L_MAX: every clamp runs
    ])
    @pytest.mark.parametrize("N", [1, 2, 1024])
    def test_genie_clamp_skip_is_the_fully_clamped_genie(self, s, J, N):
        # Rows 0 and 1 hold one side symbol and u = 0, so every g adds llrs of one sign and
        # the llrs at g-depth j reach M 2^j: a clamp skipped one level too far changes them.
        n = N.bit_length() - 1
        table = scdec._llr_table(s, np.arange(s.y_size))
        assert scdec._clamp_depth(table, n) == min(J, n)
        rng = np.random.default_rng(N)
        Y = rng.integers(0, s.y_size, (N, 8))
        Y[:, 0], Y[:, 1] = 0, 1
        u = rng.integers(0, 2, (N, 8), dtype=np.uint8)
        u[:, :2] = 0
        sums = scdec._known_sums(u)
        got = scdec._genie_llrs(table[Y], sums, min(J, n))
        want = scdec._genie_llrs(table[Y], sums, -1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("order", ["C", "F", "column slice"])
    @pytest.mark.parametrize("N, B", [(1, 3), (8, 1), (1024, 3), (2048, 1)])
    def test_known_sums_levels(self, N, B, order):
        # sums[d] is every aligned block of 2^d positions times F^(kron d), for known in any
        # memory order, as the chunk loop's column slices of the known bits are
        u = np.random.default_rng([N, B]).integers(0, 2, (N, 2 * B), dtype=np.uint8)
        known = {"C": np.ascontiguousarray(u[:, :B]), "F": np.asfortranarray(u[:, :B]), "column slice": u[:, ::2]}[order]
        sums = scdec._known_sums(known)
        assert len(sums) == N.bit_length() and sums[0] is known
        for d, level in enumerate(sums):
            want = known.T.reshape(B, N >> d, 1 << d).copy()
            for h in (1 << s for s in range(d)):
                _stage(FieldSpec.binary(), want, h)
            assert np.array_equal(level, want.reshape(B, N).T), d

    @pytest.mark.parametrize("N", [1, 2, 8, 256])
    def test_sums_from_x_are_the_known_sums_of_u(self, N):
        # the genie's partial sums straight from x equal _known_sums of u = x G_N, level by level
        n = N.bit_length() - 1
        x = np.random.default_rng(N).integers(0, 2, (5, N), dtype=np.uint8)
        want = scdec._known_sums(np.ascontiguousarray(_forward_rows(FieldSpec.binary(), x.copy()).T))
        got = scdec._sums_from_x(np.ascontiguousarray(x.T[scdec.bit_reverse_indices(n)]))
        assert len(got) == n + 1
        for level_got, level_want in zip(got, want):
            assert np.array_equal(level_got, level_want)

    @pytest.mark.parametrize("m", [1 << d for d in range(7)])
    def test_polar_matrix_is_the_transposed_kronecker_power(self, m):
        # _parity_check's u = T v for a node's partial sums v: T = (F^(kron log2 m))^T
        want = np.ones((1, 1), dtype=np.uint8)
        for _ in range(m.bit_length() - 1):
            want = np.kron(want, np.array([[1, 0], [1, 1]], dtype=np.uint8))
        T = scdec._polar_matrix(m)
        assert T.dtype == np.float32 and T.flags.c_contiguous and not T.flags.writeable
        assert np.array_equal(T, want.T)

    def test_clamp_depth(self):
        assert scdec._clamp_depth(np.array([math.log(0.89 / 0.11)]), 10) == 8  # 2.09 * 2^8 = 535
        assert scdec._clamp_depth(np.array([0.0, -0.0]), 10) == 10  # capped at n
        assert scdec._clamp_depth(np.array([-L_MAX, 1.0]), 10) == -1
        assert scdec._clamp_depth(np.array([L_MAX - 1]), 10) == 0
        assert scdec._clamp_depth(np.array([np.nextafter(L_MAX - 1, L_MAX)]), 10) == -1

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 6), B=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_rep_sum_is_the_g_chain(self, d, B, seed):
        # SC's chain of g steps, each against a rate-0 left half and clamped,
        # against _rep_llr with every clamp kept, bit for bit on the float64
        # values.  Adding +0.0 makes -0.0 into 0.0: a zero's sign can differ
        # where a sum cancels, and a zero decides as a tie either way.
        rng = np.random.default_rng(seed)
        m = 1 << d
        pool = np.array([L_MAX, L_MAX - 1e-9, 699.5, 350.0, 0.0, 2.09])
        L = np.where(rng.random((m, B)) < 0.5, rng.choice(pool, (m, B)), rng.normal(0, 300, (m, B)))
        L *= rng.choice([-1.0, 1.0], (m, B))
        L = np.clip(L, -L_MAX, L_MAX)
        known = rng.integers(0, 2, (m, B), dtype=np.uint8)
        known[-1] = 0  # the unknown last position
        sums = scdec._known_sums(known)
        chain = L
        for k in range(d - 1, -1, -1):
            h = 1 << k
            chain = scdec._g(chain[:h], chain[h:], sums[k][m - 2 * h : m - h])
        got = scdec._rep_llr(L, sums[d], 0, -1)
        assert got.shape == (1, B)
        assert np.array_equal((got + 0.0).view(np.int64), (chain + 0.0).view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.one_of(st.sampled_from(_SIGN_POOL), st.floats(-L_MAX, L_MAX)), min_size=8, max_size=8),
        c=st.lists(st.integers(0, 1), min_size=8, max_size=8),
        strided=st.booleans(),
    )
    def test_signed_is_where_negation(self, a, c, strided):
        # _signed(a, c) against np.where(c, -a, a), bit for bit on the float64
        # values; strided views are the halves the genie passes, (nodes, 2, h B)[:, 0]
        a = np.array(a).reshape(2, 4)
        c = np.array(c, dtype=np.uint8).reshape(2, 4)
        if strided:
            a = np.stack([a, -a], axis=1)[:, 0]
            c = np.stack([c, 1 - c], axis=1)[:, 0]
            assert not (a.flags.c_contiguous or c.flags.c_contiguous)
        got = scdec._signed(a, c)
        assert np.array_equal(got.view(np.uint64), np.where(c, -a, a).view(np.uint64))

    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 8), B=st.sampled_from([1, 5, 16]), seed=st.integers(0, 2**32 - 1))
    def test_parity_check_is_the_butterfly_reference(self, d, B, seed):
        # Hard decisions whose u is known except for a few flipped known bits:
        # row 0 flips none, odd rows one to three, even rows some of one to
        # three.  The compiled check must agree with the butterfly stages row
        # by row, and pass the batch exactly when every row passes; d = 7 and
        # 8 cross the 64 positions one matrix spans.
        rng = np.random.default_rng(seed)
        m = 1 << d
        known = rng.random(m) < rng.uniform(0.1, 0.9)
        known[rng.integers(m)] = True
        u = rng.integers(0, 2, (m, B), dtype=np.uint8)
        flips = np.zeros((m, B), dtype=np.uint8)
        idx = np.flatnonzero(known)
        for r in range(1, B):
            picked = rng.choice(idx, size=int(rng.integers(1, min(idx.size, 3) + 1)), replace=False)
            flips[picked, r] = 1 if r % 2 else rng.integers(0, 2, picked.size)
        hard = scdec._known_sums(u)[d]
        sums = scdec._known_sums((u ^ flips) * known[:, None].astype(np.uint8))[d]
        check = scdec._parity_check(known)
        rows = [scdec._parity_holds(hard[:, r:r + 1], check, sums[:, r:r + 1]) for r in range(B)]
        assert rows == [_parity_reference(hard[:, r:r + 1], known, sums[:, r:r + 1]) for r in range(B)]
        assert rows[0]
        assert scdec._parity_holds(hard, check, sums) == all(rows)

    @pytest.mark.parametrize("p", [1e-200, 1e-30, 0.11])
    def test_kernels_match_their_clamped_two_argument_forms(self, p, monkeypatch):
        # Every f the decoder computes from the guard's |L|, with or without its
        # clamp, equals the clamped f(a, b) bit for bit, and so does every g.
        # bsc_pair(1e-200) has llrs of 460, so clamps act below g-depth 0.
        combine, g = scdec._combine_odd_vec, scdec._g
        seen = {"f": 0, "g": 0}

        def checked_f(a, b, mag, clamp):
            want = combine(a, b)
            assert np.array_equal(mag, np.minimum(np.abs(a), np.abs(b)))
            got = combine(a, b, mag, clamp)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            seen["f"] += 1
            return got

        def checked_g(a, b, left, clamp):
            want, got = g(a, b, left), g(a, b, left, clamp)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            seen["g"] += 1
            return got

        monkeypatch.setattr(scdec, "_combine_odd_vec", checked_f)
        monkeypatch.setattr(scdec, "_g", checked_g)
        s = JointSource.bsc_pair(p)
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, (4, 256), dtype=np.uint8)
        Y = X ^ (rng.random(X.shape) < 0.3)
        mask = rng.random(256) < 0.5
        U = _forward_rows(s.field, X)
        assert np.array_equal(decode_batch(s, Y, mask, U), _row_by_row(s, Y, mask, U))
        assert seen["f"] > 0 and seen["g"] > 0
