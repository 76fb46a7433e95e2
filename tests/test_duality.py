import numpy as np
import pytest

from srcpolar import (
    ChannelModel,
    DomainError,
    FieldSpec,
    JointSource,
    bhattacharyya,
    binary_entropy,
    channel_decode,
    channel_decode_batch,
    channel_encode,
    conditional_entropy,
    duality,
    induced_source,
    make_duality_code,
    scdec,
    simulate,
    sw_config,
    sw_error_bound,
    sw_simulate,
    symmetric_capacity,
)


class TestChannelModel:
    def test_bsc_table(self):
        w = ChannelModel.bsc(0.11)
        assert np.allclose(w.table, [[0.89, 0.11], [0.11, 0.89]])

    def test_bec_table(self):
        w = ChannelModel.bec(0.3)
        assert w.output_size == 3
        assert np.allclose(w.table, [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])

    def test_bad_rows_rejected(self):
        with pytest.raises(DomainError):
            ChannelModel.dmc([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(DomainError):
            ChannelModel.bsc(1.5)
        with pytest.raises(DomainError, match="channel table must be 2 x m"):
            ChannelModel.dmc([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DomainError, match="erasure probability 1.5 outside"):
            ChannelModel.bec(1.5)

    @pytest.mark.parametrize("table", [[[np.nan, 0.5], [0.5, 0.5]], [[0.5, 0.5], [np.nan, np.nan]]])
    def test_non_finite_table_rejected(self, table):
        # NaN passes both the sign test and the row-sum test
        with pytest.raises(DomainError, match="non-finite"):
            ChannelModel.dmc(table)

    def test_sampling_noiseless(self, rng):
        w = ChannelModel.bsc(0.0)
        x = rng.integers(0, 2, 1000)
        assert np.array_equal(w.sample(x, rng), x)

    def test_sampling_statistics(self, rng):
        w = ChannelModel.bsc(0.25)
        x = np.zeros(200_000, dtype=np.int64)
        flips = w.sample(x, rng).mean()
        assert flips == pytest.approx(0.25, abs=0.005)

    def test_bec_sampling_alphabet(self, rng):
        w = ChannelModel.bec(0.4)
        y = w.sample(rng.integers(0, 2, 10_000), rng)
        assert set(np.unique(y)) <= {0, 1, 2}
        assert (y == 2).mean() == pytest.approx(0.4, abs=0.02)

    def test_row_summing_just_under_one_stays_in_the_alphabet(self):
        # Each row sums to 1 - 4e-13, within the row-sum tolerance: a uniform above
        # that sum must still draw the row's last symbol, not one past the table.
        w = ChannelModel.dmc([[0.5, 0.5 - 4e-13], [0.5 - 4e-13, 0.5]])
        x = np.array([0, 1, 0, 1])
        r = np.full(4, 0.9999999999999)
        assert w._outputs(x, r).tolist() == [1, 1, 1, 1]
        y = w.sample(x, np.random.default_rng(0))
        assert y.dtype == np.int64 and set(y.tolist()) <= {0, 1}
        with pytest.raises(ValueError):
            w.sample(np.array([0, 2]), np.random.default_rng(0))
        code = make_duality_code(w, 16, 0.5, 1)
        assert channel_decode_batch(w._outputs(np.zeros((2, 16), dtype=np.uint8), np.full((2, 16), 1 - 1e-13)),
                                    code).shape == (2, code.data_size)


class TestInducedSource:
    def test_bec_entropy_is_erasure_rate(self):
        for eps in [0.1, 0.5, 0.9]:
            assert conditional_entropy(induced_source(ChannelModel.bec(eps))) == pytest.approx(
                eps, abs=1e-12
            )

    def test_bsc_entropy(self):
        h = conditional_entropy(induced_source(ChannelModel.bsc(0.11)))
        assert h == pytest.approx(binary_entropy(0.11), abs=1e-12)
        assert h == pytest.approx(0.49992, abs=1e-4)

    def test_noiseless_entropy_zero(self):
        assert conditional_entropy(induced_source(ChannelModel.bsc(0.0))) == 0.0

    def test_bhattacharyya_of_induced_bec(self):
        assert bhattacharyya(induced_source(ChannelModel.bec(0.35))) == pytest.approx(
            0.35, abs=1e-12
        )


class TestCapacity:
    def test_examples(self):
        assert symmetric_capacity(ChannelModel.bsc(0.0)) == pytest.approx(1.0)
        assert symmetric_capacity(ChannelModel.bsc(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert symmetric_capacity(ChannelModel.bec(0.3)) == pytest.approx(0.7, abs=1e-12)
        assert symmetric_capacity(ChannelModel.bsc(0.11)) == pytest.approx(0.50008, abs=1e-4)


class TestCodeConstruction:
    def test_sizes(self):
        code = make_duality_code(ChannelModel.bsc(0.05), 64, 0.5, 3)
        assert len(code.frozen_set.indices) == 32
        assert code.data_size == 32
        assert len(code.frozen_pattern) == 32

    def test_rate_validated(self):
        for r in [0.0, 1.0, -0.2]:
            with pytest.raises(DomainError):
                make_duality_code(ChannelModel.bsc(0.05), 16, r, 0)

    def test_manifest(self):
        code = make_duality_code(ChannelModel.bec(0.4), 16, 0.5, 11)
        doc = code.to_manifest()
        assert doc["N"] == 16 and doc["R"] == 0.5
        assert len(doc["frozen_indices"]) == 8
        assert doc["channel"]["kind"] == "bec"

    def test_pattern_seed_determinism(self):
        a = make_duality_code(ChannelModel.bsc(0.05), 32, 0.5, 7)
        b = make_duality_code(ChannelModel.bsc(0.05), 32, 0.5, 7)
        c = make_duality_code(ChannelModel.bsc(0.05), 32, 0.5, 8)
        assert np.array_equal(a.frozen_pattern, b.frozen_pattern)
        assert not np.array_equal(a.frozen_pattern, c.frozen_pattern)


class TestEncodeDecode:
    def test_n4_hand_example(self):
        # BEC(0.5): frozen set {1,2} with an all-zero pattern leaves
        # u = (0, 0, data); data (1, 0) transforms to x = (1, 1, 0, 0)
        code = make_duality_code(ChannelModel.bec(0.5), 4, 0.5, 0)
        assert code.frozen_set.indices.tolist() == [1, 2]
        object.__setattr__(code, "frozen_pattern", np.zeros(2, dtype=np.int64))
        x = channel_encode(np.array([1, 0]), code)
        assert list(x.data) == [1, 1, 0, 0]

    def test_wrong_data_size(self):
        code = make_duality_code(ChannelModel.bsc(0.05), 16, 0.5, 0)
        with pytest.raises(DomainError):
            channel_encode(np.zeros(5, dtype=np.int64), code)

    def test_noiseless_round_trip(self, rng):
        code = make_duality_code(ChannelModel.bsc(0.0), 64, 0.5, 5)
        for _ in range(50):
            data = rng.integers(0, 2, code.data_size)
            x = channel_encode(data, code)
            assert np.array_equal(channel_decode(x.data, code), data)

    def test_batch_decodes_uint8_received_blocks_to_uint8(self, rng):
        code = make_duality_code(ChannelModel.bsc(0.0), 64, 0.5, 5)
        data = rng.integers(0, 2, (4, code.data_size))
        Y = np.array([channel_encode(d, code).data for d in data], dtype=np.uint8)
        got = channel_decode_batch(Y, code)
        assert got.dtype == np.uint8 and np.array_equal(got, data)

    def test_batch_forms_u_with_one_transform(self, rng, monkeypatch):
        # decode_batch returns codewords; channel_decode_batch alone maps them to u.
        code = make_duality_code(ChannelModel.bsc(0.0), 64, 0.5, 5)
        data = rng.integers(0, 2, (16, code.data_size))
        Y = np.array([channel_encode(d, code).data for d in data])
        calls = []
        forward = duality._forward_take
        monkeypatch.setattr(duality, "_forward_take", lambda *a: calls.append(1) or forward(*a))
        assert np.array_equal(channel_decode_batch(Y, code), data)
        assert len(calls) == 1

    def test_received_block_validated(self):
        code = make_duality_code(ChannelModel.bsc(0.05), 8, 0.5, 0)
        with pytest.raises(DomainError):
            channel_decode(np.zeros(4, dtype=np.int64), code)
        with pytest.raises(DomainError, match="received block must be one-dimensional"):
            channel_decode(np.zeros((1, 8), dtype=np.int64), code)
        with pytest.raises(DomainError):
            channel_decode(np.full(8, 2), code)  # 2 not a BSC output
        with pytest.raises(DomainError):
            channel_decode(np.full(8, 0.4), code)  # not read as 0
        with pytest.raises(DomainError):
            channel_decode_batch(5, code)  # a scalar has no block length


class TestSimulate:
    def test_noiseless_perfect(self):
        w = ChannelModel.bsc(0.0)
        code = make_duality_code(w, 32, 0.5, 1)
        rep = simulate(w, code, 20, 0)
        assert rep["fer"] == 0.0 and rep["ber"] == 0.0
        assert rep["trials"] == 20

    def test_seed_determinism(self):
        w = ChannelModel.bsc(0.06)
        code = make_duality_code(w, 64, 0.5, 2)
        assert simulate(w, code, 30, 5) == simulate(w, code, 30, 5)
        assert simulate(w, code, 30, 5) != simulate(w, code, 30, 6)

    def test_bec_within_certificate(self):
        # exact z values on the erasure channel make the bound honest
        w = ChannelModel.bec(0.3)
        code = make_duality_code(w, 256, 0.35, 4)
        rep = simulate(w, code, 300, 12)
        assert rep["bound"] < 0.05
        assert rep["fer"] <= rep["bound"] + 0.03

    def test_waterfall_in_crossover(self):
        fers = []
        for p in [0.01, 0.11, 0.3]:
            w = ChannelModel.bsc(p)
            code = make_duality_code(w, 128, 0.35, 9)
            fers.append(simulate(w, code, 60, 21)["fer"])
        assert fers[0] <= fers[1] <= fers[2]
        assert fers[0] < 0.2 and fers[2] > 0.8

    def test_trials_validated(self):
        w = ChannelModel.bsc(0.1)
        code = make_duality_code(w, 16, 0.5, 0)
        with pytest.raises(DomainError):
            simulate(w, code, 0, 0)

    @pytest.mark.parametrize("trials, seed", [(2.5, 0), (-3, 0), (5, -1), (5, 1.5), (5, None)])
    def test_trials_and_seed_must_be_whole(self, trials, seed):
        w = ChannelModel.bsc(0.1)
        code = make_duality_code(w, 16, 0.5, 0)
        with pytest.raises(DomainError):
            simulate(w, code, trials, seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_pattern_seed_validated(self, seed):
        with pytest.raises(DomainError):
            make_duality_code(ChannelModel.bsc(0.1), 16, 0.5, seed)

    def test_batching_does_not_change_results(self, monkeypatch):
        # trial t always draws from default_rng([seed, t]), whatever the batch
        w = ChannelModel.bsc(0.08)
        code = make_duality_code(w, 64, 0.4, 3)
        whole = simulate(w, code, 50, 9)
        monkeypatch.setattr(scdec, "BATCH_LLRS", 3 * 64)
        assert simulate(w, code, 50, 9) == whole


def test_duality_identity():
    # coding rate R over W == compressing the induced source at rate 1-R
    for w in [ChannelModel.bsc(0.11), ChannelModel.bec(0.4)]:
        assert symmetric_capacity(w) == pytest.approx(
            1.0 - conditional_entropy(induced_source(w)), abs=1e-15
        )
        code = make_duality_code(w, 32, 0.3, 0)
        from srcpolar import build_high_entropy_set, zbound_spectrum

        hset = build_high_entropy_set(zbound_spectrum(induced_source(w), 32), 0.7)
        assert np.array_equal(code.frozen_set.indices, hset.indices)


def test_frozen_pattern_equivariance():
    # symmetric channel: error statistics do not depend on the frozen fill
    w = ChannelModel.bsc(0.08)
    fers = []
    for seed in [100, 200]:
        code = make_duality_code(w, 64, 0.4, seed)
        fers.append(simulate(w, code, 150, 33)["fer"])
    # two-proportion probe: same underlying rate, so the gap stays small
    assert abs(fers[0] - fers[1]) < 0.15


class TestSwSimulate:
    # Y ~ Ber(0.2), X = Y xor Ber(0.05): H(Y) ~ 0.72, H(X|Y) ~ 0.29
    JOINT = JointSource(FieldSpec.binary(), np.array([[0.76, 0.01], [0.04, 0.19]]))

    def test_report(self):
        cfg = sw_config(self.JOINT, 64, 0.6, 0.9)
        rep = sw_simulate(cfg, 30, 4)
        assert rep["trials"] == 30
        assert 0.0 <= rep["joint_error_rate"] <= 1.0
        assert round(rep["joint_error_rate"] * 30) == pytest.approx(rep["joint_error_rate"] * 30)
        assert rep["bound"] == sw_error_bound(cfg)

    def test_seeded_and_independent_of_batching(self, monkeypatch):
        cfg = sw_config(self.JOINT, 64, 0.45, 0.8)
        whole = sw_simulate(cfg, 40, 7)
        assert sw_simulate(cfg, 40, 7) == whole
        assert 0.0 < whole["joint_error_rate"] < 1.0  # some trials fail, so the bytes pin decisions
        monkeypatch.setattr(scdec, "BATCH_LLRS", 3 * 64)
        assert sw_simulate(cfg, 40, 7) == whole

    def test_one_row_per_batch_gives_the_same_reports(self, monkeypatch):
        # Both trial loops, one decoder row per batch against the default
        # 64 rows per batch at N = 1024
        w, joint = ChannelModel.bsc(0.11), self.JOINT
        code, cfg = make_duality_code(w, 1024, 0.4, 2), sw_config(joint, 1024, 0.4, 0.8)
        whole = simulate(w, code, 70, 3), sw_simulate(cfg, 70, 3)
        assert 0.0 < whole[0]["fer"] < 1.0 and 0.0 < whole[1]["joint_error_rate"] < 1.0
        monkeypatch.setattr(scdec, "BATCH_LLRS", 1024)
        assert scdec.batch_rows(1024) == 1
        assert (simulate(w, code, 70, 3), sw_simulate(cfg, 70, 3)) == whole

    def test_noiseless_pair_never_fails(self):
        # X = Y and all of Y is stored: both stages decode without error
        joint = JointSource(FieldSpec.binary(), np.array([[0.8, 0.0], [0.0, 0.2]]))
        assert sw_simulate(sw_config(joint, 32, 0.1, 1.0), 20, 1)["joint_error_rate"] == 0.0

    @pytest.mark.parametrize("trials, seed", [(0, 0), (-3, 0), (2.5, 0), (5, -1), (5, 1.5)])
    def test_trials_and_seed_validated(self, trials, seed):
        with pytest.raises(DomainError):
            sw_simulate(sw_config(self.JOINT, 16, 0.8, 0.95), trials, seed)
