import dataclasses
import io
import math
import re
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcpolar import (
    CompressedBlock,
    DomainError,
    FingerprintMismatchError,
    FormatError,
    HighEntropySet,
    JointSource,
    SrcPolarError,
    SymbolBlock,
    UnsupportedAlphabetError,
    build_high_entropy_set,
    codec,
    compress,
    compress_blocks,
    compress_file,
    conditional_entropy,
    decompress,
    decompress_blocks,
    decompress_file,
    error_bound,
    exact_spectrum,
    montecarlo_spectrum,
    pipeline,
    scdec,
    sw_config,
    sw_decode,
    sw_decode_blocks,
    sw_encode_x,
    sw_encode_y,
    sw_error_bound,
    transform,
    zbound_spectrum,
)

from conftest import dense_transform_matrix, plain_block, plain_container, random_binary_source

BER011 = JointSource.bernoulli(0.11)
BSC011 = JointSource.bsc_pair(0.11)


def bits(data):
    return SymbolBlock(BER011.field, np.asarray(data, dtype=np.int64))


class TestCompress:
    def test_full_rate_round_trip(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 1.0)
        x = bits(rng.integers(0, 2, 16))
        blk = compress(x, hset)
        assert len(blk.payload) == 16
        assert decompress(blk, None, hset, BER011) == x

    def test_n4_payload_example(self):
        hset = build_high_entropy_set(exact_spectrum(JointSource.bec_pair(0.5), 4), 0.5)
        assert hset.indices.tolist() == [1, 2]
        # x = (1,1,0,0) transforms to u = (0,0,1,0); payload keeps u_1, u_2
        blk = compress(bits([1, 1, 0, 0]), hset)
        assert list(blk.payload) == [0, 0]

    def test_zero_block(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        blk = compress(bits([0] * 8), hset)
        assert not blk.payload.any()

    def test_length_mismatch_rejected(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        with pytest.raises(DomainError):
            compress(bits([0, 1, 1, 0]), hset)

    def test_nonbinary_rejected(self):
        from srcpolar import FieldSpec

        hset = build_high_entropy_set(zbound_spectrum(BER011, 4), 1.0)
        with pytest.raises(UnsupportedAlphabetError):
            compress(SymbolBlock(FieldSpec.prime(3), np.zeros(4, dtype=np.int64)), hset)


class TestCompressBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        N=st.sampled_from([1, 2, 4, 8, 64, 1024]),
        B=st.sampled_from([1, 3, 17]),
        rate=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_dense_transform(self, N, B, rate, seed):
        rng = np.random.default_rng(seed)
        kept = sorted(int(i) + 1 for i in rng.choice(N, math.ceil(N * rate), replace=False))
        hset = HighEntropySet(N, rate, tuple(kept), "0123456789abcdef", "zbound", None, None)
        X = rng.integers(0, 2, (B, N), dtype=np.uint8)
        U = X.astype(np.int64) @ dense_transform_matrix(2, N) % 2
        P = compress_blocks(X, hset)
        assert P.shape == (B, len(kept)) and P.dtype == np.uint8
        for x, u, p in zip(X, U, P):
            assert np.array_equal(p, u[np.array(kept) - 1])
            blk = compress(bits(x), hset)
            assert blk.payload.dtype == np.uint8
            assert np.array_equal(blk.payload, p)
            assert (blk.version, blk.N, blk.fingerprint) == (2, N, hset.fingerprint)
            assert blk.crc == zlib.crc32(np.packbits(x).tobytes())

    @pytest.mark.parametrize(
        "X",
        [
            np.zeros(8, dtype=np.uint8),  # one-dimensional
            np.zeros((2, 4), dtype=np.uint8),  # wrong block length
            np.full((2, 8), 2, dtype=np.uint8),
            np.full((2, 8), -1, dtype=np.int64),
            np.zeros((2, 8), dtype=float),
        ],
    )
    def test_bad_blocks_rejected(self, X):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        with pytest.raises(DomainError):
            compress_blocks(X, hset)

    @pytest.mark.parametrize("N", [1, 8, 1024])
    def test_never_writes_its_input(self, rng, N):
        # The stages run in place on a positions-major (N, blocks) chunk.  For one
        # uint8 row, or rows in Fortran order, X.T is already that layout, so only
        # the copy keeps the stages off the caller's array.
        hset = build_high_entropy_set(zbound_spectrum(BER011, N), 0.75)
        one = rng.integers(0, 2, (1, N), dtype=np.uint8)
        fortran = np.asfortranarray(rng.integers(0, 2, (3, N), dtype=np.uint8))
        for X in (one, fortran):
            given = X.copy()
            P = compress_blocks(X, hset)
            assert np.array_equal(X, given) and not np.shares_memory(P, X)
        x = bits(one[0])
        blk = compress(x, hset)
        assert np.array_equal(x.data, one[0]) and not np.shares_memory(blk.payload, x.data)

    def test_int_and_bool_blocks_accepted(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        X = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        want = compress_blocks(X, hset)
        for other in (X.astype(np.int64), X.astype(bool)):
            assert np.array_equal(compress_blocks(other, hset), want)


class TestDecompress:
    def test_perfect_side_information(self, rng):
        # y = x noiselessly: any rate reconstructs exactly
        s = JointSource.bsc_pair(0.0)
        hset = build_high_entropy_set(zbound_spectrum(s, 32), 0.1)
        for _ in range(20):
            x = bits(rng.integers(0, 2, 32))
            blk = compress(x, hset)
            assert decompress(blk, x.data, hset, s) == x

    def test_round_trip_full_rate_many(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 64), 1.0)
        for _ in range(1000):
            x = bits(rng.integers(0, 2, 64))
            assert decompress(compress(x, hset), None, hset, BER011) == x

    def test_fingerprint_checked(self, rng):
        h1 = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        h2 = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.12), 8), 0.5)
        blk = compress(bits(rng.integers(0, 2, 8)), h1)
        with pytest.raises(FingerprintMismatchError):
            decompress(blk, None, h2, JointSource.bernoulli(0.12))

    def test_payload_size_checked(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        blk = compress(bits(rng.integers(0, 2, 8)), hset)
        bad = CompressedBlock(blk.version, blk.n, blk.fingerprint, blk.payload[:-1], blk.crc)
        with pytest.raises(FormatError):
            decompress(bad, None, hset, BER011)

    def test_checksum_catches_wrong_reconstruction(self):
        # low rate + adversarial payload: crc flags the decoding miss
        s = JointSource.bernoulli(0.4)
        hset = build_high_entropy_set(zbound_spectrum(s, 8), 0.25)
        x = bits([1, 0, 1, 1, 0, 1, 0, 0])
        blk = compress(x, hset)
        flipped = blk.payload.copy()
        flipped[0] ^= 1
        bad = CompressedBlock(blk.version, blk.n, blk.fingerprint, flipped, blk.crc)
        with pytest.raises(FormatError):
            decompress(bad, None, hset, s)

    def test_blocks_restore_as_uint8(self, rng):
        X = rng.integers(0, 2, (5, 32), dtype=np.uint8)
        hset = build_high_entropy_set(zbound_spectrum(BSC011, 32), 0.8)
        Y = X ^ (rng.random(X.shape) < 0.01)
        x_hat = decompress_blocks(compress_blocks(X, hset), Y, hset, BSC011)
        assert x_hat.dtype == np.uint8 and np.array_equal(x_hat, X)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_payloads_must_be_bits(self, rng, bad):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 0.75)
        P = compress_blocks(rng.integers(0, 2, (3, 16), dtype=np.uint8), hset).astype(type(bad))
        P[1, 2] = bad
        with pytest.raises(DomainError, match="known bits must be 0 or 1|whole numbers"):
            decompress_blocks(P, None, hset, BER011)

    @pytest.mark.parametrize("shape", [(12,), (3, 11), (3, 13)], ids=["one_dimensional", "short", "long"])
    def test_payload_shape_checked(self, shape):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 0.75)
        with pytest.raises(DomainError, match=re.escape(f"payloads of shape {shape} do not have 12 bits")):
            decompress_blocks(np.zeros(shape, np.uint8), None, hset, BER011)

    def test_bool_and_whole_float_payloads_decode(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 0.75)
        P = compress_blocks(rng.integers(0, 2, (3, 16), dtype=np.uint8), hset)
        want = decompress_blocks(P, None, hset, BER011)
        for dtype in (bool, np.float64, np.float32):
            assert np.array_equal(decompress_blocks(P.astype(dtype), None, hset, BER011), want)

    def test_read_path_runs_no_transform(self, rng, monkeypatch):
        # decode_batch returns x itself, so neither decompress_blocks nor
        # sw_decode_blocks, nor the crc32 check, may need a transform.
        X = rng.integers(0, 2, (4, 64), dtype=np.uint8)
        Y = X ^ (rng.random((4, 64)) < 0.02)
        hset = build_high_entropy_set(zbound_spectrum(BSC011, 64), 0.6)
        blocks = compress_blocks(X, hset)
        one = compress(bits(X[0]), hset)
        cfg = sw_config(TestSlepianWolf._joint(), 16, 1.0, 1.0)
        cxs, cys = compress_blocks(X[:, :16], cfg.set_x), compress_blocks(Y[:, :16], cfg.set_y)

        def boom(*args, **kwargs):
            raise AssertionError("transform on the read path")

        for mod in (codec, scdec, transform):
            for name in ("_forward_rows", "_forward_take", "_inverse_rows", "_kron_rows"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, boom)
        assert np.array_equal(decompress_blocks(blocks, Y, hset, BSC011), X)
        assert np.array_equal(decompress(one, Y[0], hset, BSC011).data, X[0])
        x_hat, y_hat = sw_decode_blocks(cxs, cys, cfg)
        assert np.array_equal(x_hat, X[:, :16]) and np.array_equal(y_hat, Y[:, :16])

    def test_checksum_round_trip(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 1.0)
        x = bits(rng.integers(0, 2, 16))
        blk = compress(x, hset)
        assert blk.version == 2 and decompress(blk, None, hset, BER011) == x


class TestFlipRepair:
    """SC-Flip on version 2 blocks whose crc32 fails after SC decoding.

    bsc_pair(0.11) at N=1024, the zbound set at R=0.7, rows drawn from seed 2:
    SC decodes rows 15, 30 and 35 wrongly (test_scdec.py::TestPinnedScBytes).
    """

    ROWS = [15, 30, 35]

    @pytest.fixture(scope="class")
    def case(self):
        hset = build_high_entropy_set(zbound_spectrum(BSC011, 1024), 0.7)
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, (64, 1024), dtype=np.uint8)
        Y = (X ^ (rng.random((64, 1024)) < 0.11)).astype(np.uint8)
        rows = [0, *self.ROWS]  # row 0 SC decodes right
        data = np.packbits(X[rows]).tobytes()
        x_hat = decompress_blocks(compress_blocks(X[rows], hset), Y[rows], hset, BSC011)
        assert (x_hat != X[rows]).any(axis=1).tolist() == [False, True, True, True]
        return hset, X, Y, rows, data

    def test_sc_misses_round_trip(self, case):
        hset, X, Y, rows, data = case
        container = bytes(compress_file(io.BytesIO(data), hset))
        assert decompress_file(container, Y[rows].tobytes(), hset, BSC011) == data
        for r in self.ROWS:
            assert np.array_equal(decompress(compress(bits(X[r]), hset), Y[r], hset, BSC011).data, X[r])

    def test_no_tries_fail_as_before(self, case, monkeypatch):
        hset, X, Y, rows, data = case
        monkeypatch.setattr(codec, "FLIP_TRIES", 0)
        container = bytes(compress_file(io.BytesIO(data), hset))
        with pytest.raises(FormatError, match="^checksum mismatch after decompression: block 1 not repaired, "
                                              "3 of 4 blocks failed their crc32$"):
            decompress_file(container, Y[rows].tobytes(), hset, BSC011)

    def test_plain_blocks_untouched(self, case, monkeypatch):
        hset, X, Y, rows, data = case
        monkeypatch.setattr(codec, "_sc_flips", lambda *a: pytest.fail("repair without a crc"))
        container = plain_container(compress_file(io.BytesIO(data), hset))
        out = np.unpackbits(np.frombuffer(decompress_file(container, Y[rows].tobytes(), hset, BSC011),
                                          dtype=np.uint8)).reshape(len(rows), -1)
        assert np.array_equal(out[0], X[0]) and all((out[1:] != X[self.ROWS]).any(axis=1))

    def test_repair_runs_no_reference_decoder(self, case, monkeypatch):
        hset, X, Y, rows, data = case
        for module in (scdec, codec):
            for name in ("SequentialDecoder", "decode_block"):
                monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"),
                                    raising=False)
        container = bytes(compress_file(io.BytesIO(data), hset))
        assert decompress_file(container, Y[rows].tobytes(), hset, BSC011) == data
        for r in self.ROWS:
            assert np.array_equal(decompress(compress(bits(X[r]), hset), Y[r], hset, BSC011).data, X[r])

    def test_candidates_ranked_by_reference_decision_llrs(self, case, monkeypatch):
        # The oracle: SequentialDecoder, fed the payload bits, keeps each
        # decision's llr; the candidates are its unknown positions of smallest
        # |llr|, ties in position order.
        hset, X, Y, rows, data = case
        unknown = np.flatnonzero(~hset.mask)
        want = []
        for r in self.ROWS:
            u = transform._forward_rows(BSC011.field, X[r])
            dec = scdec.SequentialDecoder(BSC011, Y[r])
            llrs = np.abs([dec.decide_next(i + 1, int(u[i]) if hset.mask[i] else None)[1] for i in range(1024)])
            want.append(unknown[np.argsort(llrs[unknown], kind="stable")[: codec.FLIP_TRIES]].tolist())
        got, flip_passes = [], scdec._flip_passes
        monkeypatch.setattr(scdec, "_flip_passes",
                            lambda *a: got.append([int(i) for i in a[-1]]) or flip_passes(*a))
        data = np.packbits(X[self.ROWS]).tobytes()
        container = bytes(compress_file(io.BytesIO(data), hset))
        assert decompress_file(container, Y[self.ROWS].tobytes(), hset, BSC011) == data
        assert got == want

    def test_wrong_side_file_ranks_one_chunk(self, case, monkeypatch):
        # Every one of 128 blocks fails its crc32 under side symbols of another
        # file; the first is not repaired, so only its chunk of 64 is ranked.
        hset, X, Y, rows, data = case
        ranked, genie = [], scdec._genie_llrs
        monkeypatch.setattr(scdec, "_genie_llrs", lambda L, sums, J: ranked.append(L.shape[1]) or genie(L, sums, J))
        X2, Y2 = np.concatenate([X, X]), np.concatenate([Y, Y])
        container = bytes(compress_file(io.BytesIO(np.packbits(X2).tobytes()), hset))
        with pytest.raises(FormatError, match="checksum mismatch"):
            decompress_file(container, Y2[::-1].tobytes(), hset, BSC011)
        assert ranked == [scdec.batch_rows(1024)] == [64]

    def test_damaged_block_at_large_n_fails_and_caches_no_flip_schedule(self):
        # One payload bit of the first of two N=2^14 blocks flipped, its crc kept:
        # no flip of a single decision gives the stored crc32.
        N = 1 << 14
        hset = build_high_entropy_set(zbound_spectrum(BER011, N), 0.75)
        raw = np.packbits(np.random.default_rng(13).random(2 * N) < 0.11).tobytes()
        container = bytearray(compress_file(io.BytesIO(raw), hset))
        assert decompress_file(bytes(container), None, hset, BER011) == raw
        container[22 + 5] ^= 0x10  # past the 22-byte version 2 header
        scdec._schedule.cache_clear()
        with pytest.raises(FormatError, match="checksum mismatch"):
            decompress_file(bytes(container), None, hset, BER011)
        info = scdec._schedule.cache_info()
        assert (info.misses, info.currsize) == (1, 1)  # hset's own mask, compiled once


FULL_RATE = {N: build_high_entropy_set(zbound_spectrum(BER011, N), 1.0) for N in (1, 2, 8, 16, 64)}


class TestContainer:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.binary(max_size=300), N=st.sampled_from([1, 2, 8, 64]), crc=st.booleans())
    def test_round_trip(self, data, N, crc):
        hset = FULL_RATE[N]
        container = compress_file(io.BytesIO(data), hset)
        assert decompress_file(container if crc else plain_container(container), None, hset, BER011) == data

    @pytest.mark.parametrize("chunks", [1, 2, "many"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("crc", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 64])
    def test_container_is_the_block_stream_and_pad_trailer(self, rng, N, crc, workers, chunks, monkeypatch):
        # COMPRESS_BYTES of 4 blocks (4 bytes below N = 8), split into chunks of
        # 4 // workers of them, workers capped at 4: the file spans one chunk,
        # two, or many, the last one short where a chunk holds more than a
        # byte, and padded where N is more than 8.  The chunks are framed on
        # `workers` threads, and the bytes must not depend on it.  Without crc,
        # both sides are taken to version 1.
        import concurrent.futures

        class Reads(io.BytesIO):
            def read(self, n=-1):
                asked.append(n)
                return super().read(n)

        monkeypatch.setattr(codec, "COMPRESS_BYTES", max(N, 8) // 2)
        monkeypatch.setattr(pipeline, "_workers", lambda: workers)
        chunk_bytes, asked = max(N, 8) * (4 // min(workers, 4)) // 8, []
        size = 101 if chunks == "many" else (chunks - 1) * chunk_bytes + max(1, chunk_bytes // 2 - 1)
        if chunks == 1:  # one chunk is framed inline
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        hset = build_high_entropy_set(zbound_spectrum(BER011, N), 0.75)
        data = rng.integers(0, 256, size, dtype=np.uint8)
        assert -(-size // chunk_bytes) > 2 if chunks == "many" else -(-size // chunk_bytes) == chunks
        flat = np.unpackbits(data)
        pad = -flat.size % N
        X = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)]).reshape(-1, N)
        blocks = [compress(bits(x), hset) for x in X]
        want = b"".join((blk if crc else plain_block(blk)).to_bytes() for blk in blocks) + pad.to_bytes(4, "little")
        got = compress_file(Reads(data.tobytes()), hset)
        assert (got if crc else plain_container(got)) == want
        assert set(asked) == {chunk_bytes}

    def test_block_beyond_the_budget_is_one_chunk_framed_inline(self, rng, monkeypatch):
        # Blocks of 8 bytes against a budget of 4: one block per chunk, and no
        # more cores framing than the budget holds whole blocks, that is one.
        import concurrent.futures

        monkeypatch.setattr(codec, "COMPRESS_BYTES", 4)
        monkeypatch.setattr(pipeline, "_workers", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        hset, data = FULL_RATE[64], rng.integers(0, 256, 37, dtype=np.uint8)
        X = np.unpackbits(np.concatenate([data, np.zeros(3, dtype=np.uint8)])).reshape(-1, 64)
        want = b"".join(compress(bits(x), hset).to_bytes() for x in X) + (24).to_bytes(4, "little")
        assert compress_file(io.BytesIO(data.tobytes()), hset) == want

    def test_chunk_freed_once_transposed(self):
        # 2 MiB of Ber(0.11) at N=2^16, bit-sliced in chunks of 64 blocks
        # (512 KiB) framed one at a time on one core, or of 64 // w blocks framed
        # w at a time on w cores: 512 KiB of sliced bytes in all.  The peak is
        # 3.2-3.8 MiB on 1-4 cores; 4.31 MiB was the peak of the natural stage
        # order on chunks of one uint8 per bit.  The one-core test below bounds
        # a chunk kept alive beside its transposed copy.
        hset = build_high_entropy_set(zbound_spectrum(BER011, 1 << 16), 0.75)
        rng = np.random.default_rng(13)
        raw = b"".join(np.packbits(rng.random(1 << 20) < 0.11).tobytes() for _ in range(16))
        compress_file(io.BytesIO(raw), hset)  # fills the index caches
        fh = io.BytesIO(raw)
        tracemalloc.start()
        try:
            compress_file(fh, hset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.31 * 2**20

    def test_sliced_chunk_freed_once_transposed(self, monkeypatch):
        # The same file framed inline on one core, in chunks of 128 blocks
        # (1 MiB): the peak is 5.1 MiB, and a sliced chunk kept alive beside its
        # transposed copy raises it to 6.1 MiB.
        monkeypatch.setattr(pipeline, "_workers", lambda: 1)
        monkeypatch.setattr(codec, "COMPRESS_BYTES", 1 << 20)
        hset = build_high_entropy_set(zbound_spectrum(BER011, 1 << 16), 0.75)
        rng = np.random.default_rng(13)
        raw = b"".join(np.packbits(rng.random(1 << 20) < 0.11).tobytes() for _ in range(16))
        compress_file(io.BytesIO(raw), hset)  # fills the index caches
        fh = io.BytesIO(raw)
        tracemalloc.start()
        try:
            compress_file(fh, hset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.6 * 2**20

    @pytest.mark.parametrize("budget", ["default", "3 blocks"])
    @pytest.mark.parametrize("one_worker", [False, True])
    @pytest.mark.parametrize("crc", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 64, 1024, 1 << 16])
    def test_sliced_container_is_the_per_block_reference(self, N, crc, one_worker, budget, monkeypatch):
        # compress_file slices eight blocks into each byte; the reference
        # compresses each block alone from its unpacked bits (compress_blocks),
        # with its _header and the crc32 of its source bytes.  Files of 1, 7, 8,
        # 9 and 17 blocks, whole or with a short last block, at a rate whose k
        # is not a multiple of 8 for N >= 8; with "3 blocks", chunks of three
        # blocks or fewer leave lanes of zero blocks in every group.  Without crc,
        # the container is taken to version 1 and the reference has no crc32s.
        if one_worker:
            monkeypatch.setattr(pipeline, "_workers", lambda: 1)
        if budget == "3 blocks":
            monkeypatch.setattr(codec, "COMPRESS_BYTES", 3 * max(N, 8) // 8)
        hset = build_high_entropy_set(zbound_spectrum(BER011, N), 0.7)
        k, version = len(hset.indices), codec.VERSION_CRC if crc else codec.VERSION_PLAIN
        assert N < 8 or k % 8
        rng = np.random.default_rng([N, crc])
        sizes = {-(-blocks * N // 8) - short for blocks in (1, 7, 8, 9, 17) for short in ((0, 1) if N >= 16 else (0,))}
        for size in sorted(sizes):
            data = rng.integers(0, 256, size, dtype=np.uint8)
            flat = np.unpackbits(data)
            pad = -flat.size % N
            X = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)]).reshape(-1, N)
            want = b"".join(
                codec._header(version, N.bit_length() - 1, hset.fingerprint, k,
                              zlib.crc32(np.packbits(x).tobytes()) if crc else None)
                + np.packbits(p).tobytes()
                for x, p in zip(X, compress_blocks(X, hset))
            ) + pad.to_bytes(4, "little")
            got = compress_file(io.BytesIO(data.tobytes()), hset)
            assert (bytes(got) if crc else plain_container(got)) == want, size

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_short_reads_never_pad_inside_the_file(self, workers, monkeypatch):
        class ShortReads(io.RawIOBase):
            def __init__(self, data, *most):  # the last cap holds for every later read
                self.buf, self.most = io.BytesIO(data), list(most)

            def readable(self):
                return True

            def read(self, n=-1):
                return self.buf.read(min(n, self.most.pop(0) if len(self.most) > 1 else self.most[0]))

        monkeypatch.setattr(pipeline, "_workers", lambda: workers)
        threads = threading.active_count()
        hset, data = FULL_RATE[16], bytes(range(1, 12))
        container = compress_file(ShortReads(data, 2), hset)  # whole blocks per read
        assert container == compress_file(io.BytesIO(data), hset)
        with pytest.raises(DomainError):
            compress_file(ShortReads(data, 3), hset)  # the first read ends inside a block
        with pytest.raises(DomainError):  # a partial block after four chunks in flight
            compress_file(ShortReads(bytes(range(1, 20)), 2, 2, 2, 2, 3), hset)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("first_checksum", [False, True])
    def test_mixed_versions_rejected(self, rng, first_checksum):
        # compress_file writes one version per container; a reader row check keeps it so
        hset = build_high_entropy_set(zbound_spectrum(BER011, 64), 0.75)
        X = rng.integers(0, 2, (3, 64), dtype=np.uint8)
        for versions in ([first_checksum, not first_checksum], [first_checksum] * 2 + [not first_checksum]):
            blocks = [compress(bits(x), hset) for x in X]
            body = b"".join((blk if c else plain_block(blk)).to_bytes() for blk, c in zip(blocks, versions))
            with pytest.raises(FormatError):
                decompress_file(body + bytes(4), None, hset, BER011)

    @pytest.mark.parametrize("crc", [False, True])
    def test_blocks_read_as_one_array(self, rng, crc, monkeypatch):
        # Only the first block is parsed on its own; the other 63 are checked against its header.
        data = rng.integers(0, 256, 64 * 8, dtype=np.uint8).tobytes()
        container = compress_file(io.BytesIO(data), FULL_RATE[64])
        container = container if crc else plain_container(container)
        parse, parsed = CompressedBlock.from_bytes, []
        monkeypatch.setattr(CompressedBlock, "from_bytes",
                            staticmethod(lambda *a: parsed.append(1) or parse(*a)))
        assert decompress_file(container, None, FULL_RATE[64], BER011) == data
        assert len(parsed) <= 1

    def test_truncated_container_rejected(self):
        hset = FULL_RATE[16]
        container = bytes(compress_file(io.BytesIO(b"three"), hset))
        for cut in range(len(container)):
            with pytest.raises(FormatError):
                decompress_file(container[:cut], None, hset, BER011)

    def test_side_length_checked(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BSC011, 16), 0.75)
        data = rng.integers(0, 256, 4, dtype=np.uint8)
        side = np.unpackbits(data)  # y = x, one symbol per byte
        container = compress_file(io.BytesIO(data.tobytes()), hset)
        assert decompress_file(container, side.tobytes(), hset, BSC011) == data.tobytes()
        for bad in (side[:-1], side[:16], np.concatenate([side, side[:16]])):
            with pytest.raises(FormatError):
                decompress_file(container, bad.tobytes(), hset, BSC011)


class TestBitSlicing:
    def test_transpose8_is_an_involution_and_a_bit_transpose(self, rng):
        # every single-bit word, all zeros, all ones and random words; row i is byte i, column j bit j
        words = np.concatenate([np.uint64(1) << np.arange(64, dtype=np.uint64),
                                np.array([0, 2**64 - 1], dtype=np.uint64),
                                rng.integers(0, 2**63, 200, dtype=np.uint64) * np.uint64(2) + np.uint64(1)])
        w = words.view("<u8").copy()
        matrices = np.unpackbits(w.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little").reshape(-1, 8, 8)
        codec._transpose8(w)
        got = np.unpackbits(w.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little").reshape(-1, 8, 8)
        assert np.array_equal(got, matrices.transpose(0, 2, 1))
        codec._transpose8(w)
        assert np.array_equal(w, words)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 1024])
    def test_sliced_layout(self, rng, N):
        # bit t of column g is block 8g + t; row r N/8 + m holds position 8m + r (natural order below 8)
        G = 3
        data = rng.integers(0, 256, G * N, dtype=np.uint8)
        X = np.unpackbits(data).reshape(G, 8, N)
        natural = np.packbits(X, axis=1, bitorder="little").reshape(G, N).T
        i = np.arange(N)
        low = min(N.bit_length() - 1, 3)
        rows = (i & ((1 << low) - 1)) * (N >> low) + (i >> low)
        assert np.array_equal(codec._sliced(data, N)[rows], natural)


class TestReaderFuzz:
    """Every input to decompress_file raises SrcPolarError or restores its file exactly."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(blob=st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(codec.MAGIC.__add__)))
    def test_arbitrary_bytes(self, blob):
        try:
            out = decompress_file(blob, None, FULL_RATE[16], BER011)
        except SrcPolarError:
            return
        assert decompress_file(compress_file(io.BytesIO(out), FULL_RATE[16]), None, FULL_RATE[16],
                               BER011) == out

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.binary(min_size=1, max_size=16),
        N=st.sampled_from([1, 8, 16, 64]),
        flip=st.integers(0, 2**32 - 1),
    )
    def test_bit_flip_in_a_checksum_block(self, data, N, flip):
        # The pad trailer is left out: no checksum covers it.
        container = compress_file(io.BytesIO(data), FULL_RATE[N])
        pos = flip % (8 * (len(container) - 4))
        container[pos // 8] ^= 1 << pos % 8
        try:
            out = decompress_file(container, None, FULL_RATE[N], BER011)
        except SrcPolarError:
            return
        assert out == data

    @pytest.mark.parametrize("N", [8, 64, 1024])
    @pytest.mark.parametrize("blocks", [1, 2, 8])
    @pytest.mark.parametrize("crc", [False, True])
    def test_bit_flip_in_a_shared_header_field(self, rng, N, blocks, crc):
        # Magic, version, n, fingerprint and payload bit count: 18 bytes every block repeats.
        hset = READ_SETS[N]
        data = rng.integers(0, 256, blocks * N // 8, dtype=np.uint8).tobytes()
        container = compress_file(io.BytesIO(data), hset)
        container = bytes(container) if crc else plain_container(container)
        width = (len(container) - 4) // blocks
        for pos in range(8 * 18 * blocks):
            bad = bytearray(container)
            bad[pos // 144 * width + pos % 144 // 8] ^= 1 << pos % 8
            with pytest.raises((FormatError, FingerprintMismatchError)):
                decompress_file(bytes(bad), None, hset, BER011)


READ_SETS = {N: build_high_entropy_set(zbound_spectrum(BER011, N), 0.75) for N in (8, 64, 1024)}


class TestSerialization:
    def test_round_trip(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BSC011, 16), 0.7)
        x = SymbolBlock(BSC011.field, rng.integers(0, 2, 16))
        for blk in (plain_block(compress(x, hset)), compress(x, hset)):
            again, used = CompressedBlock.from_bytes(blk.to_bytes())
            assert used == len(blk.to_bytes())
            assert again.version == blk.version
            assert again.n == blk.n
            assert again.fingerprint == blk.fingerprint
            assert again.crc == blk.crc
            assert again.payload.dtype == np.uint8
            assert np.array_equal(again.payload, blk.payload)

    def test_header_size(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 0.5)
        blk = compress(bits([0] * 8), hset)
        # 22-byte header (18 without the crc32 of version 1) + ceil(4/8) payload bytes
        assert len(blk.to_bytes()) == 23 and len(plain_block(blk).to_bytes()) == 19

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            CompressedBlock.from_bytes(b"NOPE" + bytes(20))

    def test_truncation(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 1.0)
        raw = compress(bits([1] * 8), hset).to_bytes()
        for cut in (3, 10, len(raw) - 1):
            with pytest.raises(FormatError):
                CompressedBlock.from_bytes(raw[:cut])

    def test_every_prefix_of_a_version_2_block_is_truncated(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 1.0)
        blk = compress(bits([1] * 8), hset)
        empty = CompressedBlock(blk.version, blk.n, blk.fingerprint, np.zeros(0, dtype=np.uint8), 513)
        for raw in (blk.to_bytes(), empty.to_bytes()):  # payload bit counts k and 0
            assert CompressedBlock.from_bytes(raw)[1] == len(raw)
            for cut in range(len(raw)):
                for before in (b"", raw):  # the block at offset 0, and after a whole block
                    with pytest.raises(FormatError, match="truncated"):
                        CompressedBlock.from_bytes(before + raw[:cut], len(before))

    def test_bad_version(self):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 1.0)
        raw = bytearray(compress(bits([1] * 8), hset).to_bytes())
        raw[4] = 9
        with pytest.raises(FormatError):
            CompressedBlock.from_bytes(bytes(raw))

    def test_concatenated_blocks(self, rng):
        hset = build_high_entropy_set(zbound_spectrum(BER011, 8), 1.0)
        blocks = [compress(bits(rng.integers(0, 2, 8)), hset) for _ in range(3)]
        buf = b"".join(b.to_bytes() for b in blocks)
        off = 0
        for want in blocks:
            got, off = CompressedBlock.from_bytes(buf, off)
            assert np.array_equal(got.payload, want.payload)
        assert off == len(buf)


class TestErrorBound:
    def test_full_rate_is_zero(self):
        sp = zbound_spectrum(BER011, 8)
        assert error_bound(build_high_entropy_set(sp, 1.0), sp) == 0.0

    def test_bec_half_rate_value(self):
        sp = exact_spectrum(JointSource.bec_pair(0.5), 4)
        hset = build_high_entropy_set(sp, 0.5)
        # unselected z-values are 0.4375 and 0.0625
        assert error_bound(hset, sp) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_rate(self):
        sp = zbound_spectrum(BER011, 32)
        vals = [error_bound(build_high_entropy_set(sp, r), sp) for r in [0.2, 0.4, 0.6, 0.8, 1.0]]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_clamped_to_one(self):
        sp = zbound_spectrum(JointSource.bernoulli(0.5), 8)
        assert error_bound(build_high_entropy_set(sp, 0.5), sp) == 1.0

    def test_mc_spectrum_rejected(self):
        sp = montecarlo_spectrum(BER011, 8, 100, 1)
        hset = build_high_entropy_set(sp, 0.5)
        with pytest.raises(DomainError):
            error_bound(hset, sp)

    def test_spectrum_without_z_rejected(self):
        sp = exact_spectrum(BER011, 8)
        with pytest.raises(DomainError, match="spectrum has no z values"):
            error_bound(build_high_entropy_set(sp, 0.5), dataclasses.replace(sp, z=None))

    def test_length_mismatch(self):
        sp8 = zbound_spectrum(BER011, 8)
        hset = build_high_entropy_set(zbound_spectrum(BER011, 16), 0.5)
        with pytest.raises(DomainError):
            error_bound(hset, sp8)


def test_empirical_error_within_certificate(rng):
    # certified bound must dominate the measured block-error rate of SC alone
    s = JointSource.bsc_pair(0.02)
    N, trials = 256, 200
    sp = zbound_spectrum(s, N)
    hset = build_high_entropy_set(sp, 0.5)
    cert = error_bound(hset, sp)
    X, Y = np.empty((trials, N), dtype=np.int64), np.empty((trials, N), dtype=np.int64)
    for t in range(trials):
        r = np.random.default_rng([9, t])
        X[t] = r.integers(0, 2, N)
        Y[t] = X[t] ^ (r.random(N) < 0.02).astype(np.int64)
    fails = int((decompress_blocks(compress_blocks(X, hset), Y, hset, s) != X).any(axis=1).sum())
    assert fails / trials <= cert + 0.05


class TestSlepianWolf:
    @staticmethod
    def _joint():
        # Y ~ Ber(0.2); X = Y xor Ber(0.05)
        table = np.empty((2, 2))
        for x in range(2):
            for y in range(2):
                py = 0.8 if y == 0 else 0.2
                pf = 0.95 if x == y else 0.05
                table[x, y] = py * pf
        return JointSource(JointSource.bernoulli(0.5).field, table)

    def test_rates_validated(self):
        j = self._joint()
        h_xy = conditional_entropy(j)
        with pytest.raises(DomainError):
            sw_config(j, 16, h_xy * 0.9, 0.99)
        with pytest.raises(DomainError):
            sw_config(j, 16, 0.99, 0.5)  # H(Y) ~ 0.72

    def test_nonpair_rejected(self):
        with pytest.raises(UnsupportedAlphabetError):
            sw_config(BER011, 16, 0.9, 0.9)

    def test_full_rate_round_trip(self, rng):
        # bsc_pair has uniform Y, H(Y) = 1: rate 1 keeps every index, so it is accepted there too
        for j in (self._joint(), BSC011):
            cfg = sw_config(j, 16, 1.0, 1.0)
            x = SymbolBlock(j.field, rng.integers(0, 2, 16))
            y = SymbolBlock(j.field, rng.integers(0, 2, 16))
            x_hat, y_hat = sw_decode(sw_encode_x(x, cfg), sw_encode_y(y, cfg), cfg)
            assert x_hat == x and y_hat == y

    def test_total_rate_below_time_sharing(self):
        j = self._joint()
        cfg = sw_config(j, 64, 0.5, 0.85)
        total_bits = len(cfg.set_x.indices) + len(cfg.set_y.indices)
        assert total_bits == 64 * 0.5 + np.ceil(64 * 0.85)
        assert total_bits < 2 * 64  # strictly below sending both raw

    def test_bound_is_stage_sum(self):
        j = self._joint()
        cfg = sw_config(j, 32, 0.6, 0.9)
        from srcpolar import error_bound as eb, zbound_spectrum as zs

        want = eb(cfg.set_x, zs(j, 32)) + eb(cfg.set_y, zs(cfg.y_marginal, 32))
        assert sw_error_bound(cfg) == pytest.approx(want, abs=1e-15)

    def test_bound_reads_the_kept_spectra(self, monkeypatch):
        j = self._joint()
        cfg = sw_config(j, 32, 0.6, 0.9)
        assert build_high_entropy_set(cfg.spec_x, 0.6) == cfg.set_x
        assert build_high_entropy_set(cfg.spec_y, 0.9) == cfg.set_y
        want = sw_error_bound(cfg)
        monkeypatch.setattr(codec, "zbound_spectrum", None)  # no spectrum is rebuilt
        assert sw_error_bound(cfg) == want

    def test_blocks_decode_as_uint8(self, rng):
        j = self._joint()
        cfg = sw_config(j, 16, 1.0, 1.0)
        X = rng.integers(0, 2, (3, 16), dtype=np.uint8)
        Y = rng.integers(0, 2, (3, 16), dtype=np.uint8)
        cxs, cys = compress_blocks(X, cfg.set_x), compress_blocks(Y, cfg.set_y)
        x_hat, y_hat = sw_decode_blocks(cxs, cys, cfg)
        assert x_hat.dtype == y_hat.dtype == np.uint8
        assert np.array_equal(x_hat, X) and np.array_equal(y_hat, Y)

    def test_joint_decoding_mostly_correct(self):
        j = self._joint()
        N, trials = 256, 60
        cfg = sw_config(j, N, 0.75, 0.95)
        flat = j.probs.reshape(-1)
        errs = 0
        for t in range(trials):
            r = np.random.default_rng([17, t])
            draw = r.choice(4, N, p=flat)
            x = SymbolBlock(j.field, draw // 2)
            y = SymbolBlock(j.field, draw % 2)
            try:
                x_hat, y_hat = sw_decode(sw_encode_x(x, cfg), sw_encode_y(y, cfg), cfg)
            except FormatError:  # a crc32 that no SC-Flip pass matches
                errs += 1
                continue
            errs += int(x_hat != x or y_hat != y)
        assert errs / trials <= 0.35

    def test_checked_blocks_repaired_y_before_x(self):
        # On the simulation joint at N=256, R_x=0.5, R_y=0.85, SC misses x in
        # trial 6 and both x and y in trials 14, 15 and 62 of default_rng([17, t]);
        # SC-Flip repairs y alone, then x given the repaired y.  No single flip
        # repairs trial 87's x.  Version 1 blocks come back unchecked, as SC decoded them.
        j = JointSource(JointSource.bernoulli(0.5).field, np.array([[0.76, 0.01], [0.04, 0.19]]))
        cfg = sw_config(j, 256, 0.5, 0.85)

        def pair(t):
            draw = np.random.default_rng([17, t]).choice(4, 256, p=j.probs.reshape(-1))
            return SymbolBlock(j.field, draw // 2), SymbolBlock(j.field, draw % 2)

        for t, sc_missed_y in ((6, False), (14, True), (15, True), (62, True)):
            x, y = pair(t)
            x_hat, y_hat = sw_decode_blocks(compress(x, cfg.set_x).payload[None],
                                            compress(y, cfg.set_y).payload[None], cfg)
            assert ((x_hat[0] != x.data).any(), (y_hat[0] != y.data).any()) == (True, sc_missed_y)
            assert sw_decode(sw_encode_x(x, cfg), sw_encode_y(y, cfg), cfg) == (x, y)
            x_plain, _ = sw_decode(plain_block(sw_encode_x(x, cfg)), plain_block(sw_encode_y(y, cfg)), cfg)
            assert np.array_equal(x_plain.data, x_hat[0])
        x, y = pair(87)
        with pytest.raises(FormatError, match="checksum mismatch"):
            sw_decode(sw_encode_x(x, cfg), sw_encode_y(y, cfg), cfg)

    def test_manifest_fields(self):
        cfg = sw_config(self._joint(), 16, 0.8, 0.95)
        doc = cfg.to_manifest()
        assert set(doc) == {"joint", "R_x", "R_y", "set_x", "set_y"}
        assert doc["set_x"]["N"] == 16
