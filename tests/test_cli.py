import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from srcpolar import HighEntropySet, JointSource, SymbolBlock, binary_entropy, codec, compress, spectrum
from srcpolar.cli import main

from conftest import BAD_MANIFESTS, plain_container

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


class TestSpectrumCommand:
    def test_exact_bsc_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(
            "spectrum", "--preset", "bsc_pair(0.11)", "-N", "8", "--out", str(out)
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,index,h,z,method"
        assert len(lines) == 9
        total_h = sum(float(l.split(",")[2]) for l in lines[1:])
        assert total_h == pytest.approx(8 * binary_entropy(0.11), abs=1e-9)
        frac = (tmp_path / "spec.csv.fractions.csv").read_text().strip().split("\n")
        assert frac[0] == "N,delta,high,low,mid"
        assert len(frac) == 2

    def test_multiple_n_and_delta(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(
            "spectrum", "--preset", "bernoulli(0.11)", "-N", "2", "4",
            "--method", "exact", "--delta", "0.1", "0.3", "--out", str(out),
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 2 + 4
        assert len((tmp_path / "s.csv.fractions.csv").read_text().strip().split("\n")) == 5

    def test_zbound_has_no_h_column(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run(
            "spectrum", "--preset", "bernoulli(0.11)", "-N", "4",
            "--method", "zbound", "--out", str(out),
        ) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.split(",")[2] == ""  # bound-only runs carry just z
        # and no polarization fractions are reported without h values
        assert (tmp_path / "z.csv.fractions.csv").read_text().strip() == "N,delta,high,low,mid"

    def test_unknown_preset_fails(self, tmp_path):
        assert run(
            "spectrum", "--preset", "cauchy(1)", "-N", "4", "--out", str(tmp_path / "x")
        ) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("N", ["16", "8192"])
    def test_exact_over_the_state_budget_fails(self, tmp_path, capsys, N):
        # at N=8192 the message once held 4^8192, past Python's 4300-digit str limit, and exited with a traceback
        out = tmp_path / "s.csv"
        assert run("spectrum", "--preset", "bsc_pair(0.11)", "-N", N, "--method", "exact", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"srcpolar: error: (q*y_size)^N = 4^{N} exceeds the 16777216 state budget\n"
        assert not out.exists()

    def test_mc_requires_seed(self, tmp_path):
        assert run(
            "spectrum", "--preset", "bernoulli(0.11)", "-N", "4",
            "--method", "mc", "--out", str(tmp_path / "x"),
        ) == 1

    def test_source_json_file(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(JointSource.bernoulli(0.2).to_json())
        out = tmp_path / "o.csv"
        assert run("spectrum", "--source", str(src), "-N", "4", "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 5


class TestFreezeCommand:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(
            "freeze", "--preset", "bernoulli(0.11)", "-N", "16", "-R", "0.7",
            "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["N"] == 16 and doc["R"] == 0.7
        assert len(doc["indices"]) == 12  # ceil(16 * 0.7)
        assert doc["method"] == "zbound"
        assert len(doc["fingerprint"]) == 16
        assert doc["source"]["q"] == 2

    def test_idempotent_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(
                "freeze", "--preset", "bsc_pair(0.11)", "-N", "32", "-R", "0.8",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()


# A manifest's "source" made into no source description: probs and y_size dropped, or int() made it binary.
BAD_MANIFEST_SOURCES = {
    "bad_source": lambda src: {"q": 2},
    "source_q_float": lambda src: {**src, "q": 2.5},
    "source_q_string": lambda src: {**src, "q": "2"},
    "source_y_size_float": lambda src: {**src, "y_size": 1.9},
    # numpy's reshape inferred the -1, and float() read each of these probs
    "source_y_size_minus_one": lambda src: {**src, "y_size": -1},
    "source_probs_strings": lambda src: {**src, "probs": [str(p) for p in src["probs"]]},
    "source_probs_bool": lambda src: {**src, "probs": [True, False]},
    "source_probs_nested": lambda src: {**src, "probs": [[p] for p in src["probs"]]},
    "source_probs_integer_past_float": lambda src: {**src, "probs": [10**400, 0]},  # OverflowError escaped
}


class TestCompressPipeline:
    @staticmethod
    def _freeze(tmp_path, preset="bernoulli(0.11)", N=64, R=1.0):
        m = tmp_path / "manifest.json"
        assert run("freeze", "--preset", preset, "-N", str(N), "-R", str(R), "--out", str(m)) == 0
        return m

    def test_round_trip(self, tmp_path):
        m = self._freeze(tmp_path)
        data = os.urandom(100)  # not a multiple of the block size
        (tmp_path / "in.bin").write_bytes(data)
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 0
        assert (tmp_path / "out.bin").read_bytes() == data

    def test_round_trip_with_checksum_and_side(self, tmp_path):
        m = self._freeze(tmp_path, preset="bsc_pair(0.0)", N=32, R=0.5)
        data = bytes(range(32))
        (tmp_path / "in.bin").write_bytes(data)
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        # noiseless pair: the side file is the bit expansion of the input
        side = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        (tmp_path / "side.bin").write_bytes(side.tobytes())
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--side", str(tmp_path / "side.bin"), "--out", str(tmp_path / "out.bin"),
        ) == 0
        assert (tmp_path / "out.bin").read_bytes() == data

    def test_decompress_closes_its_files(self, tmp_path, monkeypatch):
        # A file left to the garbage collector warns as it is freed; under the
        # error filter that warning is raised in a finalizer and only reaches
        # sys.unraisablehook, so collect what reaches it.
        unraised = []
        monkeypatch.setattr(sys, "unraisablehook", unraised.append)
        m = self._freeze(tmp_path, preset="bsc_pair(0.0)", N=32, R=0.5)
        data = bytes(range(32))
        (tmp_path / "in.bin").write_bytes(data)
        side = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        (tmp_path / "side.bin").write_bytes(side.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run(
                "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
                "--out", str(tmp_path / "c.plsc"),
            ) == 0
            assert run(
                "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
                "--side", str(tmp_path / "side.bin"), "--out", str(tmp_path / "out.bin"),
            ) == 0
            gc.collect()
        assert (tmp_path / "out.bin").read_bytes() == data
        assert [u.exc_value for u in unraised] == []

    @pytest.mark.parametrize("N", [2, 4])
    def test_round_trip_blocks_not_byte_aligned(self, tmp_path, N):
        data = os.urandom(101)
        (tmp_path / "in.bin").write_bytes(data)
        side = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        (tmp_path / "side.bin").write_bytes(side.tobytes())
        for preset, rate, extra in (
            ("bernoulli(0.11)", 1.0, []),
            ("bsc_pair(0.0)", 0.5, ["--side", str(tmp_path / "side.bin")]),  # noiseless side
        ):
            m = self._freeze(tmp_path, preset=preset, N=N, R=rate)
            assert run(
                "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
                "--out", str(tmp_path / "c.plsc"),
            ) == 0
            assert run(
                "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
                *extra, "--out", str(tmp_path / "out.bin"),
            ) == 0
            assert (tmp_path / "out.bin").read_bytes() == data

    @pytest.mark.parametrize(
        "N, chunk_bytes", [(64, 1), (64, 192), (64, codec.COMPRESS_BYTES), (4, 12), (2, 1)]
    )
    def test_chunked_container_matches_per_block_compress(self, tmp_path, monkeypatch, N, chunk_bytes):
        # 1001 bytes: many chunks, and the last block is partial for every N here
        data = np.random.default_rng(N + chunk_bytes).integers(0, 256, 1001, dtype=np.uint8)
        (tmp_path / "in.bin").write_bytes(data.tobytes())
        m = self._freeze(tmp_path, N=N, R=0.75)
        hset = HighEntropySet.from_manifest(json.loads(m.read_text()))
        bits = np.unpackbits(data)
        pad = -bits.size % N
        blocks = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)]).reshape(-1, N)
        want = b"".join(
            compress(SymbolBlock(JointSource.bernoulli(0.11).field, x), hset).to_bytes()
            for x in blocks
        ) + pad.to_bytes(4, "little")
        monkeypatch.setattr(codec, "COMPRESS_BYTES", chunk_bytes)
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        assert (tmp_path / "c.plsc").read_bytes() == want

    def test_non_binary_manifest_source_fails(self, tmp_path, capsys):
        m = self._freeze(tmp_path, N=16)
        q3 = {"q": 3, "y_size": 1, "probs": [0.5, 0.25, 0.25]}
        m.write_text(json.dumps({**json.loads(m.read_text()), "source": q3}))
        (tmp_path / "in.bin").write_bytes(b"ab")
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 1
        assert "binary source" in capsys.readouterr().err
        assert not (tmp_path / "c.plsc").exists()

    def test_compress_memory_stays_near_one_chunk(self, tmp_path):
        # The input's bits as int64 would alone take 64 MiB; one chunk of
        # uint8 bits takes 1 MiB.
        m = self._freeze(tmp_path, N=2**16, R=0.75)
        bits = np.random.default_rng(3).random(8 * 2**20) < 0.11
        (tmp_path / "in.bin").write_bytes(np.packbits(bits).tobytes())
        tracemalloc.start()
        try:
            assert run(
                "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
                "--out", str(tmp_path / "c.plsc"),
            ) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_checksum_flag_is_hidden_and_changes_nothing(self, tmp_path, capsys):
        # Every block carries its crc32; --checksum still parses for the scripts that pass it.
        m = self._freeze(tmp_path, N=64, R=0.75)
        (tmp_path / "in.bin").write_bytes(np.random.default_rng(5).integers(0, 256, 777, dtype=np.uint8).tobytes())
        for name, flag in (("a.plsc", []), ("b.plsc", ["--checksum"])):
            assert run("compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
                       "--out", str(tmp_path / name), *flag) == 0
        assert (tmp_path / "a.plsc").read_bytes() == (tmp_path / "b.plsc").read_bytes()
        with pytest.raises(SystemExit):
            run("compress", "--help")
        assert "--checksum" not in capsys.readouterr().out

    @pytest.mark.parametrize("checksum", [[], ["--checksum"]])
    @pytest.mark.parametrize("preset", ["bernoulli(0.11)", "bsc_pair(0.11)"])
    def test_empty_file_round_trips(self, tmp_path, preset, checksum):
        m = self._freeze(tmp_path, preset=preset, N=64, R=0.75)
        (tmp_path / "in.bin").write_bytes(b"")
        (tmp_path / "side.bin").write_bytes(b"")
        side = ["--side", str(tmp_path / "side.bin")] if preset.startswith("bsc") else []
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"), *checksum,
        ) == 0
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            *side, "--out", str(tmp_path / "out.bin"),
        ) == 0
        assert (tmp_path / "out.bin").read_bytes() == b""

    def test_decompress_memory_per_bit(self, tmp_path):
        # Side symbols, known bits and u stay uint8 through decoding: the side
        # symbols alone as int64 would take 8 bytes per decoded bit.
        m = self._freeze(tmp_path, preset="bsc_pair(0.11)", N=1024, R=0.8)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 8 * 2**18, dtype=np.uint8)
        side = bits ^ (rng.random(bits.size) < 0.11)
        (tmp_path / "in.bin").write_bytes(np.packbits(bits).tobytes())
        (tmp_path / "side.bin").write_bytes(side.astype(np.uint8).tobytes())
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        tracemalloc.start()
        try:
            assert run(
                "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
                "--side", str(tmp_path / "side.bin"), "--out", str(tmp_path / "out.bin"),
            ) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * bits.size

    def test_corrupted_magic_fails(self, tmp_path):
        m = self._freeze(tmp_path, N=16)
        (tmp_path / "in.bin").write_bytes(b"hello world!")
        run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        )
        raw = bytearray((tmp_path / "c.plsc").read_bytes())
        raw[0] ^= 0xFF
        (tmp_path / "c.plsc").write_bytes(bytes(raw))
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 1

    @pytest.mark.parametrize("pad", [64, 10**6])
    def test_pad_trailer_out_of_range_fails(self, tmp_path, capsys, pad):
        m = self._freeze(tmp_path, N=64)
        (tmp_path / "in.bin").write_bytes(b"sixteen bytes!!!")
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        raw = (tmp_path / "c.plsc").read_bytes()
        (tmp_path / "c.plsc").write_bytes(raw[:-4] + pad.to_bytes(4, "little"))
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 1
        assert "pad trailer" in capsys.readouterr().err
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("pad", [3, 8])
    def test_pad_trailer_that_drops_data_fails(self, tmp_path, capsys, pad):
        # compress pads with whole zero bytes: 3 is not whole bytes, and 8 would
        # drop the file's nonzero last byte.  Both are below N, and a crc32
        # covers a block, not the trailer.
        m = self._freeze(tmp_path, N=16)
        (tmp_path / "in.bin").write_bytes(b"ab")
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        raw = (tmp_path / "c.plsc").read_bytes()
        (tmp_path / "c.plsc").write_bytes(raw[:-4] + pad.to_bytes(4, "little"))
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 1
        assert "pad trailer" in capsys.readouterr().err
        assert not (tmp_path / "out.bin").exists()

    def test_empty_container_with_pad_fails(self, tmp_path):
        m = self._freeze(tmp_path, N=64)
        (tmp_path / "c.plsc").write_bytes((1).to_bytes(4, "little"))  # no blocks, 1 pad bit
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 1

    def test_missing_side_fails(self, tmp_path):
        m = self._freeze(tmp_path, preset="bsc_pair(0.05)", N=16, R=1.0)
        (tmp_path / "in.bin").write_bytes(b"\x00\x01")
        run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        )
        assert run(
            "decompress", "--manifest", str(m), "--in", str(tmp_path / "c.plsc"),
            "--out", str(tmp_path / "out.bin"),
        ) == 1

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    @pytest.mark.parametrize("case", sorted([*BAD_MANIFESTS, "invalid_json", *BAD_MANIFEST_SOURCES]))
    def test_bad_manifest_fails(self, tmp_path, capsys, command, case):
        m = self._freeze(tmp_path, N=16, R=0.5)
        (tmp_path / "in.bin").write_bytes(b"two blocks")
        assert run(
            "compress", "--manifest", str(m), "--in", str(tmp_path / "in.bin"),
            "--out", str(tmp_path / "c.plsc"),
        ) == 0
        doc = json.loads(m.read_text())
        if case == "invalid_json":
            m.write_text(m.read_text()[:-3])
        elif case in BAD_MANIFEST_SOURCES:
            m.write_text(json.dumps({**doc, "source": BAD_MANIFEST_SOURCES[case](doc["source"])}))
        else:
            m.write_text(json.dumps(BAD_MANIFESTS[case](doc)))
        infile = tmp_path / ("in.bin" if command == "compress" else "c.plsc")
        capsys.readouterr()
        assert run(
            command, "--manifest", str(m), "--in", str(infile), "--out", str(tmp_path / "out"),
        ) == 1
        assert capsys.readouterr().err.startswith("srcpolar: error:")
        assert not (tmp_path / "out").exists()


class TestNoSilentCorruption:
    """CLI compress and decompress with default flags never restore wrong bytes with exit 0.

    Each case must restore the file exactly with exit 0, or exit 1 with
    "checksum mismatch" and write nothing.  A writer without crc32s restores
    wrong bytes with exit 0 in both.
    """

    @staticmethod
    def _restores_or_fails(tmp_path, capsys, manifest, edited, data):
        paths = {k: tmp_path / k for k in ("in.bin", "c.plsc", "out.bin")}
        paths["in.bin"].write_bytes(data)
        assert run("compress", "--manifest", str(manifest), "--in", str(paths["in.bin"]),
                   "--out", str(paths["c.plsc"])) == 0
        capsys.readouterr()
        rc = run("decompress", "--manifest", str(edited), "--in", str(paths["c.plsc"]),
                 "--out", str(paths["out.bin"]))
        if rc == 0:
            assert paths["out.bin"].read_bytes() == data
        else:
            assert rc == 1 and "checksum mismatch" in capsys.readouterr().err
            assert not paths["out.bin"].exists()

    @staticmethod
    def _freeze(tmp_path):
        m = tmp_path / "m.json"
        assert run("freeze", "--preset", "bernoulli(0.11)", "-N", "1024", "-R", "0.7", "--out", str(m)) == 0
        return m

    def test_blocks_that_sc_misses(self, tmp_path, capsys):
        # 16 KiB of Ber(0.11) at N=1024, R=0.7 (zbound): SC alone decodes 4 of its 128 blocks wrongly.
        m = self._freeze(tmp_path)
        hset, source = HighEntropySet.from_manifest(json.loads(m.read_text())), JointSource.bernoulli(0.11)
        X = (np.random.default_rng(0).random((128, 1024)) < 0.11).astype(np.uint8)
        missed = (codec.decompress_blocks(codec.compress_blocks(X, hset), None, hset, source) != X).any(axis=1)
        assert missed.any()
        self._restores_or_fails(tmp_path, capsys, m, m, np.packbits(X).tobytes())

    def test_manifest_with_an_index_swapped(self, tmp_path, capsys):
        # The set's last index swapped for the first index outside it: the same size and
        # fingerprint, so the manifest still loads, and 4 KiB of Ber(0.11) decode against it.
        m = self._freeze(tmp_path)
        doc = json.loads(m.read_text())
        outside = min(set(range(1, 1025)) - set(doc["indices"]))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**doc, "indices": sorted([*doc["indices"][:-1], outside])}))
        data = np.packbits(np.random.default_rng(7).random(8 * 4096) < 0.11).tobytes()
        self._restores_or_fails(tmp_path, capsys, m, edited, data)


class TestChansim:
    def test_noiseless_zero_fer(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(
            "chansim", "--channel", "bsc(0.0)", "-N", "32", "-R", "0.5",
            "--trials", "10", "--seed", "1", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "channel,N,R,trials,fer,ber,bound"
        row = lines[1].split(",")
        assert float(row[4]) == 0.0 and float(row[5]) == 0.0

    def test_seed_determinism(self, tmp_path):
        argv = [
            "chansim", "--channel", "bec(0.4)", "-N", "16", "32", "-R", "0.3", "0.5",
            "--trials", "25", "--seed", "7",
        ]
        run(*argv, "--out", str(tmp_path / "a.csv"))
        run(*argv, "--out", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert len((tmp_path / "a.csv").read_text().strip().split("\n")) == 5

    def test_bad_channel_spec(self, tmp_path):
        assert run(
            "chansim", "--channel", "awgn(1.0)", "-N", "8", "-R", "0.5",
            "--trials", "1", "--seed", "0", "--out", str(tmp_path / "x"),
        ) == 1

    @pytest.mark.parametrize("spec", ["bsc(1e)", "bsc(..)", "bsc()", "bec(+-1)"])
    def test_malformed_channel_number(self, tmp_path, capsys, spec):
        # these used to reach float() and escape as a bare ValueError
        out = tmp_path / "x"
        assert run("chansim", "--channel", spec, "-N", "8", "-R", "0.5",
                   "--trials", "1", "--seed", "0", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("srcpolar: error: unknown channel spec")
        assert not out.exists()


class TestSwsim:
    @staticmethod
    def _joint_file(tmp_path):
        # Y ~ Ber(0.2), X = Y xor Ber(0.05): H(Y) ~ 0.72, H(X|Y) ~ 0.29
        table = np.array([[0.8 * 0.95, 0.2 * 0.05], [0.8 * 0.05, 0.2 * 0.95]])
        path = tmp_path / "joint.json"
        path.write_text(JointSource(JointSource.bernoulli(0.5).field, table).to_json())
        return path

    def test_small_run(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run(
            "swsim", "--source", str(self._joint_file(tmp_path)), "-N", "64",
            "--rx", "0.8", "--ry", "0.95", "--trials", "20", "--seed", "3",
            "--out", str(out),
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,R_x,R_y,trials,joint_error_rate,bound"
        row = lines[1].split(",")
        assert row[0] == "64" and row[3] == "20"
        assert 0.0 <= float(row[4]) <= 1.0

    def test_invalid_rate_fails(self, tmp_path):
        assert run(
            "swsim", "--source", str(self._joint_file(tmp_path)), "-N", "16",
            "--rx", "0.1", "--ry", "0.95", "--trials", "1", "--seed", "0",
            "--out", str(tmp_path / "x"),
        ) == 1

    def test_uniform_side_runs_at_full_rate(self, tmp_path):
        # bsc_pair has H(Y) = 1, so R_y = 1 is the only rate its Y stage can take
        out = tmp_path / "sw.csv"
        argv = ["swsim", "--preset", "bsc_pair(0.11)", "-N", "256", "--rx", "0.9", "--trials", "50", "--seed", "1"]
        assert run(*argv, "--ry", "1", "--out", str(out)) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "1" and float(row[4]) == 0.0 and 0 < float(row[5]) < 1e-5
        assert run(*argv, "--ry", "0.99", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_validated(self, tmp_path, capsys, trials):
        # 0 used to divide by zero, and -3 wrote a row with error rate -0
        out = tmp_path / "sw.csv"
        assert run(
            "swsim", "--source", str(self._joint_file(tmp_path)), "-N", "16",
            "--rx", "0.8", "--ry", "0.95", "--trials", trials, "--seed", "0", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.startswith("srcpolar: error: trials must be")
        assert not out.exists()


BAD_SOURCES = {
    "truncated_json": '{"q": 2, "y_size": 1, "probs": [0.5, ',
    "missing_y_size": '{"q": 2}',
    "not_a_dict": "[0.5, 0.5]",
    "probs_not_numbers": '{"q": 2, "y_size": 1, "probs": ["a", "b"]}',
    # int() made each of these a binary source with y_size 2
    "q_float": '{"q": 2.5, "y_size": 2, "probs": [0.4, 0.1, 0.1, 0.4]}',
    "q_string": '{"q": "2", "y_size": 2, "probs": [0.4, 0.1, 0.1, 0.4]}',
    "y_size_float": '{"q": 2, "y_size": 2.9, "probs": [0.4, 0.1, 0.1, 0.4]}',
    "y_size_minus_one": '{"q": 2, "y_size": -1, "probs": [0.4, 0.1, 0.1, 0.4]}',  # reshape inferred y_size 2
    "not_utf8": b'{"q": 2, "y_size": 1, "probs": [0.5, 0.5]}\xff',  # UnicodeDecodeError escaped as a traceback
    "integer_past_float": '{"q": 2, "y_size": 1, "probs": [1%s, 0]}' % ("0" * 400),  # so did OverflowError
}
SOURCE_COMMANDS = {
    "spectrum": ["-N", "4"],
    "freeze": ["-N", "4", "-R", "0.5"],
    "swsim": ["-N", "4", "--rx", "0.9", "--ry", "0.9", "--seed", "0"],
}


@pytest.mark.parametrize("command", sorted(SOURCE_COMMANDS))
@pytest.mark.parametrize("preset", ["bernoulli(..)", "bernoulli(1e)", "bernoulli()"])
def test_malformed_preset_number_fails(tmp_path, capsys, command, preset):
    out = tmp_path / "out"
    assert run(command, "--preset", preset, *SOURCE_COMMANDS[command], "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("srcpolar: error: unknown source preset")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["freeze", "-R", "1.5"], "rate 1.5 outside (0, 1]"),
    (["freeze", "-R", "0"], "rate 0.0 outside (0, 1]"),
    (["spectrum", "--delta", "0.1", "2"], "delta 2.0 outside (0, 1)"),
    (["spectrum", "--delta", "0"], "delta 0.0 outside (0, 1)"),
])
def test_bad_rate_or_delta_fails_before_the_spectrum(tmp_path, capsys, monkeypatch, argv, message):
    # a Monte-Carlo pass at N=1024 takes about a second; the argument is checked first
    def refuse(*args, **kwargs):
        raise AssertionError("the spectrum was built before the argument was checked")

    monkeypatch.setattr(spectrum, "montecarlo_spectrum", refuse)
    out = tmp_path / "out"
    assert run(argv[0], "--preset", "bsc_pair(0.11)", "-N", "1024", "--method", "mc",
               "--samples", "10000", "--seed", "1", *argv[1:], "--out", str(out)) == 1
    assert capsys.readouterr().err == f"srcpolar: error: {message}\n"
    assert not out.exists()


SEEDED_COMMANDS = {
    "chansim": ["--channel", "bsc(0.1)", "-N", "8", "-R", "0.5", "--trials", "2"],
    "swsim": ["-N", "16", "--rx", "0.8", "--ry", "0.95", "--trials", "2"],
    "freeze": ["-N", "8", "-R", "0.5", "--method", "mc", "--samples", "10"],
    "spectrum": ["-N", "8", "--method", "mc", "--samples", "10"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_fails(tmp_path, capsys, command):
    # numpy rejects a negative seed with its own ValueError, which escaped as a traceback
    joint = tmp_path / "joint.json"
    joint.write_text('{"q": 2, "y_size": 2, "probs": [0.76, 0.01, 0.04, 0.19]}')
    source = [] if command == "chansim" else ["--source", str(joint)]
    out = tmp_path / "out"
    assert run(command, *source, *SEEDED_COMMANDS[command], "--seed", "-1",
               "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("srcpolar: error: seed must be")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SOURCE_COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
def test_bad_source_file_fails(tmp_path, capsys, command, case):
    src = tmp_path / "src.json"
    text = BAD_SOURCES[case]
    src.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert run(command, "--source", str(src), *SOURCE_COMMANDS[command], "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"srcpolar: error: source {src}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SOURCE_COMMANDS))
@pytest.mark.parametrize("given, message", [
    ("both", "argument --source: not allowed with argument --preset"),  # --source was ignored, exit 0
    ("neither", "one of the arguments --preset --source is required"),
], ids=["both", "neither"])
def test_exactly_one_source_option_is_accepted(tmp_path, capsys, command, given, message):
    source = ["--preset", "bernoulli(0.11)", "--source", str(tmp_path / "missing.json")] if given == "both" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(command, *source, *SOURCE_COMMANDS[command], "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: srcpolar {command} ") and err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_output_naming_a_directory_fails_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run("freeze", "--preset", "bernoulli(0.11)", "-N", "8", "-R", "0.5", "--out", str(out)) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(out.iterdir())


HUGE_N_COMMANDS = {
    "spectrum": ["--preset", "bernoulli(0.11)", "--method", "zbound"],
    "freeze": ["--preset", "bernoulli(0.11)", "-R", "0.5", "--method", "zbound"],
    "chansim": ["--channel", "bsc(0.11)", "-R", "0.5", "--trials", "1", "--seed", "0"],
    "swsim": ["--rx", "0.8", "--ry", "0.95", "--trials", "1", "--seed", "0"],
}


def _address_space_cap():
    # 4 GiB: where a command allocates for the block length first, it fails with MemoryError, not by filling the host
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("command", sorted(HUGE_N_COMMANDS))
def test_block_length_beyond_2_30_fails_at_once(tmp_path, command):
    joint = tmp_path / "joint.json"
    joint.write_text('{"q": 2, "y_size": 2, "probs": [0.76, 0.01, 0.04, 0.19]}')
    source = ["--source", str(joint)] if command == "swsim" else []
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "srcpolar.cli", command, *source, *HUGE_N_COMMANDS[command], "-N", str(1 << 31),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, preexec_fn=_address_space_cap,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stderr) == (1, "srcpolar: error: block length 2147483648 exceeds 2**30\n")
    assert not out.exists()


# The modules a command may load, beyond srcpolar, cli, errors, field, sources, spectrum and transform.
COMMAND_MODULES = {
    "freeze": ([], ["--preset", "bernoulli(0.11)", "-N", "1024", "-R", "0.75", "--method", "zbound"]),
    "spectrum": ([], ["--preset", "bsc_pair(0.11)", "-N", "8", "--method", "exact"]),
    "compress": (["codec", "pipeline", "scdec"], None),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_command_imports_only_what_it_runs(tmp_path, command):
    extra, argv = COMMAND_MODULES[command]
    if argv is None:
        manifest = tmp_path / "m.json"
        assert run("freeze", "--preset", "bernoulli(0.11)", "-N", "64", "-R", "0.75", "--out", str(manifest)) == 0
        (tmp_path / "in.bin").write_bytes(bytes(range(200)))
        argv = ["--manifest", str(manifest), "--in", str(tmp_path / "in.bin")]
    code = ("import sys; from srcpolar import cli; rc = cli.main(sys.argv[1:]); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('srcpolar')))); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, command, *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    base = ["cli", "errors", "field", "sources", "spectrum", "transform"]
    assert proc.stdout.split() == ["srcpolar", *sorted(f"srcpolar.{m}" for m in base + extra)]


@pytest.mark.parametrize("command", ["freeze", "compress"])
@pytest.mark.parametrize("before, after", [(None, 0o644), (0o640, 0o640)], ids=["new", "existing_0640"])
def test_output_keeps_its_mode_or_takes_the_umask(tmp_path, command, before, after):
    # the temp file behind the atomic write is made 0600, and the rename kept that mode
    manifest, out = tmp_path / "m.json", tmp_path / "out"
    assert run("freeze", "--preset", "bernoulli(0.11)", "-N", "64", "-R", "0.75", "--out", str(manifest)) == 0
    (tmp_path / "in.bin").write_bytes(bytes(range(200)))
    argv = {"freeze": ["--preset", "bernoulli(0.11)", "-N", "64", "-R", "0.75"],
            "compress": ["--manifest", str(manifest), "--in", str(tmp_path / "in.bin")]}[command]
    if before is not None:
        out.write_bytes(b"old")
        out.chmod(before)
    code = "import os, sys; os.umask(0o022); from srcpolar import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, command, *argv, "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert oct(out.stat().st_mode & 0o777) == oct(after)


def test_every_public_name_resolves_to_its_module():
    import srcpolar

    assert srcpolar.__all__ == sorted(srcpolar._HOME)
    listed = dir(srcpolar)
    for name in srcpolar.__all__:
        module = importlib.import_module(srcpolar._HOME[name])
        assert getattr(srcpolar, name) is getattr(module, name)
        assert name in listed
        assert name not in vars(srcpolar)  # looked up on every access, so a rebinding in its module shows
    assert srcpolar.codec is importlib.import_module("srcpolar.codec")
    with pytest.raises(AttributeError):
        srcpolar.no_such_name


COMMANDS = ["spectrum", "freeze", "compress", "decompress", "chansim", "swsim"]


def test_console_script_declared_and_callable(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"srcpolar": "srcpolar.cli:main"}
    module, _, attr = scripts["srcpolar"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in COMMANDS:
        assert cmd in out


@pytest.mark.skipif(
    shutil.which("srcpolar") is None,
    reason="srcpolar console script not on PATH; see README.md, Install",
)
def test_console_entry_point():
    import subprocess

    r = subprocess.run(["srcpolar", "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    for cmd in COMMANDS:
        assert cmd in r.stdout


class TestPinnedOutputs:
    """Fixed-seed outputs of chansim, swsim, compress, decompress and an mc freeze.

    They pin the decoder's decisions, ties included: the rates are high
    enough that some frames and blocks fail, so any changed decision
    changes the bytes.  The BEC cases decide many exact-zero llrs.  The
    container hashes pin the payload order, which a change applied to both
    compress and decompress would leave invisible in the restored bytes.
    """

    CHANSIM = {
        ("bsc(0.11)", ("64", "1024"), ("0.35", "0.5")): (
            "channel,N,R,trials,fer,ber,bound\n"
            "bsc(0.11),64,0.34999999999999998,40,0.125,0.025000000000000001,1\n"
            "bsc(0.11),64,0.5,40,0.65000000000000002,0.2265625,1\n"
            "bsc(0.11),1024,0.34999999999999998,40,0.17499999999999999,0.020251396648044692,1\n"
            "bsc(0.11),1024,0.5,40,1,0.39047851562500002,1\n"
        ),
        ("bec(0.4)", ("256",), ("0.5", "0.6")): (
            "channel,N,R,trials,fer,ber,bound\n"
            "bec(0.4),256,0.5,40,0.42499999999999999,0.13027343750000001,1\n"
            "bec(0.4),256,0.59999999999999998,40,0.875,0.33790849673202616,1\n"
        ),
    }
    SWSIM = {
        ("0.5", "0.85"): "256,0.5,0.84999999999999998,40,0.10000000000000001,2",
        ("0.35", "0.8"): "256,0.34999999999999998,0.80000000000000004,40,0.69999999999999996,2",
    }
    DECOMPRESS = {
        ("bsc_pair(0.11)", "0.6"): "c16c29eb4989f2693bb51be28fa8aa84c02e32279698c5af2c4f42394c1c85d2",
        ("bec_pair(0.4)", "0.5"): "ae94c53ab3776351d7791fc6f8c47c50c5d741296ca4861938003bc14b01e7c4",
    }

    # The version 1 containers older writers made, derived from the version 2 ones
    # (plain_container); DECOMPRESS pins their unchecked decodes.
    COMPRESS = {
        ("bsc_pair(0.11)", "0.6"): "3c85307702a91e13ef442f71b7e01c772b55fa3ad9f2e40d7c7e24f44841c2a6",
        ("bec_pair(0.4)", "0.5"): "afa2624932767cd98844ac504a99d422779d6f4553e891dc855e9e6e84b0f634",
    }
    # What compress writes: version 2, whose crc32s catch the blocks SC misses.
    COMPRESS_CRC = {
        ("bsc_pair(0.11)", "0.6"): "b400624633908d709a5b76f20d2e24a2849c1216459dcff7aadd7351320d6668",
        ("bec_pair(0.4)", "0.5"): "3371d993f2d25f20a90aea3d23c974ded0e8bc60752a9f6fb354071b35210ba2",
    }

    MC_MANIFEST = "26f03e8db1c9acb747f7e1555f96d6928f4246444e256d4e7d88c0a4d5f35852"

    def test_chansim(self, tmp_path):
        for (channel, Ns, Rs), want in self.CHANSIM.items():
            out = tmp_path / "c.csv"
            assert run("chansim", "--channel", channel, "-N", *Ns, "-R", *Rs,
                       "--trials", "40", "--seed", "7", "--out", str(out)) == 0
            assert out.read_text() == want

    def test_swsim(self, tmp_path):
        joint = tmp_path / "joint.json"
        joint.write_text('{"q": 2, "y_size": 2, "probs": [0.76, 0.01, 0.04, 0.19]}')
        for (rx, ry), want in self.SWSIM.items():
            out = tmp_path / "s.csv"
            assert run("swsim", "--source", str(joint), "-N", "256", "--rx", rx, "--ry", ry,
                       "--trials", "40", "--seed", "7", "--out", str(out)) == 0
            assert out.read_text() == "N,R_x,R_y,trials,joint_error_rate,bound\n" + want + "\n"

    # 150 trials at N=1024 run as decoder batches of 64, 64 and 22 trials
    CHANSIM_BATCHES = (
        "channel,N,R,trials,fer,ber,bound\n"
        "bsc(0.11),1024,0.34999999999999998,150,0.16666666666666666,0.024022346368715083,1\n"
        "bsc(0.11),1024,0.5,150,1,0.39329427083333335,1\n"
    )
    SWSIM_BATCHES = (
        "N,R_x,R_y,trials,joint_error_rate,bound\n"
        "1024,0.5,0.84999999999999998,150,0.073333333333333334,2\n"
    )

    def test_trials_across_batches(self, tmp_path):
        joint = tmp_path / "joint.json"
        joint.write_text('{"q": 2, "y_size": 2, "probs": [0.76, 0.01, 0.04, 0.19]}')
        out = tmp_path / "c.csv"
        assert run("chansim", "--channel", "bsc(0.11)", "-N", "1024", "-R", "0.35", "0.5",
                   "--trials", "150", "--seed", "7", "--out", str(out)) == 0
        assert out.read_text() == self.CHANSIM_BATCHES
        out = tmp_path / "s.csv"
        assert run("swsim", "--source", str(joint), "-N", "1024", "--rx", "0.5", "--ry", "0.85",
                   "--trials", "150", "--seed", "7", "--out", str(out)) == 0
        assert out.read_text() == self.SWSIM_BATCHES

    def test_decompress(self, tmp_path, capsys):
        for (preset, rate), want in self.DECOMPRESS.items():
            rng = np.random.default_rng(11)
            data = rng.integers(0, 256, 500, dtype=np.uint8)
            bits = np.unpackbits(data).astype(np.int64)
            bits = np.concatenate([bits, np.zeros(-bits.size % 256, dtype=np.int64)])
            if preset.startswith("bsc"):
                side = bits ^ (rng.random(bits.size) < 0.11)
            else:
                side = np.where(rng.random(bits.size) < 0.4, 2, bits)
            paths = {k: tmp_path / k for k in ("m.json", "x.bin", "y.bin", "x.plsc", "x.out")}
            paths["x.bin"].write_bytes(data.tobytes())
            paths["y.bin"].write_bytes(side.astype(np.uint8).tobytes())
            assert run("freeze", "--preset", preset, "-N", "256", "-R", rate,
                       "--out", str(paths["m.json"])) == 0
            assert run("compress", "--manifest", str(paths["m.json"]), "--in", str(paths["x.bin"]),
                       "--out", str(paths["x.plsc"])) == 0
            container = paths["x.plsc"].read_bytes()
            assert hashlib.sha256(container).hexdigest() == self.COMPRESS_CRC[preset, rate]
            capsys.readouterr()
            paths["x.out"].unlink(missing_ok=True)
            assert run("decompress", "--manifest", str(paths["m.json"]),
                       "--in", str(paths["x.plsc"]), "--side", str(paths["y.bin"]),
                       "--out", str(paths["x.out"])) == 1
            assert "checksum mismatch" in capsys.readouterr().err and not paths["x.out"].exists()
            container = plain_container(container)
            assert hashlib.sha256(container).hexdigest() == self.COMPRESS[preset, rate]
            paths["x.plsc"].write_bytes(container)
            assert run("decompress", "--manifest", str(paths["m.json"]),
                       "--in", str(paths["x.plsc"]), "--side", str(paths["y.bin"]),
                       "--out", str(paths["x.out"])) == 0
            restored = paths["x.out"].read_bytes()
            assert len(restored) == 500 and restored != data.tobytes()
            assert hashlib.sha256(restored).hexdigest() == want

    MC_SPECTRUM = {
        "bsc_pair(0.11)": ("e13a07c69e0505f8ec7c610a2b31ad99fe5aba6200a80a85d87161db91f783e6",
                           "5b6a1da1a7bb9a6023ad08a7807ebe84842ab9273848e01e3dab160f36485833"),
        "bec_pair(0.4)": ("2a9849e3b776f81624fdef1320b12cd5ef87afcf1ede45f3c3f095be2c4db0fe",
                          "3297fb93b86dfab3546c2585fd26f150d5cfaa4b54116d9be7b8c495fdaea1ec"),
    }

    def test_mc_spectrum(self, tmp_path):
        # h and z are written to 17 digits, so these pin every bit of the estimates
        out = tmp_path / "s.csv"
        for preset, (rows, fractions) in self.MC_SPECTRUM.items():
            assert run("spectrum", "--preset", preset, "-N", "256", "--method", "mc",
                       "--samples", "2000", "--seed", "5", "--out", str(out)) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == rows
            assert hashlib.sha256(Path(f"{out}.fractions.csv").read_bytes()).hexdigest() == fractions

    def test_mc_manifest(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("freeze", "--preset", "bsc_pair(0.11)", "-N", "256", "-R", "0.8",
                   "--method", "mc", "--samples", "2000", "--seed", "5", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MC_MANIFEST


def test_pins_hold_on_every_slower_simd_dispatch_path():
    """TestPinnedOutputs and TestPinnedScBytes, but for test_mc_spectrum (the exception the CLI's help names),
    rerun in a child pytest on each of numpy's SIMD dispatch paths below this host's own.

    NPY_DISABLE_CPU_FEATURES, set in the child's environment alone, turns off every dispatch target
    this host supports from one of them up; turning them all off leaves numpy's baseline.
    """
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):  # a child of this test, or a path already chosen
        pytest.skip("NPY_DISABLE_CPU_FEATURES is set for this process")
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if not targets:
        pytest.skip("this host runs only numpy's baseline SIMD path")
    root = SRC.parent
    for k in range(len(targets)):
        disabled = " ".join(targets[k:])
        r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "tests/test_cli.py", "tests/test_scdec.py", "-k", "Pinned and not test_mc_spectrum"],
                           cwd=root, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled},
                           capture_output=True, text=True)
        assert r.returncode == 0, f"NPY_DISABLE_CPU_FEATURES={disabled!r}:\n{r.stdout[-3000:]}{r.stderr[-2000:]}"
