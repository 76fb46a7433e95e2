"""The benchmark's workloads.

Each workload builds its inputs from the seed, drives the public CLI
(`srcpolar.cli.main`) in process, and verifies every output.  One operation
is one unit of user work: a file round trip, a file compression, or one
chansim plus one swsim command.  An operation fails when a command exits
non-zero, raises, or writes output that fails verification.

Why these three:
* sideinfo_codec is the paper's headline use, compression of X given side
  information Y near H(X|Y); its decode runs the SC decoder on every block.
* bulk_compress is the write path on large files; the decoder never runs on
  the timed path, so it is the "no change" side for decoder work.
* simulation runs the channel-coding (duality) and Slepian-Wolf trial loops,
  many short independent frames whose error rates are measurable.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from srcpolar import cli, codec
from srcpolar.spectrum import HighEntropySet

from construct import construct

CONSTRUCT = Path(__file__).resolve().parent / "construct.py"
SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 5  # set-ups per run at least; more while they add up to less than SETUP_BUDGET_S
SETUP_BUDGET_S = 4.0
SETUP_MAX_REPS = 25
SETUP_TIMEOUT_S = 120
CHECK_BLOCKS = 8  # bulk_compress blocks verified at a time


def call_cli(argv: list[str]) -> tuple[int, float]:
    """Run one CLI command in process; returns (exit code, seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash of the program is a failed operation
        print(f"perfbench: {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = -1
    return rc, time.perf_counter() - t0


@dataclass
class Op:
    """One verified operation: timings of its commands and what it produced."""

    ok: bool
    seconds: dict  # command -> seconds
    counts: dict = field(default_factory=dict)
    digest: str = ""  # hash of the outputs, equal across traced and untraced runs
    error: str = ""
    host_factor: float = 1.0  # set by the timing loop, see probe.py

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _rates(ops, work_key, *commands) -> list[float]:
    """Per-operation rate: op.counts[work_key] over the seconds of the given commands."""
    return [op.counts[work_key] / sum(op.seconds[c] for c in commands) for op in ops if op.ok]


def _rate_bits_per_bit(ops) -> float:
    good = [op for op in ops if op.ok]
    bits = sum(op.counts["bits"] for op in good)
    return 8 * sum(op.counts["container_bytes"] for op in good) / bits if bits else 0.0


class Workload:
    name = ""
    headline = ""  # the rate in `rates` that the benchmark gates on

    def __init__(self, seed: int, work: Path, cli=call_cli):
        self.seed = seed
        self.work = work
        self.cli = cli

    def construction(self, tag: str) -> dict:
        """The construct.py spec; `tag` keeps each repetition's output apart."""
        raise NotImplementedError

    def setup(self) -> list[float]:
        """Construct in fresh interpreters, SETUP_REPS times or more; returns their times.

        Short set-ups are mostly the import and follow the host's noise, so
        they repeat until SETUP_BUDGET_S is spent.
        """
        times, digests = [], set()
        while len(times) < SETUP_REPS or (sum(times) < SETUP_BUDGET_S
                                          and len(times) < SETUP_MAX_REPS):
            spec = json.dumps(self.construction(f"rep{len(times)}"))
            try:
                proc = subprocess.run(
                    [sys.executable, str(CONSTRUCT), spec],
                    capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=self.work,
                )
            except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
                raise RuntimeError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from exc
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(doc["setup_s"])
            digests.add(doc["digest"])
        if len(digests) != 1:
            raise RuntimeError("set-up is not deterministic: repetitions built different codes")
        self.setup_digest = digests.pop()
        return times

    def construct_in_process(self) -> bool:
        """Repeat the construction here (so a tracer sees it); True if it matches set-up."""
        return construct(self.construction("inproc")) == self.setup_digest

    def prepare(self) -> None:
        """Load what the operations need from the set-up's output."""

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def warm_up(self) -> Op:
        """One untimed operation before timing starts, with extra verification."""
        return self.op(-1)

    def rates(self, ops: list[Op]) -> dict:
        """Per-operation rates as {name: (values, unit)}."""
        raise NotImplementedError

    def quality(self, ops: list[Op], warm: Op) -> dict:
        """Exact outcome metrics as {name: (value, unit)}."""
        raise NotImplementedError


class SideinfoCodec(Workload):
    name = "sideinfo_codec"
    headline = "decompress_bits_per_s"

    N = 1024
    RATE = 0.8
    P = 0.11  # BSC crossover between the file and its side information

    def __init__(self, seed, work, cli=call_cli, file_bytes=2048, samples=10000):
        super().__init__(seed, work, cli)
        self.file_bytes, self.samples = file_bytes, samples
        self.manifest = work / "sideinfo-rep0.json"

    def construction(self, tag):
        return {"kind": "freeze", "argv": [
            "freeze", "--preset", f"bsc_pair({self.P})", "-N", str(self.N), "-R", str(self.RATE),
            "--method", "mc", "--samples", str(self.samples), "--seed", str(self.seed),
            "--out", str(self.work / f"sideinfo-{tag}.json")]}

    def op(self, k):
        rng = np.random.default_rng([self.seed, k + 1])
        x = rng.integers(0, 256, self.file_bytes, dtype=np.uint8)
        bits = np.unpackbits(x)
        side = bits ^ (rng.random(bits.size) < self.P)
        src, side_path = self.work / "x.bin", self.work / "y.bin"
        box, out = self.work / "x.plsc", self.work / "x.out"
        src.write_bytes(x.tobytes())
        side_path.write_bytes(side.astype(np.uint8).tobytes())
        for stale in (box, out):
            stale.unlink(missing_ok=True)
        rc_c, t_c = self.cli(["compress", "--manifest", self.manifest, "--in", src,
                              "--out", box, "--checksum"])
        rc_d, t_d = self.cli(["decompress", "--manifest", self.manifest, "--in", box,
                              "--side", side_path, "--out", out]) if rc_c == 0 else (None, 0.0)
        container, restored = _read(box), _read(out)
        ok = rc_c == 0 and rc_d == 0 and restored == x.tobytes()
        return Op(ok, {"compress": t_c, "decompress": t_d},
                  {"bits": bits.size, "container_bytes": len(container)},
                  _digest(container, restored),
                  "" if ok else f"compress rc={rc_c}, decompress rc={rc_d}, restored "
                                f"{'differs' if restored != x.tobytes() else 'matches'}")

    def rates(self, ops):
        return {"decompress_bits_per_s": (_rates(ops, "bits", "decompress"), "bit/s"),
                "compress_bits_per_s": (_rates(ops, "bits", "compress"), "bit/s")}

    def quality(self, ops, warm):
        return {"rate_bits_per_bit": (_rate_bits_per_bit(ops), "bit/bit")}


class BulkCompress(Workload):
    name = "bulk_compress"
    headline = "compress_bits_per_s"

    RATE = 0.75
    P = 0.11  # Ber(P) source bits

    def __init__(self, seed, work, cli=call_cli, file_bytes=2 << 20, N=65536):
        super().__init__(seed, work, cli)
        self.file_bytes, self.N = file_bytes, N
        self.manifest = work / "bulk-rep0.json"

    def construction(self, tag):
        return {"kind": "freeze", "argv": [
            "freeze", "--preset", f"bernoulli({self.P})", "-N", str(self.N), "-R", str(self.RATE),
            "--method", "zbound", "--out", str(self.work / f"bulk-{tag}.json")]}

    def prepare(self):
        doc = json.loads(self.manifest.read_text())
        self.hset = HighEntropySet.from_manifest(doc)
        self.kept = np.asarray(self.hset.indices) - 1

    def _input(self, k) -> bytes:
        rng = np.random.default_rng([self.seed, k + 1])
        chunk = 1 << 18  # bits per draw, so generation stays small next to the CLI's memory
        total = 8 * self.file_bytes
        return b"".join(
            np.packbits(rng.random(min(chunk, total - s)) < self.P).tobytes()
            for s in range(0, total, chunk)
        )

    def op(self, k):
        raw = self._input(k)
        src, box = self.work / "b.bin", self.work / "b.plsc"
        src.write_bytes(raw)
        box.unlink(missing_ok=True)
        rc, t = self.cli(["compress", "--manifest", self.manifest, "--in", src,
                          "--out", box, "--checksum"])
        container = _read(box)
        error = f"compress rc={rc}" if rc != 0 else self._check_container(container, raw)
        return Op(not error, {"compress": t},
                  {"bits": 8 * len(raw), "container_bytes": len(container)},
                  _digest(container), error)

    def _check_container(self, container: bytes, raw: bytes) -> str:
        """Parse every block back; '' if each matches the manifest and its source block.

        The expected payload comes from the benchmark's own transform, not the
        library's, so a wrong transform cannot verify itself.  Blocks are
        checked CHECK_BLOCKS at a time, so the check's arrays stay small next
        to the CLI's and do not set the run's peak RSS.
        """
        block_bytes = self.N // 8
        nblocks = -(-len(raw) // block_bytes)
        if len(container) < 4:
            return "container shorter than its trailer"
        body, pad = container[:-4], int.from_bytes(container[-4:], "little")
        if pad != nblocks * self.N - 8 * len(raw):
            return f"pad trailer {pad} is wrong"
        pos = 0
        for b in range(nblocks):
            if b % CHECK_BLOCKS == 0:
                chunk = raw[b * block_bytes:(b + CHECK_BLOCKS) * block_bytes]
                chunk = chunk.ljust(-(-len(chunk) // block_bytes) * block_bytes, b"\0")
                x = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8)).reshape(-1, self.N)
                payloads = reference_transform(x)[:, self.kept]
            try:
                blk, pos = codec.CompressedBlock.from_bytes(body, pos)
            except Exception as exc:
                return f"block {b}: {exc}"
            if blk.fingerprint != self.hset.fingerprint or blk.N != self.N:
                return f"block {b}: wrong fingerprint or length"
            k = b % CHECK_BLOCKS
            if blk.crc != zlib.crc32(chunk[k * block_bytes:(k + 1) * block_bytes]):
                return f"block {b}: crc does not match the source block"
            if not np.array_equal(blk.payload, payloads[k]):
                return f"block {b}: payload is not x G_N on the kept indices"
        if pos != len(body):
            return "bytes left over after the last block"
        return ""

    def warm_up(self):
        """Also restores one seeded block through `srcpolar decompress` in a child process.

        The decoder runs in the child, so its memory stays out of this
        process's peak RSS.
        """
        op = self.op(-1)
        if not op.ok:
            return op
        raw, container = _read(self.work / "b.bin"), _read(self.work / "b.plsc")
        body, pos, bounds = container[:-4], 0, []
        while pos < len(body):
            start = pos
            _, pos = codec.CompressedBlock.from_bytes(body, pos)
            bounds.append((start, pos))
        b = int(np.random.default_rng([self.seed, 0]).integers(len(bounds)))
        block_bytes = self.N // 8
        one, out = self.work / "one.plsc", self.work / "one.out"
        one.write_bytes(body[slice(*bounds[b])] + bytes(4))  # one block, no padding
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "srcpolar.cli", "decompress", "--manifest",
                 str(self.manifest), "--in", str(one), "--out", str(out)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=self.work,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            rc, err = proc.returncode, proc.stderr[-200:]
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc, err = None, f"timed out after {SETUP_TIMEOUT_S} s"
        want = raw[b * block_bytes:(b + 1) * block_bytes].ljust(block_bytes, b"\0")
        if rc != 0 or _read(out) != want:
            return Op(False, op.seconds, op.counts, op.digest,
                      f"block {b} did not round-trip: rc={rc} {err}")
        return op

    def rates(self, ops):
        return {"compress_bits_per_s": (_rates(ops, "bits", "compress"), "bit/s")}

    def quality(self, ops, warm):
        return {"rate_bits_per_bit": (_rate_bits_per_bit(ops), "bit/bit")}


class Simulation(Workload):
    name = "simulation"
    headline = "decoded_bits_per_s"
    JOINT = [0.76, 0.01, 0.04, 0.19]  # Y ~ Ber(0.2), X = Y xor Ber(0.05)

    N = 1024
    RATE = 0.35  # chansim code rate
    P = 0.11  # chansim BSC crossover
    RX, RY = 0.5, 0.85  # swsim rates of the two encoders

    def __init__(self, seed, work, cli=call_cli, quality_trials=(150, 60), trials=(8, 4)):
        super().__init__(seed, work, cli)
        self.quality_trials, self.trials = quality_trials, trials
        self.joint = work / "joint.json"
        self.joint.write_text(json.dumps({"q": 2, "y_size": 2, "probs": self.JOINT}))

    def construction(self, tag):
        return {"kind": "codes", "p": self.P, "N": self.N, "R": self.RATE, "seed": self.seed,
                "joint": str(self.joint), "rx": self.RX, "ry": self.RY}

    def _run(self, chan_trials, sw_trials, seed):
        c_out, s_out = self.work / "chan.csv", self.work / "sw.csv"
        for stale in (c_out, s_out):
            stale.unlink(missing_ok=True)
        rc_c, t_c = self.cli(["chansim", "--channel", f"bsc({self.P})", "-N", self.N,
                              "-R", self.RATE, "--trials", chan_trials, "--seed", seed,
                              "--out", c_out])
        rc_s, t_s = self.cli(["swsim", "--source", self.joint, "-N", self.N, "--rx", self.RX,
                              "--ry", self.RY, "--trials", sw_trials, "--seed", seed,
                              "--out", s_out])
        chan, sw = _read(c_out), _read(s_out)
        counts = {"chan_trials": chan_trials, "sw_trials": sw_trials,
                  "bits": self.N * (chan_trials + 2 * sw_trials)}
        error = ""
        if rc_c != 0 or rc_s != 0:
            error = f"chansim rc={rc_c}, swsim rc={rc_s}"
        else:
            try:
                counts["fer"] = _check_row(chan, "channel,N,R,trials,fer,ber,bound",
                                           self.N, chan_trials, "fer")
                counts["sw_error_rate"] = _check_row(sw, "N,R_x,R_y,trials,joint_error_rate,bound",
                                                     self.N, sw_trials, "joint_error_rate")
            except ValueError as exc:
                error = str(exc)
        return Op(not error, {"chansim": t_c, "swsim": t_s}, counts, _digest(chan, sw), error)

    def op(self, k):
        return self._run(*self.trials, seed=self.seed * 100_000 + k + 1)

    def warm_up(self):
        """The quality pass: FER and error rate over a fixed number of trials."""
        return self._run(*self.quality_trials, seed=self.seed)

    def rates(self, ops):
        return {"decoded_bits_per_s": (_rates(ops, "bits", "chansim", "swsim"), "bit/s"),
                "chansim_trials_per_s": (_rates(ops, "chan_trials", "chansim"), "1/s"),
                "swsim_trials_per_s": (_rates(ops, "sw_trials", "swsim"), "1/s")}

    def quality(self, ops, warm):
        return {
            "chansim_fer": (warm.counts.get("fer", 0.0), "share"),
            "swsim_error_rate": (warm.counts.get("sw_error_rate", 0.0), "share"),
        }


def reference_transform(x: np.ndarray) -> np.ndarray:
    """u = x G_N over GF(2) for each row of x, as x F^(kron n) followed by bit reversal.

    The library permutes first and then combines; G_N = B_N F^(kron n) =
    F^(kron n) B_N, so doing it in the other order is an independent check.
    """
    B, N = x.shape
    n = N.bit_length() - 1
    w = x.astype(np.uint8)
    h = N >> 1
    while h:
        v = w.reshape(B, N // (2 * h), 2, h)
        v[:, :, 0, :] ^= v[:, :, 1, :]
        h >>= 1
    idx = np.arange(N)
    rev = np.zeros(N, dtype=np.int64)
    for b in range(n):
        rev |= ((idx >> b) & 1) << (n - 1 - b)
    return w[:, rev]


def _check_row(data: bytes, header: str, N: int, trials: int, rate_col: str) -> float:
    """Parse a one-row simulation CSV; returns its error rate or raises ValueError."""
    lines = data.decode().splitlines()
    names = header.split(",")
    if len(lines) != 2 or lines[0] != header or len(lines[1].split(",")) != len(names):
        raise ValueError(f"unexpected CSV layout: {lines[:2]}")
    row = dict(zip(names, lines[1].split(",")))
    if int(row["N"]) != N or int(row["trials"]) != trials:
        raise ValueError(f"CSV reports N={row['N']}, trials={row['trials']}")
    rate = float(row[rate_col])
    errors = rate * trials
    if not 0.0 <= rate <= 1.0 or abs(errors - round(errors)) > 1e-6:
        raise ValueError(f"{rate_col}={rate} is not a count of {trials} trials")
    return rate


WORKLOADS = {w.name: w for w in (SideinfoCodec, BulkCompress, Simulation)}
