"""Measure a change to the SC decoder, the write path or construction against a checkout of its parent commit.

    python3 scripts/bench_guard.py pairs --parent P --change C --workload W --seeds S... \
        --log runs.jsonl [--seconds 20]
    python3 scripts/bench_guard.py setup --parent P --change C --workload W [--rounds 10]
    python3 scripts/bench_guard.py decoder --checkout C
    python3 scripts/bench_guard.py ab --parent P --change C
    python3 scripts/bench_guard.py rss --parent P --change C [--rounds 5]
    python3 scripts/bench_guard.py write --parent P --change C --log runs.jsonl --out BENCH.json \
        --note TEXT [--claim WORKLOAD METRIC]

P and C are source checkouts (each with perfbench/ and src/).  `pairs` runs
BENCHMARK.json's command, `perfbench/run.py`, with `--workload W --seed S
--seconds 20 --trace 0` in both, once per seed, swapping which runs first
from one seed to the next, and appends one JSON line per run to the log.
Like the benchmark itself, it starts the command's launcher (`python3`)
as found on PATH, not this process's own interpreter (sys.executable):
how the interpreter is started can move the measured metrics.  On PATH
the launcher may be a version manager's shim; under pyenv, a process the
shim started finds the version's own bin directory first on PATH, so it
resolves to the interpreter the shim would run, in the shim's environment.
`setup` times workload W's construction (`perfbench/construct.py` with
W's spec, the code build that `setup_s` times) in fresh interpreters
started by the same launcher, once per side and round, swapping
which side runs first from one round to the next; round k builds with seed
k + 1, and both sides must build the same digest.  It prints medians,
quartiles and the rounds the change wins; `setup_s` is not normalised for
host speed, so only interleaved rounds compare it.  `decoder` prints one
JSON object about `decode_batch` in checkout C: node visits by kind, kernel
calls, clamps and parity checks, and the tracemalloc peak per call, at 1,
4, 8, 16 and 64 rows.  `ab` imports both checkouts' packages into one
process under two names and times them interleaved, case by case:
`decode_batch` at those row counts and on two chansim codes, the
Monte-Carlo spectrum, CLI `freeze --method mc` of the sideinfo_codec set
and `freeze --method zbound` of the bulk_compress set (N=2^16, R=0.75),
`compress_blocks` at 1, 4 and 16 rows on the sideinfo_codec and swsim sets,
`compress_file` of 2 MiB of Ber(0.11) with crcs: the bulk_compress input
(N=2^16, R=0.75), on every usable core and with the chunk pipeline's worker
count patched to 1 (so the layer's gain and the threads' show apart), the
same bytes at N=1024, R=0.7, the first 1 MiB less 3 bytes of them at N=64,
R=0.75 (many blocks per chunk, a short last block and a last group of
eight blocks padded with zero blocks), and sideinfo_codec's compress, a
2 KiB file (16 blocks) on the sideinfo_codec set, where the fixed cost of
a call shows; and `decompress_file`
of version 2 containers: one whose SC misses SC-Flip repairs, and one
N=2^16 block with a payload bit flipped, which fails.  The read path also
runs on the sideinfo_codec set with crcs and BSC(0.11) side files: CLI
`decompress` in process of 8 containers of 16 blocks, the headline
operation, and `decompress_file` of a 2 MiB container, 16384 blocks.
Manifests are loaded by `cli._load_manifest`, as CLI compress and
decompress load them, from the bulk_compress and sideinfo_codec manifests
as freeze writes them (mask, indices, fingerprint and source compared),
and CLI `compress --checksum` of the bulk_compress input runs in process,
the bulk_compress operation (containers compared).  It
prints the parent/change time ratio per case, with its quartiles over the rounds,
after asserting that both give equal outputs (spectra, manifests, loaded
sets and sources, bits, containers, restored bytes or error messages).  `rss` runs CLI
`compress --checksum` (the hidden flag the benchmark passes, which changes
nothing) of the bulk_compress input (2 MiB of
Ber(0.11), seed 13, N=2^16, R=0.75, zbound) in one fresh interpreter per side
and round, alternating
which side runs first, and reports each child's wall time and its own
ru_maxrss, read as it exits; the containers must be equal.
Host speed drifts between processes by more than the changes it
measures; in one process both sides see the same drift.  `write`
summarises the logged runs per workload and end-to-end metric of
BENCHMARK.json (medians, quartiles, wins per pair, each against its
bound), runs `decoder` once in each checkout, `ab` and `rss` once and
`setup` (10 rounds) once per logged workload, and writes the evidence
file, with the number of cores this process may run on, which is the
chunk pipeline's worker count, and the launcher the logged runs were
started with.
TEXT says what the change does; --claim names the one workload and metric
it claims a gain on, if any.  Every measurement runs in a child process.
"""

import argparse
import functools
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
ROWS = (1, 4, 8, 16, 64)
WRITE_ROWS = (1, 4, 16)  # compress_blocks rows timed by ab
# ab: interleaved rounds per decode, write, read or repair case and per Monte-Carlo or damaged-block
# case, and the least time one side's sample of a case takes (calls are repeated to reach it)
ROUNDS, MC_ROUNDS, SAMPLE_S = 25, 24, 0.05
SETUP_ROUNDS = 10  # setup rounds that write runs per workload
RSS_ROUNDS = 5  # rss rounds per side that write runs
MC_SPECTRUM = "montecarlo_spectrum(bsc_pair(0.11), 1024, 10^4, 5)"
MC_FREEZE = "freeze --method mc, bsc_pair(0.11), N=1024, R=0.8, 10^4 samples, seed 5"
BULK_FREEZE = "freeze --method zbound in process, bulk_compress set: bernoulli(0.11), N=2^16, R=0.75"
DAMAGED = "decompress_file, 2 blocks of Ber(0.11), N=2^16, R=0.75, one payload bit flipped"
CLI_DECOMPRESS = "CLI decompress, 8 containers of 16 blocks with crcs and BSC(0.11) side files, sideinfo set"
BULK_READ = "decompress_file, 16384 blocks with crcs and BSC(0.11) side (2 MiB), sideinfo set"
LOAD_BULK = "manifest load (cli._load_manifest), bulk_compress set: bernoulli(0.11), N=2^16, R=0.75, zbound"
LOAD_SIDEINFO = "manifest load (cli._load_manifest), sideinfo set"
CLI_COMPRESS = "CLI compress in process, 2 MiB Ber(0.11) (seed 13), bulk_compress set"
# prints workload argv[1]'s construct.py spec for seed argv[2] and work directory argv[3]
SPEC_CODE = ("import json, pathlib, sys; sys.path[:0] = ['perfbench', 'src']; from workloads import WORKLOADS; "
             "print(json.dumps(WORKLOADS[sys.argv[1]](int(sys.argv[2]), pathlib.Path(sys.argv[3]))"
             ".construction('rep0')))")


@functools.cache
def _launcher() -> str:
    """The path of BENCHMARK.json's command[0] on PATH: the interpreter the benchmark itself starts."""
    name = json.loads(BENCHMARK.read_text())["command"][0]
    if (path := shutil.which(name)) is None:
        raise SystemExit(f"{name}, BENCHMARK.json's launcher, is not on PATH")
    return path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([_launcher(), "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return {"launcher": _launcher(), "exit": proc.returncode, "correct": result.get("correct"),
            "attempted": result.get("attempted"), "failed": result.get("failed"), **metrics}


def cmd_pairs(args) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.log, "a") as log:
        for k, seed in enumerate(args.seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                rec = {"workload": args.workload, "pair": k, "seed": seed, "side": side,
                       "first": order[0], **run_once(sides[side], args.workload, seed, args.seconds)}
                log.write(json.dumps(rec) + "\n")
                log.flush()
                print(json.dumps(rec), flush=True)


def _setup(parent: Path, change: Path, workload: str, rounds: int) -> dict:
    """Interleaved fresh-interpreter set-up times of both sides; each round's digests must be equal."""
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        for k in range(rounds):
            spec = subprocess.run([_launcher(), "-c", SPEC_CODE, workload, str(k + 1), work],
                                  cwd=sides["change"], capture_output=True, text=True, check=True).stdout
            digests = {}
            for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
                proc = subprocess.run([_launcher(), "perfbench/construct.py", spec.strip()],
                                      cwd=sides[side], capture_output=True, text=True, check=True)
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                times[side].append(doc["setup_s"])
                digests[side] = doc["digest"]
            assert digests["parent"] == digests["change"], f"{workload} seed {k + 1}: set-ups differ"
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    qp, qc = _quartiles(times["parent"]), _quartiles(times["change"])
    return {"workload": workload, "seeds": f"1-{rounds}", "rounds": rounds,
            "parent_s": qp, "change_s": qc, "ratio_change_over_parent": qc["median"] / qp["median"],
            "change_wins": f"{wins} of {rounds}", "digests_equal": True, "times": times}


def _load(checkout: Path, name: str):
    """Import checkout's src/srcpolar as the package `name`, so that two checkouts can share a process.

    Timed calls reach functions through their modules (sp.codec.compress_blocks): a package that
    imports its names on first use looks each one up again on every access, about 0.7 us.
    """
    pkg = Path(checkout).resolve() / "src" / "srcpolar"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "codec", "duality", "pipeline", "scdec", "spectrum", "transform"):
        importlib.import_module(f"{name}.{sub}")
    return module


@functools.cache
def _sideinfo_set(sp):
    """The sideinfo_codec set: bsc_pair(0.11), N=1024, R=0.8, Monte-Carlo 10^4 samples seed 5."""
    return sp.spectrum.build_high_entropy_set(
        sp.spectrum.montecarlo_spectrum(sp.JointSource.bsc_pair(0.11), 1024, 10000, 5), 0.8)


def _decode_cases(sp) -> dict:
    """decode_batch arguments by case name, built with the package sp.

    The sideinfo_codec set (bsc_pair(0.11), N=1024, R=0.8, Monte-Carlo 10^4
    samples seed 5) at each of ROWS, and 8 frames of the chansim code
    (bsc(0.11), N=1024, R=0.35), with the channel's noise and without.
    """
    import numpy as np

    s = sp.JointSource.bsc_pair(0.11)
    mask = _sideinfo_set(sp).mask
    cases = {}
    for B in ROWS:
        rng = np.random.default_rng([7, B])
        X = rng.integers(0, 2, (B, 1024), dtype=np.uint8)
        cases[f"sideinfo set, {B} rows"] = (s, X ^ (rng.random((B, 1024)) < 0.11), mask,
                                            sp.transform._forward_rows(s.field, X))
    code = sp.duality.make_duality_code(sp.duality.ChannelModel.bsc(0.11), 1024, 0.35, 1)
    for name, noisy in (("chansim code (bsc(0.11), N=1024, R=0.35)", True),
                        ("chansim code, noise-free Y", False)):
        rng = np.random.default_rng(5)
        Y = np.array([sp.duality.channel_encode(d, code).data for d in rng.integers(0, 2, (8, code.data_size))])
        if noisy:
            Y ^= (rng.random(Y.shape) < 0.11).astype(Y.dtype)
        known = np.zeros(Y.shape, dtype=np.uint8)
        known[:, code.frozen_set.mask] = code.frozen_pattern
        cases[name] = (code.source, Y, code.frozen_set.mask, known)
    return cases


def _write_cases(sp) -> dict:
    """Write-path calls by case name, built with the package sp.

    compress_blocks at 1, 4 and 16 rows on the sideinfo_codec set and on
    the two swsim sets (joint [0.76, 0.01, 0.04, 0.19], N=1024, R_x=0.5,
    R_y=0.85), and compress_file with checksum of 2 MiB of Ber(0.11): at
    N=2^16, R=0.75 (zbound), the bulk_compress input, and at N=1024, R=0.7
    (zbound), where a chunk holds 1024 blocks and their headers; of its
    first 1 MiB less 3 bytes at N=64, R=0.75 (zbound), 131072 blocks, the
    last one short; and of 2048 uniform bytes (seed 17) on the
    sideinfo_codec set, the compress that workload runs.
    """
    import io

    import numpy as np

    sw = sp.sw_config(sp.JointSource(sp.FieldSpec.binary(), np.array([[0.76, 0.01], [0.04, 0.19]])),
                      1024, 0.5, 0.85)
    sets = {"sideinfo set": _sideinfo_set(sp), "swsim set_x": sw.set_x, "swsim set_y": sw.set_y}
    cases = {}
    for set_name, hset in sets.items():
        for B in WRITE_ROWS:
            X = np.random.default_rng([11, B]).integers(0, 2, (B, 1024), dtype=np.uint8)
            cases[f"compress_blocks, {set_name}, {B} rows"] = (
                lambda X=X, hset=hset: sp.codec.compress_blocks(X, hset))
    raw = np.packbits(np.random.default_rng(13).random(8 << 21) < 0.11).tobytes()
    for N, n_name, rate in ((1 << 16, "2^16", 0.75), (1024, "1024", 0.7)):
        hset = sp.build_high_entropy_set(sp.zbound_spectrum(sp.JointSource.bernoulli(0.11), N), rate)
        cases[f"compress_file, 2 MiB Ber(0.11), N={n_name}, R={rate}, checksum"] = (
            lambda hset=hset: sp.codec.compress_file(io.BytesIO(raw), hset))
        if N == 1 << 16:
            cases[f"compress_file, 2 MiB Ber(0.11), N={n_name}, R={rate}, checksum, one worker"] = (
                lambda hset=hset: _one_worker(sp, lambda: sp.codec.compress_file(io.BytesIO(raw), hset)))
    n64 = sp.build_high_entropy_set(sp.zbound_spectrum(sp.JointSource.bernoulli(0.11), 64), 0.75)
    cases["compress_file, 1 MiB less 3 bytes Ber(0.11), N=64, R=0.75, checksum"] = (
        lambda: sp.codec.compress_file(io.BytesIO(raw[: (1 << 20) - 3]), n64))
    small = np.random.default_rng(17).integers(0, 256, 2048, dtype=np.uint8).tobytes()
    cases["compress_file, 2 KiB (16 blocks), sideinfo set, checksum"] = (
        lambda: sp.codec.compress_file(io.BytesIO(small), _sideinfo_set(sp)))
    return cases


def _one_worker(sp, call):
    """call() with the chunk pipeline of the package sp on one worker."""
    pipeline = sp.pipeline
    workers, pipeline._workers = pipeline._workers, lambda: 1
    try:
        return call()
    finally:
        pipeline._workers = workers


def _repair_cases(sp) -> dict:
    """decompress_file calls that repair or fail on version 2 blocks, by case name; each returns
    the restored bytes or the FormatError's message up to its first colon.

    The rows that SC decodes wrongly in test_codec.py::TestFlipRepair (bsc_pair(0.11), N=1024,
    R=0.7, zbound, rows 15, 30 and 35 of seed 2, with row 0), which SC-Flip repairs, and
    DAMAGED: two blocks of Ber(0.11) at N=2^16, R=0.75 (zbound) with one payload bit of the
    first flipped and its crc32 kept, which no flip repairs.
    """
    import io

    import numpy as np

    def restore(container, side, hset, source):
        try:
            return sp.codec.decompress_file(container, side, hset, source)
        except sp.FormatError as e:
            return str(e).partition(":")[0]  # the detail after it names blocks only in newer messages

    s = sp.JointSource.bsc_pair(0.11)
    hset = sp.build_high_entropy_set(sp.zbound_spectrum(s, 1024), 0.7)
    rng, rows = np.random.default_rng(2), [0, 15, 30, 35]
    X = rng.integers(0, 2, (64, 1024), dtype=np.uint8)
    Y = (X ^ (rng.random((64, 1024)) < 0.11)).astype(np.uint8)[rows]
    flips = bytes(sp.compress_file(io.BytesIO(np.packbits(X[rows]).tobytes()), hset))
    ber = sp.JointSource.bernoulli(0.11)
    big = sp.build_high_entropy_set(sp.zbound_spectrum(ber, 1 << 16), 0.75)
    raw = np.packbits(np.random.default_rng(13).random(2 << 16) < 0.11).tobytes()
    damaged = bytearray(sp.compress_file(io.BytesIO(raw), big))
    damaged[30] ^= 0x10  # past the 22-byte version 2 header
    return {"decompress_file, SC-Flip repairs 3 of 4 blocks (bsc_pair(0.11), N=1024, R=0.7)":
            lambda: restore(flips, Y.tobytes(), hset, s),
            DAMAGED: lambda: restore(bytes(damaged), None, big, ber)}


def _read_cases(sp, work: Path) -> dict:
    """Read-path calls on the sideinfo_codec set by case name, each returning the restored bytes or
    the FormatError's message up to its first colon.

    CLI_DECOMPRESS: CLI `decompress` in process, as sideinfo_codec times it, of 8 containers
    written by `compress_file` with crcs, each of 2048 uniform bytes (16 blocks) with a BSC(0.11)
    side file (seed 17), one call per container.  BULK_READ: `decompress_file` of one such
    container of 2 MiB, 16384 blocks, with its 16 MiB side input.
    """
    import io
    import json

    import numpy as np

    s, hset = sp.JointSource.bsc_pair(0.11), _sideinfo_set(sp)
    manifest = work / "sideinfo.json"
    manifest.write_text(json.dumps(hset.to_manifest(), sort_keys=True, indent=2) + "\n")

    def encoded(rng, size):
        x = rng.integers(0, 256, size, dtype=np.uint8)
        side = np.unpackbits(x) ^ (rng.random(8 * size) < 0.11)
        return bytes(sp.compress_file(io.BytesIO(x.tobytes()), hset)), side.astype(np.uint8).tobytes()

    rng, argvs = np.random.default_rng(17), []
    for k in range(8):
        box, side = encoded(rng, 2048)
        (work / f"x{k}.plsc").write_bytes(box)
        (work / f"y{k}.bin").write_bytes(side)
        argvs.append(["decompress", "--manifest", str(manifest), "--in", str(work / f"x{k}.plsc"),
                      "--side", str(work / f"y{k}.bin"), "--out", str(work / f"out{k}.bin")])

    def cli_decompress():
        for k in range(8):  # as sideinfo_codec does: the atomic write replaces no file
            (work / f"out{k}.bin").unlink(missing_ok=True)
        rcs = [sp.cli.main(argv) for argv in argvs]
        return str(rcs) if any(rcs) else b"".join((work / f"out{k}.bin").read_bytes() for k in range(8))

    def restore(container, side):
        try:
            return sp.codec.decompress_file(container, side, hset, s)
        except sp.FormatError as e:
            return str(e).partition(":")[0]  # the detail after it names blocks only in newer messages

    bulk, bulk_side = encoded(rng, 2 << 20)
    return {CLI_DECOMPRESS: cli_decompress, BULK_READ: lambda: restore(bulk, bulk_side)}


def _manifest_cases(sp, work: Path) -> dict:
    """Manifest loads and CLI compress by case name, built with the package sp in the directory work.

    LOAD_BULK and LOAD_SIDEINFO: cli._load_manifest of the bulk_compress and
    sideinfo_codec manifests, each written as freeze writes it; each returns
    (set, source), which ab compares by _manifest_view.  CLI_COMPRESS: CLI
    `compress --checksum` in process of the bulk_compress input (2 MiB of
    Ber(0.11), seed 13), the bulk_compress operation; it returns the
    container's bytes.
    """
    import json

    import numpy as np

    bulk = sp.build_high_entropy_set(sp.zbound_spectrum(sp.JointSource.bernoulli(0.11), 1 << 16), 0.75)
    cases = {}
    for name, hset in ((LOAD_BULK, bulk), (LOAD_SIDEINFO, _sideinfo_set(sp))):
        path = work / f"manifest{hset.N}.json"
        path.write_text(json.dumps(hset.to_manifest(), sort_keys=True, indent=2) + "\n")
        cases[name] = lambda path=str(path): sp.cli._load_manifest(path)
    (work / "bulk.bin").write_bytes(np.packbits(np.random.default_rng(13).random(8 << 21) < 0.11).tobytes())
    argv = ["compress", "--manifest", str(work / f"manifest{bulk.N}.json"), "--in", str(work / "bulk.bin"),
            "--out", str(work / "bulk.plsc"), "--checksum"]

    def cli_compress():
        rc = sp.cli.main(argv)
        return str(rc) if rc else (work / "bulk.plsc").read_bytes()

    cases[CLI_COMPRESS] = cli_compress
    return cases


def _manifest_view(hset, source) -> tuple:
    """What ab compares of a loaded manifest: the set's mask, indices and fingerprint, and the source.

    The indices are compared as int64 bytes, whatever sequence type a side keeps them in.
    """
    import numpy as np

    return hset.mask.tobytes(), np.asarray(hset.indices, np.int64).tobytes(), hset.fingerprint, source.description()


def _decoder_probe(checkout: Path) -> dict:
    import tracemalloc

    sp = _load(checkout, "srcpolar")
    cases = _decode_cases(sp)
    peaks = {}
    for B in ROWS:
        case = cases[f"sideinfo set, {B} rows"]
        sp.decode_batch(*case)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        sp.decode_batch(*case)
        peaks[str(B)] = (tracemalloc.get_traced_memory()[1] - base) / 1024
        tracemalloc.stop()
    census = [{"code": name, "B": case[1].shape[0], **_census(sp.scdec, sp.decode_batch, case)}
              for name, case in cases.items()]
    return {"tracemalloc_peak_kb": peaks, "node_census": census}


def _census(scdec, decode_batch, case) -> dict:
    """Node visits by kind, how many rate-1 and mixed nodes were decided without a split, clamps and parity checks.

    A visit's kind is read off the known mask: a leaf, rate 1 (no known
    position), Rep (only the last position unknown) or mixed.  A rate-1 or
    mixed visit that makes no child visit was decided by its hard decisions.
    f_calls and g_calls count calls of the two kernels.  A Rep visit of size
    2^d makes d halvings (rep_halvings), whether as g calls or as sums.  Each
    f call, each g call outside a Rep visit and each halving may clamp;
    clamps_run counts the clamps made and clamps_skipped the rest.
    parity_checks counts the checks of _parity_holds per node size 2^d,
    passed and failed, and for each failed check how many of its rows pass
    the same check alone.
    """
    mask = case[2]
    counts = {"node_visits": 0, "f_calls": 0, "g_calls": 0, "rep_halvings": 0, "clamps_run": 0}
    checks = {}
    stack = []  # [kind, child visits] of each visit in progress
    g_in_rep = 0
    node, f, g, clamp = scdec._decode_node, scdec._combine_odd_vec, scdec._g, scdec._clamp_vec
    parity = scdec._parity_holds

    def visit(L, at, *rest):
        lo, m = at.lo, L.shape[0]
        known = mask[lo:lo + m]
        kind = ("leaf" if m == 1 else "rate1" if not known.any()
                else "rep" if known[:-1].all() and not known[-1] else "mixed")
        counts["node_visits"] += 1
        counts[f"{kind}_visits"] = counts.get(f"{kind}_visits", 0) + 1
        if kind == "rep":
            counts["rep_halvings"] += m.bit_length() - 1
        if stack:
            stack[-1][1] += 1
        stack.append([kind, 0])
        try:
            return node(L, at, *rest)
        finally:
            if kind in ("rate1", "mixed") and stack[-1][1] == 0:
                counts[f"{kind}_decided"] = counts.get(f"{kind}_decided", 0) + 1
            stack.pop()

    def count(name, fn):
        def wrapped(*a):
            nonlocal g_in_rep
            counts[name] += 1
            g_in_rep += name == "g_calls" and stack[-1][0] == "rep"
            return fn(*a)
        return wrapped

    def checked(hard, check, sums):
        holds = parity(hard, check, sums)
        d = hard.shape[0].bit_length() - 1
        entry = checks.setdefault(d, {"passed": 0, "failed": 0, "rows_passing_alone": []})
        entry["passed" if holds else "failed"] += 1
        if not holds:
            entry["rows_passing_alone"].append(sum(parity(hard[:, r:r + 1], check, sums[:, r:r + 1])
                                                   for r in range(hard.shape[1])))
        return holds

    hooks = visit, count("f_calls", f), count("g_calls", g), count("clamps_run", clamp), checked
    scdec._decode_node, scdec._combine_odd_vec, scdec._g, scdec._clamp_vec, scdec._parity_holds = hooks
    try:
        decode_batch(*case)
    finally:
        scdec._decode_node, scdec._combine_odd_vec, scdec._g, scdec._clamp_vec, scdec._parity_holds = (
            node, f, g, clamp, parity)
    sites = counts["f_calls"] + counts["g_calls"] - g_in_rep + counts["rep_halvings"]
    counts["clamps_skipped"] = sites - counts["clamps_run"]
    counts["parity_checks"] = {str(d): checks[d] for d in sorted(checks)}
    return counts


def _ab(parent: Path, change: Path) -> dict:
    """Parent/change time ratios of each case, interleaved in this process; outputs must be equal."""
    import numpy as np

    sides = {"parent": _load(parent, "parent_srcpolar"), "change": _load(change, "change_srcpolar")}
    work = tempfile.TemporaryDirectory()
    calls = {}
    for side, sp in sides.items():
        calls[side] = {name: (lambda sp=sp, case=case: sp.scdec.decode_batch(*case))
                       for name, case in _decode_cases(sp).items()}
        calls[side][MC_SPECTRUM] = (
            lambda sp=sp: sp.spectrum.montecarlo_spectrum(sp.JointSource.bsc_pair(0.11), 1024, 10**4, 5))
        calls[side][MC_FREEZE] = lambda sp=sp, out=Path(work.name) / f"{side}.json": _freeze(
            sp, out, "bsc_pair(0.11)", "1024", "0.8", "mc", "--samples", "10000", "--seed", "5")
        calls[side][BULK_FREEZE] = lambda sp=sp, out=Path(work.name) / f"{side}-bulk.json": _freeze(
            sp, out, "bernoulli(0.11)", "65536", "0.75", "zbound")
        calls[side].update(_write_cases(sp))
        calls[side].update(_repair_cases(sp))
        (Path(work.name) / side).mkdir()
        calls[side].update(_read_cases(sp, Path(work.name) / side))
        calls[side].update(_manifest_cases(sp, Path(work.name) / side))
    out = {}
    for name, change_call in calls["change"].items():
        want, got = calls["parent"][name](), change_call()
        if isinstance(want, sides["parent"].PolarSpectrum):
            assert (want.h.tobytes(), want.z.tobytes()) == (got.h.tobytes(), got.z.tobytes()), \
                f"{name}: spectra differ"
        elif isinstance(want, bytes):  # restored bytes: array_equal would drop trailing zero bytes
            assert want == got, f"{name}: outputs differ"
        elif isinstance(want, tuple):  # a loaded manifest
            assert _manifest_view(*want) == _manifest_view(*got), f"{name}: outputs differ"
        else:  # bits, a container's bytes or a manifest's
            assert np.array_equal(want, got), f"{name}: outputs differ"
        t = time.perf_counter()
        change_call()
        reps = max(1, round(SAMPLE_S / (time.perf_counter() - t)))
        rounds = MC_ROUNDS if name in (MC_SPECTRUM, MC_FREEZE, DAMAGED) else ROUNDS
        times = {"parent": [], "change": []}
        for k in range(rounds):
            for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
                call = calls[side][name]
                t = time.perf_counter()
                for _ in range(reps):
                    call()
                times[side].append((time.perf_counter() - t) / reps)
        ratios = [p / c for p, c in zip(times["parent"], times["change"])]
        out[name] = {"ratio_parent_over_change": _quartiles(ratios), "rounds": rounds, "calls_per_sample": reps,
                     "parent_ms": statistics.median(times["parent"]) * 1e3,
                     "change_ms": statistics.median(times["change"]) * 1e3, "outputs_equal": True}
    work.cleanup()
    return out


def _freeze(sp, out: Path, preset: str, N: str, R: str, method: str, *more: str) -> bytes:
    """CLI freeze with the package sp, in process; returns the manifest's bytes."""
    rc = sp.cli.main(["freeze", "--preset", preset, "-N", N, "-R", R, "--method", method, *more, "--out", str(out)])
    assert rc == 0, f"freeze exited with {rc}"
    return out.read_bytes()


def _rss(parent: Path, change: Path, rounds: int) -> dict:
    """Wall time and ru_maxrss of fresh-interpreter CLI `compress` of the bulk_compress input, sides alternating."""
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    # Linux keeps a process's ru_maxrss across exec, so a child forked from a large process would
    # report that process's size: this one imports no numpy, and a child writes the input.
    make_input = ("import sys, numpy as np; open(sys.argv[1], 'wb').write("
                  "np.packbits(np.random.default_rng(13).random(8 << 21) < 0.11).tobytes())")
    code = ("import resource, sys; from srcpolar import cli; rc = cli.main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        subprocess.run([sys.executable, "-c", make_input, str(work / "in.bin")], check=True)
        subprocess.run([sys.executable, "-m", "srcpolar.cli", "freeze", "--preset", "bernoulli(0.11)", "-N",
                        "65536", "-R", "0.75", "--method", "zbound", "--out", str(work / "m.json")],
                       env={**os.environ, "PYTHONPATH": str(sides["change"] / "src")}, check=True)
        for k in range(rounds):
            for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
                t = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", code, "compress", "--manifest", str(work / "m.json"),
                                       "--in", str(work / "in.bin"), "--out", str(work / f"{side}.plsc"),
                                       "--checksum"], env={**os.environ, "PYTHONPATH": str(sides[side] / "src")},
                                      capture_output=True, text=True, check=True)
                runs[side].append({"wall_s": time.perf_counter() - t,
                                   "max_rss_mb": int(proc.stdout.split()[-1]) / 1024})
            assert (work / "parent.plsc").read_bytes() == (work / "change.plsc").read_bytes(), "containers differ"
    return {side: {"runs": r, "wall_s": _quartiles([x["wall_s"] for x in r]),
                   "max_rss_mb": _quartiles([x["max_rss_mb"] for x in r])} for side, r in runs.items()}


def run_child(*args: str) -> dict:
    out = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list) -> dict:
    gates = json.loads(BENCHMARK.read_text())["end_to_end"]
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == wl]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r for r in mine}
        entry = {"seeds": [side[p, "parent"]["seed"] for p in pairs], "pairs": len(pairs),
                 "exit_nonzero": {s: sum(r["exit"] != 0 for r in mine if r["side"] == s)
                                  for s in ("parent", "change")},
                 "ops_failed": {s: sum(r["failed"] or 0 for r in mine if r["side"] == s)
                                for s in ("parent", "change")},
                 "ops_attempted": {s: sum(r["attempted"] or 0 for r in mine if r["side"] == s)
                                   for s in ("parent", "change")},
                 "runs": mine, "metrics": {}}
        for gate in gates:
            name, better, bound = gate["name"], gate["better"], gate["bound"]
            par = [side[p, "parent"][name] for p in pairs]
            chg = [side[p, "change"][name] for p in pairs]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            qp, qc = _quartiles(par), _quartiles(chg)
            worse = sign * (qp["median"] - qc["median"]) / qp["median"]
            entry["metrics"][name] = {
                "better": better, "bound": bound, "parent": qp, "change": qc,
                "ratio_change_over_parent": qc["median"] / qp["median"],
                "change_wins": f"{wins} of {len(pairs)}",
                "worse_by_share_of_parent_median": worse, "within_bound": worse <= bound}
        out[wl] = entry
    return out


def cmd_write(args) -> None:
    runs = [json.loads(line) for line in open(args.log) if line.strip()]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    decoder = {side: run_child("decoder", "--checkout", str(path)) for side, path in sides.items()}
    ab = run_child("ab", "--parent", str(sides["parent"]), "--change", str(sides["change"]))
    rss = run_child("rss", "--parent", str(sides["parent"]), "--change", str(sides["change"]),
                    "--rounds", str(RSS_ROUNDS))
    setup = {wl: run_child("setup", "--parent", str(sides["parent"]), "--change", str(sides["change"]),
                           "--workload", wl, "--rounds", str(SETUP_ROUNDS))
             for wl in sorted({r["workload"] for r in runs})}
    env = json.loads(subprocess.run(
        [_launcher(), "-c", "import sys; sys.path.insert(0, 'perfbench'); import run, json; "
         "print(json.dumps(run.environment()))"],
        cwd=sides["change"], capture_output=True, text=True, check=True).stdout)
    workloads = summarise(runs)
    claim = "none"
    if args.claim:
        wl, name = args.claim
        m = workloads[wl]["metrics"][name]
        claim = (f"{name} on {wl} gets better: measured {m['ratio_change_over_parent'] - 1:+.1%}, "
                 f"change better in {m['change_wins']}")
    seeds = {wl: e["seeds"] for wl, e in workloads.items()}
    notes = []
    for wl, e in workloads.items():
        for name, m in e["metrics"].items():
            if (wl, name) != tuple(args.claim or ()):
                notes.append(f"{wl} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                             f" (change better in {m['change_wins']}, parent iqr {m['parent']['iqr']:.3g},"
                             f" {'within' if m['within_bound'] else 'OUTSIDE'} the {m['bound']:.0%} bound)")
    doc = {
        "change": args.note,
        "claim": claim,
        "command": ("python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0, run in a "
                    "checkout of the parent and of the change, alternating which runs first "
                    "(python3 scripts/bench_guard.py pairs)"),
        "launcher": {"what": "the path BENCHMARK.json's launcher resolved to on PATH, which started the "
                             "logged runs, and the one that started the setup rounds and env",
                     "runs": sorted({r.get("launcher", "not recorded") for r in runs}),
                     "setup": _launcher()},
        "env": env,
        "workers": {"what": "cores this process may run on (os.sched_getaffinity): the chunk pipeline's "
                            "worker count for Monte-Carlo construction and compress_file",
                    "value": len(os.sched_getaffinity(0))},
        "workloads": workloads,
        "seeds_note": "; ".join(f"{wl} seeds {min(s)}-{max(s)}" for wl, s in seeds.items()),
        "observed_not_claimed": "; ".join(notes),
        "tracemalloc": {"what": "tracemalloc peak of one decode_batch call on the sideinfo set, in KiB "
                                "above the traced memory before the call, per row count; tracemalloc "
                                "records live blocks and their peak, not how many blocks a call "
                                "allocates and frees, so no allocation count is given",
                        "parent_kib": decoder["parent"]["tracemalloc_peak_kb"],
                        "change_kib": decoder["change"]["tracemalloc_peak_kb"]},
        "ab": {
            "what": (f"parent/change time ratio per case, median and quartiles over interleaved rounds "
                     f"({ROUNDS} per decode, write, repair or read case, {MC_ROUNDS} for the "
                     f"spectrum, the mc freeze and the damaged block) alternating which side "
                     f"runs first, both packages imported into one process; a "
                     f"sample repeats its call to last at least {SAMPLE_S * 1e3:.0f} ms; parent_ms and "
                     f"change_ms are median "
                     f"times per call; outputs asserted equal (python3 scripts/bench_guard.py ab)"),
            "cases": ab},
        "cli_compress_children": {
            "what": (f"CLI compress --checksum of the bulk_compress input (2 MiB of Ber(0.11), seed 13, "
                     f"N=2^16, R=0.75, zbound) in a fresh interpreter, {RSS_ROUNDS} per side, alternating "
                     f"which side runs first: wall seconds of the child, interpreter start-up included, and "
                     f"the child's own ru_maxrss in MB as it exits; containers asserted equal "
                     f"(python3 scripts/bench_guard.py rss)"),
            **rss},
        "setup": {
            "what": ("set-up seconds per workload: perfbench/construct.py with the workload's spec in a "
                     "fresh interpreter, once per side and round, alternating which side runs first, "
                     f"seeds 1 to {SETUP_ROUNDS}, one per round; digests asserted equal every round; "
                     "medians, quartiles and rounds the change wins (python3 scripts/bench_guard.py setup)"),
            "workloads": setup},
        "node_census": {
            "what": ("_decode_node visits by node kind, rate-1 and mixed nodes decided without a "
                     "split, _combine_odd_vec (f) and _g calls, Rep halvings, clamps run and "
                     "skipped, and _parity_holds checks per node size 2^d in one decode_batch call"),
            "parent": decoder["parent"]["node_census"],
            "change": decoder["change"]["node_census"]},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--log", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--parent", required=True)
    s.add_argument("--change", required=True)
    s.add_argument("--workload", required=True)
    s.add_argument("--rounds", type=int, default=SETUP_ROUNDS)
    d = sub.add_parser("decoder")
    d.add_argument("--checkout", required=True)
    a = sub.add_parser("ab")
    a.add_argument("--parent", required=True)
    a.add_argument("--change", required=True)
    r = sub.add_parser("rss")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--rounds", type=int, default=RSS_ROUNDS)
    w = sub.add_parser("write")
    w.add_argument("--parent", required=True)
    w.add_argument("--change", required=True)
    w.add_argument("--log", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--note", required=True)
    w.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    args = ap.parse_args()
    if args.cmd == "pairs":
        cmd_pairs(args)
    elif args.cmd == "setup":
        print(json.dumps(_setup(args.parent, args.change, args.workload, args.rounds)))
    elif args.cmd == "decoder":
        print(json.dumps(_decoder_probe(args.checkout)))
    elif args.cmd == "ab":
        print(json.dumps(_ab(args.parent, args.change)))
    elif args.cmd == "rss":
        print(json.dumps(_rss(args.parent, args.change, args.rounds)))
    else:
        cmd_write(args)


if __name__ == "__main__":
    main()
