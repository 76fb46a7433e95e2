"""Measure a change to the SC decoder, the write path or construction against a checkout of its parent commit.

    python3 scripts/bench_guard.py pairs --parent P --change C --workload W --seeds S... \
        --log runs.jsonl [--seconds T]
    python3 scripts/bench_guard.py setup --parent P --change C --workload W [--rounds 10]
    python3 scripts/bench_guard.py decoder --checkout C
    python3 scripts/bench_guard.py ab --parent P --change C
    python3 scripts/bench_guard.py rss --parent P --change C [--rounds 5]
    python3 scripts/bench_guard.py write --parent P --change C --log runs.jsonl --out BENCH.json \
        --note TEXT [--claim WORKLOAD METRIC]

P and C are source checkouts (each with perfbench/ and src/).  `pairs` runs
BENCHMARK.json's command, `perfbench/run.py`, with `--workload W --seed S
--seconds T --trace 0` in both, once per seed, and appends one JSON line per
run to the log, with T (BENCHMARK.json's run_seconds unless given) and the
host_factor the run reports.  `setup` times workload W's construction
(`perfbench/construct.py` with W's spec, the code build that `setup_s`
times) in fresh interpreters, once per side and round; round k builds with
seed k + 1, and both sides must build the same digest.  It prints medians,
quartiles and the rounds the change wins; `setup_s` is not normalised for
host speed, so only interleaved rounds compare it.  `decoder` prints one
JSON object about `decode_batch` in checkout C: node visits by kind, kernel
calls, clamps and parity checks, and the tracemalloc peak per call, at 1,
4, 8, 16 and 64 rows.  `ab` imports both checkouts' packages into one
process under two names and times each case of CASES on both, after
asserting that both give equal outputs; it prints the parent/change time
ratio per case, with its quartiles over the rounds.  `rss` runs CLI
`compress` of the bulk_compress input in one fresh interpreter per side and
round, and reports each child's wall time and its own ru_maxrss, read as it
exits; the containers must be equal.  `write` summarises the logged runs per
workload and end-to-end metric of BENCHMARK.json (medians, quartiles and
wins over the pairs in which both runs report the metric, each against its
bound, and each side's median host factor), runs
`decoder` once in each checkout, `ab` and `rss` once and `setup` (10 rounds)
once per logged workload, and writes the evidence file, with the number of
cores this process may run on, which is the chunk pipeline's worker count,
and the launcher the logged runs were started with.  TEXT says what the
change does; --claim names the one workload and metric it claims a gain on,
if any.

The rules every subcommand keeps:
- Alternation.  Host speed drifts between processes by more than the
  changes it measures, so both sides run once per round, the parent first
  in even rounds and the change first in odd ones (_order).  In one
  process, as in `ab`, both sides also see the same drift.
- The launcher.  Like the benchmark itself, every child is started with
  the command's launcher (`python3`) as found on PATH, not this process's
  own interpreter (sys.executable): how the interpreter is started can move
  the measured metrics.  On PATH the launcher may be a version manager's
  shim; under pyenv, a process the shim started finds the version's own bin
  directory first on PATH, so it resolves to the interpreter the shim would
  run, in the shim's environment.
- Isolation.  Every measurement runs in a child process: `write` starts
  each subcommand as a child of its own, and `pairs`, `setup` and `rss`
  run each side in fresh interpreters.
- No bytecode.  A fresh interpreter that finds srcpolar's bytecode in a
  checkout skips compiling it, so that side's setup_s reads faster.  Every
  child starts with PYTHONDONTWRITEBYTECODE=1 (_env), so no run leaves
  bytecode for a later one.  Python still loads a .pyc whose source's
  mtime and size match, so `pairs`, `setup`, `rss` and `write` refuse to
  start while either checkout holds a __pycache__ under src/ or
  perfbench/, and name each one; they delete nothing.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cache, partial
from pathlib import Path
from unittest import mock

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
ROWS = (1, 4, 8, 16, 64)
WRITE_ROWS = (1, 4, 16)  # compress_blocks rows timed by ab
# ab: interleaved rounds per decode, write, read or repair case and per Monte-Carlo or damaged-block
# case, and the least time one side's sample of a case takes (calls are repeated to reach it)
ROUNDS, MC_ROUNDS, SAMPLE_S = 25, 24, 0.05
SETUP_ROUNDS = 10  # setup rounds that write runs per workload
RSS_ROUNDS = 5  # rss rounds per side that write runs
# prints workload argv[1]'s construct.py spec for seed argv[2] and work directory argv[3], as the
# benchmark builds it
SPEC_CODE = ("import json, pathlib, sys; sys.path[:0] = ['perfbench', 'src']; from workloads import WORKLOADS; "
             "print(json.dumps(WORKLOADS[sys.argv[1]](int(sys.argv[2]), pathlib.Path(sys.argv[3]))"
             ".construction('rep0')))")
ENV_CODE = "import sys; sys.path.insert(0, 'perfbench'); import run, json; print(json.dumps(run.environment()))"


@cache
def _launcher() -> str:
    """The path of BENCHMARK.json's command[0] on PATH: the interpreter the benchmark itself starts."""
    name = json.loads(BENCHMARK.read_text())["command"][0]
    if (path := shutil.which(name)) is None:
        raise SystemExit(f"{name}, BENCHMARK.json's launcher, is not on PATH")
    return path


def _order(k: int) -> tuple:
    """The sides in the order round k runs them: the parent first in even rounds."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def _alternate(rounds: int, sample) -> dict:
    """sample(k, side) of both sides in each round k, in _order(k); returns each side's samples."""
    out = {"parent": [], "change": []}
    for k in range(rounds):
        for side in _order(k):
            out[side].append(sample(k, side))
    return out


def _env(**extra: str) -> dict:
    """This process's environment with extra, for a child that must write no bytecode."""
    return {**os.environ, **extra, "PYTHONDONTWRITEBYTECODE": "1"}


def _refuse_bytecode(sides: dict) -> None:
    """Exit naming every __pycache__ under either checkout's src/ or perfbench/, if there is one."""
    found = sorted(str(d) for checkout in sides.values() for top in ("src", "perfbench")
                   for d in (checkout / top).rglob("__pycache__"))
    if found:
        raise SystemExit("a checkout holds bytecode, which its fresh interpreters would load instead of "
                         "compiling; delete it and run again: " + " ".join(found))


def _child(checkout: Path, code: str, *args: str):
    """What a child running `python3 -c code args` in checkout prints, read as JSON."""
    return json.loads(subprocess.run([_launcher(), "-c", code, *args], cwd=checkout, env=_env(),
                                     capture_output=True, text=True, check=True).stdout)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([_launcher(), "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    host = next((float(line.split()[1]) for line in lines if line.startswith("host_factor ")), None)
    return {"launcher": _launcher(), "seconds": seconds, "host_factor": host, "exit": proc.returncode,
            "correct": result.get("correct"), "attempted": result.get("attempted"), "failed": result.get("failed"),
            **metrics}


def cmd_pairs(sides: dict, args) -> None:
    with open(args.log, "a") as log:
        def run(k, side):
            rec = {"workload": args.workload, "pair": k, "seed": args.seeds[k], "side": side, "first": _order(k)[0],
                   **run_once(sides[side], args.workload, args.seeds[k], args.seconds)}
            log.write(json.dumps(rec) + "\n")
            log.flush()
            print(json.dumps(rec), flush=True)
        _alternate(len(args.seeds), run)


def _setup(sides: dict, args) -> dict:
    """Interleaved fresh-interpreter set-up times of both sides; each round's digests must be equal."""
    with tempfile.TemporaryDirectory() as work:
        specs = [json.dumps(_child(sides["change"], SPEC_CODE, args.workload, str(k + 1), work))
                 for k in range(args.rounds)]

        def build(k, side):
            proc = subprocess.run([_launcher(), "perfbench/construct.py", specs[k]],
                                  cwd=sides[side], env=_env(), capture_output=True, text=True, check=True)
            return json.loads(proc.stdout.strip().splitlines()[-1])
        docs = _alternate(args.rounds, build)
    for k, (p, c) in enumerate(zip(docs["parent"], docs["change"])):
        assert p["digest"] == c["digest"], f"{args.workload} seed {k + 1}: set-ups differ"
    times = {side: [doc["setup_s"] for doc in d] for side, d in docs.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    qp, qc = _quartiles(times["parent"]), _quartiles(times["change"])
    return {"workload": args.workload, "seeds": f"1-{args.rounds}", "rounds": args.rounds,
            "parent_s": qp, "change_s": qc, "ratio_change_over_parent": qc["median"] / qp["median"],
            "change_wins": f"{wins} of {args.rounds}", "digests_equal": True, "times": times}


def _load(checkout: Path, name: str):
    """Import checkout's src/srcpolar as the package `name`, so that two checkouts can share a process.

    Timed calls reach functions through their modules (sp.codec.compress_blocks), which the first,
    untimed call imports: a package that imports its names on first use looks each one up again on
    every access, about 0.7 us.
    """
    pkg = Path(checkout).resolve() / "src" / "srcpolar"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Fixtures, each built once per package sp.

@cache
def _sideinfo_set(sp):
    """The sideinfo_codec set: bsc_pair(0.11), N=1024, R=0.8, Monte-Carlo 10^4 samples seed 5."""
    return sp.spectrum.build_high_entropy_set(
        sp.spectrum.montecarlo_spectrum(sp.JointSource.bsc_pair(0.11), 1024, 10000, 5), 0.8)


@cache
def _ber_set(sp, N: int = 1 << 16, R: float = 0.75):
    """The zbound set of Ber(0.11) at N and R; by default the bulk_compress set, N=2^16, R=0.75."""
    return sp.build_high_entropy_set(sp.zbound_spectrum(sp.JointSource.bernoulli(0.11), N), R)


@cache
def _bulk_input() -> bytes:
    """The bulk_compress input: 2 MiB of Ber(0.11) bits, seed 13."""
    import numpy as np

    return np.packbits(np.random.default_rng(13).random(8 << 21) < 0.11).tobytes()


@cache
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
    rng = np.random.default_rng(5)
    Y = np.array([sp.duality.channel_encode(d, code).data for d in rng.integers(0, 2, (8, code.data_size))])
    known = np.zeros(Y.shape, dtype=np.uint8)
    known[:, code.frozen_set.mask] = code.frozen_pattern
    for name, y in zip(CHANSIM, (Y ^ (rng.random(Y.shape) < 0.11).astype(Y.dtype), Y)):
        cases[name] = (code.source, y, code.frozen_set.mask, known)
    return cases


CHANSIM = ("chansim code (bsc(0.11), N=1024, R=0.35)", "chansim code, noise-free Y")


@cache
def _sideinfo_files(sp) -> list:
    """Nine (container, side file) pairs on the sideinfo_codec set, drawn with seed 17: eight of 2048
    uniform bytes (16 blocks) and one of 2 MiB (16384 blocks), each with its BSC(0.11) side file."""
    import numpy as np

    rng, files = np.random.default_rng(17), []
    for size in [2048] * 8 + [2 << 20]:
        x = rng.integers(0, 256, size, dtype=np.uint8)
        side = np.unpackbits(x) ^ (rng.random(8 * size) < 0.11)
        files.append((bytes(_compress(sp, x.tobytes(), _sideinfo_set(sp))), side.astype(np.uint8).tobytes()))
    return files


@cache
def _swsim_sets(sp) -> dict:
    """The two swsim sets: joint [0.76, 0.01, 0.04, 0.19], N=1024, R_x=0.5, R_y=0.85."""
    import numpy as np

    sw = sp.sw_config(sp.JointSource(sp.FieldSpec.binary(), np.array([[0.76, 0.01], [0.04, 0.19]])),
                      1024, 0.5, 0.85)
    return {"swsim set_x": sw.set_x, "swsim set_y": sw.set_y}


def _manifest(work: Path, hset) -> str:
    """The path of hset's manifest in work, written as freeze writes it."""
    path = work / f"manifest{hset.N}.json"
    path.write_bytes(hset.to_json())
    return str(path)


# The calls that ab times.  Each returns an output that == (np.array_equal for an array) compares
# across the sides.

def _compress(sp, data: bytes, hset, one_worker: bool = False) -> bytearray:
    """compress_file of data on hset; one_worker patches the chunk pipeline's worker count to 1, so
    that the layer's gain and the threads' show apart."""
    with mock.patch.object(sp.pipeline, "_workers", lambda: 1) if one_worker else contextlib.nullcontext():
        return sp.codec.compress_file(io.BytesIO(data), hset)


def _restore(sp, container: bytes, side, hset, source):
    """decompress_file's restored bytes, or its FormatError's message up to the first colon."""
    try:
        return sp.codec.decompress_file(container, side, hset, source)
    except sp.FormatError as e:
        return str(e).partition(":")[0]  # the detail after it names blocks only in newer messages


def _cli(sp, argv: list) -> bytes:
    """CLI argv in process, which must exit 0; returns the bytes it wrote to its --out."""
    rc = sp.cli.main(argv)
    assert rc == 0, f"{argv[0]} exited with {rc}"
    return Path(argv[argv.index("--out") + 1]).read_bytes()


def _manifest_view(sp, path: str) -> tuple:
    """cli._load_manifest of path, as CLI compress and decompress load a manifest, seen as what ab
    compares of it: the set's mask, indices and fingerprint, and the source."""
    hset, source = sp.cli._load_manifest(path)
    return hset.mask.tobytes(), hset.indices.tobytes(), hset.fingerprint, source.description()


def _spectrum(sp) -> tuple:
    """montecarlo_spectrum(bsc_pair(0.11), 1024, 10^4, 5) as its (h, z) bytes."""
    spec = sp.spectrum.montecarlo_spectrum(sp.JointSource.bsc_pair(0.11), 1024, 10**4, 5)
    return spec.h.tobytes(), spec.z.tobytes()


# ab's builders: each takes the package sp and its side's work directory and returns the call to time.

def _freeze(sp, work: Path, workload: str, seed: int):
    """CLI freeze in process, as the workload's set-up runs it for seed, into work; returns the manifest."""
    return partial(_cli, sp, _child(Path(sp.__file__).parents[2], SPEC_CODE, workload, str(seed), str(work))["argv"])


def _compress_blocks(sp, work: Path, set_name: str, B: int):
    """compress_blocks of B rows (seed [11, B]) on the sideinfo_codec set or a swsim set."""
    import numpy as np

    return partial(sp.codec.compress_blocks, np.random.default_rng([11, B]).integers(0, 2, (B, 1024), np.uint8),
                   {"sideinfo set": _sideinfo_set(sp), **_swsim_sets(sp)}[set_name])


def _compress_small(sp, work: Path):
    """compress_file of 2048 uniform bytes (seed 17, 16 blocks) on the sideinfo_codec set, the compress of
    sideinfo_codec, where the fixed cost of a call shows."""
    import numpy as np

    return partial(_compress, sp, np.random.default_rng(17).integers(0, 256, 2048, np.uint8).tobytes(),
                   _sideinfo_set(sp))


def _flip_repair(sp, work: Path):
    """decompress_file of the rows that SC decodes wrongly in test_codec.py::TestFlipRepair (bsc_pair(0.11),
    N=1024, R=0.7, zbound, rows 15, 30 and 35 of seed 2, with row 0), which SC-Flip repairs."""
    import numpy as np

    s = sp.JointSource.bsc_pair(0.11)
    hset = sp.build_high_entropy_set(sp.zbound_spectrum(s, 1024), 0.7)
    rng, rows = np.random.default_rng(2), [0, 15, 30, 35]
    X = rng.integers(0, 2, (64, 1024), dtype=np.uint8)
    Y = (X ^ (rng.random((64, 1024)) < 0.11)).astype(np.uint8)[rows].tobytes()
    return partial(_restore, sp, bytes(_compress(sp, np.packbits(X[rows]).tobytes(), hset)), Y, hset, s)


def _damaged(sp, work: Path):
    """decompress_file of the bulk_compress input's first two blocks on its set, with one payload bit of
    the first flipped and its crc32 kept, which no flip repairs."""
    damaged = _compress(sp, _bulk_input()[: 2 << 13], _ber_set(sp))
    damaged[30] ^= 0x10  # past the 22-byte version 2 header
    return partial(_restore, sp, bytes(damaged), None, _ber_set(sp), sp.JointSource.bernoulli(0.11))


def _cli_decompress(sp, work: Path):
    """CLI `decompress` in process, as sideinfo_codec times it, of _sideinfo_files' eight small
    containers with their side files, one call per container."""
    manifest, argvs = _manifest(work, _sideinfo_set(sp)), []
    for k, (box, side) in enumerate(_sideinfo_files(sp)[:8]):
        (work / f"x{k}.plsc").write_bytes(box)
        (work / f"y{k}.bin").write_bytes(side)
        argvs.append(["decompress", "--manifest", manifest, "--in", str(work / f"x{k}.plsc"),
                      "--side", str(work / f"y{k}.bin"), "--out", str(work / f"out{k}.bin")])

    def call():
        for argv in argvs:  # as sideinfo_codec does: the atomic write replaces no file
            Path(argv[-1]).unlink(missing_ok=True)
        return b"".join(_cli(sp, argv) for argv in argvs)
    return call


def _cli_compress(sp, work: Path):
    """CLI `compress` in process of the bulk_compress input on its set, the bulk_compress operation."""
    (work / "bulk.bin").write_bytes(_bulk_input())
    return partial(_cli, sp, ["compress", "--manifest", _manifest(work, _ber_set(sp)), "--in", str(work / "bulk.bin"),
                              "--out", str(work / "bulk.plsc")])


CASES = [  # (name, interleaved rounds, builder)
    *((name, ROUNDS, lambda sp, work, name=name: partial(sp.scdec.decode_batch, *_decode_cases(sp)[name]))
      for name in [*(f"sideinfo set, {B} rows" for B in ROWS), *CHANSIM]),
    ("montecarlo_spectrum(bsc_pair(0.11), 1024, 10^4, 5)", MC_ROUNDS, lambda sp, work: partial(_spectrum, sp)),
    ("freeze --method mc, bsc_pair(0.11), N=1024, R=0.8, 10^4 samples, seed 5", MC_ROUNDS,
     partial(_freeze, workload="sideinfo_codec", seed=5)),
    ("freeze --method zbound in process, bulk_compress set: bernoulli(0.11), N=2^16, R=0.75", ROUNDS,
     partial(_freeze, workload="bulk_compress", seed=5)),
    *((f"compress_blocks, {name}, {B} rows", ROUNDS, partial(_compress_blocks, set_name=name, B=B))
      for name in ("sideinfo set", "swsim set_x", "swsim set_y") for B in WRITE_ROWS),
    ("compress_file, 2 MiB Ber(0.11), N=2^16, R=0.75", ROUNDS,
     lambda sp, work: partial(_compress, sp, _bulk_input(), _ber_set(sp))),
    ("compress_file, 2 MiB Ber(0.11), N=2^16, R=0.75, one worker", ROUNDS,
     lambda sp, work: partial(_compress, sp, _bulk_input(), _ber_set(sp), one_worker=True)),
    # a chunk holds 1024 blocks and their headers
    ("compress_file, 2 MiB Ber(0.11), N=1024, R=0.7", ROUNDS,
     lambda sp, work: partial(_compress, sp, _bulk_input(), _ber_set(sp, 1024, 0.7))),
    # many blocks per chunk, a short last block and a last group of eight blocks padded with zero blocks
    ("compress_file, 1 MiB less 3 bytes Ber(0.11), N=64, R=0.75", ROUNDS,
     lambda sp, work: partial(_compress, sp, _bulk_input()[:(1 << 20) - 3], _ber_set(sp, 64, 0.75))),
    ("compress_file, 2 KiB (16 blocks), sideinfo set", ROUNDS, _compress_small),
    ("decompress_file, SC-Flip repairs 3 of 4 blocks (bsc_pair(0.11), N=1024, R=0.7)", ROUNDS, _flip_repair),
    ("decompress_file, 2 blocks of Ber(0.11), N=2^16, R=0.75, one payload bit flipped", MC_ROUNDS, _damaged),
    ("CLI decompress, 8 containers of 16 blocks with crcs and BSC(0.11) side files, sideinfo set", ROUNDS,
     _cli_decompress),
    ("decompress_file, 16384 blocks with crcs and BSC(0.11) side (2 MiB), sideinfo set", ROUNDS,
     lambda sp, work: partial(_restore, sp, *_sideinfo_files(sp)[8], _sideinfo_set(sp), sp.JointSource.bsc_pair(0.11))),
    ("manifest load (cli._load_manifest), bulk_compress set: bernoulli(0.11), N=2^16, R=0.75, zbound", ROUNDS,
     lambda sp, work: partial(_manifest_view, sp, _manifest(work, _ber_set(sp)))),
    ("manifest load (cli._load_manifest), sideinfo set", ROUNDS,
     lambda sp, work: partial(_manifest_view, sp, _manifest(work, _sideinfo_set(sp)))),
    ("CLI compress in process, 2 MiB Ber(0.11) (seed 13), bulk_compress set", ROUNDS, _cli_compress),
]


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

    A visit's kind is read off its compiled node: a leaf (d = 0), Rep (only
    the last position unknown), rate 1 (no known position, so no check) or
    mixed.  A rate-1 or mixed visit that makes no child visit was decided by
    its hard decisions.  f_calls and g_calls count calls of the two kernels.
    A Rep visit of size 2^d makes d halvings (rep_halvings), whether as g
    calls or as sums.  Each f call, each g call outside a Rep visit and each
    halving may clamp; clamps_run counts the clamps made and clamps_skipped
    the rest.  parity_checks counts the checks of _parity_holds per node
    size 2^d, passed and failed, and for each failed check how many of its
    rows pass the same check alone.
    """
    counts = {"node_visits": 0, "f_calls": 0, "g_calls": 0, "rep_halvings": 0, "clamps_run": 0}
    checks = {}
    stack = []  # [kind, child visits] of each visit in progress
    g_in_rep = 0
    node, f, g, clamp = scdec._decode_node, scdec._combine_odd_vec, scdec._g, scdec._clamp_vec
    parity = scdec._parity_holds

    def visit(L, at, *rest):
        kind = "leaf" if at.d == 0 else "rep" if at.rep else "rate1" if at.check is None else "mixed"
        counts["node_visits"] += 1
        counts[f"{kind}_visits"] = counts.get(f"{kind}_visits", 0) + 1
        if kind == "rep":
            counts["rep_halvings"] += at.d
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

    with mock.patch.multiple(scdec, _decode_node=visit, _combine_odd_vec=count("f_calls", f), _g=count("g_calls", g),
                             _clamp_vec=count("clamps_run", clamp), _parity_holds=checked):
        decode_batch(*case)
    sites = counts["f_calls"] + counts["g_calls"] - g_in_rep + counts["rep_halvings"]
    counts["clamps_skipped"] = sites - counts["clamps_run"]
    counts["parity_checks"] = {str(d): checks[d] for d in sorted(checks)}
    return counts


def _ab(sides: dict, *_) -> dict:
    """Parent/change time ratios of each case, interleaved in this process; outputs must be equal."""
    import numpy as np

    def sample(call, reps):
        t = time.perf_counter()
        for _ in range(reps):
            call()
        return (time.perf_counter() - t) / reps

    out = {}
    with tempfile.TemporaryDirectory() as work:
        calls = {}
        for side, checkout in sides.items():
            (Path(work) / side).mkdir()
            sp = _load(checkout, f"{side}_srcpolar")
            calls[side] = [build(sp, Path(work) / side) for _, _, build in CASES]
        for i, (name, rounds, _) in enumerate(CASES):
            call = {side: calls[side][i] for side in sides}
            want, got = call["parent"](), call["change"]()
            assert np.array_equal(want, got) if isinstance(want, np.ndarray) else want == got, f"{name}: outputs differ"
            reps = max(1, round(SAMPLE_S / sample(call["change"], 1)))
            times = _alternate(rounds, lambda k, side: sample(call[side], reps))
            ratios = [p / c for p, c in zip(times["parent"], times["change"])]
            out[name] = {"ratio_parent_over_change": _quartiles(ratios), "rounds": rounds,
                         "calls_per_sample": reps, "parent_ms": statistics.median(times["parent"]) * 1e3,
                         "change_ms": statistics.median(times["change"]) * 1e3, "outputs_equal": True}
    return out


def _rss(sides: dict, args) -> dict:
    """Wall time and ru_maxrss of fresh-interpreter CLI `compress` of the bulk_compress input, sides alternating."""
    # Linux keeps a process's ru_maxrss across exec, so a child forked from a large process would
    # report that process's size: this one imports no numpy, and a child writes the input.
    make_input = ("import sys, numpy as np; open(sys.argv[1], 'wb').write("
                  "np.packbits(np.random.default_rng(13).random(8 << 21) < 0.11).tobytes())")
    code = ("import resource, sys; from srcpolar import cli; rc = cli.main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")
    env = {side: _env(PYTHONPATH=str(checkout / "src")) for side, checkout in sides.items()}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        subprocess.run([_launcher(), "-c", make_input, str(work / "in.bin")], env=_env(), check=True)
        freeze = _child(sides["change"], SPEC_CODE, "bulk_compress", "1", str(work))["argv"]
        subprocess.run([_launcher(), "-m", "srcpolar.cli", *freeze], env=env["change"], check=True)

        def child(k, side):
            t = time.perf_counter()
            proc = subprocess.run([_launcher(), "-c", code, "compress", "--manifest", freeze[freeze.index("--out") + 1],
                                   "--in", str(work / "in.bin"), "--out", str(work / f"{side}.plsc")],
                                  env=env[side], capture_output=True, text=True, check=True)
            run = {"wall_s": time.perf_counter() - t, "max_rss_mb": int(proc.stdout.split()[-1]) / 1024}
            if side == _order(k)[1]:  # both sides of round k have written their container
                assert (work / "parent.plsc").read_bytes() == (work / "change.plsc").read_bytes(), "containers differ"
            return run
        runs = _alternate(args.rounds, child)
    return {side: {"runs": r, "wall_s": _quartiles([x["wall_s"] for x in r]),
                   "max_rss_mb": _quartiles([x["max_rss_mb"] for x in r])} for side, r in runs.items()}


def run_child(*args: str) -> dict:
    out = subprocess.run([_launcher(), __file__, *args], env=_env(), capture_output=True, text=True, check=True)
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
                 **{key: {s: sum(count(r) for r in mine if r["side"] == s) for s in ("parent", "change")}
                    for key, count in (("exit_nonzero", lambda r: r["exit"] != 0),
                                       ("ops_failed", lambda r: r["failed"] or 0),
                                       ("ops_attempted", lambda r: r["attempted"] or 0))},
                 "runs": mine, "metrics": {}}
        for gate in gates:
            name, better, bound = gate["name"], gate["better"], gate["bound"]
            # a run that exited before printing its metrics (counted in exit_nonzero) drops its pair here
            complete = [p for p in pairs if all(name in side[p, s] for s in ("parent", "change"))]
            if len(complete) < 2:
                raise ValueError(f"{wl} {name}: reported by both runs of {len(complete)} of {len(pairs)} pairs, "
                                 "fewer than two")
            par, chg = ([side[p, s][name] for p in complete] for s in ("parent", "change"))
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            qp, qc = _quartiles(par), _quartiles(chg)
            worse = sign * (qp["median"] - qc["median"]) / qp["median"]
            entry["metrics"][name] = {
                "better": better, "bound": bound, "parent": qp, "change": qc,
                "ratio_change_over_parent": qc["median"] / qp["median"],
                "change_wins": f"{wins} of {len(complete)}",
                "worse_by_share_of_parent_median": worse, "within_bound": worse <= bound}
        out[wl] = entry
    return out


def cmd_write(sides: dict, args) -> None:
    runs = [json.loads(line) for line in open(args.log) if line.strip()]
    both = ("--parent", str(sides["parent"]), "--change", str(sides["change"]))
    decoder = {side: run_child("decoder", "--checkout", str(path)) for side, path in sides.items()}
    ab = run_child("ab", *both)
    rss = run_child("rss", *both, "--rounds", str(RSS_ROUNDS))
    setup = {wl: run_child("setup", *both, "--workload", wl, "--rounds", str(SETUP_ROUNDS))
             for wl in sorted({r["workload"] for r in runs})}
    env = _child(sides["change"], ENV_CODE)
    workloads = summarise(runs)
    claim = "none"
    if args.claim:
        wl, name = args.claim
        m = workloads[wl]["metrics"][name]
        claim = (f"{name} on {wl} gets better: measured {m['ratio_change_over_parent'] - 1:+.1%}, "
                 f"change better in {m['change_wins']}")
    notes = []
    for wl, e in workloads.items():
        for name, m in e["metrics"].items():
            if (wl, name) != tuple(args.claim or ()):
                notes.append(f"{wl} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                             f" (change better in {m['change_wins']}, parent iqr {m['parent']['iqr']:.3g},"
                             f" {'within' if m['within_bound'] else 'OUTSIDE'} the {m['bound']:.0%} bound)")
    seconds = "/".join(f"{s:g}" for s in sorted({r["seconds"] for r in runs}))
    doc = {
        "change": args.note,
        "claim": claim,
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, run in a "
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
        "host_factor": {"what": "median per side and workload of the host_factor each logged run reports "
                                "(perfbench/probe.py's pure-Python probe, which scales bits_per_s_norm; "
                                "setup_s is not scaled): a host change between files shows here",
                        "workloads": {wl: {s: statistics.median(r["host_factor"] for r in e["runs"] if r["side"] == s
                                                                and r["host_factor"] is not None)
                                           for s in ("parent", "change")} for wl, e in workloads.items()}},
        "workloads": workloads,
        "seeds_note": "; ".join(f"{wl} seeds {min(e['seeds'])}-{max(e['seeds'])}" for wl, e in workloads.items()),
        "observed_not_claimed": "; ".join(notes),
        "tracemalloc": {"what": "tracemalloc peak of one decode_batch call on the sideinfo set, in KiB "
                                "above the traced memory before the call, per row count; tracemalloc "
                                "records live blocks and their peak, not how many blocks a call "
                                "allocates and frees, so no allocation count is given",
                        "parent_kib": decoder["parent"]["tracemalloc_peak_kb"],
                        "change_kib": decoder["change"]["tracemalloc_peak_kb"]},
        "ab": {
            "what": (f"parent/change time ratio per case, median and quartiles over interleaved rounds "
                     f"({ROUNDS} per decode, write, repair or read case, {MC_ROUNDS} for the spectrum, the mc "
                     f"freeze and the damaged block) alternating which side runs first, both packages imported "
                     f"into one process; a sample repeats its call to last at least {SAMPLE_S * 1e3:.0f} ms; "
                     f"parent_ms and change_ms are median times per call; outputs asserted equal "
                     f"(python3 scripts/bench_guard.py ab)"),
            "cases": ab},
        "cli_compress_children": {
            "what": (f"CLI compress of the bulk_compress input (2 MiB of Ber(0.11), seed 13, "
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
    both = argparse.ArgumentParser(add_help=False)
    for side in ("--parent", "--change"):
        both.add_argument(side, required=True, type=lambda path: Path(path).resolve())
    p = sub.add_parser("pairs", parents=[both])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=json.loads(BENCHMARK.read_text())["run_seconds"])
    p.add_argument("--log", required=True)
    s = sub.add_parser("setup", parents=[both])
    s.add_argument("--workload", required=True)
    s.add_argument("--rounds", type=int, default=SETUP_ROUNDS)
    sub.add_parser("decoder").add_argument("--checkout", required=True)
    sub.add_parser("ab", parents=[both])
    sub.add_parser("rss", parents=[both]).add_argument("--rounds", type=int, default=RSS_ROUNDS)
    w = sub.add_parser("write", parents=[both])
    for option in ("--log", "--out", "--note"):
        w.add_argument(option, required=True)
    w.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    args = ap.parse_args()
    if args.cmd == "decoder":
        return print(json.dumps(_decoder_probe(args.checkout)))
    run = {"pairs": cmd_pairs, "setup": _setup, "ab": _ab, "rss": _rss, "write": cmd_write}[args.cmd]
    sides = {"parent": args.parent, "change": args.change}
    if args.cmd != "ab":  # ab times calls in one process, after both packages are imported
        _refuse_bytecode(sides)
    if (out := run(sides, args)) is not None:
        print(json.dumps(out))


if __name__ == "__main__":
    main()
