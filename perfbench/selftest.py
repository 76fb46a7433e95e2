"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that the
metrics it reports are exactly those BENCHMARK.json names.  Then injects
faults and checks that each is counted as a failed operation rather than
passing: a flipped byte in a restored file, a truncated container (on both
codec workloads), a flipped byte in a bulk container, and a simulation CSV
that lost its data row.  Finally it
checks that the benchmark refuses to run, without printing a result, in a
directory that holds no srcpolar sources.  Takes one to two minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, call_cli  # noqa: E402

TINY = {
    "sideinfo_codec": {"file_bytes": 256, "samples": 300},
    "bulk_compress": {"file_bytes": 1024, "N": 1024},
    "simulation": {"quality_trials": (4, 2), "trials": (2, 1)},
}


def check(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def corrupting(command, corrupt):
    """A CLI runner that applies `corrupt` to the --out file of `command`."""

    def runner(argv):
        rc, seconds = call_cli(argv)
        if argv[0] == command and rc == 0:
            out = Path(argv[argv.index("--out") + 1])
            corrupt(out)
        return rc, seconds

    return runner


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-5])


def drop_row(path: Path) -> None:
    path.write_text(path.read_text().splitlines()[0] + "\n")


def run_tiny(name, trace, **extra):
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as work:
        return run.run(name, seed=1, seconds=0.2, trace=trace, work=Path(work),
                       **TINY[name], **extra)["result"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            result = run_tiny(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"] and result["failed"] == 0, (name, trace, result))
            check(got == want, (name, trace, set(got) ^ set(want)))
            print(f"ok   {name} trace={int(trace)}: {result['attempted']} operations verified")

    faults = [
        ("sideinfo_codec", "decompress", flip_byte, "flipped byte in a restored file"),
        ("sideinfo_codec", "compress", truncate, "truncated container"),
        ("bulk_compress", "compress", truncate, "truncated container"),
        ("bulk_compress", "compress", flip_byte, "flipped byte in a container"),
        ("simulation", "chansim", drop_row, "CSV without its data row"),
    ]
    for name, command, corrupt, what in faults:
        result = run_tiny(name, False, cli=corrupting(command, corrupt))
        check(not result["correct"] and result["failed"] > 0, (name, what, result))
        print(f"ok   {name}: {what} counted as {result['failed']} failed "
              f"of {result['attempted']} operations")

    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "simulation", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
        print(f"ok   without sources: exit code {proc.returncode} and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
