"""srcpolar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports srcpolar from ./src.
Inputs are generated from --seed into a temporary directory inside the
checkout, which is removed at exit.  Workloads are defined in workloads.py
and metrics are described in perfbench/README.md.

--trace 0 times the workload with nothing wrapped and reports the
end-to-end metrics.  --trace 1 times the same operations untraced and then
again with every layer's public calls wrapped (spans.py), checks that both
passes produced identical outputs, reports the per-layer metrics and the
tracing overhead, and writes the spans to .bench_out/.

Every operation's output is verified.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 1 when any operation failed verification.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import host_factor, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def timed_ops(wl, seconds: float = 0.0, count: int | None = None, tracer=None) -> list:
    """Run operations 0, 1, ... for `seconds` (at least one), or `count` of them.

    The host-speed probe runs between operations; each operation gets the
    host factor from the probes on both sides of it.
    """
    ops, probes = [], [probe()]
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return len(ops) < count
        return not ops or time.perf_counter() < deadline

    while more():
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(wl.op(len(ops)))
        probes.append(probe())
    for k, op in enumerate(ops):
        op.host_factor = host_factor(probes[k], probes[k + 1])
    return ops


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, **sizes) -> dict:
    """Set up, warm up, time and verify one workload; returns the result record."""
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, work, **sizes)
    setups = wl.setup()
    wl.prepare()
    warm = wl.warm_up()
    checks = {}
    attempted = [warm]
    errors = [warm.error] if warm.error else []

    if not trace:
        ops = timed_ops(wl, seconds)
        rates = wl.rates(ops)
        good = [op for op in ops if op.ok]
        normalized = [r * op.host_factor for r, op in zip(rates[wl.headline][0], good)]
        metrics = {
            "setup_s": (min(setups), "s"),
            "bits_per_s_norm": (median(normalized), "bit/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        named = dict(metrics)
        named["setup_s_median"] = (median(setups), "s")
        named["host_factor"] = (median([op.host_factor for op in ops]), "ratio")
        for rate, (values, unit) in rates.items():
            named[rate] = (median(values), unit)
            named[rate + "_p90"] = (p90(values), unit)
        named.update(wl.quality(ops, warm))
    else:
        plain = timed_ops(wl, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            checks["traced_setup_matches"] = wl.construct_in_process()
            traced = timed_ops(wl, count=len(plain), tracer=tracer)
            tracer.op = -1  # the warm-up again: on simulation, the FER must not depend on tracing
            checks["traced_warm_up_matches"] = wl.warm_up().digest == warm.digest
        finally:
            tracer.uninstall()
        checks["traced_outputs_match"] = [op.digest for op in plain] == [op.digest for op in traced]
        overhead = (sum(op.total_s / op.host_factor for op in traced)
                    / sum(op.total_s / op.host_factor for op in plain))
        metrics = layer_metrics(tracer.spans, overhead)
        named = dict(metrics)
        ops = plain + traced
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "env": environment()})

    attempted += ops
    errors += [op.error for op in ops if op.error]
    failed = sum(not op.ok for op in attempted)
    named["ops_failed_share"] = (failed / len(attempted), "share")
    return {
        "workload": name, "seed": seed, "trace": int(trace), "env": environment(),
        "setup_runs": len(setups), "ops_timed": len(ops), "checks": checks,
        "errors": errors[:5], "report": named,
        "result": {
            "correct": failed == 0 and all(checks.values()),
            "attempted": len(attempted) + len(setups) + len(checks),
            "failed": failed + sum(not v for v in checks.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_report(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"timed_ops={rec['ops_timed']} setup_runs={rec['setup_runs']}")
    print("# env " + json.dumps(rec["env"]))
    for name, (value, unit) in rec["report"].items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    if rec["errors"]:
        print("# errors: " + "; ".join(rec["errors"]))
    print("# checks " + json.dumps(rec["checks"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "srcpolar" / "__init__.py").is_file():
        print(f"perfbench: no srcpolar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:  # set-up failed: nothing could be measured
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(rec)
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
