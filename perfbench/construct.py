"""Build one workload's code construction in a fresh interpreter and time it.

    python3 perfbench/construct.py '<spec as JSON>'

The spec is {"kind": "freeze", "argv": [...]} for a `srcpolar freeze`
command, or {"kind": "codes", ...} for the duality code and Slepian-Wolf
configuration that `chansim` and `swsim` build.  The last line printed is
{"setup_s": import + construction seconds, "digest": hash of what was built}.
Running in its own process keeps the construction's memory out of the timed
run's peak and makes every repetition pay the import again.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def construct(spec: dict) -> str:
    """Build what the spec names; returns a digest of the result."""
    if spec["kind"] == "freeze":
        from srcpolar import cli

        argv = spec["argv"]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"freeze exited with {rc}")
        out = argv[argv.index("--out") + 1]
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    if spec["kind"] == "codes":
        from srcpolar import JointSource, codec, duality

        code = duality.make_duality_code(
            duality.ChannelModel.bsc(spec["p"]), spec["N"], spec["R"], spec["seed"]
        )
        with open(spec["joint"]) as fh:
            joint = JointSource.from_json(fh.read())
        cfg = codec.sw_config(joint, spec["N"], spec["rx"], spec["ry"])
        blob = json.dumps([code.to_manifest(), code.frozen_pattern.tolist(), cfg.to_manifest()])
        return hashlib.sha256(blob.encode()).hexdigest()
    raise ValueError(f"unknown construction kind {spec['kind']!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import srcpolar  # noqa: F401  (the import is part of set-up time)

    digest = construct(spec)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
