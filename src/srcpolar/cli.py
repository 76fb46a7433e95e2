"""Command-line front end.

Subcommands: spectrum, freeze, compress, decompress, chansim, swsim.
compress writes a crc32 with every block; decompress repairs a block whose
crc32 fails by SC-Flip or exits 1 (older blocks without one are read unchecked).
All stochastic commands require --seed and are byte-deterministic given
their inputs on one host.  Across hosts, spectrum --method mc is the one
exception: its 17-digit h and z come from numpy's exp and log1p, whose
last bits depend on the SIMD kernels numpy picks for the CPU.  Output
files are written atomically (temp file + rename), with the mode of the
file they replace, or 0666 less the umask for a new file.
Floats are formatted with 17 significant digits.
"""

import argparse
import functools
import io
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import spectrum as spec_mod
from .errors import FormatError, SrcPolarError, UnsupportedAlphabetError
from .sources import JointSource, parse_preset
from .spectrum import HighEntropySet

_F = lambda v: format(v, ".17g")


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:  # mkstemp makes the file 0600: give it the replaced file's mode, or a new file's
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-srcpolar-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_source(args) -> JointSource:
    if args.preset is not None:  # argparse gives exactly one of --preset and --source
        return parse_preset(args.preset)
    try:
        with open(args.source) as fh:  # a file that is not UTF-8 fails here with a ValueError
            return JointSource.from_json(fh.read())
    except ValueError as exc:
        raise FormatError(f"source {args.source}: {type(exc).__name__}: {exc}") from None


def _compute_spectrum(src, N, method, samples, seed, entropy=True):
    if method == "exact":
        return spec_mod.exact_spectrum(src, N)
    if method == "zbound":
        return spec_mod.zbound_spectrum(src, N)
    # argparse allows only "mc" here; without entropy it estimates z alone
    return spec_mod.montecarlo_spectrum(src, N, samples, seed, _entropy=entropy)


def cmd_spectrum(args) -> int:
    for delta in args.delta:
        spec_mod._check_delta(delta)
    src = _load_source(args)
    rows = io.StringIO()
    rows.write("N,index,h,z,method\n")
    fracs = io.StringIO()
    fracs.write("N,delta,high,low,mid\n")
    for N in args.N:
        sp = _compute_spectrum(src, N, args.method, args.samples, args.seed)
        for i in range(N):
            h = _F(sp.h[i]) if sp.h is not None else ""
            z = _F(sp.z[i]) if sp.z is not None else ""
            rows.write(f"{N},{i + 1},{h},{z},{sp.method}\n")
        if sp.h is not None:
            for delta in args.delta:
                fr = spec_mod.polarization_fractions(sp, delta)
                fracs.write(
                    f"{N},{_F(delta)},{_F(fr['high'])},{_F(fr['low'])},{_F(fr['mid'])}\n"
                )
    _atomic_write(args.out, rows.getvalue().encode())
    _atomic_write(args.out + ".fractions.csv", fracs.getvalue().encode())
    return 0


def cmd_freeze(args) -> int:
    spec_mod._check_rate(args.R)
    src = _load_source(args)
    sp = _compute_spectrum(src, args.N, args.method, args.samples, args.seed, entropy=False)
    _atomic_write(args.out, spec_mod.build_high_entropy_set(sp, args.R).to_json())
    return 0


def _load_manifest(path: str) -> tuple[HighEntropySet, JointSource]:
    try:
        hset = HighEntropySet.from_json(Path(path).read_text(encoding="utf-8"))
        return hset, JointSource.from_description(hset.source_desc)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"manifest {path}: {type(exc).__name__}: {exc}") from None


def cmd_compress(args) -> int:
    from . import codec

    hset, source = _load_manifest(args.manifest)
    if not source.field.is_binary:
        raise UnsupportedAlphabetError("compression requires a binary source")
    with open(args.infile, "rb") as fh:
        _atomic_write(args.out, codec.compress_file(fh, hset))
    return 0


def cmd_decompress(args) -> int:
    from . import codec

    hset, source = _load_manifest(args.manifest)
    side = Path(args.side).read_bytes() if args.side else None
    _atomic_write(args.out, codec.decompress_file(Path(args.infile).read_bytes(), side, hset, source))
    return 0


def cmd_chansim(args) -> int:
    from . import duality

    w = duality.parse_channel(args.channel)
    rows = io.StringIO()
    rows.write("channel,N,R,trials,fer,ber,bound\n")
    for N in args.N:
        for rate in args.R:
            code = duality.make_duality_code(w, N, rate, args.seed)
            rep = duality.simulate(w, code, args.trials, args.seed)
            rows.write(
                f"{args.channel},{N},{_F(rate)},{args.trials},"
                f"{_F(rep['fer'])},{_F(rep['ber'])},{_F(rep['bound'])}\n"
            )
    _atomic_write(args.out, rows.getvalue().encode())
    return 0


def cmd_swsim(args) -> int:
    from . import codec, duality

    cfg = codec.sw_config(_load_source(args), args.N, args.rx, args.ry)
    rep = duality.sw_simulate(cfg, args.trials, args.seed)
    rows = (
        "N,R_x,R_y,trials,joint_error_rate,bound\n"
        f"{args.N},{_F(args.rx)},{_F(args.ry)},{args.trials},"
        f"{_F(rep['joint_error_rate'])},{_F(rep['bound'])}\n"
    )
    _atomic_write(args.out, rows.encode())
    return 0


def _add_source_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="named source, e.g. bernoulli(0.11) or bsc_pair(0.11)")
    g.add_argument("--source", help="path to a source description JSON file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: no command mutates its defaults."""
    ap = argparse.ArgumentParser(prog="srcpolar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="per-index h/z spectrum and polarization fractions")
    _add_source_args(p)
    p.add_argument("-N", type=int, nargs="+", required=True)
    p.add_argument("--method", choices=["exact", "zbound", "mc"], default="exact")
    p.add_argument("--delta", type=float, nargs="+", default=[0.1])
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("freeze", help="build a high-entropy index-set manifest")
    _add_source_args(p)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-R", type=float, required=True)
    p.add_argument("--method", choices=["exact", "zbound", "mc"], default="zbound")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_freeze)

    p = sub.add_parser("compress", help="compress a byte file blockwise")
    p.add_argument("--manifest", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    # Unread, as every block carries its crc32; it still parses for the scripts that pass it.
    p.add_argument("--checksum", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="restore a byte file from a container")
    p.add_argument("--manifest", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--side", help="side-information file, one symbol per byte")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("chansim", help="channel-coding simulation sweep")
    p.add_argument("--channel", required=True, help="bsc(p) or bec(eps)")
    p.add_argument("-N", type=int, nargs="+", required=True)
    p.add_argument("-R", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chansim)

    p = sub.add_parser("swsim", help="two-encoder Slepian-Wolf simulation")
    _add_source_args(p)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--rx", type=float, required=True)
    p.add_argument("--ry", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_swsim)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SrcPolarError, OSError) as exc:
        print(f"srcpolar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
