"""In-memory span tracer for the srcpolar benchmark.

The tracer wraps the public calls of each srcpolar module from outside the
package: while installed, every call records a span (name, start, end,
parent span, operation id).  Nothing is wrapped unless `install` is called,
so untraced runs execute the unmodified program.  Spans stay in memory and
are written once, by `write`, when the run ends.

Layers are the package modules cli, codec, scdec, transform, spectrum and
duality.  `field` and `sources` are called too often and too finely to time
from outside, so their cost lands in the transform and spectrum spans that
call them.
"""

import json
import os
import statistics
import sys
import time

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "busy", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.busy = None  # time the layer itself ran, when less than end - start
        self.info = None

    @property
    def covered(self) -> float:
        """Part of the parent's interval this span accounts for."""
        return self.busy if self.busy is not None else self.end - self.start

    def to_json(self) -> dict:
        doc = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "op": self.op}
        if self.busy is not None:
            doc["busy"] = self.busy
        if self.info:
            doc["info"] = self.info
        return doc


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id of the benchmark operation now running
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, _now(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _now()
        self._stack.pop()

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info = {"error": f"{type(exc).__name__}: {exc}"}
                raise
            finally:
                self._close(span)
            if after is not None:
                span.info = after(args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, name, after=None):
        self._rebind(getattr(module, attr), self._wrap(name, getattr(module, attr), after))

    def _rebind(self, original, traced) -> None:
        """Replace `original` in every srcpolar module that holds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "srcpolar":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def _patch_transform(self, module, attr, name) -> None:
        """Trace a transform and count its butterflies with the library's OpCounter."""
        from srcpolar.transform import OpCounter

        original = getattr(module, attr)

        def counted(block, ops=None):
            counter = OpCounter()
            result = original(block, counter)
            if ops is not None:
                ops.add(counter.count)
            self.spans[self._stack[-1]].info = {"N": block.N, "butterflies": counter.count}
            return result

        self._rebind(original, self._wrap(name, counted))

    def _patch_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._replace(cls, attr, staticmethod(self._wrap(name, raw.__func__, after)))
        else:
            self._replace(cls, attr, self._wrap(name, raw, after))

    def install(self) -> None:
        from srcpolar import cli, codec, duality, scdec, spectrum, transform

        self._patch_function(cli, "main", "cli.main", _cli_bytes)
        for attr in ("compress", "decompress", "error_bound", "sw_config",
                     "sw_encode_x", "sw_encode_y", "sw_decode", "sw_error_bound"):
            self._patch_function(codec, attr, "codec." + attr)
        self._patch_method(codec.CompressedBlock, "to_bytes", "codec.to_bytes", _block_bytes)
        self._patch_method(codec.CompressedBlock, "from_bytes", "codec.from_bytes")
        self._patch_transform(transform, "polar_forward", "transform.forward")
        self._patch_transform(transform, "polar_inverse", "transform.inverse")
        self._patch_function(spectrum, "montecarlo_spectrum", "spectrum.mc", _mc_updates)
        self._patch_function(spectrum, "zbound_spectrum", "spectrum.zbound")
        self._patch_function(spectrum, "build_high_entropy_set", "spectrum.select")
        for attr in ("make_duality_code", "channel_encode", "channel_decode", "simulate"):
            self._patch_function(duality, attr, "duality." + attr)
        self._patch_method(duality.ChannelModel, "sample", "duality.sample")
        self._patch_function(scdec, "decode_block", "scdec.decode_block")
        self._patch_decoder(scdec.SequentialDecoder)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch_decoder(self, cls) -> None:
        """One span per decoded block, from construction to the last decision.

        The span's busy time counts only the decoder's own calls, so the
        caller's per-bit loop stays in the caller's self time.
        """
        init, decide = cls.__init__, cls.decide_next
        tracer = self

        def traced_init(dec, *args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span("scdec.decode", _now(), parent, tracer.op)
            init(dec, *args, **kwargs)
            span.end = _now()
            span.busy = span.end - span.start
            span.info = {"N": dec.N, "known": 0}
            tracer.spans.append(span)
            dec._bench_span = span

        def traced_decide(dec, i, known=None):
            t0 = _now()
            result = decide(dec, i, known)
            t1 = _now()
            span = dec._bench_span
            span.busy += t1 - t0
            span.end = t1
            if known is not None:
                span.info["known"] += 1
            if i == dec.N:
                span.info["combines"] = dec.combine_count
            return result

        self._replace(cls, "__init__", traced_init)
        self._replace(cls, "decide_next", traced_decide)

    # -- output ----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": [s.to_json() for s in self.spans]}, fh)


def _cli_bytes(args, kwargs, rc):
    argv = list(args[0] if args else kwargs.get("argv") or [])

    def size_after(flags):
        total = 0
        for k, tok in enumerate(argv[:-1]):
            if tok in flags and os.path.isfile(argv[k + 1]):
                total += os.path.getsize(argv[k + 1])
        return total

    return {"command": argv[0] if argv else None, "rc": rc,
            "bytes_in": size_after({"--in", "--side", "--manifest", "--source"}),
            "bytes_out": size_after({"--out"})}


def _block_bytes(args, kwargs, data):
    block = args[0]
    return {"bytes": len(data), "payload_bytes": (len(block.payload) + 7) // 8}


def _mc_updates(args, kwargs, result):
    N, samples = result.N, result.samples
    return {"N": N, "llr_updates": samples * N * (N.bit_length() - 1)}


# -- per-layer metrics ------------------------------------------------------

# Bytes a butterfly stage moves, as computed (not measured): each butterfly
# reads two int64 symbols and writes one; the bit-reversal permutation reads
# the block and the index vector and writes the block.
_BYTES_PER_BUTTERFLY = 3 * 8
_BYTES_PER_PERMUTED_SYMBOL = 3 * 8

LAYERS = ("cli", "codec", "scdec", "transform", "spectrum", "duality")


def _quantile(values, q):
    """q-quantile (q a multiple of 0.05) of the values; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[round(q * 20) - 1]


def layer_metrics(spans: list[Span], overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a layer never reached reads 0.

    Times and counts of the timed operations (spans with op >= 0) are given
    per operation, so they do not depend on how many operations a run fits.
    The spectrum metrics describe the set-up's construction (op None).
    """
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.covered
    timed = [(k, s) for k, s in enumerate(spans) if s.op is not None and s.op >= 0]
    setup = [s for s in spans if s.op is None]
    n_ops = len({s.op for _, s in timed}) or 1

    def select(name):
        return [s for _, s in timed if s.name == name]

    def per_op(name):
        return sum(s.end - s.start for s in select(name)) / n_ops

    def self_per_op(prefix):
        return sum(s.covered - children.get(k, 0.0)
                   for k, s in timed if s.name.startswith(prefix)) / n_ops

    def info_sum(found, key):
        return sum((s.info or {}).get(key, 0) for s in found)

    def setup_total(name):
        return sum(s.end - s.start for s in setup if s.name == name)

    decodes = [s for s in select("scdec.decode") if "combines" in s.info]
    bits = info_sum(decodes, "N")
    us_per_bit = sorted(1e6 * s.busy / s.info["N"] for s in decodes)

    transforms = select("transform.forward") + select("transform.inverse")
    butterflies = info_sum(transforms, "butterflies")
    transform_s = sum(s.end - s.start for s in transforms)

    decompress = select("codec.decompress")
    block_ms = sorted(1e3 * (s.end - s.start) for s in decompress)
    crc_failures = sum("checksum mismatch" in (s.info or {}).get("error", "") for s in decompress)
    block_bytes = info_sum(select("codec.to_bytes"), "bytes")
    payload_bytes = info_sum(select("codec.to_bytes"), "payload_bytes")
    decode_ms = sorted(1e3 * (s.end - s.start) for s in select("duality.channel_decode"))
    mc_s = setup_total("spectrum.mc")
    mc_updates = info_sum([s for s in setup if s.name == "spectrum.mc"], "llr_updates")

    metrics = {
        "scdec.us_per_bit_p50": (_quantile(us_per_bit, 0.5), "us"),
        "scdec.us_per_bit_p90": (_quantile(us_per_bit, 0.9), "us"),
        "scdec.bits_decided": (bits / n_ops, "count/op"),
        "scdec.known_share": (info_sum(decodes, "known") / bits if bits else 0.0, "share"),
        "scdec.combines": (info_sum(decodes, "combines") / len(decodes) if decodes else 0.0,
                           "count/block"),
        "transform.forward_s": (per_op("transform.forward"), "s/op"),
        "transform.inverse_s": (per_op("transform.inverse"), "s/op"),
        "transform.butterflies": (butterflies / n_ops, "count/op"),
        "transform.ns_per_butterfly": (1e9 * transform_s / butterflies if butterflies else 0.0, "ns"),
        "transform.bytes_moved_computed": (
            (butterflies * _BYTES_PER_BUTTERFLY
             + info_sum(transforms, "N") * _BYTES_PER_PERMUTED_SYMBOL) / n_ops, "B/op"),
        "codec.compress_self_s": (self_per_op("codec.compress"), "s/op"),
        "codec.decompress_self_s": (self_per_op("codec.decompress"), "s/op"),
        "codec.to_bytes_s": (per_op("codec.to_bytes"), "s/op"),
        "codec.from_bytes_s": (per_op("codec.from_bytes"), "s/op"),
        "codec.block_decompress_ms_p50": (_quantile(block_ms, 0.5), "ms"),
        "codec.block_decompress_ms_p90": (_quantile(block_ms, 0.9), "ms"),
        "codec.crc_failures": (crc_failures, "count"),
        "codec.header_share": ((block_bytes - payload_bytes) / block_bytes if block_bytes else 0.0,
                               "share"),
        "cli.bytes_in": (info_sum(select("cli.main"), "bytes_in") / n_ops, "B/op"),
        "cli.bytes_out": (info_sum(select("cli.main"), "bytes_out") / n_ops, "B/op"),
        "spectrum.mc_s": (mc_s, "s"),
        "spectrum.mc_llr_updates_per_s": (mc_updates / mc_s if mc_s else 0.0, "1/s"),
        "spectrum.zbound_s": (setup_total("spectrum.zbound"), "s"),
        "spectrum.select_s": (setup_total("spectrum.select"), "s"),
        "duality.construct_s": (per_op("duality.make_duality_code"), "s/op"),
        "duality.encode_s": (per_op("duality.channel_encode"), "s/op"),
        "duality.sample_s": (per_op("duality.sample"), "s/op"),
        "duality.decode_ms_p50": (_quantile(decode_ms, 0.5), "ms"),
        "duality.decode_ms_p90": (_quantile(decode_ms, 0.9), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_per_op(layer + "."), "s/op")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
