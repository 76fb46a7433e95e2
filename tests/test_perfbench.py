"""The benchmark's tracer must find every library name it wraps.

perfbench/spans.py patches srcpolar functions by name, so a deleted or
renamed one would otherwise show only when the benchmark itself runs.
"""

import importlib.util
from pathlib import Path

import srcpolar
from srcpolar import cli, codec, duality, scdec, spectrum, transform

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
OWNERS = (srcpolar, cli, codec, duality, scdec, spectrum, transform,
          codec.CompressedBlock, duality.ChannelModel, scdec.SequentialDecoder)


def _bindings() -> dict:
    return {(id(owner), name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()  # a missing name raises here
        assert any(value is not before[key] for key, value in _bindings().items())
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
