"""The benchmark's tracer and workloads must keep working on the library.

perfbench/spans.py patches srcpolar functions by name, so a deleted or
renamed one would otherwise show only when the benchmark itself runs; the
workloads verify every CLI output, so a wrong output would too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

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


PERFBENCH = SPANS.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's selftest, construct and workloads modules, imported as run.py does.

    They are dropped from sys.modules afterwards, and sys.path is restored.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        import construct
        import selftest
        import workloads

        yield selftest, construct, workloads
    finally:
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_outputs_verify(perfbench, tmp_path, name):
    """One warm-up and one operation of each workload pass the benchmark's own checks.

    Sizes are the benchmark self-test's; the construction runs in process.
    A change that would fail the benchmark's verification fails here first.
    """
    selftest, construct, workloads = perfbench
    wl = workloads.WORKLOADS[name](1, tmp_path, **selftest.TINY[name])
    wl.setup_digest = construct.construct(wl.construction("rep0"))
    wl.prepare()
    for op in (wl.warm_up(), wl.op(0)):
        assert op.ok, op.error
