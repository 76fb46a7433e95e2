"""The recorder of the BENCH_*.json files, scripts/bench_guard.py, without running a benchmark."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from srcpolar import JointSource, build_high_entropy_set, decode_batch, scdec, transform, zbound_spectrum

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", ROOT / "scripts" / "bench_guard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _logged_runs(name):
    doc = json.loads((ROOT / name).read_text())
    return doc, [run for entry in doc["workloads"].values() for run in entry["runs"]]


@pytest.mark.parametrize("name", ["BENCH_pr28_manifest.json", "BENCH_pr29_indices.json", "BENCH_pr30_coldstart.json",
                                  "BENCH_pr31_recorder.json"])
def test_summarise_reproduces_a_recorded_file(guard, name):
    doc, runs = _logged_runs(name)
    assert guard.summarise(runs) == doc["workloads"]


def test_summarise_counts_a_failed_run_and_compares_the_complete_pairs(guard):
    doc, runs = _logged_runs("BENCH_pr31_recorder.json")
    metrics = [gate["name"] for gate in json.loads(guard.BENCHMARK.read_text())["end_to_end"]]
    # what run_once logs when perfbench/run.py exits before its last line
    failed = next(r for r in runs if r["workload"] == "simulation" and r["pair"] == 3 and r["side"] == "change")
    for name in metrics:
        del failed[name]
    failed["exit"] = 1
    out = guard.summarise(runs)
    assert {wl: e for wl, e in out.items() if wl != "simulation"} == {
        wl: e for wl, e in doc["workloads"].items() if wl != "simulation"}
    sim = out["simulation"]
    assert sim["pairs"] == 10 and sim["exit_nonzero"] == {"parent": 0, "change": 1}
    others = guard.summarise([r for r in runs if not (r["workload"] == "simulation" and r["pair"] == 3)])
    assert sim["metrics"] == others["simulation"]["metrics"]
    assert all(m["change_wins"].endswith(" of 9") for m in sim["metrics"].values())

    for r in runs:
        if r["workload"] == "simulation" and r["pair"] > 0 and r["side"] == "parent":
            del r["setup_s"]
    with pytest.raises(ValueError, match="simulation setup_s"):
        guard.summarise(runs)


def test_sides_alternate_with_the_parent_first_in_even_rounds(guard):
    seen = []
    samples = guard._alternate(4, lambda k, side: seen.append((k, side)) or f"{side}{k}")
    assert seen == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                    (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]
    assert samples == {"parent": ["parent0", "parent1", "parent2", "parent3"],
                       "change": ["change0", "change1", "change2", "change3"]}


@pytest.mark.parametrize("argv", [["pairs", "--workload", "bulk_compress", "--seeds", "1", "--log", "{tmp}/runs.jsonl"],
                                  ["setup", "--workload", "bulk_compress"], ["rss"],
                                  ["write", "--log", "{tmp}/runs.jsonl", "--out", "{tmp}/BENCH.json", "--note", "x"]],
                         ids=lambda argv: argv[0])
def test_a_checkout_holding_bytecode_is_refused(guard, tmp_path, monkeypatch, argv):
    # a side whose fresh interpreters load bytecode skips compiling srcpolar, so its setup_s reads faster
    cache = tmp_path / "parent" / "src" / "srcpolar" / "__pycache__"
    cache.mkdir(parents=True)
    (tmp_path / "change" / "perfbench").mkdir(parents=True)
    sides = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    rest = [a.format(tmp=tmp_path) for a in argv[1:]]
    monkeypatch.setattr(sys, "argv", ["bench_guard.py", argv[0], *sides, *rest])
    with pytest.raises(SystemExit, match=re.escape(str(cache))):
        guard.main()


def test_a_child_writes_no_bytecode(guard, tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    (tmp_path / "probe_module.py").write_text("VALUE = [1, 2]\n")
    assert guard._child(tmp_path, "import json, probe_module; print(json.dumps(probe_module.VALUE))") == [1, 2]
    assert not (tmp_path / "__pycache__").exists()


def test_census_kinds_are_those_of_the_known_mask(guard, monkeypatch):
    import numpy as np

    s = JointSource.bernoulli(0.11)
    mask = build_high_entropy_set(zbound_spectrum(s, 256), 0.5).mask
    rng = np.random.default_rng(3)
    X = (rng.random((4, 256)) < 0.11).astype(np.uint8)
    case = (s, np.zeros((4, 256), dtype=np.uint8), mask, transform._forward_rows(s.field, X))
    counts = guard._census(scdec, decode_batch, case)
    kinds = {k: v for k, v in counts.items() if k.endswith("_visits") and k != "node_visits"}
    assert sum(kinds.values()) == counts["node_visits"] > 0

    # the census's rule before it read the compiled node: the kind from the known mask alone
    by_mask, node = {}, scdec._decode_node

    def visit(L, at, *rest):
        known, m = mask[at.lo:at.lo + L.shape[0]], L.shape[0]
        kind = ("leaf" if m == 1 else "rate1" if not known.any()
                else "rep" if known[:-1].all() and not known[-1] else "mixed")
        by_mask[f"{kind}_visits"] = by_mask.get(f"{kind}_visits", 0) + 1
        return node(L, at, *rest)

    monkeypatch.setattr(scdec, "_decode_node", visit)
    decode_batch(*case)
    assert by_mask == kinds
    assert {"leaf_visits", "rep_visits", "rate1_visits", "mixed_visits"} <= set(kinds)


def _reached_names(tree) -> set:
    """Every attribute chain of bench_guard.py rooted at the package `sp` or the module `scdec`, as a tuple of
    names, and every name that mock.patch.object or mock.patch.multiple patches on such a chain."""
    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        return (node.id, *reversed(names)) if isinstance(node, ast.Name) and node.id in ("sp", "scdec") else None

    found = {c for node in ast.walk(tree) if (c := chain(node)) and len(c) > 1}
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.args):
            continue
        target = chain(call.args[0])
        if target and call.func.attr == "object":  # mock.patch.object(target, "name", ...)
            found.add((*target, call.args[1].value))
        elif target and call.func.attr == "multiple":  # mock.patch.multiple(target, name=...)
            found.update((*target, kw.arg) for kw in call.keywords)
    return found


def test_every_private_name_the_recorder_reaches_resolves():
    # a rename in src/ would otherwise show only when `write` runs `ab`, after the long `pairs` runs
    import srcpolar

    names = _reached_names(ast.parse((ROOT / "scripts" / "bench_guard.py").read_text()))
    assert ("sp", "transform", "_forward_rows") in names and ("sp", "pipeline", "_workers") in names
    assert ("scdec", "_decode_node") in names and ("sp", "duality", "ChannelModel", "bsc") in names
    roots = {"sp": srcpolar, "scdec": srcpolar.scdec}
    for root, *attrs in sorted(names):
        obj = roots[root]
        for i, attr in enumerate(attrs):
            assert hasattr(obj, attr), f"{'.'.join([root, *attrs[:i + 1]])} does not resolve"
            obj = getattr(obj, attr)
