"""The recorder of the BENCH_*.json files, scripts/bench_guard.py, without running a benchmark."""

import importlib.util
import json
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


@pytest.mark.parametrize("name", ["BENCH_pr28_manifest.json", "BENCH_pr29_indices.json", "BENCH_pr30_coldstart.json"])
def test_summarise_reproduces_a_recorded_file(guard, name):
    doc = json.loads((ROOT / name).read_text())
    runs = [run for entry in doc["workloads"].values() for run in entry["runs"]]
    assert guard.summarise(runs) == doc["workloads"]


def test_sides_alternate_with_the_parent_first_in_even_rounds(guard):
    seen = []
    samples = guard._alternate(4, lambda k, side: seen.append((k, side)) or f"{side}{k}")
    assert seen == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                    (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]
    assert samples == {"parent": ["parent0", "parent1", "parent2", "parent3"],
                       "change": ["change0", "change1", "change2", "change3"]}


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
