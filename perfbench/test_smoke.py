"""Smoke tests of the benchmark itself, at tiny batch sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(workloads.WORKLOADS)


def test_benchmark_json_names_registered_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def tiny(name, trace, seed=3):
    return run.run_workload(name, seed, 0.05, trace, size="tiny")


def assert_metrics(metrics, specs):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name):
    detail, result = tiny(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert set(detail["end_to_end"]) == set(run.E2E_UNITS)
    assert detail["error_rate"] == {"failed": 0, "attempted": result["attempted"]}

    detail, result = tiny(name, 1)
    assert result["correct"]
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert detail["layer_counts_repeat"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_work_counts_and_digest_repeat_for_one_seed(name):
    first, _ = tiny(name, 1, seed=5)
    second, _ = tiny(name, 1, seed=5)
    for key in ("work", "digest", "layer_counts"):
        assert first[key] == second[key], key
    other, _ = tiny(name, 0, seed=6)
    assert other["digest"] != first["digest"]


def _bindings():
    """Every attribute of every tropmoduli module and traced class, by identity."""
    import tropmoduli  # noqa: F401

    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tropmoduli" or modname.startswith("tropmoduli.")):
            continue
        for attr, value in vars(mod).items():
            out[(modname, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("tropmoduli"):
                for cattr, cvalue in vars(value).items():
                    out[(modname, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_wrapped_function():
    import tropmoduli.cli  # noqa: F401
    from tropmoduli import documents, moduli, polyhedral

    before = _bindings()
    original = moduli.canonical_form
    tracer = Tracer()
    assert {layer for layer, _, _, _ in tracer.targets()} == set(LAYERS)
    tracer.install()
    try:
        wrapped = moduli.canonical_form
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert documents.canonical_form is wrapped  # rebound where it was imported
        assert polyhedral.Polyhedron.vrep is not before[("tropmoduli.polyhedral", "Polyhedron",
                                                          "vrep")]
    finally:
        tracer.uninstall()
    tiny("cli", 1)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_spans_nest_inside_their_parents(tmp_path):
    path = tmp_path / "spans.jsonl"
    run.run_workload("harmonic", 3, 0.05, 1, size="tiny", spans_path=path)
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    assert spans
    for s in spans.values():
        assert s["start"] <= s["end"] and s["op"] is not None
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["op"] == s["op"]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    value, percentile, samples = run.tail(list(range(100)))
    assert (value, percentile, samples) == (89, 90.0, 100)
    assert sum(1 for v in range(100) if v > value) == 10


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harmonic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
