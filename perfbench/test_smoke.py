"""Tiny-size smoke run of every workload, with no timing bounds.

Checks that the harness runs end to end on a few small ops, that every op
passes its reference check, that the reported metric names match
``BENCHMARK.json``, and that the reference checks reject wrong outputs.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def _tiny(name: str, ops: list) -> list:
    if name == "transport":
        lifts = [op for op in ops if op.kind == "lift" and op.l == 2][:2]
        return lifts + [op for op in ops if op.kind == "loop" and op.l == 2][:1]
    if name == "verify":
        return [op for op in ops if op.name in ("ehresmann", "zero-anchor", "scalar_transport.json")]
    return [op for op in ops if op.config.n == 2 and op.config.k == 2 and op.grid == 5]


@pytest.fixture(scope="module")
def geoconn():
    return bench._import_geoconn()


@pytest.fixture
def tiny_workload(request, geoconn, tmp_path, monkeypatch):
    name = request.param
    module_name, tail, _ = bench.WORKLOADS[name]
    monkeypatch.setitem(bench.WORKLOADS, name, (module_name, tail, 1))
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    module, ops = bench.setup(name, SEED, geoconn, tmp_path)
    return name, module, _tiny(name, ops)


@pytest.mark.parametrize("tiny_workload", sorted(bench.WORKLOADS), indirect=True)
def test_untraced_run(tiny_workload, geoconn):
    name, module, ops = tiny_workload
    metrics, details, runner = bench.untraced(name, SEED, 0.0, module, ops, geoconn)
    assert runner.errors == []
    assert runner.failed == 0 and len(runner.latencies) == len(ops)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    assert details["samples"] == len(ops)


@pytest.mark.parametrize("tiny_workload", sorted(bench.WORKLOADS), indirect=True)
def test_traced_run(tiny_workload, geoconn):
    name, module, ops = tiny_workload
    metrics, details, runner = bench.traced(name, SEED, 0.0, module, ops, geoconn)
    assert runner.errors == []
    assert runner.failed == 0
    assert details["hooks_missing"] == []
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    # Each workload reaches the layers it exists for.
    busy = {"transport": "kernels.rk4_ms", "verify": "checks.lift_linearity_ms", "tables": "prelie.curvature_components_ms"}
    assert metrics[busy[name]][0] > 0


@pytest.mark.parametrize("tiny_workload", ["transport"], indirect=True)
def test_transport_check_rejects_wrong_matrix(tiny_workload, geoconn):
    _, module, ops = tiny_workload
    op = ops[0]
    out = module.run(op, geoconn)
    assert module.check(op, out, None) is None
    out.transport_matrix = out.transport_matrix * 1.001
    assert "Liouville" in module.check(op, out, None)


@pytest.mark.parametrize("tiny_workload", ["verify"], indirect=True)
def test_verify_check_rejects_wrong_verdict_and_changed_report(tiny_workload, geoconn):
    _, module, ops = tiny_workload
    op = ops[0]
    rc = module.run(op, geoconn)
    assert module.check(op, rc, None) is None
    assert module.check(op, 1 - rc, None) is not None
    op.out_path.write_bytes(op.first_report.replace(b"\n", b"\n ", 1))
    assert "changed" in module.check(op, rc, None)


@pytest.mark.parametrize("tiny_workload", ["tables"], indirect=True)
def test_tables_check_rejects_wrong_value(tiny_workload, geoconn):
    import numpy as np

    _, module, ops = tiny_workload
    op = next(o for o in ops if o.kind == "torsion" and o.fmt == "json")
    rc = module.run(op, geoconn)
    assert module.check(op, rc, np.random.default_rng(0)) is None
    rc = module.run(op, geoconn)
    doc = json.loads(op.out_path.read_text())
    for row in doc["rows"]:
        row[-2] += 1e-6
    op.out_path.write_text(json.dumps(doc))
    assert "reference" in module.check(op, rc, np.random.default_rng(0))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
