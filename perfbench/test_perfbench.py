"""Tests of the benchmark itself, at the tiny --smoke sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "src"))

import tritnet.circuit as cc  # noqa: E402
import tritnet.network as nw  # noqa: E402

from perfbench import reference, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def run_bench(workdir, *args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_every_workload_and_prints_declared_metrics(tmp_path, trace, kind):
    proc = run_bench(tmp_path, "--workload", "all", "--seed", 3, "--seconds", 0.2,
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    for name in workloads.WORKLOADS:
        got = {key.split(".", 1)[1]: m["unit"] for key, m in result["metrics"].items()
               if key.startswith(name + ".")}
        assert got == declared(kind), name
    if trace == 0:
        assert result["metrics"]["train_wall_ratio_binary_over_ternary"]["value"] > 0
    else:
        assert result["metrics"]["train-binary.network.binary_gate_relaxation.calls"]["value"] > 0
        assert result["metrics"]["train-ternary.trace.absent_functions"]["value"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "work", "--workload", "train-ternary", "--seed", 0,
                     "--seconds", 1, "--trace", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _smoke_bench(tmp_path, name):
    bench = workloads.Bench(name, workloads.SMOKE, 0, str(tmp_path))
    bench.setup()
    bench.run_train()
    bench.prepare_eval()
    assert bench.failures == []
    return bench


def test_checks_catch_wrong_circuit_outputs(tmp_path, monkeypatch):
    bench = _smoke_bench(tmp_path, "train-ternary")
    real = cc.eval_circuit

    def flipped(circuit, x):
        outputs, scores, preds, margins = real(circuit, x)
        return outputs, scores, 1 - preds, margins

    monkeypatch.setattr(cc, "eval_circuit", flipped)
    bench.eval_small(0)
    bench.eval_large()
    assert len(bench.failures) == 2
    assert "predictions differ" in bench.failures[0]
    assert "eval large" in bench.failures[1]


def test_checks_catch_a_broken_hardening_identity(tmp_path, monkeypatch):
    bench = _smoke_bench(tmp_path, "train-ternary")
    real = cc.hardening_error
    monkeypatch.setattr(cc, "hardening_error", lambda net: real(net) + 1e-9)
    bench.run_train()
    assert len(bench.failures) == 1 and "hardening error" in bench.failures[0]


def test_reference_matches_eval_circuit_and_counts_live_neurons():
    rng = np.random.default_rng(0)
    net = nw.init_network((12, 10, 8), 5, 1, nw.GroupSumConfig(2, 3.0))
    circuit = cc.harden_network(net)
    x = rng.integers(-1, 2, size=(300, 5))
    for got, want in zip(cc.eval_circuit(circuit, x),
                         reference.reference_eval(circuit, x, workloads.algebra.all_tables())):
        assert np.array_equal(got, want)
    live = np.ones(8, bool)
    n_live = 8
    for layer in (2, 1):
        s, t = circuit.conn.layers[layer]
        parents = np.zeros(circuit.widths[layer - 1], bool)
        parents[np.concatenate([s[live], t[live]])] = True
        live = parents
        n_live += int(live.sum())
    assert reference.live_neuron_share(circuit) == n_live / 30


def _fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "import time\n\ndef leaf(n):\n    time.sleep(0.01 * n)\n\n"
        "def _private():\n    pass\n")
    (pkg / "b.py").write_text(
        "from .a import leaf\n\ndef outer():\n    leaf(1)\n    leaf(2)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.a
    import fakepkg.b
    return fakepkg.a, fakepkg.b


def test_tracer_patches_imported_names_and_computes_self_time(tmp_path, monkeypatch):
    a, b = _fake_package(tmp_path, monkeypatch)
    original = a.leaf
    tracer = Tracer({"a": a, "b": b}, package="fakepkg")
    assert set(tracer.public_functions()) == {"a.leaf", "b.outer"}
    with tracer:
        assert b.leaf is not original
        b.outer()
        with tracer.paused():
            a.leaf(0)
    assert a.leaf is original and b.leaf is original
    stats = tracer.stats()
    assert stats["a.leaf"]["calls"] == 2 and stats["b.outer"]["calls"] == 1
    assert stats["a.leaf"]["ms"] >= 30.0
    outer = stats["b.outer"]
    assert 0.0 <= outer["self_ms"] < 5.0
    assert outer["self_ms"] == pytest.approx(outer["ms"] - stats["a.leaf"]["ms"])
    names, spans = tracer.dump()["names"], tracer.dump()["spans"]
    assert [names[s[0]] for s in spans] == ["b.outer", "a.leaf", "a.leaf"]
    assert [s[3] for s in spans] == [-1, 0, 0]


def test_removed_function_is_reported_absent(tmp_path, monkeypatch):
    a, _ = _fake_package(tmp_path, monkeypatch)
    from perfbench import run

    tracer = Tracer({"a": a}, package="fakepkg")
    with tracer:
        a.leaf(0)
    passes = [{"tracer": None, "wall_s": 1.0, "live_neuron_share": 0.5}] + [
        {"tracer": tracer, "wall_s": 1.0, "live_neuron_share": 0.5}] * 2
    monkeypatch.setattr(run, "PER_LAYER", ("a.leaf.calls", "a.gone.ms",
                                           "trace_overhead_pct", "trace.absent_functions"))
    values, absent, problems = run.per_layer(passes)
    assert values["a.leaf.calls"] == 1 and values["a.gone.ms"] == 0
    assert absent == ["a.gone"] and values["trace.absent_functions"] == 1
    assert values["trace_overhead_pct"] == 0.0 and problems == []
