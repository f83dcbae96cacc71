"""Every architecture of `network.ARCHS`, end to end through its `ArchSpec`.

Nothing here names an architecture: each case reads what it needs (the
domain, the lattice flag, the default loss, the gate vocabulary and the
input map) from the spec, so an architecture added to `ARCHS` is tested
by these cases as it stands.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import tritnet
import tritnet.algebra as al
import tritnet.analysis as an
import tritnet.circuit as cc
import tritnet.cli as cli
import tritnet.data as dt
import tritnet.network as nw
import tritnet.pipeline as pl
import tritnet.serialize as sz
import tritnet.training as tr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import reference  # noqa: E402

GS = nw.GroupSumConfig(k=2, tau=4.0)
UNKNOWN = "-".join(nw.ARCHS)  # an arch name that is not a key of ARCHS


def run(argv):
    return cli.main([str(a) for a in argv])


def domain_codes(spec, rows, cols, seed):
    """Encoded inputs of an architecture: integers across its domain."""
    lo, hi = spec.domain
    return np.random.default_rng(seed).integers(int(lo), int(hi) + 1, size=(rows, cols))


@pytest.mark.parametrize("arch", list(nw.ARCHS))
def test_every_spec_trains_hardens_saves_and_evaluates(arch, tmp_path):
    spec = nw.ARCHS[arch]
    x = domain_codes(spec, 60, 6, seed=1)
    y = np.random.default_rng(2).integers(0, 2, size=60)
    net = nw.init_network((12, 8, 4), 6, 0, GS, arch=arch)
    assert all(p.shape[1] == spec.n_params for p in net.params)
    cfg = pl.RunRecipe(arch=arch, steps=3, batch_size=10, eval_every=3)
    assert cfg.describe()["loss"] == spec.loss
    net, history = tr.train(net, (x, y), cfg)
    assert [row["step"] for row in history] == [0, 1, 2]
    assert all(np.isfinite(row["loss"]) for row in history)
    assert ("commit_loss" in history[-1]) == spec.lattice
    circuit = cc.harden_network(net)
    assert circuit.arch == arch
    assert np.isin(np.concatenate(circuit.gate_ids), spec.vocab).all()
    assert cc.hardening_error(net) == (tr.commitment_loss(net) if spec.lattice else 0.0)

    sz.save_checkpoint(net, tmp_path / "net.ckpt")
    net_back, _ = sz.load_checkpoint(tmp_path / "net.ckpt")
    assert net_back.arch == arch
    assert all(np.array_equal(p, q) for p, q in zip(net_back.params, net.params))
    sz.save_circuit(circuit, tmp_path / "net.circuit.txt")
    circuit_back, _ = sz.load_circuit(tmp_path / "net.circuit.txt")
    assert circuit_back.arch == arch
    assert circuit_back.provenance == circuit.provenance
    assert all(np.array_equal(g, h) for g, h in zip(circuit_back.gate_ids, circuit.gate_ids))

    trits = spec.trit_inputs(x)
    got = cc.eval_circuit(circuit_back, trits)
    for g, w in zip(got, cc.eval_circuit(circuit, trits)):
        assert np.array_equal(g, w)
    gap = cc.gap_report(net, circuit_back, x, y)
    assert gap.circuit_accuracy == float((got[2] == y).mean())
    div = an.diversity_report(circuit_back)
    assert div.vocab_size == len(spec.vocab)
    assert div.n_neurons == sum(circuit.widths)


def test_arch_flag_and_recipe_accept_exactly_the_archs():
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    for name in ("train", "sweep"):
        flag = next(a for a in commands[name]._actions if a.dest == "arch")
        assert tuple(flag.choices) == tuple(nw.ARCHS)
    for arch in nw.ARCHS:
        assert pl.RunRecipe(arch=arch).arch == arch
    with pytest.raises(ValueError, match="arch must be one of"):
        pl.RunRecipe(arch=UNKNOWN)
    assert run(["train", "--train", "t", "--test", "t", "--arch", UNKNOWN]) == cli.EXIT_USAGE


def test_models_and_encoders_refuse_an_unknown_arch():
    conn = nw.sample_connectivity((4, 2), 3, 0)
    with pytest.raises(ValueError, match="arch must be one of"):
        nw.init_network((4, 2), 3, 0, GS, arch=UNKNOWN)
    with pytest.raises(ValueError, match="arch must be one of"):
        nw.Network(arch=UNKNOWN, conn=conn, groupsum=GS,
                   params=[np.zeros((4, 9)), np.zeros((2, 9))])
    with pytest.raises(ValueError, match="arch must be one of"):
        cc.Circuit(arch=UNKNOWN, conn=conn, groupsum=GS,
                   gate_ids=[np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64)])
    for arch in nw.ARCHS:
        assert dt.EncoderConfig(mode=arch, thresholds_per_feature=1, delta=0.0,
                                lo=(), hi=()).mode == arch
    with pytest.raises(ValueError, match="mode must be one of"):
        dt.EncoderConfig(mode=UNKNOWN, thresholds_per_feature=1, delta=0.0, lo=(), hi=())


def test_the_wiring_alone_holds_a_models_shape_and_seed():
    assert [f.name for f in dataclasses.fields(nw.Network)] == [
        "arch", "conn", "groupsum", "params"]
    assert [f.name for f in dataclasses.fields(cc.Circuit) if f.init] == [
        "arch", "conn", "groupsum", "gate_ids", "provenance"]
    # RunRecipe.seed and TrainConfig.seed seed a run's draws; a model's
    # seed is the one its wiring was drawn with
    checked = []
    for info in pkgutil.iter_modules(tritnet.__path__):
        module = importlib.import_module(f"tritnet.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls):
                fields = {f.name for f in dataclasses.fields(cls)}
                shape = {"input_dim", "widths"} | ({"seed"} if issubclass(cls, nw.Model) else set())
                assert cls is nw.ConnectivityMap or not fields & shape, cls
                checked.append(cls)
    assert {nw.Model, nw.Network, cc.Circuit, nw.ConnectivityMap} <= set(checked)


@pytest.mark.parametrize("arch", list(nw.ARCHS))
def test_models_are_frozen_and_read_their_shape_from_the_wiring(arch, tmp_path):
    net = nw.init_network((6, 4), 5, 3, GS, arch=arch)
    for name in ("params", "conn", "arch", "groupsum", "widths", "input_dim", "seed"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, name, getattr(net, name))
    circuit = cc.harden_network(net)
    for name in ("widths", "input_dim", "seed"):
        with pytest.raises(AttributeError):
            setattr(circuit, name, getattr(circuit, name))
    sz.save_checkpoint(net, tmp_path / "net.ckpt")
    sz.save_circuit(circuit, tmp_path / "net.circuit.txt")
    models = (net, sz.load_checkpoint(tmp_path / "net.ckpt")[0], circuit,
              sz.load_circuit(tmp_path / "net.circuit.txt")[0])
    for m in models:
        assert m.widths is m.conn.widths
        assert m.input_dim is m.conn.input_dim
        assert m.seed is m.conn.seed
        assert (m.widths, m.input_dim, m.seed) == ((6, 4), 5, 3)
        assert m.n_neurons == 10


@pytest.mark.parametrize("arch", list(nw.ARCHS))
def test_benchmark_reference_reads_every_archs_circuit(arch):
    spec = nw.ARCHS[arch]
    net = nw.init_network((12, 10, 8), 5, 1, GS, arch=arch)
    circuit = cc.harden_network(net)
    x = np.vstack([spec.trit_inputs(domain_codes(spec, 100, 5, seed=4)),
                   np.random.default_rng(5).integers(-1, 2, size=(200, 5))])
    for got, want in zip(cc.eval_circuit(circuit, x),
                         reference.reference_eval(circuit, x, al.all_tables())):
        assert np.array_equal(got, want)
    n_live = sum(len(keep) for keep, _, _ in circuit.conn.live)
    assert n_live < circuit.n_neurons
    assert reference.live_neuron_share(circuit) == n_live / circuit.n_neurons


def test_bench_reports_one_row_per_arch(tmp_path, capsys):
    rc = run(["bench", "--widths", "4", "--output-neurons", "2", "--input-dim", "4",
              "--batch", "8", "--steps", "2", "--warmup", "0",
              "--out", tmp_path, "--name", "bm"])
    assert rc == cli.EXIT_OK
    rows = [line.split("\t") for line in open(tmp_path / "bm.tsv").read().splitlines()
            if not line.startswith("#")]
    assert [row[0] for row in rows[1:]] == list(nw.ARCHS)
    doc = sz.load_manifest(tmp_path / "bm.manifest.json")
    assert sorted(doc["results"]) == sorted(nw.ARCHS)  # the manifest sorts its keys
    base, *others = nw.ARCHS
    assert all(doc[f"ratio_{arch}_over_{base}"] > 0 for arch in others)
    out = capsys.readouterr().out
    assert all(f"{arch} " in out for arch in nw.ARCHS)


@pytest.mark.parametrize("arch", list(nw.ARCHS))
def test_cli_runs_every_arch_and_refuses_gates_outside_its_vocabulary(arch, tmp_path,
                                                                     capsys):
    out = str(tmp_path)
    assert run(["gen-data", "--kind", "moons", "--n", 60, "--noise", "0.1",
                "--train-frac", "0.5", "--out", out, "--name", "m"]) == cli.EXIT_OK
    data = os.path.join(out, "m.test.txt")
    assert run(["train", "--train", os.path.join(out, "m.train.txt"), "--test", data,
                "--arch", arch, "--widths", "8", "--output-neurons", "4", "--steps", 4,
                "--batch", 8, "--eval-every", 2, "--out", out, "--name", "r"]) == cli.EXIT_OK
    path = os.path.join(out, "r.circuit.txt")
    assert sz.load_circuit(path)[0].arch == arch
    assert run(["eval", "--circuit", path, "--data", data, "--diversity",
                "--out", out, "--name", "e"]) == cli.EXIT_OK
    doc = sz.load_manifest(os.path.join(out, "e.manifest.json"))
    assert doc["diversity"]["vocab_size"] == len(nw.ARCHS[arch].vocab)

    # the smallest id outside the vocabulary: out of range if the vocabulary is all 3^9
    vocab = nw.ARCHS[arch].vocab
    stray = int(np.setdiff1d(np.arange(3**9 + 1), vocab)[0])
    lines = open(path).read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("gates 0 "))
    lines[i] = lines[i].rsplit(" ", 1)[0] + f" {stray}"
    bad = os.path.join(out, "bad.circuit.txt")
    open(bad, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run(["eval", "--circuit", bad, "--data", data, "--out", out, "--name", "b"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"line {i + 1}:" in err and str(stray) in err
