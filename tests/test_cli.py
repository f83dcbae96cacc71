"""End-to-end command line checks, run in process via cli.main()."""

import dataclasses
import filecmp
import json
import os
import platform
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tritnet.algebra as al
import tritnet.circuit as cc
import tritnet.cli as cli
import tritnet.network as nw
import tritnet.pipeline as pl
import tritnet.serialize as sz

TINY = ["--widths", "8", "--output-neurons", "4", "--steps", "20",
        "--batch", "16", "--eval-every", "10", "--seed", "1"]


def run(argv):
    return cli.main([str(a) for a in argv])


def gen_moons(out, name="m", n=60):
    rc = run(["gen-data", "--kind", "moons", "--n", n, "--noise", "0.1",
              "--train-frac", "0.5", "--out", out, "--name", name])
    assert rc == cli.EXIT_OK
    return os.path.join(out, f"{name}.train.txt"), os.path.join(out, f"{name}.test.txt")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny ternary run and one binary run shared by the read-only tests."""
    out = str(tmp_path_factory.mktemp("trained"))
    train, test = gen_moons(out)
    for name, arch in (("run", "ternary"), ("bin", "binary")):
        rc = run(["train", "--train", train, "--test", test, "--arch", arch,
                  "--out", out, "--name", name, *TINY])
        assert rc == cli.EXIT_OK
    return {"out": out, "train": train, "test": test,
            "ckpt": os.path.join(out, "run.ckpt"),
            "circuit": os.path.join(out, "run.circuit.txt"),
            "manifest": os.path.join(out, "run.manifest.json"),
            "binary-ckpt": os.path.join(out, "bin.ckpt"),
            "binary-circuit": os.path.join(out, "bin.circuit.txt")}


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_split_and_manifest(tmp_path):
    train, test = gen_moons(str(tmp_path), n=50)
    assert sz.load_dataset(train).n == 25
    assert sz.load_dataset(test).n == 25
    doc = sz.load_manifest(tmp_path / "m.manifest.json")
    assert doc["command"] == "gen-data"
    assert doc["config"]["kind"] == "moons"
    assert doc["decision_flags"] == sz.DECISION_FLAGS
    assert set(doc["artifact_paths"]) == {"train", "test"}
    for digest in doc["artifacts"].values():
        assert len(digest) == 64


def test_gen_data_overwrite_needs_force(tmp_path, capsys):
    train, _ = gen_moons(str(tmp_path))
    before = open(train, "rb").read()
    rc = run(["gen-data", "--kind", "moons", "--n", 60, "--noise", "0.1",
              "--train-frac", "0.5", "--out", str(tmp_path), "--name", "m"])
    assert rc == cli.EXIT_USAGE
    assert "refusing to overwrite" in capsys.readouterr().err
    rc = run(["gen-data", "--kind", "moons", "--n", 60, "--noise", "0.1",
              "--train-frac", "0.5", "--out", str(tmp_path), "--name", "m",
              "--force"])
    assert rc == cli.EXIT_OK
    assert open(train, "rb").read() == before  # same seed, same bytes


def test_gen_data_rejects_empty_split(tmp_path, capsys):
    rc = run(["gen-data", "--kind", "moons", "--n", 10, "--train-frac", "0.0",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "empty split" in capsys.readouterr().err


# --------------------------------------------------------------------- train

def test_train_writes_artifacts(trained, capsys):
    for key in ("ckpt", "circuit", "manifest"):
        assert os.path.exists(trained[key])
    assert os.path.exists(os.path.join(trained["out"], "run.history.jsonl"))
    doc = sz.load_manifest(trained["manifest"])
    assert doc["command"] == "train"
    assert doc["config"]["steps"] == 20
    assert 0.0 <= doc["gap_report"]["circuit_accuracy"] <= 1.0
    # the live-neuron counts sit beside the config, which --config replays
    net, _ = sz.load_checkpoint(trained["ckpt"])
    assert doc["widths"] == [8, 4]
    assert doc["live_neurons"] == [len(keep) for keep, _, _ in net.conn.live]
    assert doc["live_share"] == sum(doc["live_neurons"]) / 12
    assert "live_neurons" not in doc["config"]
    history = sz.load_history(os.path.join(trained["out"], "run.history.jsonl"))
    assert [r["step"] for r in history][:2] == [0, 1]
    # the saved circuit is traceable to the exact checkpoint bytes
    circ, enc = sz.load_circuit(trained["circuit"])
    assert enc is not None
    import tritnet.circuit as cc
    assert circ.provenance["source_sha256"] == cc.file_sha256(trained["ckpt"])


def test_train_prints_encoder_summary(tmp_path, capsys):
    train, test = gen_moons(str(tmp_path))
    rc = run(["train", "--train", train, "--test", test, "--out", str(tmp_path),
              "--name", "r2", *TINY])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "encoder: K=3 thresholds per feature (resolution = 4)" in out
    assert "circuit accuracy" in out


# ------------------------------------------------------------ harden + eval

def test_harden_matches_train_circuit(trained, tmp_path):
    rc = run(["harden", "--checkpoint", trained["ckpt"], "--data",
              trained["test"], "--out", str(tmp_path), "--name", "h"])
    assert rc == cli.EXIT_OK
    a, _ = sz.load_circuit(trained["circuit"])
    b, _ = sz.load_circuit(tmp_path / "h.circuit.txt")
    for ia, ib in zip(a.gate_ids, b.gate_ids):
        assert np.array_equal(ia, ib)
    gap = open(tmp_path / "h.gap.tsv").read().splitlines()
    assert gap[1].split("\t")[0] == "soft_acc_pct"
    doc = sz.load_manifest(tmp_path / "h.manifest.json")
    assert "gap_report" in doc and "hardening_error" in doc
    train_doc = sz.load_manifest(trained["manifest"])
    assert doc["live_neurons"] == train_doc["live_neurons"]


def test_eval_writes_requested_reports(trained, tmp_path):
    rc = run(["eval", "--circuit", trained["circuit"], "--data", trained["test"],
              "--selective", "--diversity", "--spectral",
              "--out", str(tmp_path), "--name", "e"])
    assert rc == cli.EXIT_OK
    for suffix in ("metrics", "selective", "diversity", "spectral"):
        assert os.path.exists(tmp_path / f"e.{suffix}.tsv"), suffix
    metrics = open(tmp_path / "e.metrics.tsv").read().splitlines()
    assert metrics[1] == "circuit_acc_pct\tunknown_pct\tn"
    sel = open(tmp_path / "e.selective.tsv").read()
    assert "AUC (sign-flipped, lower is better):" in sel
    doc = sz.load_manifest(tmp_path / "e.manifest.json")
    assert {"accuracy", "unknown_fraction", "selective_auc",
            "diversity", "spectral"} <= set(doc)
    train_doc = sz.load_manifest(trained["manifest"])
    assert doc["live_neurons"] == train_doc["live_neurons"]



@pytest.mark.parametrize("file,name", [("run.circuit.txt", "run"),
                                       ("my.circuitry.circuit.txt", "my.circuitry")])
def test_eval_names_outputs_without_a_trailing_circuit(trained, tmp_path, file, name):
    circuit = tmp_path / file
    circuit.write_bytes(open(trained["circuit"], "rb").read())
    rc = run(["eval", "--circuit", circuit, "--data", trained["test"], "--out", tmp_path])
    assert rc == cli.EXIT_OK
    assert os.path.exists(tmp_path / f"{name}.metrics.tsv")
    assert os.path.exists(tmp_path / f"{name}.manifest.json")


def test_eval_unknown_fraction_is_the_mean_bit_for_bit(trained, tmp_path):
    from fractions import Fraction

    import tritnet.data as dt

    rc = run(["eval", "--circuit", trained["circuit"], "--data", trained["test"],
              "--out", str(tmp_path), "--name", "unk"])
    assert rc == cli.EXIT_OK
    circuit, encoder = sz.load_circuit(trained["circuit"])
    ds = sz.load_dataset(trained["test"])
    outputs, _, _, _ = cc.eval_circuit(circuit, dt.encode(ds.features, encoder))
    count = int((outputs == 0).sum())
    denominator = Fraction(count, outputs.size).denominator
    assert denominator & (denominator - 1)  # not a power of two: an inexact share
    doc = sz.load_manifest(tmp_path / "unk.manifest.json")
    assert doc["unknown_fraction"] == float((outputs == 0).mean())

def test_eval_selective_runs_the_circuit_once(trained, tmp_path, monkeypatch):
    import tritnet.analysis as an
    import tritnet.circuit as cc
    import tritnet.data as dt

    calls = []
    real = cc.eval_circuit

    def counted(circuit, x, **kwargs):
        calls.append(len(x))
        return real(circuit, x, **kwargs)

    monkeypatch.setattr(cc, "eval_circuit", counted)
    monkeypatch.setattr(an, "eval_circuit", counted)
    rc = run(["eval", "--circuit", trained["circuit"], "--data", trained["test"],
              "--selective", "--out", str(tmp_path), "--name", "once"])
    assert rc == cli.EXIT_OK
    assert len(calls) == 1
    # the report matches the curve the circuit-taking wrapper computes
    circuit, encoder = sz.load_circuit(trained["circuit"])
    ds = sz.load_dataset(trained["test"])
    curve = an.selective_curve(circuit, dt.encode(ds.features, encoder), ds.labels)
    rows = open(tmp_path / "once.selective.tsv").read().splitlines()[3:]
    assert rows == [f"{c:.2f}\t{100 * a:.2f}" for c, a in curve.points]
    doc = sz.load_manifest(tmp_path / "once.manifest.json")
    assert doc["selective_auc"] == curve.auc


@pytest.fixture(scope="module")
def multi_chunk_data(tmp_path_factory):
    """A moons file of more than three row blocks, so that every worker
    of the circuit engine takes several chunks."""
    import tritnet.data as dt

    path = tmp_path_factory.mktemp("chunks") / "big.txt"
    sz.save_dataset(dt.gen_dataset("moons", 3 * cc.BLOCK_ROWS + 1001, 0.3, seed=5), path)
    return path


def test_streamed_eval_reports_what_the_four_results_give(trained, multi_chunk_data,
                                                          tmp_path):
    from fractions import Fraction

    import tritnet.analysis as an
    import tritnet.data as dt

    rc = run(["eval", "--circuit", trained["circuit"], "--data", multi_chunk_data,
              "--selective", "--out", str(tmp_path), "--name", "big"])
    assert rc == cli.EXIT_OK
    circuit, encoder = sz.load_circuit(trained["circuit"])
    ds = sz.load_dataset(multi_chunk_data)
    outputs, _, preds, margins = cc.eval_circuit(circuit, dt.encode(ds.features, encoder))
    acc = float((preds == ds.labels).mean())
    unk = al.unknown_share(outputs)
    denominator = Fraction(outputs.size - np.count_nonzero(outputs), outputs.size).denominator
    assert denominator & (denominator - 1)  # not a power of two: an inexact share
    curve = an.coverage_curve(preds, margins, ds.labels)
    metrics = open(tmp_path / "big.metrics.tsv").read().splitlines()
    assert metrics[2:] == [f"{100 * acc:.2f}\t{100 * unk:.2f}\t{ds.n}"]
    selective = open(tmp_path / "big.selective.tsv").read().splitlines()
    assert selective[1] == f"# AUC (sign-flipped, lower is better): {-curve.auc:.4f}"
    assert selective[3:] == [f"{c:.2f}\t{100 * a:.2f}" for c, a in curve.points]
    doc = sz.load_manifest(tmp_path / "big.manifest.json")
    assert (doc["accuracy"], doc["unknown_fraction"], doc["selective_auc"]) == (
        acc, unk, curve.auc)


def test_eval_does_not_build_the_output_array(tmp_path, monkeypatch):
    # after the inputs are in memory, the rest of `tritnet eval` (the
    # circuit, the counts, the selective curve, the reports) peaks
    # below the (n, w) int8 output array it has no use for
    import tracemalloc

    import tritnet.data as dt

    ds = dt.gen_dataset("moons", 60_000, 0.3, seed=6)
    sz.save_dataset(ds, tmp_path / "big.txt")
    encoder = dt.fit_encoder(ds.features, 3, 0.5)
    net = nw.init_network((64, 256), encoder.encoded_dim, 7, nw.GroupSumConfig(2, 8.0))
    sz.save_circuit(cc.harden_network(net), tmp_path / "wide.circuit.txt", encoder)
    inputs = []
    real = cc.eval_circuit

    def entered(*args, **kwargs):
        tracemalloc.reset_peak()
        inputs.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cc, "eval_circuit", entered)
    tracemalloc.start()
    try:
        rc = run(["eval", "--circuit", tmp_path / "wide.circuit.txt",
                  "--data", tmp_path / "big.txt", "--selective",
                  "--out", str(tmp_path), "--name", "wide"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_OK and len(inputs) == 1
    assert peak - inputs[0] < ds.n * 256


def test_binary_pipeline_round_trip(tmp_path):
    train, test = gen_moons(str(tmp_path))
    rc = run(["train", "--train", train, "--test", test, "--arch", "binary",
              "--out", str(tmp_path), "--name", "b", *TINY])
    assert rc == cli.EXIT_OK
    rc = run(["eval", "--circuit", tmp_path / "b.circuit.txt", "--data", test,
              "--out", str(tmp_path), "--name", "be"])
    assert rc == cli.EXIT_OK
    doc = sz.load_manifest(tmp_path / "be.manifest.json")
    assert doc["unknown_fraction"] == 0.0  # boolean circuits cannot abstain


# ------------------------------------------------------------- config replay

def test_config_replay_reproduces_checkpoint(tmp_path):
    train, test = gen_moons(str(tmp_path))
    args = ["--train", train, "--test", test, *TINY, "--steps", "25",
            "--seed", "3", "--delta", "0.5"]
    rc = run(["train", *args, "--out", str(tmp_path), "--name", "orig"])
    assert rc == cli.EXIT_OK
    rc = run(["train", "--config", tmp_path / "orig.manifest.json",
              "--train", train, "--test", test,
              "--out", str(tmp_path), "--name", "replay"])
    assert rc == cli.EXIT_OK
    orig = sz.load_manifest(tmp_path / "orig.manifest.json")
    replay = sz.load_manifest(tmp_path / "replay.manifest.json")
    assert orig["config"] == replay["config"]
    assert filecmp.cmp(tmp_path / "orig.ckpt", tmp_path / "replay.ckpt",
                       shallow=False)


def test_explicit_flag_beats_config_file(tmp_path):
    train, test = gen_moons(str(tmp_path))
    rc = run(["train", "--train", train, "--test", test, *TINY,
              "--out", str(tmp_path), "--name", "base"])
    assert rc == cli.EXIT_OK
    rc = run(["train", "--config", tmp_path / "base.manifest.json",
              "--train", train, "--test", test, "--steps", "11",
              "--out", str(tmp_path), "--name", "over"])
    assert rc == cli.EXIT_OK
    assert sz.load_manifest(tmp_path / "over.manifest.json")["config"]["steps"] == 11


def test_config_null_keeps_the_default(tmp_path):
    train, test = gen_moons(str(tmp_path))
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"config": {"lr": None, "loss": None}}))
    rc = run(["train", "--config", path, "--train", train, "--test", test,
              *TINY, "--out", str(tmp_path), "--name", "null"])
    assert rc == cli.EXIT_OK
    config = sz.load_manifest(tmp_path / "null.manifest.json")["config"]
    assert config["lr"] == 0.01 and config["loss"] == "mse"


def test_config_file_missing_is_usage_error(tmp_path, capsys):
    rc = run(["train", "--config", tmp_path / "nope.json",
              "--train", "x", "--test", "y"])
    assert rc == cli.EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("widths", [(0,), (-3,), (8, 0)])
def test_recipe_refuses_non_positive_body_widths(widths):
    with pytest.raises(ValueError, match=re.escape(f"body widths must be >= 1, got {widths}")):
        pl.RunRecipe(body_widths=widths)


@pytest.mark.parametrize("field, bad, good", [
    ("body_widths", (2.5,), (np.int64(8),)), ("output_neurons", 4.0, np.int32(4)),
    ("k", 2.0, np.int64(2)), ("thresholds", 2.5, np.int16(3)),
    ("steps", 2.5, np.int64(5)), ("batch_size", 2.5, np.uint8(10)),
    ("eval_every", 1.5, np.int64(5)), ("seed", 0.5, np.int64(1)),
    # a bool would reach the manifest as true/false, which no integer
    # flag of --config reads back
    ("body_widths", (True,), (8,)), ("output_neurons", True, 4), ("k", True, 2),
    ("thresholds", True, 3), ("steps", True, 5), ("batch_size", True, 10),
    ("eval_every", True, 5), ("seed", True, 1)])
def test_recipe_refuses_non_integer_knobs(field, bad, good):
    pl.RunRecipe(**{field: good})
    with pytest.raises(ValueError, match=rf"{field}\S* must be an integer, got"):
        pl.RunRecipe(**{field: bad})


def test_every_recipe_field_has_one_flag():
    parser = cli.build_parser()
    train = next(a.choices for a in parser._actions if a.dest == "command")["train"]
    dests = {a.dest: a.default for a in train._actions}
    for f in dataclasses.fields(pl.RunRecipe):
        assert dests[f.name] == f.default, f.name
    assert set(cli._RECIPE_FLAGS) == {f.name for f in dataclasses.fields(pl.RunRecipe)}


@pytest.mark.parametrize("command", ["gen-data", "train", "harden", "eval",
                                     "sweep", "bench"])
def test_config_replays_every_command(trained, tmp_path, command):
    data = ["--train", trained["train"], "--test", trained["test"]]
    argv = {
        "gen-data": ["--kind", "circles", "--n", 40, "--noise", "0.2", "--seed", 4,
                     "--sep", "1.5", "--train-frac", "0.75"],
        "train": [*data, *TINY, "--arch", "binary", "--delta", "0.5", "--loss", "mse"],
        "harden": ["--checkpoint", trained["ckpt"], "--data", trained["test"]],
        "eval": ["--circuit", trained["circuit"], "--data", trained["test"],
                 "--selective"],
        "sweep": ["--kind", "delta", "--deltas", "0.0,1.0", *data, *TINY],
        "bench": ["--widths", "4,4", "--output-neurons", "2", "--input-dim", "4",
                  "--batch", "8", "--steps", "2", "--warmup", "1", "--seed", "3"],
    }[command]
    rc = run([command, *argv, "--out", tmp_path / "a", "--name", "orig"])
    assert rc == cli.EXIT_OK
    extra = data if command == "train" else []
    assert run([command, "--config", tmp_path / "a" / "orig.manifest.json", *extra,
                "--out", tmp_path / "b", "--name", "replay"]) == cli.EXIT_OK
    orig = sz.load_manifest(tmp_path / "a" / "orig.manifest.json")
    replay = sz.load_manifest(tmp_path / "b" / "replay.manifest.json")
    assert orig["config"] == replay["config"]
    if command == "train":
        assert filecmp.cmp(tmp_path / "a" / "orig.ckpt", tmp_path / "b" / "replay.ckpt",
                           shallow=False)


@pytest.mark.parametrize("doc", [
    {"batch_size": 1.5}, {"k": 2.0}, {"steps": True}, {"steps": 2.5},
    {"eval_every": 1.5}, {"thresholds": 1.5}, {"body_widths": [8, "x"]},
    {"arch": "quantum"}, {"lr": {"value": 0.1}}, [1, 2], {"config": [1]},
], ids=["batch-float", "k-float", "steps-bool", "steps-float", "eval-every-float",
        "thresholds-float", "widths-text", "arch-choice", "lr-object",
        "document-list", "config-list"])
def test_malformed_config_is_usage_error(trained, tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = run(["train", "--config", path, "--train", trained["train"],
              "--test", trained["test"], "--out", out])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not out.exists() or os.listdir(out) == []


def test_config_cannot_ask_for_help_or_carry_nul(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"help": True, "checkpoint": "a\0b"}))
    rc = run(["harden", "--config", path, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE and "argument --checkpoint" in err


def _mutate_manifest(doc, ops):
    """Drop, null, retype or nest keys of the config block (or of the
    document around it), or replace the whole document."""
    for op, top, i, value in ops:
        target = doc if top or not isinstance(doc.get("config"), dict) else doc["config"]
        if op == "document":
            return value
        if not target:
            continue
        key = sorted(target)[i % len(target)]
        if op == "drop":
            del target[key]
        elif op == "null":
            target[key] = None
        elif op == "retype":
            target[key] = value
        else:
            target[key] = [target[key]] if i % 2 else {"value": target[key]}
    return doc


CONFIG_VALUES = st.sampled_from([
    None, True, False, 0, -1, 3, 1.5, 1e308, float("nan"), float("inf"), 10**30,
    "", "x", "-1", "8,x", "=", [], [8, "x"], [[8]], [4, 4], {}, {"a": 1}])
CONFIG_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["drop", "null", "retype", "nest", "document"]),
    st.booleans(), st.integers(0, 60), CONFIG_VALUES), min_size=1, max_size=4)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=CONFIG_MUTATIONS, cut=st.none() | st.integers(0, 2000))
def test_mutated_config_fails_cleanly(trained, tmp_path, capsys, ops, cut):
    doc = _mutate_manifest(sz.load_manifest(trained["manifest"]), ops)
    text = json.dumps(doc)
    path = tmp_path / "mutated.json"
    path.write_text(text if cut is None else text[:cut])
    missing = tmp_path / "missing.txt"
    capsys.readouterr()
    rc = run(["train", "--config", path, "--train", missing, "--test", missing,
              "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_USAGE, cli.EXIT_DATA)
    assert err.startswith("usage error:" if rc == cli.EXIT_USAGE else "data error:")
    assert "Traceback" not in err


# -------------------------------------------------------------- sweep, bench

def test_delta_sweep_table(tmp_path):
    train, test = gen_moons(str(tmp_path))
    rc = run(["sweep", "--kind", "delta", "--deltas", "0.0,1.0",
              "--train", train, "--test", test, *TINY,
              "--out", str(tmp_path), "--name", "sw"])
    assert rc == cli.EXIT_OK
    lines = open(tmp_path / "sw.tsv").read().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split("\t")[0] == "delta"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3
    doc = sz.load_manifest(tmp_path / "sw.manifest.json")
    assert len(doc["rows"]) == 2


def test_sweep_without_data_is_usage_error(tmp_path, capsys):
    rc = run(["sweep", "--kind", "delta", "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "needs --train and --test" in capsys.readouterr().err


def test_sweep_reads_only_the_list_of_its_kind(tmp_path, capsys):
    rc = run(["sweep", "--kind", "delta", "--seps", "x", "--thresholds-list", "-",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "needs --train and --test" in capsys.readouterr().err


def test_bench_warns_when_steps_too_few(tmp_path, capsys):
    rc = run(["bench", "--widths", "4", "--output-neurons", "2",
              "--input-dim", "4", "--batch", "8", "--steps", "3",
              "--warmup", "1", "--out", str(tmp_path), "--name", "bm"])
    assert rc == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "timing variance" in captured.err
    assert "ms/step" in captured.out
    doc = sz.load_manifest(tmp_path / "bm.manifest.json")
    assert doc["ratio_binary_over_ternary"] > 0
    assert f"{100 * doc['live_share']:.1f}% of neurons live" in captured.out
    assert doc["widths"] == [4, 2] and doc["live_neurons"][-1] == 2
    assert doc["warning"] is not None
    table = [ln.split("\t") for ln in open(tmp_path / "bm.tsv").read().splitlines()
             if not ln.startswith("#")]
    assert table[0][-2:] == ["circuit_samples_per_s_1e3", "circuit_samples_per_s_1e5"]
    rates = []
    for arch, row in zip(("ternary", "binary"), table[1:]):
        per_s = doc["results"][arch]["circuit_samples_per_s"]
        assert list(per_s) == ["1000", "100000"]
        assert all(rate > 0 for rate in per_s.values())
        assert row[0] == arch and row[-2:] == [f"{rate:.0f}" for rate in per_s.values()]
        rates.append(f"{arch} " + "/".join(row[-2:]))
    assert f"circuit samples/s at 10^3/10^5 rows: {', '.join(rates)}" in captured.out


def test_bench_records_the_distinct_rows_it_evaluates(tmp_path):
    # 4 inputs have 81 trit rows, which both batches of random rows hold
    rc = run(["bench", "--widths", "4", "--output-neurons", "2", "--input-dim", "4",
              "--batch", "8", "--steps", "2", "--warmup", "0",
              "--out", str(tmp_path), "--name", "bm"])
    assert rc == cli.EXIT_OK
    results = sz.load_manifest(tmp_path / "bm.manifest.json")["results"]
    table = [ln.split("\t") for ln in open(tmp_path / "bm.tsv").read().splitlines()
             if not ln.startswith("#")]
    assert table[0][4:6] == ["circuit_distinct_rows_1e3", "circuit_distinct_rows_1e5"]
    for arch, row in zip(("ternary", "binary"), table[1:]):
        assert results[arch]["circuit_distinct_rows"] == {"1000": 81, "100000": 81}
        assert row[0] == arch and row[4:6] == ["81", "81"]


def test_bench_times_the_counted_eval(monkeypatch):
    calls = []
    real = cc.eval_circuit

    def spy(circuit, x, **kwargs):
        calls.append(kwargs)
        return real(circuit, x, **kwargs)

    monkeypatch.setattr(cc, "eval_circuit", spy)
    rates, distinct = pl._bench_circuit("ternary", (8, 4), 3, 2, 0)
    assert calls and all(kw == {"outputs": False} for kw in calls)
    assert list(rates) == list(distinct) == ["1000", "100000"]
    assert distinct == {"1000": 27, "100000": 27}


def test_bench_records_its_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    rc = run(["bench", "--widths", "4", "--output-neurons", "2", "--input-dim", "4",
              "--batch", "8", "--steps", "2", "--warmup", "0",
              "--out", str(tmp_path), "--name", "bm"])
    assert rc == cli.EXIT_OK
    env = sz.load_manifest(tmp_path / "bm.manifest.json")["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count() >= 1
    assert env["cpus_available"] == len(os.sched_getaffinity(0)) >= 1
    assert env["circuit_workers"] == cc._workers()
    assert 1 <= env["circuit_workers"] <= env["cpus_available"]
    assert env["OMP_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert "OPENBLAS_NUM_THREADS" in env
    comments = [ln for ln in open(tmp_path / "bm.tsv").read().splitlines()
                if ln.startswith("# environment: ")]
    assert len(comments) == 1
    assert sorted(comments[0][len("# environment: "):].split(", ")) == sorted(
        f"{key} {value}" for key, value in env.items())


# ---------------------------------------------------------------- exit codes

def test_exit_code_for_missing_dataset(tmp_path, capsys):
    rc = run(["train", "--train", tmp_path / "no.txt", "--test",
              tmp_path / "no.txt", "--out", str(tmp_path)])
    assert rc == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_exit_code_for_running_out_of_memory(trained, tmp_path, monkeypatch, capsys):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array with shape "
                          "(100000, 128000) and data type int8")

    monkeypatch.setattr(cc, "eval_circuit", too_big)
    rc = run(["eval", "--circuit", trained["circuit"], "--data", trained["test"],
              "--out", str(tmp_path), "--name", "oom"])
    assert rc == cli.EXIT_MEMORY == 4
    err = capsys.readouterr().err
    assert err == ("memory error: Unable to allocate 11.9 GiB for an array with "
                   "shape (100000, 128000) and data type int8\n")
    assert "Traceback" not in err


def test_exit_code_for_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,label\n0.1,0.2,oops\n")
    rc = run(["train", "--train", bad, "--test", bad, "--out", str(tmp_path)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "line 2" in err


def _duplicate_line(prefix):
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        return lines[:i + 1] + lines[i:]
    return edit


def _replace_prefix(old, new):
    return lambda lines: [new + ln[len(old):] if ln.startswith(old) else ln
                          for ln in lines]


def _set_field(prefix, index, value):
    """Set the index-th space-separated field of the line starting with prefix."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        fields = lines[i].split(" ")
        fields[index] = value
        return lines[:i] + [" ".join(fields)] + lines[i + 1:]
    return edit


def _insert_before(prefix, line):
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        return lines[:i] + [line] + lines[i:]
    return edit


def _reverse_body(lines):
    i = lines.index("---") + 1
    return lines[:i] + lines[i:][::-1]


def _set_encoder(change):
    """Rewrite the encoder JSON after applying change(dict) to it."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.startswith("encoder "))
        enc = json.loads(lines[i][len("encoder "):])
        change(enc)
        return lines[:i] + ["encoder " + json.dumps(enc)] + lines[i + 1:]
    return edit


MALFORMED = {
    "gates-layer": ("circuit", _replace_prefix("gates 1 ", "gates x ")),
    "gate-id": ("circuit", _replace_prefix("gates 0 ", "gates 0 7 y ")),
    "parent-index": ("circuit", _replace_prefix("parents_t 0 ", "parents_t 0 1.5 ")),
    "gates-layer-range": ("circuit", _replace_prefix("gates 1 ", "gates 5 ")),
    "duplicate-gates": ("circuit", _duplicate_line("gates 0 ")),
    "duplicate-parents-s": ("circuit", _duplicate_line("parents_s 1 ")),
    "k": ("circuit", _replace_prefix("k ", "k two")),
    "encoder": ("circuit", _replace_prefix("encoder ", "encoder {not json")),
    "encoder-nesting": ("circuit", _replace_prefix("encoder ", "encoder " + "[" * 10**5)),
    "coefficient": ("ckpt", _replace_prefix("w 0 1 ", "w 0 1 0.5x ")),
    "neuron-layer-range": ("ckpt", _replace_prefix("w 0 1 ", "w -1 1 ")),
    "parents-layer": ("ckpt", _replace_prefix("parents_s 0 ", "parents_s zero ")),
    "duplicate-coefficients": ("ckpt", _duplicate_line("w 0 2 ")),
    "duplicate-parents-t": ("ckpt", _duplicate_line("parents_t 0 ")),
    "input-dim": ("ckpt", _replace_prefix("input_dim ", "input_dim 2.0")),
    "tau": ("ckpt", _replace_prefix("tau ", "tau -")),
    "widths-groups": ("ckpt", _replace_prefix("widths ", "widths 8,3")),
    # non-finite coefficients, in both architectures
    **{f"{arch}-coefficient-{value}": (art, _set_field("w 1 2 ", 4, value))
       for arch, art in (("ternary", "ckpt"), ("binary", "binary-ckpt"))
       for value in ("nan", "inf", "1e999")},
    "unknown-arch": ("circuit", _set_field("arch ", 1, "quantum")),
    "ckpt-unknown-arch": ("binary-ckpt", _set_field("arch ", 1, "quantum")),
    "circuit-version-0": ("circuit", _set_field("tritnet-circuit ", 1, "v0")),
    "ckpt-version-minus-1": ("ckpt", _set_field("tritnet-checkpoint ", 1, "v-1")),
    "ckpt-reversed-body": ("ckpt", _reverse_body),
    "circuit-reversed-body": ("circuit", _reverse_body),
    "ckpt-unknown-key": ("ckpt", _insert_before("---", "colour blue")),
    "circuit-unknown-key": ("circuit", _insert_before("arch ", "colour blue")),
    "swapped-header": ("ckpt", lambda lines: [lines[0], lines[2], lines[1], *lines[3:]]),
    "blank-line": ("circuit", _insert_before("gates 1 ", "")),
    # the encoder must be valid and fit the model it feeds
    "circuit-encoder-mode": ("circuit", _set_encoder(lambda e: e.update(mode="binary"))),
    "ckpt-encoder-mode": ("binary-ckpt", _set_encoder(lambda e: e.update(mode="ternary"))),
    "circuit-encoder-width": (
        "circuit", _set_encoder(lambda e: e.update(thresholds_per_feature=4))),
    "ckpt-encoder-width": (
        "ckpt", _set_encoder(lambda e: e.update(thresholds_per_feature=4))),
    "encoder-nan-bound": (
        "circuit", _set_encoder(lambda e: e["lo"].__setitem__(0, np.nan))),
    "encoder-hi-below-lo": (
        "ckpt", _set_encoder(lambda e: e.update(lo=e["hi"], hi=e["lo"]))),
    "encoder-fractional-thresholds": (
        "circuit", _set_encoder(lambda e: e.update(thresholds_per_feature=3.7))),
    # harden checks the fit even without a dataset to encode
    "ckpt-encoder-mode-without-data": (
        "ckpt", _set_encoder(lambda e: e.update(mode="binary"))),
}

#: Rows whose checkpoint is hardened without --data.
WITHOUT_DATA = {"ckpt-encoder-mode-without-data"}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_artifact_is_a_data_error(trained, tmp_path, capsys, name):
    artifact, edit = MALFORMED[name]
    lines = open(trained[artifact]).read().splitlines()
    bad = tmp_path / f"bad.{artifact}.txt"
    bad.write_text("\n".join(edit(lines)) + "\n")
    if artifact.endswith("circuit"):
        argv = ["eval", "--circuit", bad, "--data", trained["test"]]
    else:
        argv = ["harden", "--checkpoint", bad]
        if name not in WITHOUT_DATA:
            argv += ["--data", trained["test"]]
    rc = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "Traceback" not in err
    assert not os.path.exists(tmp_path / f"bad.{artifact}.circuit.txt")


def test_binary_circuit_of_non_boolean_gates_is_a_data_error(trained, tmp_path, capsys):
    """A binary circuit's gates are the 16 embedded Boolean gates; any other
    id is refused when the file is read, before a report counts them."""
    lines = open(trained["binary-circuit"]).read().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("gates 0 "))
    ternary_ids = np.setdiff1d(np.arange(100), al.encode_tables(nw.BOOLEAN_EMBEDDINGS))
    n_gates = len(lines[i].split()) - 2
    lines[i] = "gates 0 " + " ".join(map(str, ternary_ids[:n_gates]))
    bad = tmp_path / "bad.circuit.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = run(["eval", "--circuit", bad, "--data", trained["test"], "--diversity",
              "--out", tmp_path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"line {i + 1}: gate id {ternary_ids[0]} is not a Boolean gate" in err


def _mutate_model(text, ops):
    lines = text.split("\n")
    for op, i, j, value, tag in ops:
        k = i % len(lines)
        if op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            m = j % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "truncate":
            joined = "\n".join(lines)
            lines = joined[:i % (len(joined) + 1)].split("\n")
        elif op == "version":
            lines[0] = " ".join(lines[0].split(" ")[:1] + [tag])
        else:  # value
            fields = lines[k].split(" ")
            fields[j % len(fields)] = value
            lines[k] = " ".join(fields)
        if not lines:
            lines = [""]
    return "\n".join(lines)


MODEL_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "truncate", "version", "value"]),
    st.integers(0, 5000), st.integers(0, 200),
    st.sampled_from(["nan", "-inf", "1e999", "2.5", "19683"]),
    st.sampled_from(["v0", "v2", "garbage"])), min_size=1, max_size=3)


@pytest.mark.parametrize("artifact", ["ckpt", "binary-ckpt", "circuit", "binary-circuit"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=MODEL_MUTATIONS)
def test_mutated_model_files_fail_cleanly(trained, tmp_path, capsys, artifact, ops):
    path = tmp_path / f"mutated.{artifact}"
    path.write_text(_mutate_model(open(trained[artifact]).read(), ops))
    if artifact.endswith("circuit"):
        argv = ["eval", "--circuit", path]
    else:
        argv = ["harden", "--checkpoint", path]
    capsys.readouterr()
    rc = run([*argv, "--data", trained["test"], "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == cli.EXIT_DATA:
        assert err.startswith("data error:")
        return
    assert rc == cli.EXIT_OK
    if artifact.endswith("circuit"):
        circ, _ = sz.load_circuit(path)
        assert circ.arch in nw.ARCHS
        ids = np.concatenate(circ.gate_ids)
        assert ids.min() >= 0 and ids.max() < 3**9
    else:
        net, _ = sz.load_checkpoint(path)
        assert net.arch in nw.ARCHS
        assert all(np.isfinite(p).all() for p in net.params)


def test_exit_code_for_unknown_command(capsys):
    assert run(["frobnicate"]) == cli.EXIT_USAGE
    assert run(["gen-data", "--kind", "dodecahedra"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("flags,message", [
    (["--batch", "0"], "batch_size must be >= 1"),
    (["--k", "1"], "k >= 2"),
    (["--tau", "0"], "tau > 0"),
    (["--steps", "-3"], "steps must be >= 0"),
    (["--eval-every", "0"], "eval_every must be >= 1"),
    (["--lr", "-1"], "lr must be finite and > 0"),
    (["--lr", "nan"], "lr must be finite and > 0"),
    (["--lr", "inf"], "lr must be finite and > 0"),
    (["--gamma", "0"], "gamma must be > 0"),
    (["--lambda-max", "-0.1"], "lambda_max must be >= 0"),
    (["--beta", "-1"], "beta must be >= 0"),
    (["--output-neurons", "5"], "positive multiple of k=2"),
    (["--output-neurons", "0"], "positive multiple of k=2"),
    (["--k", "3"], "positive multiple of k=3"),
    (["--thresholds", "0"], "at least 1 threshold"),
    (["--delta", "-1"], "delta must be >= 0"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--delta", "nan"], "delta must be >= 0 and finite"),
    (["--tau", "inf"], "tau > 0 and finite"),
    (["--lambda-max", "nan"], "lambda_max must be >= 0 and finite"),
    (["--gamma", "inf"], "gamma must be > 0 and finite"),
    (["--beta", "inf"], "beta must be >= 0 and finite"),
])
def test_bad_train_flag_is_usage_error(trained, tmp_path, capsys, flags, message):
    rc = run(["train", "--train", trained["train"], "--test", trained["test"],
              "--out", str(tmp_path), *TINY, *flags])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_exit_code_for_numerical_failure(tmp_path, capsys):
    train, test = gen_moons(str(tmp_path))
    with np.errstate(all="ignore"):
        rc = run(["train", "--train", train, "--test", test, *TINY,
                  "--lr", "1e308", "--lambda-max", "0.5",
                  "--out", str(tmp_path), "--name", "boom"])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


# ----------------------------------------------------------------- locations

def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("TRITNET_OUT", str(tmp_path / "envout"))
    rc = run(["gen-data", "--kind", "circles", "--n", 40, "--name", "c"])
    assert rc == cli.EXIT_OK
    assert os.path.exists(tmp_path / "envout" / "c.train.txt")


def test_loading_dataset_or_csv_transparently(tmp_path):
    csv = tmp_path / "d.csv"
    rows = ["f0,f1,label"] + [f"{i * 0.1},{1 - i * 0.1},{i % 2}" for i in range(40)]
    csv.write_text("\n".join(rows) + "\n")
    rc = run(["train", "--train", csv, "--test", csv, *TINY,
              "--out", str(tmp_path), "--name", "csvrun"])
    assert rc == cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["train"], ["sweep", "--kind", "delta", "--deltas", "0.5"],
    ["sweep", "--kind", "resolution", "--thresholds-list", "2,1"]])
def test_encoded_width_below_two_is_usage_error(tmp_path, capsys, argv):
    one = tmp_path / "one.csv"
    one.write_text("x,label\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(10)))
    rc = run([*argv, "--train", one, "--test", one, *TINY, "-K", "1",
              "--out", tmp_path, "--name", "w"])
    assert rc == cli.EXIT_USAGE
    assert "K=1 thresholds per feature on 1 feature" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["one.csv"]  # no row trained, nothing written


@pytest.mark.parametrize("command", ["train", "eval", "harden", "sweep"])
def test_label_outside_the_classes_is_a_data_error(trained, tmp_path, capsys, command):
    bad = tmp_path / "k.csv"
    bad.write_text("x,y,label\n0.1,0.2,0\n0.3,0.4,2\n0.5,0.6,1\n")
    argv = {
        "train": ["train", "--train", trained["train"], "--test", bad, *TINY],
        "eval": ["eval", "--circuit", trained["circuit"], "--data", bad],
        "harden": ["harden", "--checkpoint", trained["ckpt"], "--data", bad],
        "sweep": ["sweep", "--kind", "delta", "--deltas", "1", "--train", bad,
                  "--test", trained["test"], *TINY],
    }[command]
    rc = run([*argv, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "label 2" in err and "k=2" in err


def test_feature_count_must_match_the_encoder(trained, tmp_path, capsys):
    bad = tmp_path / "wide.csv"
    bad.write_text("0.1,0.2,0.3,0\n0.4,0.5,0.6,1\n")
    for argv in (["eval", "--circuit", trained["circuit"], "--data", bad],
                 ["harden", "--checkpoint", trained["ckpt"], "--data", bad],
                 ["train", "--train", trained["train"], "--test", bad, *TINY]):
        rc = run([*argv, "--out", tmp_path / "out"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA
        assert err.startswith("data error:") and "3 feature columns, expected 2" in err


@pytest.mark.parametrize("arch_ckpt", ["ckpt", "binary-ckpt"])
def test_harden_data_with_a_nan_past_the_first_block_is_a_data_error(
        trained, tmp_path, capsys, arch_ckpt):
    rows = [f"{i % 7 * 0.1},{i % 5 * 0.2},{i % 2}" for i in range(2 * nw.SOFT_BLOCK_ROWS)]
    bad = tmp_path / "late-nan.csv"
    bad.write_text("\n".join(["x,y,label", *rows, "nan,0.5,1"]) + "\n")
    rc = run(["harden", "--checkpoint", trained[arch_ckpt], "--data", bad,
              "--out", tmp_path / "out"])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("flag", ["--data", "--circuit", "--train", "--checkpoint"])
@pytest.mark.parametrize("what", ["directory", "non-utf8"])
def test_unreadable_path_is_a_data_error(trained, tmp_path, capsys, flag, what):
    if what == "directory":
        bad = tmp_path / "dir"
        bad.mkdir()
    else:
        source = trained["circuit" if flag == "--circuit" else
                         "ckpt" if flag == "--checkpoint" else "test"]
        text = open(source, "rb").read()
        cut = text.index(b"\n") + 1  # keep the magic line, spoil the next
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(text[:cut] + b"\xff\xfe" + text[cut:])
    argv = {
        "--data": ["eval", "--circuit", trained["circuit"], "--data", bad],
        "--circuit": ["eval", "--circuit", bad, "--data", trained["test"]],
        "--train": ["train", "--train", bad, "--test", trained["test"], *TINY],
        "--checkpoint": ["harden", "--checkpoint", bad],
    }[flag]
    rc = run([*argv, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "Traceback" not in err


def test_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,y,label\n0.1,0.2,0\n\xe9,0.3,1\n")
    rc = run(["train", "--train", bad, "--test", bad, *TINY, "--out", tmp_path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA and "not a text file" in err


@pytest.mark.parametrize("argv, message", [
    (["bench", "--batch", "0"], "batch_size must be >= 1"),
    (["bench", "--steps", "0"], "steps must be >= 1"),
    (["bench", "--output-neurons", "3"], "positive multiple of k=2"),
    (["sweep", "--kind", "delta", "--deltas", "1,-1"], "delta must be >= 0"),
    (["sweep", "--kind", "resolution", "--thresholds-list", "2,0"],
     "at least 1 threshold"),
    (["sweep", "--kind", "separation", "--seps", "1,-1"], "sep must be finite and >= 0"),
    (["sweep", "--kind", "separation", "--seps", "nan"], "sep must be finite and >= 0"),
    (["sweep", "--kind", "delta", "--seed", "-1"], "seed must be >= 0"),
    (["sweep", "--kind", "separation", "--data-seed", "-1"], "data_seed must be >= 0"),
    (["sweep", "--kind", "separation", "--n-train", "0"], "n_train must be >= 1"),
    (["bench", "--input-dim", "1"], "input_dim must be >= 2"),
    (["bench", "--input-dim", "0"], "input_dim must be >= 2"),
    (["bench", "--warmup", "-2", "--steps", "3"], "warmup must be >= 0"),
    (["bench", "--seed", "-1"], "seed must be >= 0"),
    (["gen-data", "--kind", "moons", "--seed", "-1"], "seed must be >= 0"),
    (["gen-data", "--kind", "moons", "--noise", "-1"], "noise must be finite and >= 0"),
    (["gen-data", "--kind", "moons", "--noise", "nan"], "noise must be finite and >= 0"),
    (["gen-data", "--kind", "gaussians", "--sep", "inf"], "sep must be finite and >= 0"),
    (["gen-data", "--kind", "moons", "--train-frac", "nan"], "leaves an empty split"),
], ids=["bench-batch", "bench-steps", "bench-output-neurons", "sweep-delta",
        "sweep-thresholds", "sweep-sep", "sweep-sep-nan", "sweep-seed",
        "sweep-data-seed", "sweep-n-train", "bench-input-dim", "bench-input-dim-0",
        "bench-warmup", "bench-seed", "gen-data-seed", "gen-data-noise",
        "gen-data-noise-nan", "gen-data-sep", "gen-data-train-frac"])
def test_bad_sweep_or_bench_value_is_usage_error(tmp_path, capsys, argv, message):
    rc = run([*argv, "--out", tmp_path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []
