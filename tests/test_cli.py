"""End-to-end command line checks, run in process via cli.main()."""

import filecmp
import json
import os

import numpy as np
import pytest

import tritnet.cli as cli
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
    """One tiny ternary run shared by the read-only tests."""
    out = str(tmp_path_factory.mktemp("trained"))
    train, test = gen_moons(out)
    rc = run(["train", "--train", train, "--test", test,
              "--out", out, "--name", "run", *TINY])
    assert rc == cli.EXIT_OK
    return {"out": out, "train": train, "test": test,
            "ckpt": os.path.join(out, "run.ckpt"),
            "circuit": os.path.join(out, "run.circuit.txt"),
            "manifest": os.path.join(out, "run.manifest.json")}


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


def test_eval_selective_runs_the_circuit_once(trained, tmp_path, monkeypatch):
    import tritnet.analysis as an
    import tritnet.circuit as cc
    import tritnet.data as dt

    calls = []
    real = cc.eval_circuit

    def counted(circuit, x):
        calls.append(len(x))
        return real(circuit, x)

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
    assert doc["warning"] is not None


# ---------------------------------------------------------------- exit codes

def test_exit_code_for_missing_dataset(tmp_path, capsys):
    rc = run(["train", "--train", tmp_path / "no.txt", "--test",
              tmp_path / "no.txt", "--out", str(tmp_path)])
    assert rc == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


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


@pytest.mark.parametrize("artifact, edit", [
    ("circuit", _replace_prefix("gates 1 ", "gates x ")),
    ("circuit", _replace_prefix("gates 0 ", "gates 0 7 y ")),
    ("circuit", _replace_prefix("parents_t 0 ", "parents_t 0 1.5 ")),
    ("circuit", _replace_prefix("gates 1 ", "gates 5 ")),
    ("circuit", _duplicate_line("gates 0 ")),
    ("circuit", _duplicate_line("parents_s 1 ")),
    ("circuit", _replace_prefix("k ", "k two")),
    ("circuit", _replace_prefix("encoder ", "encoder {not json")),
    ("ckpt", _replace_prefix("w 0 1 ", "w 0 1 0.5x ")),
    ("ckpt", _replace_prefix("w 0 1 ", "w -1 1 ")),
    ("ckpt", _replace_prefix("parents_s 0 ", "parents_s zero ")),
    ("ckpt", _duplicate_line("w 0 2 ")),
    ("ckpt", _duplicate_line("parents_t 0 ")),
    ("ckpt", _replace_prefix("input_dim ", "input_dim 2.0")),
    ("ckpt", _replace_prefix("tau ", "tau -")),
    ("ckpt", _replace_prefix("widths ", "widths 8,3")),
], ids=["gates-layer", "gate-id", "parent-index", "gates-layer-range",
        "duplicate-gates", "duplicate-parents-s", "k", "encoder",
        "coefficient", "neuron-layer-range", "parents-layer",
        "duplicate-coefficients", "duplicate-parents-t", "input-dim", "tau",
        "widths-groups"])
def test_malformed_artifact_is_a_data_error(trained, tmp_path, capsys, artifact, edit):
    lines = open(trained[artifact]).read().splitlines()
    bad = tmp_path / f"bad.{artifact}.txt"
    bad.write_text("\n".join(edit(lines)) + "\n")
    if artifact == "circuit":
        argv = ["eval", "--circuit", bad, "--data", trained["test"]]
    else:
        argv = ["harden", "--checkpoint", bad]
    rc = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "Traceback" not in err


def test_exit_code_for_unknown_command(capsys):
    assert run(["frobnicate"]) == cli.EXIT_USAGE
    assert run(["gen-data", "--kind", "dodecahedra"]) == cli.EXIT_USAGE


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
