"""Text formats: datasets, checkpoints, circuits, history, manifests."""

import json

import numpy as np
import pytest

import tritnet.circuit as cc
import tritnet.data as dt
import tritnet.network as nw
import tritnet.serialize as sz

GS = nw.GroupSumConfig(k=2, tau=10.0)


def sample_encoder():
    return dt.EncoderConfig("ternary", 3, 0.5, (0.0, -1.5), (4.0, 2.5))


# ------------------------------------------------------------- datasets

def test_dataset_round_trip_is_bit_exact(tmp_path):
    ds = dt.gen_dataset("spirals", 50, 0.37, 9)
    p = tmp_path / "d.txt"
    sz.save_dataset(ds, p)
    back = sz.load_dataset(p)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.meta == ds.meta


def test_dataset_without_magic_reads_as_csv(tmp_path):
    p = tmp_path / "plain.txt"
    p.write_text("not a dataset\n1,2,0\n")
    ds = sz.load_dataset(p)
    assert ds.features.tolist() == [[1.0, 2.0]] and ds.labels.tolist() == [0]
    assert ds.meta == {"source": str(p)}


def test_dataset_rejects_newer_version(tmp_path):
    ds = dt.gen_dataset("moons", 10, 0.0, 0)
    p = tmp_path / "d.txt"
    sz.save_dataset(ds, p)
    text = p.read_text().replace(" v1 ", f" v{sz.FORMAT_VERSION + 1} ", 1)
    p.write_text(text)
    with pytest.raises(sz.FormatError) as info:
        sz.load_dataset(p)
    assert "version" in str(info.value)


@pytest.mark.parametrize("tag", ["v0", "v-1", "vv1", "1", "v"])
def test_dataset_rejects_bad_version_tags(tmp_path, tag):
    p = tmp_path / "d.txt"
    sz.save_dataset(dt.gen_dataset("moons", 10, 0.0, 0), p)
    p.write_text(p.read_text().replace(" v1 ", f" {tag} ", 1))
    with pytest.raises(sz.FormatError, match="bad version tag"):
        sz.load_dataset(p)


def test_dataset_rejects_deeply_nested_metadata(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(f"{sz.DATASET_MAGIC} v1 {'[' * 10**5}\n0.5,0.5,0\n")
    with pytest.raises(sz.FormatError, match="line 1: bad metadata"):
        sz.load_dataset(p)


# ----------------------------------------------------------- checkpoints

def test_ternary_checkpoint_round_trip(tmp_path):
    net = nw.init_network((6, 4), 5, 3, GS)
    enc = sample_encoder()
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p, enc)
    back, enc2 = sz.load_checkpoint(p)
    assert back.arch == "ternary"
    assert back.input_dim == 5 and back.widths == (6, 4)
    assert back.seed == 3
    assert back.groupsum == GS
    assert enc2 == enc
    for w1, w2 in zip(net.params, back.params):
        assert np.array_equal(w1, w2)  # repr round trip, not approx
    for (s1, t1), (s2, t2) in zip(net.conn.layers, back.conn.layers):
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)


def test_binary_checkpoint_round_trip(tmp_path):
    net = nw.init_network((4, 2), 3, 8, GS, arch="binary")
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    back, enc = sz.load_checkpoint(p)
    assert back.arch == "binary"
    assert enc is None
    for w1, w2 in zip(net.params, back.params):
        assert np.array_equal(w1, w2)


def test_checkpoint_round_trips_extreme_floats(tmp_path):
    net = nw.init_network((2,), 2, 0, nw.GroupSumConfig(2, 10.0))
    net.params[0][0, 0] = 1e-300
    net.params[0][0, 1] = -1.7976931348623157e308
    net.params[0][1, 2] = 0.1 + 0.2  # the classic non-representable sum
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    back, _ = sz.load_checkpoint(p)
    assert np.array_equal(back.params[0], net.params[0])


def test_checkpoint_missing_coefficients(tmp_path):
    net = nw.init_network((3,), 2, 1, nw.GroupSumConfig(3, 1.0))
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    lines = [ln for ln in p.read_text().splitlines() if not ln.startswith("w 0 1 ")]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError) as info:
        sz.load_checkpoint(p)
    assert "missing" in str(info.value)


def test_checkpoint_rejects_garbage_lines(tmp_path):
    net = nw.init_network((2,), 2, 1, GS)
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    with open(p, "a") as fh:
        fh.write("surprise 1 2 3\n")
    with pytest.raises(sz.FormatError):
        sz.load_checkpoint(p)


def test_checkpoint_rejects_missing_header_key(tmp_path):
    net = nw.init_network((2,), 2, 1, GS)
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    lines = [ln for ln in p.read_text().splitlines()
             if not ln.startswith("seed ")]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError):
        sz.load_checkpoint(p)


def test_checkpoint_rejects_bad_parent_index(tmp_path):
    net = nw.init_network((2,), 2, 1, GS)
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    text = p.read_text()
    # first layer parents index the 2 inputs; 9 is out of range
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("parents_s 0 "):
            parts = ln.split()
            parts[2] = "9"
            lines[i] = " ".join(parts)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError):
        sz.load_checkpoint(p)


def test_loaded_checkpoint_runs_identically(tmp_path):
    net = nw.init_network((8, 4), 6, 5, GS)
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(net, p)
    back, _ = sz.load_checkpoint(p)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(10, 6))
    _, s1 = nw.forward_soft(net, x)
    _, s2 = nw.forward_soft(back, x)
    assert np.array_equal(s1, s2)


# -------------------------------------------------------------- circuits

def test_circuit_round_trip(tmp_path):
    net = nw.init_network((5, 4), 4, 2, GS)
    circ = cc.harden_network(net)
    circ.provenance["source_sha256"] = "ab12" * 16
    enc = sample_encoder()
    p = tmp_path / "c.txt"
    sz.save_circuit(circ, p, enc)
    back, enc2 = sz.load_circuit(p)
    assert enc2 == enc
    assert back.widths == circ.widths
    assert back.provenance == circ.provenance
    for i1, i2 in zip(circ.gate_ids, back.gate_ids):
        assert np.array_equal(i1, i2)
    rng = np.random.default_rng(1)
    x = rng.integers(-1, 2, size=(20, 4))
    for got, want in zip(cc.eval_circuit(back, x), cc.eval_circuit(circ, x)):
        assert np.array_equal(got, want)


def test_circuit_empty_provenance_uses_placeholder(tmp_path):
    net = nw.init_network((2,), 2, 0, GS)
    circ = cc.harden_network(net)
    circ.provenance["source_sha256"] = ""
    circ.provenance["hardened_at"] = ""
    p = tmp_path / "c.txt"
    sz.save_circuit(circ, p)
    assert "source_sha256 -" in p.read_text()
    back, _ = sz.load_circuit(p)
    assert back.provenance["source_sha256"] == ""
    assert back.provenance["hardened_at"] == ""


def test_circuit_preserves_timestamps_with_hyphens(tmp_path):
    net = nw.init_network((2,), 2, 0, GS)
    circ = cc.harden_network(net)
    circ.provenance["hardened_at"] = "2026-08-18T12:00:00"
    p = tmp_path / "c.txt"
    sz.save_circuit(circ, p)
    back, _ = sz.load_circuit(p)
    assert back.provenance["hardened_at"] == "2026-08-18T12:00:00"


def test_circuit_rejects_bad_gate_ids(tmp_path):
    net = nw.init_network((2,), 2, 0, GS)
    circ = cc.harden_network(net)
    p = tmp_path / "c.txt"
    sz.save_circuit(circ, p)
    text = p.read_text()
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("gates 0 "):
            parts = ln.split()
            parts[2] = str(3**9)  # one past the last valid id
            lines[i] = " ".join(parts)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError):
        sz.load_circuit(p)


def test_circuit_rejects_wrong_gate_count(tmp_path):
    net = nw.init_network((3,), 2, 0, nw.GroupSumConfig(3, 1.0))
    circ = cc.harden_network(net)
    p = tmp_path / "c.txt"
    sz.save_circuit(circ, p)
    lines = p.read_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("gates 0 "):
            lines[i] = " ".join(ln.split()[:-1])  # drop one gate
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError):
        sz.load_circuit(p)


# ------------------------------------------------ checkpoints + circuits

def model_files(tmp_path):
    """A ternary and a binary checkpoint and circuit, with encoders."""
    paths = []
    for arch in nw.ARCHS:
        net = nw.init_network((6, 4), 6, 3, GS, arch=arch)
        enc = dt.EncoderConfig(arch, 3, 0.5, (0.0, -1.5), (4.0, 2.5))
        paths.append((tmp_path / f"{arch}.ckpt", sz.load_checkpoint))
        sz.save_checkpoint(net, paths[-1][0], enc)
        paths.append((tmp_path / f"{arch}.circuit.txt", sz.load_circuit))
        circ = cc.harden_network(net)
        circ.provenance["source_sha256"] = "ab" * 32
        sz.save_circuit(circ, paths[-1][0], enc)
    return paths


def test_model_files_reload_byte_for_byte(tmp_path):
    for path, load in model_files(tmp_path):
        again = tmp_path / "again.txt"
        model, enc = load(path)
        (sz.save_checkpoint if load is sz.load_checkpoint else sz.save_circuit)(
            model, again, enc)
        assert again.read_bytes() == path.read_bytes()


def test_model_files_are_read_in_writer_order(tmp_path):
    """Swapping any two adjacent lines is an error naming the first one."""
    for path, load in model_files(tmp_path):
        lines = path.read_text().splitlines()
        for i in range(1, len(lines) - 1):
            bad = tmp_path / "bad.txt"
            bad.write_text("\n".join(lines[:i] + [lines[i + 1], lines[i]]
                                     + lines[i + 2:]) + "\n")
            with pytest.raises(sz.FormatError, match=f"line {i + 1}: "):
                load(bad)


def set_field(lines, i, j, value):
    fields = lines[i].split(" ")
    fields[j] = value
    return lines[:i] + [" ".join(fields)] + lines[i + 1:]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["w 9 9 1.0"], "line 24: extra line"),
    (lambda lines: lines[:-1], "line 23: missing 'w 1 3"),
    (lambda lines: lines[:6] + ["colour blue"] + lines[6:], "line 7: missing 'tau"),
    (lambda lines: set_field(lines, 21, 4, "nan"), "line 22: value nan is not in"),
    (lambda lines: set_field(lines, 21, 5, "1e999"), "line 22: value inf is not in"),
    (lambda lines: set_field(lines, 21, 5, "0.5x"), "line 22: bad 'w 1 2' value"),
    (lambda lines: set_field(lines, 9, 3, "6"), "line 10: value 6 is not in"),
], ids=["extra", "missing", "unknown-key", "nan", "inf", "bad-float", "parent-range"])
def test_checkpoint_errors_name_the_line(tmp_path, edit, message):
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(nw.init_network((6, 4), 6, 3, GS), p, sample_encoder())
    p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
    with pytest.raises(sz.FormatError, match=message):
        sz.load_checkpoint(p)


@pytest.mark.parametrize("change, message", [
    ({"thresholds_per_feature": 3.7}, "not an integer"),
    ({"lo": [float("nan"), -1.5]}, "finite"),
    ({"hi": [-1.0, 2.5]}, "lo <= hi"),
])
def test_checkpoint_rejects_bad_encoder(tmp_path, change, message):
    p = tmp_path / "net.ckpt"
    sz.save_checkpoint(nw.init_network((2,), 2, 1, GS), p, sample_encoder())
    lines = p.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("encoder "))
    lines[i] = "encoder " + json.dumps({**json.loads(lines[i][8:]), **change})
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(sz.FormatError, match=message):
        sz.load_checkpoint(p)


# ---------------------------------------------------- history + manifests

def test_history_round_trip(tmp_path):
    history = [
        {"step": 0, "loss": 0.52, "lambda": 0.0, "commit_loss": 0.11},
        {"step": 1, "loss": 0.48, "lambda": 1e-05, "commit_loss": 0.105,
         "train_acc": 0.8, "eval_acc": 0.75},
    ]
    p = tmp_path / "h.jsonl"
    sz.save_history(history, p)
    assert sz.load_history(p) == history
    # one JSON object per line
    lines = p.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["step"] == 0


def test_manifest_gains_decision_flags(tmp_path):
    p = tmp_path / "m.json"
    sz.save_manifest({"command": "train", "config": {"seed": 0}}, p)
    doc = sz.load_manifest(p)
    assert doc["command"] == "train"
    assert doc["decision_flags"] == sz.DECISION_FLAGS
    # explicit flags are kept, not overwritten
    sz.save_manifest({"decision_flags": {"custom": True}}, p)
    assert sz.load_manifest(p)["decision_flags"] == {"custom": True}


def test_decision_flags_document_behavior_choices():
    keys = set(sz.DECISION_FLAGS)
    assert {"grid_order", "gate_id_encoding", "trit_rounding",
            "lambda_update", "argmax_ties", "execution"} <= keys
    assert all(isinstance(v, (str, int)) for v in sz.DECISION_FLAGS.values())


def test_save_report_layout(tmp_path):
    p = tmp_path / "r.tsv"
    sz.save_report([[1, "x"], [2, "y"]], p, columns=["n", "tag"],
                   comments=["hello"])
    lines = p.read_text().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "n\ttag"
    assert lines[2] == "1\tx"
    assert lines[3] == "2\ty"
