"""Hardening soft networks into table-lookup circuits."""

import dataclasses
import hashlib

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.circuit as cc
import tritnet.network as nw
import tritnet.training as tr

GS = nw.GroupSumConfig(k=2, tau=10.0)


def ref_eval(circuit, x):
    """Independent circuit evaluator: per-sample python loops."""
    results = []
    for row in x:
        h = [int(v) for v in row]
        for (s, t), ids in zip(circuit.conn.layers, circuit.gate_ids):
            nxt = []
            for j, gid in enumerate(ids):
                table = al.decode_table(int(gid))
                a, b = h[s[j]], h[t[j]]
                nxt.append(table[3 * (a + 1) + (b + 1)])
            h = nxt
        results.append(h)
    outputs = np.array(results)
    k, tau = circuit.groupsum.k, circuit.groupsum.tau
    group = circuit.widths[-1] // k
    scores = outputs.reshape(len(x), k, group).sum(axis=2) / tau
    return outputs, scores


def exact_gate_net(seed, widths=(6, 4), input_dim=5):
    net = nw.init_network(widths, input_dim, seed, GS)
    rng = np.random.default_rng(seed + 100)
    for w in net.params:
        for j in range(w.shape[0]):
            w[j] = al.VANDERMONDE_INV @ rng.integers(-1, 2, size=9)
    return net


def test_harden_rounds_each_table():
    net = nw.init_network((5, 4), 4, 0, GS)
    circ = cc.harden_network(net)
    for w, ids in zip(net.params, circ.gate_ids):
        tbl = al.decode_tables(ids)
        want = al.round_table(w @ al.VANDERMONDE.T)
        assert np.array_equal(tbl, want)
        assert np.array_equal(ids, al.encode_tables(want))
    assert circ.arch == "ternary"


def test_circuit_tables_derive_from_gate_ids():
    net = nw.init_network((4,), 3, 1, GS)
    circ = cc.harden_network(net)
    rebuilt = cc.Circuit(
        arch=circ.arch, conn=circ.conn,
        gate_ids=circ.gate_ids, groupsum=circ.groupsum,
        provenance=dict(circ.provenance))
    for c1, c2 in zip(circ.coeffs, rebuilt.coeffs):
        assert np.array_equal(c1, c2)


def test_circuit_tables_cannot_be_passed_in():
    circ = cc.harden_network(nw.init_network((4,), 3, 1, GS))
    with pytest.raises(TypeError):
        cc.Circuit(arch=circ.arch,
                   conn=circ.conn, gate_ids=circ.gate_ids, groupsum=circ.groupsum,
                   coeffs=circ.coeffs)


def test_circuit_is_frozen_and_its_gate_ids_read_only():
    ids = [np.arange(4, dtype=np.int64), np.arange(2, dtype=np.int64)]
    circ = cc.Circuit(arch="ternary",
                      conn=nw.sample_connectivity((4, 2), 3, 0), gate_ids=ids, groupsum=GS)
    ids[0][:] = 5  # the circuit holds copies
    assert np.array_equal(circ.gate_ids[0], np.arange(4))
    for name in ("gate_ids", "coeffs", "conn", "widths", "provenance"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circ, name, getattr(circ, name))
    for array in (circ.gate_ids[0], circ.gate_ids[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(TypeError):
        circ.gate_ids[0] = np.zeros(4, dtype=np.int64)
    circ.provenance["source_sha256"] = "abc"  # the dict stays open
    assert circ.provenance == {"source_sha256": "abc"}


def test_circuit_refuses_gate_ids_that_do_not_fit_its_shape():
    conn = nw.sample_connectivity((4, 2), 3, 0)
    for ids in ([np.zeros(5), np.zeros(2)], [np.zeros(4)], [np.zeros(4), np.zeros((2, 1))]):
        with pytest.raises(ValueError, match="gate_ids shapes .* do not fit widths"):
            cc.Circuit(arch="ternary", conn=conn, gate_ids=ids, groupsum=GS)


@pytest.mark.parametrize("bad", [-1, 3**9])
def test_circuit_refuses_gate_ids_out_of_range_on_dead_neurons(bad):
    conn = nw.sample_connectivity((4, 2), 3, 0)
    dead = np.setdiff1d(np.arange(4), conn.live[0][0])
    assert dead.size  # the masks never decode these neurons' ids
    ids = [np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64)]
    ids[0][dead] = bad
    with pytest.raises(ValueError, match=r"gate ids must lie in \[0, 19682\]"):
        cc.Circuit(arch="ternary", conn=conn, gate_ids=ids, groupsum=GS)


def test_eval_circuit_matches_reference():
    rng = np.random.default_rng(2)
    net = nw.init_network((8, 6, 4), 5, 3, GS)
    circ = cc.harden_network(net)
    x = rng.integers(-1, 2, size=(30, 5))
    outputs, scores, preds, margins = cc.eval_circuit(circ, x)
    ref_out, ref_scores = ref_eval(circ, x)
    assert np.array_equal(outputs, ref_out)
    assert np.allclose(scores, ref_scores, atol=1e-12)
    assert np.array_equal(preds, ref_scores.argmax(axis=1))


def test_eval_circuit_margins():
    net = nw.init_network((9,), 4, 4, nw.GroupSumConfig(3, 2.0))
    circ = cc.harden_network(net)
    rng = np.random.default_rng(5)
    x = rng.integers(-1, 2, size=(40, 4))
    _, scores, _, margins = cc.eval_circuit(circ, x)
    for srow, m in zip(scores, margins):
        top = np.sort(srow)[::-1]
        assert m == pytest.approx(top[0] - top[1], abs=1e-12)


def test_eval_circuit_single_input():
    net = nw.init_network((4,), 3, 6, GS)
    circ = cc.harden_network(net)
    x = np.array([1, -1, 0])
    out, scores, pred, margin = cc.eval_circuit(circ, x)
    outs_b, scores_b, preds_b, margins_b = cc.eval_circuit(circ, x[None, :])
    assert np.array_equal(out, outs_b[0])
    assert np.allclose(scores, scores_b[0])
    assert pred == preds_b[0]
    assert margin == pytest.approx(margins_b[0])


def test_eval_circuit_rejects_non_trits():
    net = nw.init_network((4,), 3, 7, GS)
    circ = cc.harden_network(net)
    with pytest.raises(ValueError):
        cc.eval_circuit(circ, np.array([[0.5, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        cc.eval_circuit(circ, np.array([[2, 0, 1]]))
    with pytest.raises(ValueError):
        cc.eval_circuit(circ, np.array([[0, 1]]))


def test_exact_gate_network_has_zero_gap():
    # a network whose neurons already are gates hardens losslessly:
    # soft scores and circuit scores agree on every trit input
    net = exact_gate_net(seed=8, widths=(6, 4), input_dim=4)
    circ = cc.harden_network(net)
    assert cc.hardening_error(net) == 0.0
    rng = np.random.default_rng(9)
    x = rng.integers(-1, 2, size=(50, 4))
    _, soft_scores = nw.forward_soft(net, x.astype(float))
    _, circ_scores, _, _ = cc.eval_circuit(circ, x)
    assert np.array_equal(soft_scores, circ_scores)


def test_hardening_error_equals_commitment_loss_exactly():
    for seed in range(10):
        net = nw.init_network((7, 4), 5, seed, GS)
        assert cc.hardening_error(net) == tr.commitment_loss(net)


def test_small_perturbations_round_to_the_same_gates():
    # noise strictly below half the lattice spacing cannot move any
    # table value across a rounding boundary of an exact-gate neuron
    rng = np.random.default_rng(10)
    for _ in range(100):
        tbl = rng.integers(-1, 2, size=9)
        w = al.VANDERMONDE_INV @ tbl
        noise = rng.uniform(-1, 1, size=9)
        noise *= 0.49 / np.abs(al.VANDERMONDE @ noise).max()
        assert np.array_equal(al.round_table(al.VANDERMONDE @ (w + noise)), tbl)


# ---------------------------------------------------------- baseline

def test_boolean_embeddings_extend_kleene_gates():
    # AND embeds to min, OR to max, XOR to the Kleene xor
    for k, name in [(1, "and"), (7, "or"), (6, "xor"), (14, "nand"), (3, "a"),
                    (0, "false"), (15, "true")]:
        assert al.encode_table(nw.BOOLEAN_EMBEDDINGS[k]) == al.encode_table(al.NAMED_GATES[name])


def test_boolean_embeddings_restrict_to_boolean_tables():
    # on the four +-1 corners each embedding reproduces its gate bits
    for k in range(16):
        bits = tuple(nw.BOOLEAN_TABLES[k])
        emb = nw.BOOLEAN_EMBEDDINGS[k]
        for (a, b), want in zip(((0, 0), (0, 1), (1, 0), (1, 1)), bits):
            g = 3 * (2 * a - 1 + 1) + (2 * b - 1 + 1)
            assert emb[g] == 2 * want - 1


def test_consensus_rule_on_unknown_inputs():
    # if both Boolean completions of an UNKNOWN input agree, the
    # embedded gate keeps the agreed value, else it emits UNKNOWN
    emb_and = nw.BOOLEAN_EMBEDDINGS[1]
    assert emb_and[al.grid_index(-1, 0)] == -1   # F AND ? = F
    assert emb_and[al.grid_index(1, 0)] == 0     # T AND ? = ?
    emb_or = nw.BOOLEAN_EMBEDDINGS[7]
    assert emb_or[al.grid_index(1, 0)] == 1      # T OR ? = T
    assert emb_or[al.grid_index(0, 0)] == 0
    emb_xor = nw.BOOLEAN_EMBEDDINGS[6]
    assert emb_xor[al.grid_index(0, -1)] == 0    # xor never recovers


def test_harden_binary_argmax_and_tie_break():
    net = nw.init_network((4,), 4, 11, GS, arch="binary")
    net.params[0][:] = 0.0
    net.params[0][0, 6] = 5.0          # clear winner: XOR
    net.params[0][1, 3] = 2.0
    net.params[0][1, 5] = 2.0          # tie between gates 3 and 5
    circ = cc.harden_binary(net)
    assert circ.gate_ids[0][0] == al.encode_table(al.NAMED_GATES["xor"])
    assert circ.gate_ids[0][1] == al.encode_table(nw.BOOLEAN_EMBEDDINGS[3])
    assert circ.gate_ids[0][2] == al.encode_table(nw.BOOLEAN_EMBEDDINGS[0])
    assert circ.arch == "binary"


@pytest.mark.parametrize("bad", [0.5, 0.999, -0.5, 1.5])
def test_binary_inputs_must_be_bits(bad):
    """A value between or beyond the bits is refused, not truncated to one."""
    to_trits = nw.ARCHS["binary"].trit_inputs
    x = np.zeros((3, 4))
    x[1, 2] = bad
    with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
        to_trits(x)
    net = nw.init_network((8, 4), 4, 5, GS, arch="binary")
    # the soft pass refuses what is outside [0, 1] first
    with pytest.raises(ValueError, match="bits in" if 0 <= bad <= 1 else "lie in"):
        cc.gap_report(net, cc.harden_network(net), x, np.zeros(3, dtype=int))


def test_binary_input_map_gives_every_bit_dtype_the_same_results():
    net = nw.init_network((16, 8), 6, 3, GS, arch="binary")
    circ = cc.harden_network(net)
    bits = np.random.default_rng(4).integers(0, 2, size=(300, 6))
    want = cc.eval_circuit(circ, 2 * bits - 1)
    for x in (bits.astype(np.int8), bits.astype(bool), bits.astype(np.float64)):
        for got, w in zip(cc.eval_circuit(circ, nw.ARCHS["binary"].trit_inputs(x)), want):
            assert np.array_equal(got, w)


def test_gap_report_fields():
    net = exact_gate_net(seed=12, widths=(4,), input_dim=4)
    circ = cc.harden_network(net)
    rng = np.random.default_rng(13)
    x = rng.integers(-1, 2, size=(25, 4))
    y = rng.integers(0, 2, size=25)
    rep = cc.gap_report(net, circ, x, y)
    assert rep.n_samples == 25
    assert rep.hardening_error == 0.0
    assert rep.gap_pp == pytest.approx(
        100 * (rep.soft_accuracy - rep.circuit_accuracy), abs=1e-12)
    assert rep.soft_accuracy == rep.circuit_accuracy  # exact gates
    outputs, _, _, _ = cc.eval_circuit(circ, x)
    assert rep.unknown_fraction == pytest.approx((outputs == 0).mean())



@pytest.mark.parametrize("n_labels", [1, 9, 11])
def test_gap_report_refuses_a_label_count_unlike_the_rows(n_labels):
    net = exact_gate_net(seed=12, widths=(4,), input_dim=4)
    x = np.random.default_rng(13).integers(-1, 2, size=(10, 4))
    with pytest.raises(ValueError, match=f"^{n_labels} labels for 10 rows$"):
        cc.gap_report(net, cc.harden_network(net), x, np.zeros(n_labels, dtype=int))


def test_gap_report_unknown_fraction_is_the_mean_bit_for_bit():
    from fractions import Fraction

    net = exact_gate_net(seed=16, widths=(9, 6), input_dim=4)
    circ = cc.harden_network(net)
    x = np.random.default_rng(17).integers(-1, 2, size=(7, 4))
    rep = cc.gap_report(net, circ, x, np.zeros(7, dtype=np.int64))
    outputs, _, _, _ = cc.eval_circuit(circ, x)
    count = int((outputs == 0).sum())
    assert outputs.size == 42
    denominator = Fraction(count, 42).denominator
    assert denominator & (denominator - 1)  # not a power of two: an inexact share
    assert rep.unknown_fraction == float((outputs == 0).mean())

def test_gap_report_binary_converts_bits_to_trits():
    net = nw.init_network((6, 4), 5, 14, GS, arch="binary")
    circ = cc.harden_binary(net)
    rng = np.random.default_rng(15)
    xb = rng.integers(0, 2, size=(20, 5))
    y = rng.integers(0, 2, size=20)
    rep = cc.gap_report(net, circ, xb.astype(float), y)
    _, _, preds, _ = cc.eval_circuit(circ, 2 * xb - 1)
    assert rep.circuit_accuracy == pytest.approx((preds == y).mean())


def test_file_sha256(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"ternary circuits\n")
    want = hashlib.sha256(b"ternary circuits\n").hexdigest()
    assert cc.file_sha256(p) == want
