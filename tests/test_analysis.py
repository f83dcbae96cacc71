"""Coverage curves, gate diversity, spectra and parameter sweeps."""

import math

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.analysis as an
import tritnet.circuit as cc
import tritnet.data as dt
import tritnet.network as nw
import tritnet.pipeline as pl

GS = nw.GroupSumConfig(k=2, tau=10.0)


def circuit_with_gates(gate_names, input_dim=3, seed=0, groupsum=GS):
    """One-layer circuit whose neurons are the named Kleene gates."""
    width = len(gate_names)
    conn = nw.sample_connectivity((width,), input_dim, seed)
    ids = [np.array([al.NAMED_GATES[g].gate_id for g in gate_names],
                    dtype=np.int64)]
    return cc.Circuit(input_dim=input_dim, widths=(width,), conn=conn,
                      gate_ids=ids, groupsum=groupsum,
                      provenance={"arch": "ternary"})


def random_circuit(seed, widths=(8, 6), input_dim=5):
    net = nw.init_network(widths, input_dim, seed, GS)
    return cc.harden_network(net)


# ----------------------------------------------------- selective curve

def reference_selective(preds, margins, y, grid):
    """Plain python reimplementation of the retention logic."""
    order = sorted(range(len(y)), key=lambda i: (-margins[i], i))
    correct = [int(preds[i] == y[i]) for i in order]
    points = []
    for c in grid:
        kept = max(1, math.ceil(c * len(y)))
        points.append((c, sum(correct[:kept]) / kept))
    return points


def test_selective_curve_matches_reference():
    circ = random_circuit(seed=1)
    rng = np.random.default_rng(2)
    x = rng.integers(-1, 2, size=(80, 5))
    y = rng.integers(0, 2, size=80)
    curve = an.selective_curve(circ, x, y)
    _, _, preds, margins = cc.eval_circuit(circ, x)
    want = reference_selective(list(preds), list(margins), list(y),
                               an.DEFAULT_RETENTION_GRID)
    assert curve.n_samples == 80
    for (c1, a1), (c2, a2) in zip(curve.points, want):
        assert c1 == c2
        assert a1 == pytest.approx(a2, abs=1e-12)
    assert curve.auc == pytest.approx(
        np.mean([a for _, a in curve.points]), abs=1e-12)


def test_coverage_curve_from_predictions_and_margins():
    rng = np.random.default_rng(7)
    preds = rng.integers(0, 3, size=41)
    margins = rng.integers(0, 4, size=41) / 2.0  # many ties
    y = rng.integers(0, 3, size=41)
    grid = (1.0, 0.7, 0.3, 0.01)
    curve = an.coverage_curve(preds, margins, y, retention_grid=grid)
    assert curve.points == tuple(reference_selective(preds, margins, y, grid))
    with pytest.raises(ValueError):
        an.coverage_curve(preds[:0], margins[:0], y[:0])


def test_selective_curve_full_coverage_is_plain_accuracy():
    circ = random_circuit(seed=3)
    rng = np.random.default_rng(4)
    x = rng.integers(-1, 2, size=(50, 5))
    y = rng.integers(0, 2, size=50)
    curve = an.selective_curve(circ, x, y)
    _, _, preds, _ = cc.eval_circuit(circ, x)
    assert curve.accuracy_at(1.0) == pytest.approx((preds == y).mean())
    with pytest.raises(KeyError):
        curve.accuracy_at(0.33)


def test_selective_curve_validates_grid():
    circ = random_circuit(seed=5)
    x = np.zeros((4, 5), dtype=int)
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        an.selective_curve(circ, x, y, retention_grid=())
    with pytest.raises(ValueError):
        an.selective_curve(circ, x, y, retention_grid=(0.5, 1.0))
    with pytest.raises(ValueError):
        an.selective_curve(circ, x, y, retention_grid=(1.0, 0.0))
    with pytest.raises(ValueError):
        an.selective_curve(circ, x[:0], y[:0])


def test_selective_curve_keeps_at_least_one_sample():
    circ = random_circuit(seed=6)
    x = np.zeros((3, 5), dtype=int)
    y = np.array([0, 0, 1])
    curve = an.selective_curve(circ, x, y, retention_grid=(1.0, 0.01))
    assert 0.0 <= curve.accuracy_at(0.01) <= 1.0


# ----------------------------------------------------------- diversity

def reference_gini(counts, vocab):
    """Mean absolute difference form, exploiting the zero padding."""
    counts = list(counts)
    u = len(counts)
    total = sum(counts)
    pair_sum = sum(abs(a - b) for a in counts for b in counts)
    pair_sum += 2 * (vocab - u) * total  # pairs against padded zeros
    return pair_sum / (2 * vocab * total)


def test_diversity_report_small_example():
    circ = circuit_with_gates(["and", "and", "or", "xor"])
    rep = an.diversity_report(circ)
    assert rep.n_neurons == 4
    assert rep.vocab_size == 3**9
    assert rep.unique_gates == 3
    assert rep.max_copies == 2
    assert rep.singletons == 2
    assert rep.redundancy == pytest.approx(0.25)
    # exp of the entropy of [1/2, 1/4, 1/4]
    entropy = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert rep.effective_diversity == pytest.approx(math.exp(entropy))
    assert rep.gini == pytest.approx(reference_gini([2, 1, 1], 3**9),
                                     rel=1e-12)


def test_diversity_uniform_over_vocab_has_zero_gini():
    # four distinct gates in a vocabulary of four is perfect equality
    net = nw.init_network((4,), 3, 7, GS, arch="binary")
    net.params[0][:] = 0.0
    for j, g in enumerate((1, 6, 7, 14)):
        net.params[0][j, g] = 9.0
    circ = cc.harden_binary(net)
    rep = an.diversity_report(circ, vocab_size=4)
    assert rep.unique_gates == 4
    assert rep.gini == pytest.approx(0.0, abs=1e-12)
    assert rep.effective_diversity == pytest.approx(4.0)


def test_diversity_single_gate_everywhere():
    circ = circuit_with_gates(["and"] * 6)
    rep = an.diversity_report(circ)
    assert rep.unique_gates == 1
    assert rep.effective_diversity == pytest.approx(1.0)
    assert rep.redundancy == pytest.approx(1 - 1 / 6)
    assert rep.gini == pytest.approx(reference_gini([6], 3**9), rel=1e-12)


def test_diversity_binary_vocab_dispatch():
    net = nw.init_network((4,), 3, 8, GS, arch="binary")
    rep = an.diversity_report(cc.harden_binary(net))
    assert rep.vocab_size == 16


# ------------------------------------------------------------ spectrum

def test_binary_equivalence_by_corner_rule():
    assert an.is_binary_equivalent(al.NAMED_GATES["and"].as_array())
    assert an.is_binary_equivalent(al.NAMED_GATES["true"].as_array())
    assert not an.is_binary_equivalent(al.NAMED_GATES["unknown"].as_array())
    # a gate that only fails off the corners still counts as binary
    tbl = al.NAMED_GATES["and"].as_array().copy()
    tbl[al.grid_index(0, 0)] = 0
    assert an.is_binary_equivalent(tbl)
    tbl[al.grid_index(1, 1)] = 0
    assert not an.is_binary_equivalent(tbl)


def test_spectral_profile_constructed_circuit():
    import tritnet.fourier as fr

    circ = circuit_with_gates(["and", "true", "unknown", "a"])
    prof = an.spectral_profile(circ)
    assert prof.unique_gates == 4
    assert prof.zero_energy_gates == 1       # the all-UNKNOWN gate
    assert prof.pct_ternary == pytest.approx(25.0)
    assert prof.class_shares["FULL"] == pytest.approx(0.25)   # Kleene AND
    assert prof.class_shares["LINEAR"] == pytest.approx(0.75)
    # reference aggregation over the three gates with energy
    names = ("const", "linear", "quad", "cubic", "quartic")
    sums = dict.fromkeys(names, 0.0)
    for g in ("and", "true", "a"):
        fhat = fr.fourier_transform(al.NAMED_GATES[g].as_array().astype(float))
        bands = fr.spectral_energy_bands(fhat)
        for nm in names:
            sums[nm] += bands[nm]
    for nm in names:
        assert prof.band_shares[nm] == pytest.approx(sums[nm] / 3, abs=1e-12)
    assert sum(prof.band_shares.values()) == pytest.approx(1.0, abs=1e-12)


def test_spectral_profile_counts_distinct_gates_once():
    a = an.spectral_profile(circuit_with_gates(["and", "and", "or"]))
    b = an.spectral_profile(circuit_with_gates(["and", "or"]))
    assert a.unique_gates == b.unique_gates == 2
    assert a.band_shares == b.band_shares


# ------------------------------------------------------------ spearman

def test_spearman_frozen_values():
    assert an.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert an.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # classic d^2 formula: 1 - 6 * 2 / (4 * 15)
    assert an.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_average_ranks_on_ties():
    x = [1.0, 1.0, 2.0, 3.0]
    y = [5.0, 6.0, 7.0, 8.0]
    rx = np.array([1.5, 1.5, 3.0, 4.0])
    ry = np.array([1.0, 2.0, 3.0, 4.0])
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    want = float((rxc * ryc).sum()
                 / math.sqrt((rxc**2).sum() * (ryc**2).sum()))
    assert an.spearman(x, y) == pytest.approx(want, rel=1e-12)


def test_spearman_validation():
    with pytest.raises(ValueError):
        an.spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        an.spearman([1, 2], [3, 4, 5])
    with pytest.raises(ValueError):
        an.spearman([1, 1, 1], [1, 2, 3])


# -------------------------------------------------------------- sweeps

TINY = pl.RunRecipe(body_widths=(12,), output_neurons=8, steps=40,
                    batch_size=20, eval_every=20, seed=0)


def tiny_moons():
    full = dt.gen_dataset("moons", 80, 0.3, 0)
    return dt.split_dataset(full, 60)


def test_separation_sweep_rows():
    rows = an.separation_sweep([1.0, 3.0], TINY, n_train=60, n_test=30)
    assert len(rows) == 2
    for row, sep in zip(rows, (1.0, 3.0)):
        assert row["sep"] == sep
        assert row["bayes_accuracy"] == pytest.approx(
            dt.bayes_accuracy_gaussians(sep))
        assert 0.0 <= row["ternary_accuracy"] <= 1.0
        assert 0.0 <= row["binary_accuracy"] <= 1.0
        assert 0.0 <= row["unknown_fraction"] <= 1.0
        assert "error" not in row


def test_delta_sweep_rows():
    train_ds, test_ds = tiny_moons()
    rows = an.delta_sweep([0.0, 1.0], TINY, train_ds, test_ds)
    assert [r["delta"] for r in rows] == [0.0, 1.0]
    assert rows[0]["encoder_unknown_share"] == 0.0
    assert rows[1]["encoder_unknown_share"] > 0.0
    for r in rows:
        assert 0.0 <= r["circuit_accuracy"] <= 1.0


def test_resolution_sweep_rows():
    train_ds, test_ds = tiny_moons()
    rows = an.resolution_sweep([2, 4], [(8,), (16,)], TINY, train_ds, test_ds)
    assert [r["thresholds"] for r in rows] == [2, 4]
    assert [r["resolution"] for r in rows] == [3, 5]
    assert [r["input_dim"] for r in rows] == [4, 8]
    assert rows[1]["body_widths"] == [16]
    with pytest.raises(ValueError):
        an.resolution_sweep([2, 4], [(8,)], TINY, train_ds, test_ds)


def test_sweep_captures_numerical_failures_per_row():
    train_ds, test_ds = tiny_moons()
    exploding = pl.vary(TINY, lr=1e308, lambda_max=0.5)
    with np.errstate(all="ignore"):
        rows = an.delta_sweep([1.0], exploding, train_ds, test_ds)
    assert len(rows) == 1
    assert "error" in rows[0]
    assert "circuit_accuracy" not in rows[0]
    assert rows[0]["encoder_unknown_share"] > 0.0
