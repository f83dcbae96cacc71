"""Coverage curves, gate diversity, spectra and parameter sweeps."""

import math
from dataclasses import replace

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
    ids = [np.array([al.encode_table(al.NAMED_GATES[g]) for g in gate_names],
                    dtype=np.int64)]
    return cc.Circuit(arch="ternary", conn=conn,
                      gate_ids=ids, groupsum=groupsum)


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
                               an.RETENTION_GRID)
    assert curve.n_samples == 80
    for (c1, a1), (c2, a2) in zip(curve.points, want):
        assert c1 == c2
        assert a1 == pytest.approx(a2, abs=1e-12)
    assert curve.auc == pytest.approx(
        np.mean([a for _, a in curve.points]), abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selective_curve_maps_binary_bits_to_trits(seed):
    # bit 0 is FALSE on the circuit's grid, never UNKNOWN
    circ = cc.harden_network(nw.init_network((16, 16, 8), 6, seed, arch="binary"))
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(400, 6))
    y = rng.integers(0, 2, size=400)
    _, _, preds, margins = cc.eval_circuit(circ, nw.ARCHS["binary"].trit_inputs(x))
    assert an.selective_curve(circ, x, y) == an.coverage_curve(preds, margins, y)


def test_coverage_curve_from_predictions_and_margins():
    rng = np.random.default_rng(7)
    preds = rng.integers(0, 3, size=41)
    margins = rng.integers(0, 4, size=41) / 2.0  # many ties
    y = rng.integers(0, 3, size=41)
    curve = an.coverage_curve(preds, margins, y)
    assert curve.points == tuple(reference_selective(preds, margins, y,
                                                     an.RETENTION_GRID))
    with pytest.raises(ValueError):
        an.coverage_curve(preds[:0], margins[:0], y[:0])


@pytest.mark.parametrize("n_labels", [1, 9, 11])
def test_curves_refuse_a_label_count_unlike_the_rows(n_labels):
    circ = random_circuit(seed=3)
    x = np.random.default_rng(4).integers(-1, 2, size=(10, 5))
    y = np.zeros(n_labels, dtype=int)
    _, _, preds, margins = cc.eval_circuit(circ, x)
    message = f"^{n_labels} labels for 10 rows$"
    with pytest.raises(ValueError, match=message):
        an.coverage_curve(preds, margins, y)
    with pytest.raises(ValueError, match=message):
        an.selective_curve(circ, x, y)


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


def test_selective_curve_rejects_empty_data():
    circ = random_circuit(seed=5)
    x = np.zeros((4, 5), dtype=int)
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        an.selective_curve(circ, x[:0], y[:0])


def test_selective_curve_keeps_at_least_one_sample():
    circ = random_circuit(seed=6)
    x = np.zeros((3, 5), dtype=int)
    y = np.array([0, 0, 1])
    curve = an.selective_curve(circ, x, y)
    assert an.RETENTION_GRID[-1] * 3 < 1
    assert curve.accuracy_at(an.RETENTION_GRID[-1]) in (0.0, 1.0)


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
    # each of the 16 Boolean gates once is perfect equality
    net = nw.init_network((16,), 3, 7, GS, arch="binary")
    net.params[0][:] = 0.0
    for g in range(16):
        net.params[0][g, g] = 9.0
    circ = cc.harden_binary(net)
    rep = an.diversity_report(circ)
    assert rep.vocab_size == rep.unique_gates == 16
    assert rep.gini == pytest.approx(0.0, abs=1e-12)
    assert rep.effective_diversity == pytest.approx(16.0)


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
    assert an.is_binary_equivalent(al.NAMED_GATES["and"])
    assert an.is_binary_equivalent(al.NAMED_GATES["true"])
    assert not an.is_binary_equivalent(al.NAMED_GATES["unknown"])
    # a gate that only fails off the corners still counts as binary
    tbl = al.NAMED_GATES["and"].copy()
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
        fhat = fr.fourier_transform(al.NAMED_GATES[g].astype(float))
        bands = fr.spectral_energy_bands(fhat)
        for nm in names:
            sums[nm] += bands[nm]
    for nm in names:
        assert prof.band_shares[nm] == pytest.approx(sums[nm] / 3, abs=1e-12)
    assert sum(prof.band_shares.values()) == pytest.approx(1.0, abs=1e-12)


def loop_spectral_profile(circuit):
    """The per-gate loop spectral_profile replaced, kept as its oracle."""
    import tritnet.fourier as fr

    ids = np.unique(np.concatenate(circuit.gate_ids))
    classes = {"LINEAR": 0, "BILINEAR": 0, "QUADRATIC": 0, "FULL": 0}
    band_names = ("const", "linear", "quad", "cubic", "quartic")
    band_sum = {name: 0.0 for name in band_names}
    n_ternary = 0
    zero_energy = 0
    for gid in ids:
        table = np.array(al.decode_table(int(gid)), dtype=float)
        fhat = fr.TRANSFORM @ table
        classes[fr.spectral_class(fhat)] += 1
        if not (table[list(al.CORNER_INDICES)] != 0).all():
            n_ternary += 1
        energy = fhat * fhat
        total = float(energy.sum())
        if total == 0.0:
            zero_energy += 1
        else:
            for deg, name in enumerate(band_names):
                band_sum[name] += float(energy[fr.TOTAL_DEGREE == deg].sum()) / total
    u = ids.size
    live = u - zero_energy
    return an.SpectralProfile(
        unique_gates=int(u),
        pct_ternary=100.0 * n_ternary / u if u else 0.0,
        class_shares={k: v / u if u else 0.0 for k, v in classes.items()},
        band_shares={k: v / live if live else 0.0 for k, v in band_sum.items()},
        zero_energy_gates=int(zero_energy),
    )


def trained_circuit(arch):
    train_ds, test_ds = tiny_moons()
    return pl.run_pipeline(train_ds, test_ds, replace(TINY, arch=arch)).circuit


@pytest.mark.parametrize("make", [
    lambda: trained_circuit("ternary"),
    lambda: trained_circuit("binary"),
    lambda: cc.harden_network(nw.init_network((512, 512, 512, 200), 6, 3, GS)),
    lambda: circuit_with_gates(["unknown"]),
    lambda: circuit_with_gates(["unknown", "and", "a", "unknown"]),
    lambda: circuit_with_gates(["or"]),
], ids=["trained-ternary", "binary-embedded", "random-512x3+200",
        "all-unknown", "with-unknown", "one-gate"])
def test_spectral_profile_equals_the_per_gate_loop(make):
    circ = make()
    assert an.spectral_profile(circ) == loop_spectral_profile(circ)


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
    exploding = replace(TINY, lr=1e308, lambda_max=0.5)
    with np.errstate(all="ignore"):
        rows = an.delta_sweep([1.0], exploding, train_ds, test_ds)
    assert len(rows) == 1
    assert "error" in rows[0]
    assert "circuit_accuracy" not in rows[0]
    assert rows[0]["encoder_unknown_share"] > 0.0
