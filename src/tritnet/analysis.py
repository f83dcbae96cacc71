"""Circuit-level analyses: abstention, gate diversity, spectra, sweeps.

Selective prediction uses the GroupSum margin (top score minus second
score) as a confidence signal: UNKNOWN-heavy circuits produce genuinely
small margins on ambiguous inputs, so dropping low-margin samples
should raise accuracy on what remains. The coverage curve reports
accuracy at a grid of retention fractions and its mean over the grid as
an area-under-curve summary (stored positive; printed reports flip the
sign so that a lower printed value means a better curve, matching the
convention of risk-style tables).

Gate diversity summarizes how many distinct truth tables a circuit
actually uses. The effective diversity is exp of the Shannon entropy
(in nats) of the usage distribution, and the concentration Gini
coefficient uses the mean-absolute-difference form over usage counts
padded to the architecture's full gate vocabulary (3^9 ternary gates,
16 Boolean gates), so a circuit that leans on one gate scores close
to 1 and uniform usage of the whole vocabulary scores 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, fourier, pipeline
from . import data as data_mod
from .circuit import Circuit, eval_circuit
from .network import ARCHS
from .training import NumericalFailure

#: Retention fractions of a coverage curve: 1.0 down to 0.05 in steps of 0.05.
RETENTION_GRID = tuple(round(0.05 * i, 2) for i in range(20, 0, -1))


@dataclass
class CoverageCurve:
    """Accuracy at decreasing retention fractions, plus the mean AUC."""

    points: tuple[tuple[float, float], ...]  # (coverage, accuracy)
    auc: float
    n_samples: int

    def accuracy_at(self, coverage: float) -> float:
        for c, acc in self.points:
            if abs(c - coverage) < 1e-9:
                return acc
        raise KeyError(f"coverage {coverage} not on the retention grid")


def selective_curve(circuit: Circuit, x_enc, y) -> CoverageCurve:
    """Margin-ordered selective accuracy of a circuit on encoded inputs.

    `x_enc` is in the architecture's own domain, bits for the binary
    baseline, and goes through its `trit_inputs` map, as in
    `circuit.gap_report`. Runs the circuit once and hands its
    predictions and margins to `coverage_curve`.
    """
    trits = ARCHS[circuit.arch].trit_inputs(np.atleast_2d(np.asarray(x_enc)))
    _, _, preds, margins = eval_circuit(circuit, trits)
    return coverage_curve(preds, margins, y)


def coverage_curve(preds, margins, y) -> CoverageCurve:
    """Selective accuracy from a circuit's predictions and margins.

    Samples are sorted by margin, descending, with ties kept in stable
    input order; at each retention fraction c the accuracy over the
    ceil(c * n) most confident samples is reported, for each c of
    RETENTION_GRID.
    """
    preds = np.atleast_1d(preds)
    y = np.atleast_1d(np.asarray(y))
    n = preds.shape[0]
    if n == 0:
        raise ValueError("cannot build a coverage curve on an empty dataset")
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for {n} rows")
    order = np.argsort(-np.atleast_1d(margins), kind="stable")
    correct = (preds == y)[order]
    cum = np.cumsum(correct)
    points = []
    for c in RETENTION_GRID:
        kept = math.ceil(c * n)
        points.append((c, float(cum[kept - 1]) / kept))
    auc = float(np.mean([acc for _, acc in points]))
    return CoverageCurve(points=tuple(points), auc=auc, n_samples=n)


@dataclass
class DiversityReport:
    """How widely a circuit spreads over its gate vocabulary."""

    n_neurons: int
    vocab_size: int
    unique_gates: int
    effective_diversity: float
    gini: float
    redundancy: float
    max_copies: int
    singletons: int


def diversity_report(circuit: Circuit) -> DiversityReport:
    """Usage statistics of the distinct gates in a circuit.

    The vocabulary is the circuit's architecture's (`ArchSpec.vocab`):
    3^9 gates, or 16 for circuits hardened from the binary baseline.
    """
    vocab_size = len(ARCHS[circuit.arch].vocab)
    ids = np.concatenate(circuit.gate_ids)
    n = ids.size
    _, counts = np.unique(ids, return_counts=True)
    u = counts.size
    if u > vocab_size:
        raise ValueError(f"{u} distinct gates exceed vocabulary {vocab_size}")
    p = counts / n
    entropy = float(-(p * np.log(p)).sum())
    # Gini over counts padded with the unused part of the vocabulary,
    # via the sorted-counts identity for the mean absolute difference.
    full = np.sort(np.concatenate([np.zeros(vocab_size - u), counts]))
    ranks = np.arange(1, vocab_size + 1)
    gini = float(2.0 * (ranks * full).sum() / (vocab_size * full.sum())
                 - (vocab_size + 1.0) / vocab_size)
    return DiversityReport(
        n_neurons=int(n),
        vocab_size=int(vocab_size),
        unique_gates=int(u),
        effective_diversity=float(np.exp(entropy)),
        gini=gini,
        redundancy=float(1.0 - u / n),
        max_copies=int(counts.max()),
        singletons=int((counts == 1).sum()),
    )


@dataclass
class SpectralProfile:
    """Aggregate spectral makeup of a circuit's distinct gates."""

    unique_gates: int
    pct_ternary: float  # share of gates not reducible to a Boolean gate
    class_shares: dict[str, float]  # LINEAR/BILINEAR/QUADRATIC/FULL
    band_shares: dict[str, float]  # mean normalized energy per degree band
    zero_energy_gates: int


def is_binary_equivalent(table: np.ndarray):
    """True when the gate is a Boolean gate in disguise.

    The test restricts the table to the four Boolean corners: if none
    of them is UNKNOWN, Boolean signals pass through the gate exactly
    as through the corner-defined Boolean gate, and the five remaining
    entries are never exercised. A (..., 9) stack of tables gives a
    boolean array.
    """
    t = np.asarray(table)
    return (t[..., list(algebra.CORNER_INDICES)] != 0).all(axis=-1)


def spectral_profile(circuit: Circuit) -> SpectralProfile:
    """Spectral classes and degree-band energies over distinct gates.

    Band shares are the mean of the per-gate normalized band vectors;
    gates with zero spectral energy (the all-UNKNOWN gate) are counted
    separately and excluded from that mean.
    """
    ids = np.unique(np.concatenate(circuit.gate_ids))
    tables = algebra.decode_tables(ids)
    fhat = fourier.fourier_transform(tables)
    classes = fourier.spectral_class(fhat)
    n_ternary = int((~is_binary_equivalent(tables)).sum())
    bands = fourier.spectral_energy_bands(fhat)
    live = bands["total"] != 0.0
    # Per-gate bands summed over the gates in id order: axis 0 of a
    # C-ordered array adds row after row, like a loop over the gates.
    band_sum = np.stack([bands[name][live] for name in fourier.BAND_NAMES],
                        axis=1).sum(axis=0)
    u = ids.size
    n_live = int(live.sum())
    return SpectralProfile(
        unique_gates=int(u),
        pct_ternary=100.0 * n_ternary / u if u else 0.0,
        class_shares={name: int((classes == name).sum()) / u if u else 0.0
                      for name in fourier.SPECTRAL_CLASSES},
        band_shares={name: float(v) / n_live if n_live else 0.0
                     for name, v in zip(fourier.BAND_NAMES, band_sum)},
        zero_energy_gates=u - n_live,
    )


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError("need at least 2 points")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty_like(v)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        raise ValueError("rank variance is zero; correlation undefined")
    return float((rx * ry).sum() / denom)


# --------------------------------------------------------------- sweeps

def separation_sweep(seps, recipe, n_train: int, n_test: int, data_seed: int) -> list[dict]:
    """Train both architectures on gaussians of growing separation.

    Returns one row per separation with the hardened test accuracy of
    each architecture, the UNKNOWN share of the ternary circuit and the
    closed-form optimal accuracy. A training failure is recorded in
    its row (key "error") without aborting the remaining rows.
    """
    rows = []
    for sep in seps:
        full = data_mod.gen_dataset("gaussians", n_train + n_test, 0.0,
                                    data_seed, sep=float(sep))
        train_ds, test_ds = data_mod.split_dataset(full, n_train)
        row: dict = {"sep": float(sep),
                     "bayes_accuracy": data_mod.bayes_accuracy_gaussians(sep)}
        errors = []
        for arch in ARCHS:
            try:
                res = pipeline.run_pipeline(train_ds, test_ds, replace(recipe, arch=arch))
            except NumericalFailure as exc:
                errors.append(f"{arch}: {exc}")
                continue
            row[f"{arch}_accuracy"] = res.gap.circuit_accuracy
            if arch == "ternary":
                row["unknown_fraction"] = res.gap.unknown_fraction
        if errors:
            row["error"] = "; ".join(errors)
        rows.append(row)
    return rows


def delta_sweep(recipes, train_ds, test_ds) -> list[dict]:
    """Runs of the given recipes, which differ in their dead-zone width
    `delta`, on a fixed dataset, one row per recipe."""
    rows = []
    for r in recipes:
        enc = data_mod.fit_encoder(train_ds.features, r.thresholds, r.delta, mode=r.arch)
        share = algebra.unknown_share(data_mod.encode(train_ds.features, enc))
        rows.append(_run_row({"delta": r.delta, "encoder_unknown_share": share},
                             r, train_ds, test_ds))
    return rows


def resolution_sweep(recipes, train_ds, test_ds) -> list[dict]:
    """Runs of the given recipes, which differ in their encoder
    resolution `thresholds` and body widths (wider networks for finer
    inputs), on a fixed dataset, one row per recipe."""
    return [_run_row({"thresholds": r.thresholds, "resolution": r.thresholds + 1,
                      "body_widths": list(r.body_widths),
                      "input_dim": train_ds.d * r.thresholds}, r, train_ds, test_ds)
            for r in recipes]


def _run_row(row: dict, recipe, train_ds, test_ds) -> dict:
    """Run one row's recipe into the row; a training failure is recorded
    in it (key "error")."""
    try:
        res = pipeline.run_pipeline(train_ds, test_ds, recipe)
        row["circuit_accuracy"] = res.gap.circuit_accuracy
        row["unknown_fraction"] = res.gap.unknown_fraction
    except NumericalFailure as exc:
        row["error"] = str(exc)
    return row
