"""Reference results the benchmark checks the program's outputs against.

The evaluator reads only a circuit's gate ids, parent wiring and
GroupSum head, and looks every gate up in ``algebra.all_tables()``, so
it stays valid when the engine behind ``circuit.eval_circuit`` or the
``Circuit.tables`` field changes.
"""

from __future__ import annotations

import math

import numpy as np

#: Retention fractions of ``tritnet eval --selective``: 1.00, 0.95, ..., 0.05.
RETENTION_GRID = tuple(round(0.05 * i, 2) for i in range(20, 0, -1))


def reference_eval(circuit, x, all_tables: np.ndarray):
    """(outputs, scores, predictions, margins) of a circuit on trit rows x."""
    h = np.asarray(x, dtype=np.int64)
    for (s, t), ids in zip(circuit.conn.layers, circuit.gate_ids):
        flat = all_tables[np.asarray(ids)].astype(np.int64).ravel()
        offsets = 9 * np.arange(len(ids))
        h = flat[offsets + 3 * (h[:, s] + 1) + (h[:, t] + 1)]
    k, tau = circuit.groupsum.k, circuit.groupsum.tau
    scores = h.reshape(h.shape[0], k, -1).sum(axis=2) / tau
    preds = scores.argmax(axis=1)
    ranked = np.sort(scores, axis=1)
    margins = ranked[:, -1] - ranked[:, -2]
    return h, scores, preds, margins


def selective_auc(preds, margins, labels) -> float:
    """Mean accuracy over the retention grid, most confident rows first."""
    order = np.argsort(-np.asarray(margins), kind="stable")
    cum = np.cumsum((np.asarray(preds) == np.asarray(labels))[order])
    n = len(order)
    accs = []
    for c in RETENTION_GRID:
        kept = max(1, math.ceil(c * n))
        accs.append(float(cum[kept - 1]) / kept)
    return float(np.mean(accs))


def live_neuron_share(circuit) -> float:
    """Share of neurons with a path to the output layer through the wiring."""
    widths = circuit.widths
    live = np.ones(widths[-1], dtype=bool)
    n_live = int(live.sum())
    for l in range(len(widths) - 1, 0, -1):
        s, t = circuit.conn.layers[l]
        parents = np.zeros(widths[l - 1], dtype=bool)
        parents[np.asarray(s)[live]] = True
        parents[np.asarray(t)[live]] = True
        live = parents
        n_live += int(live.sum())
    return n_live / sum(widths)
