"""Hardening soft networks into discrete circuits, and running them.

One hardener serves both architectures; `_HARD_TABLES` holds the part
that differs. Hardening a ternary network rounds every neuron's
truth-table values to the nearest trit (ties away from zero) and
stores the resulting gate id. The mean squared rounding residue equals
the commitment loss of the soft network exactly, so a committed
network loses nothing in the discretization.

Hardening the binary baseline takes every neuron's argmax-probability
Boolean gate (ties to the lowest gate index) and embeds its 4-entry
table on the ternary grid: corner entries carry the Boolean outputs
mapped 0 -> -1, 1 -> +1, and entries with an UNKNOWN input take the
consensus of all Boolean completions, or UNKNOWN if they disagree. On
all-Boolean inputs the embedded circuit reproduces the Boolean circuit
bit for bit, since non-corner rows are never exercised;
`Circuit.trit_inputs` maps the baseline's encoded bits to those
corners.

Circuits evaluate bit-sliced. Each trit is split into two bit-planes,
TRUE and FALSE (UNKNOWN where neither bit is set), with 64
samples packed into every uint64 word, so one bitwise numpy operation
evaluates a gate on 64 samples at once. A gate is the OR over its 9
grid points (a, b) of the minterm [a] & [b] of its parents' planes,
taken into the TRUE plane where its table holds +1 and into the FALSE
plane where it holds -1. Rows run through the circuit in blocks of
`BLOCK_ROWS`, so the working memory is set by that constant and the
widest layer, never by the batch size. Only the output layer is
unpacked back to int8 trits. Class predictions take the argmax score
with ties broken toward the lowest class index, and the margin is the
gap between the top two scores.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .network import (
    ConnectivityMap,
    GroupSumConfig,
    Network,
    boolean_gate_table,
    forward_soft,
)


@dataclass
class Circuit:
    """A discrete ternary gate circuit with a GroupSum head."""

    input_dim: int
    widths: tuple[int, ...]
    conn: ConnectivityMap
    gate_ids: list[np.ndarray]  # per layer, int64
    groupsum: GroupSumConfig
    provenance: dict = field(default_factory=dict)
    tables: list[np.ndarray] = field(init=False)  # decoded gate_ids, (w, 9) int8

    def __post_init__(self):
        self.tables = [algebra.decode_tables(ids) for ids in self.gate_ids]

    @property
    def n_neurons(self) -> int:
        return sum(self.widths)

    def all_gate_ids(self) -> np.ndarray:
        return np.concatenate([np.asarray(g) for g in self.gate_ids])

    def trit_inputs(self, x_enc) -> np.ndarray:
        """Encoded inputs as circuit inputs: a circuit hardened from the
        binary baseline takes its bits at the +-1 corners."""
        if self.provenance.get("arch") == "binary":
            return 2 * np.asarray(x_enc).astype(np.int64) - 1
        return x_enc


def _boolean_to_ternary_table(gate: int) -> np.ndarray:
    """Embed one Boolean gate on the ternary grid (consensus rule)."""
    bits = boolean_gate_table(gate)  # (a, b) in ((0,0), (0,1), (1,0), (1,1))

    def bool_out(a: int, b: int) -> int:
        return bits[2 * a + b]

    entries = np.zeros(9, dtype=np.int8)
    for g, (a, b) in enumerate(algebra.GRID_POINTS):
        a_opts = (0, 1) if a == 0 else ((a + 1) // 2,)
        b_opts = (0, 1) if b == 0 else ((b + 1) // 2,)
        outs = {bool_out(ai, bi) for ai in a_opts for bi in b_opts}
        entries[g] = 0 if len(outs) > 1 else 2 * outs.pop() - 1
    return entries


#: Ternary embeddings of the 16 Boolean gates, indexed by gate number.
BOOLEAN_EMBEDDINGS = np.stack([_boolean_to_ternary_table(k) for k in range(16)])

#: One layer's hardened (w, 9) tables, per architecture: truth tables
#: rounded to trits, or the embedding of the argmax gate (lowest index).
_HARD_TABLES = {
    "ternary": lambda w: algebra.round_table(w @ algebra.VANDERMONDE.T),
    "binary": lambda logit: BOOLEAN_EMBEDDINGS[logit.argmax(axis=1)],
}


def harden_network(net: Network, source_hash: str | None = None) -> Circuit:
    """Replace every neuron by its hardened gate (see the module doc)."""
    hard_tables = _HARD_TABLES[net.arch]
    return Circuit(
        input_dim=net.input_dim,
        widths=net.widths,
        conn=net.conn,
        gate_ids=[algebra.encode_tables(hard_tables(w)) for w in net.params],
        groupsum=net.groupsum,
        provenance={
            "arch": net.arch,
            "source_sha256": source_hash or "",
            "hardened_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
    )


# Kept under its former name, which the benchmark's tracer reports.
harden_binary = harden_network


#: Rows run through the circuit together. The engine's working memory
#: grows with this constant and the widest layer, not with the batch.
#: At 2048 rows a 512-wide layer's planes are 32 x 512 words, so the
#: few live ones of a layer stay within a core's L2 cache.
BLOCK_ROWS = 2048

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(np.int8)

#: Entry (t << 8) | f holds, as 8 int8 packed in one uint64, the trits
#: of the 8 samples in TRUE-plane byte t and FALSE-plane byte f.
_BYTE_PAIR_TRITS = (_BYTE_BITS[:, None, :] - _BYTE_BITS[None, :, :]
                    ).reshape(-1).view(np.uint64)


def _selectors(table: np.ndarray) -> np.ndarray:
    """(2, 9, w) uint64 masks of one layer's (w, 9) tables.

    [0, g] is all ones for the neurons whose table holds TRUE at grid
    point g, [1, g] for those that hold FALSE there.
    """
    hits = np.stack([table.T == algebra.TRUE, table.T == algebra.FALSE])
    return np.where(hits, _ALL_ONES, np.uint64(0))


def _pack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) trit rows -> TRUE and FALSE planes, each (ceil(m/64), d).

    Word r of a plane's column holds rows 64 r to 64 r + 63.
    """
    m, d = x.shape
    words = -(-m // 64)
    planes = []
    for value in (algebra.TRUE, algebra.FALSE):
        packed = np.zeros((words * 8, d), dtype=np.uint8)
        packed[:-(-m // 8)] = np.packbits(x == value, axis=0, bitorder="little")
        word_major = packed.reshape(words, 8, d).transpose(0, 2, 1)
        planes.append(np.ascontiguousarray(word_major).view(np.uint64)[..., 0])
    return planes[0], planes[1]


def _gate_layer(true, false, s, t, selectors):
    """Planes of one layer from its parents' planes (see module doc).

    The planes are word-major, (words, neurons), so each neuron's masks
    broadcast along the contiguous axis.
    """
    def trits(idx):  # the parents' FALSE, UNKNOWN, TRUE planes, in grid order
        pt, pf = true.take(idx, axis=1), false.take(idx, axis=1)
        return pf, ~(pt | pf), pt

    a, b = trits(s), trits(t)
    out_true = np.zeros_like(a[0])
    out_false = np.zeros_like(a[0])
    minterm = np.empty_like(a[0])
    picked = np.empty_like(a[0])
    for g in range(9):
        np.bitwise_and(a[g // 3], b[g % 3], out=minterm)
        out_true |= np.bitwise_and(minterm, selectors[0, g], out=picked)
        out_false |= np.bitwise_and(minterm, selectors[1, g], out=picked)
    return out_true, out_false


def _unpack(true: np.ndarray, false: np.ndarray, m: int) -> np.ndarray:
    """Inverse of `_pack` on a layer's planes: (m, w) int8 trits."""
    words, w = true.shape
    pairs = (true.view(np.uint8).astype(np.uint16) << 8) | false.view(np.uint8)
    trits = _BYTE_PAIR_TRITS[pairs].view(np.int8).reshape(words, w, 64)
    return trits.transpose(0, 2, 1).reshape(words * 64, w)[:m]


def eval_circuit(circuit: Circuit, x):
    """Run trit inputs through the circuit, bit-sliced in row blocks.

    Returns (outputs, scores, predictions, margins): the output-layer
    trits, GroupSum scores, argmax class (lowest index on ties) and the
    top-minus-second score margin. Accepts one vector or a batch.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"expected one input vector or a 2-D batch, "
                         f"got shape {x.shape}")
    if x.shape[1] != circuit.input_dim:
        raise ValueError(f"expected {circuit.input_dim} inputs, got {x.shape[1]}")
    n = x.shape[0]
    selectors = [_selectors(tbl) for tbl in circuit.tables]
    k, tau = circuit.groupsum.k, circuit.groupsum.tau
    group = circuit.widths[-1] // k
    outputs = np.empty((n, circuit.widths[-1]), dtype=np.int8)
    scores = np.empty((n, k))
    preds = np.empty(n, dtype=np.intp)
    margins = np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        xb = x[rows]
        xi = xb.astype(np.int64)
        if xb.size and (np.any(xi != xb) or xi.min() < -1 or xi.max() > 1):
            raise ValueError("circuit inputs must be trits in {-1, 0, +1}")
        true, false = _pack(xi)
        for (s, t), sel in zip(circuit.conn.layers, selectors):
            true, false = _gate_layer(true, false, s, t, sel)
        outputs[rows] = _unpack(true, false, xb.shape[0])
        scores[rows] = outputs[rows].reshape(-1, k, group).sum(axis=2) / tau
        preds[rows] = scores[rows].argmax(axis=1)
        top2 = -np.partition(-scores[rows], 1, axis=1)[:, :2]
        margins[rows] = top2[:, 0] - top2[:, 1]
    if single:
        return outputs[0], scores[0], int(preds[0]), float(margins[0])
    return outputs, scores, preds, margins


def hardening_error(net: Network) -> float:
    """Mean squared residue of rounding all truth tables to trits.

    Equals `training.commitment_loss` exactly; computed independently
    through the rounding path rather than the lattice-distance path.
    The binary baseline is hardened by argmax, not rounding: 0.
    """
    if net.arch != "ternary":
        return 0.0
    total = 0.0
    for w in net.params:
        tbl = w @ algebra.VANDERMONDE.T
        r = tbl - algebra.round_table(tbl)
        total += float((r * r).sum())
    return total / (9.0 * net.n_neurons)


@dataclass
class GapReport:
    """Soft-versus-hardened comparison on one evaluation set."""

    soft_accuracy: float
    circuit_accuracy: float
    gap_pp: float
    hardening_error: float
    unknown_fraction: float
    n_samples: int


def gap_report(net, circuit: Circuit, x_enc, y) -> GapReport:
    """Accuracy of the soft network and its hardened circuit.

    `x_enc` holds the encoded inputs in the architecture's own domain:
    trits for a ternary network, bits for the binary baseline (bits are
    mapped to the +-1 corners for the circuit pass). The gap is soft
    minus circuit accuracy in percentage points; unknown_fraction is
    the share of UNKNOWN trits among all output-neuron values.
    """
    x_enc = np.atleast_2d(np.asarray(x_enc))
    y = np.atleast_1d(np.asarray(y))
    if x_enc.shape[0] == 0:
        raise ValueError("cannot report on an empty dataset")
    _, scores = forward_soft(net, x_enc.astype(float))
    soft_pred = scores.argmax(axis=1)
    outputs, _, circ_pred, _ = eval_circuit(circuit, circuit.trit_inputs(x_enc))
    soft_acc = float((soft_pred == y).mean())
    circ_acc = float((circ_pred == y).mean())
    return GapReport(
        soft_accuracy=soft_acc,
        circuit_accuracy=circ_acc,
        gap_pp=100.0 * (soft_acc - circ_acc),
        hardening_error=hardening_error(net),
        unknown_fraction=float((outputs == 0).mean()),
        n_samples=int(x_enc.shape[0]),
    )


def file_sha256(path) -> str:
    """Hex digest of a file's bytes, for provenance fields."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
