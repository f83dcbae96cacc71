"""Hardening soft networks into discrete circuits, and running them.

A `Circuit` is the `network.Model` of the network it was hardened from
(the same arch, wiring and GroupSum head) with gate ids for parameters.
One hardener serves both architectures; the arch's `network.ArchSpec`
gives the hardening rule (`harden`), the input map (`trit_inputs`) and
whether `hardening_error` applies (`lattice`).
Hardening a ternary network rounds every neuron's truth-table values to
the nearest trit (ties away from zero) and stores the resulting gate id.
The mean squared rounding residue equals the commitment loss of the soft
network exactly, so a committed network loses nothing in the
discretization.

Hardening the binary baseline takes every neuron's argmax-probability
Boolean gate (ties to the lowest gate index) and embeds its 4-entry
table on the ternary grid: corner entries carry the Boolean outputs
mapped 0 -> -1, 1 -> +1, and entries with an UNKNOWN input take the
consensus of all Boolean completions, or UNKNOWN if they disagree. On
all-Boolean inputs the embedded circuit reproduces the Boolean circuit
bit for bit, since non-corner rows are never exercised. Its input map
takes encoded bits to those corners and refuses any other value.

Circuits evaluate bit-sliced. Each trit is split into two bit-planes,
TRUE and FALSE (UNKNOWN where neither bit is set), with 64
samples packed into every uint64 word, so one bitwise numpy operation
evaluates a gate on 64 samples at once. A parent's F, U and T
indicators are exclusive, so a gate's 9 grid minterms [a] & [b] may be
combined by XOR, and [U] = 1 ^ [T] ^ [F]. Each output plane is then
the XOR over x in (1, aT, aF) and y in (1, bT, bF) of C[x, y] & x & y,
with GF(2) coefficient masks C built once per circuit from its gate
ids, its one copy of the gates: 4 gathers and 9 bitwise calls per layer.
Only the neurons with a path to the output run, and have masks
(`ConnectivityMap.live`). Rows run in blocks of `BLOCK_ROWS`, so
the working memory is set by that constant and the widest layer,
never by the batch size. Integer inputs are range-checked and packed
in their own dtype; others must convert to int64 unchanged. Only the
output layer is unpacked back to int8 trits, straight into the rows of
the result. Class predictions take the argmax score with ties broken
toward the lowest class index, and the margin is the gap between the
top two scores; one pass over the k score columns yields both.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .network import ARCHS, Model, Network, soft_scores


@dataclass(frozen=True)
class Circuit(Model):
    """A `Model` of ternary gates hardened from an `arch` network; frozen,
    its gate ids read-only and in range, as the engine's masks derive from them."""

    gate_ids: tuple[np.ndarray, ...]  # per layer, read-only int64
    provenance: dict = field(default_factory=dict)
    coeffs: tuple[np.ndarray, ...] = field(init=False)  # `_coefficients`, live neurons

    def __post_init__(self):
        super().__post_init__()
        ids = tuple(np.array(g, dtype=np.int64) for g in self.gate_ids)
        self._check_layers("gate_ids", ids)
        for array in ids:
            array.flags.writeable = False
        object.__setattr__(self, "gate_ids", ids)
        object.__setattr__(self, "coeffs", tuple(
            _coefficients(algebra.decode_tables(g)[keep])
            for (keep, _, _), g in zip(self.conn.live, ids)))


def harden_network(net: Network) -> Circuit:
    """Replace every neuron by its hardened gate (see the module doc)."""
    harden = ARCHS[net.arch].harden
    return Circuit(
        arch=net.arch,
        conn=net.conn,
        groupsum=net.groupsum,
        gate_ids=[algebra.encode_tables(harden(w)) for w in net.params],
        provenance={
            "source_sha256": "",
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


def _coefficients(table: np.ndarray) -> np.ndarray:
    """(3, 2, 3, 1, w) uint64 GF(2) masks of one layer's (w, 9) tables.

    [x, p, y] is all ones for the neurons whose TRUE (p = 0) or FALSE
    (p = 1) plane holds the term x & y, for basis elements x of parent a
    and y of parent b, each in the order (1, [T], [F]).
    """
    # basis[x, v]: whether [v] holds term x, for v = F, U, T; [U] = 1 ^ [T] ^ [F]
    basis = np.array([[0, 1, 0], [0, 1, 1], [1, 1, 0]])
    hits = np.stack([table == algebra.TRUE, table == algebra.FALSE]).reshape(2, -1, 3, 3)
    terms = np.einsum("xi,pwij,yj->xpyw", basis, hits.astype(np.int64), basis) % 2
    return np.where(terms[:, :, :, None, :] == 1, _ALL_ONES, np.uint64(0))


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


def _gate_layer(true, false, s, t, coeffs):
    """Planes of one layer from its parents' planes (see module doc).

    The planes are word-major, (words, neurons), so each neuron's masks
    broadcast along the contiguous axis. h[p, y] collects the terms of
    plane p that carry basis element y of parent b.
    """
    one, c_true, c_false = coeffs
    h = np.bitwise_and(true.take(s, axis=1), c_true)  # (2, 3, words, w)
    h ^= np.bitwise_and(false.take(s, axis=1), c_false)
    h ^= one
    out = np.bitwise_and(true.take(t, axis=1), h[:, 1])  # (2, words, w)
    out ^= np.bitwise_and(false.take(t, axis=1), h[:, 2], out=h[:, 2])
    out ^= h[:, 0]
    return out[0], out[1]


def _unpack(true: np.ndarray, false: np.ndarray, out: np.ndarray) -> None:
    """Inverse of `_pack` on a layer's planes, written into the (m, w)
    int8 rows `out`: whole words straight through, then the last part."""
    words, w = true.shape
    whole = out.shape[0] // 64
    pairs = (true.view(np.uint8).astype(np.uint16) << 8) | false.view(np.uint8)
    trits = _BYTE_PAIR_TRITS[pairs].view(np.int8).reshape(words, w, 64).transpose(0, 2, 1)
    out[:64 * whole].reshape(whole, 64, w)[...] = trits[:whole]
    out[64 * whole:] = trits[whole:].reshape(-1, w)[:out.shape[0] - 64 * whole]


def _rank(scores: np.ndarray, preds: np.ndarray, margins: np.ndarray) -> None:
    """Argmax (lowest index on ties) and top-minus-second score of each
    row, in one pass over the k score columns; `margins` holds the
    running second score."""
    top = scores[:, 0].copy()
    preds[...] = 0
    margins[...] = -np.inf
    for c in range(1, scores.shape[1]):
        col = scores[:, c]
        np.copyto(preds, c, where=col > top)
        np.maximum(margins, np.minimum(top, col), out=margins)
        np.maximum(top, col, out=top)
    np.subtract(top, margins, out=margins)


def eval_circuit(circuit: Circuit, x):
    """Run trit inputs through the circuit, bit-sliced in row blocks.

    Returns (outputs, scores, predictions, margins): the output-layer
    trits, GroupSum scores, argmax class (lowest index on ties) and the
    top-minus-second score margin. Accepts one vector or a batch.
    """
    x, single = circuit.input_batch(np.asarray(x))
    n = x.shape[0]
    k, tau = circuit.groupsum.k, circuit.groupsum.tau
    group = circuit.widths[-1] // k
    outputs = np.empty((n, circuit.widths[-1]), dtype=np.int8)
    scores = np.empty((n, k))
    preds = np.empty(n, dtype=np.intp)
    margins = np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        true, false = _pack(algebra.exact_ints(
            x[rows], -1, 1, "circuit inputs must be trits in {-1, 0, +1}"))
        for (_, s, t), coeffs in zip(circuit.conn.live, circuit.coeffs):
            true, false = _gate_layer(true, false, s, t, coeffs)
        _unpack(true, false, outputs[rows])
        sums = outputs[rows].reshape(-1, k, group).sum(axis=2, dtype=np.int32)
        scores[rows] = sums / tau
        _rank(scores[rows], preds[rows], margins[rows])
    if single:
        return outputs[0], scores[0], int(preds[0]), float(margins[0])
    return outputs, scores, preds, margins


def hardening_error(net: Network) -> float:
    """Mean squared residue of rounding all truth tables to trits.

    Equals `training.commitment_loss` exactly; computed independently
    through the rounding path rather than the lattice-distance path.
    An architecture without a lattice, such as the binary baseline
    hardened by argmax, has no rounding residue: 0.
    """
    if not ARCHS[net.arch].lattice:
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
    if len(y) != x_enc.shape[0]:
        raise ValueError(f"{len(y)} labels for {x_enc.shape[0]} rows")
    soft_pred = soft_scores(net, x_enc).argmax(axis=1)
    outputs, _, circ_pred, _ = eval_circuit(circuit, ARCHS[circuit.arch].trit_inputs(x_enc))
    soft_acc = float((soft_pred == y).mean())
    circ_acc = float((circ_pred == y).mean())
    return GapReport(
        soft_accuracy=soft_acc,
        circuit_accuracy=circ_acc,
        gap_pp=100.0 * (soft_acc - circ_acc),
        hardening_error=hardening_error(net),
        unknown_fraction=algebra.unknown_share(outputs),
        n_samples=int(x_enc.shape[0]),
    )


def file_sha256(path) -> str:
    """Hex digest of a file's bytes, for provenance fields."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
