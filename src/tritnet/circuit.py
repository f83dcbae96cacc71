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
(`ConnectivityMap.live`).

Rows run in chunks of `_CHUNK_ROWS` on one worker thread per CPU this
process may use (the calling thread and the threads of an executor
joined before the call returns), up to the `BLOCK_ROWS // _CHUNK_ROWS`
chunks of one block; numpy's bitwise ops and `take` release the
interpreter lock. The chunks go round-robin, one to each worker, so at
most `BLOCK_ROWS` rows are in flight, and a batch of one chunk runs
inline. Each
worker owns a workspace allocated once per call, which holds each
array of a chunk that grows with a layer's width, so the working
memory is set by that constant and the widest layer, never by the
batch size or by how the workers interleave; results do not depend on
the thread count. Integer
inputs are range-checked and packed in their own dtype; others must
convert to int64 unchanged. The output planes are spread to byte lanes,
one sample a lane, whose sums over a class's neurons give the GroupSum
counts. `eval_circuit` allocates its four per-row results once and every
path writes into them: the output trits, unpacked into their rows, or
with `outputs=False` each row's count of UNKNOWN output trits instead,
which is all `tritnet eval`, `gap_report` and `selective_curve` need;
the scores; the predictions; the margins. Class
predictions take the argmax score with ties broken toward the lowest
class index, and the margin is the gap between the top two scores; one
pass over the k score columns yields both.

A row's results depend on its trits alone, so when all 3^d trit rows of
the circuit's d inputs fit in the batch and in one block (d <= 8), each
distinct row runs once: a first pass over the blocks checks every row
and marks its base-3 key, the distinct rows run through the chunks
above, and a second pass gathers each row's results from its key's.
Every row is keyed once. The results of the rows run are kept with the
frozen circuit, one table per `outputs` mode (`Circuit.rows_run`), so a
later call on the same circuit runs only the rows no earlier call in
its mode ran, and a first call does the work of a call that keeps
nothing. The results are those of running every row, bit for bit;
each table holds at most `BLOCK_ROWS` rows, and a call's working memory
beyond them is the rows it runs plus one block's keys. Inputs with more
trit rows than that, as at the paper's scale, run every row.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def rows_run(self) -> _RowsRun:
        """The results of the trit rows this circuit has run where all 3^d
        rows fit in a batch and a block; cached, as the circuit is frozen."""
        return _RowsRun()


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


#: Rows in flight at once, at most. The engine's working memory grows
#: with this constant and the widest layer, not with the batch.
BLOCK_ROWS = 8192

#: Rows one worker evaluates together. At 2048 rows a 512-wide layer's
#: planes are 32 x 512 words, so the few live ones of a layer stay
#: within a core's L2 cache, and a chunk's numpy work outweighs the
#: Python between its calls, which holds the interpreter lock: at 1024
#: rows a second thread gained nothing.
_CHUNK_ROWS = 2048


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Engine worker threads at most, one per CPU this process may run on.
_WORKERS = _cpus()

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Entry b holds, as 8 uint8 packed in one uint64, the bits of byte b,
#: lowest first: the 8 samples of one byte of a plane, one per lane.
_BYTE_LANES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                            bitorder="little").view(np.uint64)[:, 0]

#: Most neurons whose lanes one uint64 sum adds up before a lane overflows.
_LANE_MAX = 255

#: numpy's ufunc buffer size, in elements, while a worker runs. A ufunc
#: allocates a buffer for each operand it broadcasts, as a layer's masks
#: are; at numpy's default of 8192 that is up to 64 kB a call, which
#: would make the peak memory depend on how the workers' calls overlap.
#: These loops measured no slower with the smaller buffer.
_UFUNC_BUFSIZE = 64


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


def _workers() -> int:
    """Worker threads of a call: one per CPU this process may run on, up
    to the chunks of one block."""
    return max(1, min(_WORKERS, BLOCK_ROWS // _CHUNK_ROWS))


class _Workspace:
    """One worker's buffers for chunks of up to `rows` rows, allocated
    once per call, so that a chunk itself allocates only arrays of a
    few bytes a row (its packed inputs and per-class sums): the input
    bits, the gathered parent planes, the terms `h` and their temporary,
    two ping-pong sets of layer planes (each sized for the widest live
    layer), the output planes spread to byte lanes, the per-row class
    tallies and the ranking's running top score and temporary."""

    def __init__(self, circuit: Circuit, rows: int):
        words = -(-rows // 64)
        self.widths = [len(keep) for keep, _, _ in circuit.conn.live]
        self.d, self.k = circuit.input_dim, circuit.groupsum.k
        plane = words * max(self.widths)
        lanes = words * 8 * self.widths[-1]
        self.bits = np.empty(2 * 64 * words * self.d, dtype=bool)
        self.gathers = np.empty((2, plane), dtype=np.uint64)
        self.terms = np.empty((2, 6 * plane), dtype=np.uint64)
        self.planes = np.empty((2, 2 * plane), dtype=np.uint64)
        self.bytes = np.empty(lanes, dtype=np.intp)
        self.lanes = np.empty((2, lanes), dtype=np.uint64)
        self.tally = np.empty((3, 64 * words * self.k))
        self.ranks = np.empty((2, 64 * words))
        self._views = {}

    def views(self, words: int):
        """The buffers shaped for a chunk of `words` words: the input bits,
        per live layer (its two parent gathers, h, h's temporary, its own
        planes), the byte indices and the TRUE and FALSE lanes of the
        output layer, the tallies and the ranking's two rows. Built once
        per chunk size, of which a call has at most two."""
        if words not in self._views:
            d, k = self.d, self.k
            layers = []
            for layer, width in enumerate(self.widths):
                n = words * width
                layers.append((*self.gathers[:, :n].reshape(2, words, width),
                               *self.terms[:, :6 * n].reshape(2, 2, 3, words, width),
                               self.planes[layer % 2, :2 * n].reshape(2, words, width)))
            n = words * 8 * self.widths[-1]
            self._views[words] = (
                self.bits[:2 * 64 * words * d].reshape(2, d, 64 * words), layers,
                self.bytes[:n].reshape(words, 8, -1), self.lanes[:, :n].reshape(2, words, 8, -1),
                self.tally[:, :64 * words * k].reshape(3, words, 8, 8, k),
                self.ranks[:, :64 * words])
        return self._views[words]


def _pack(x: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) trit rows -> TRUE and FALSE planes, each (ceil(m/64), d),
    through the (2, d, 64 ceil(m/64)) bool buffer `bits`.

    Word r of a plane's column holds rows 64 r to 64 r + 63.
    """
    m = x.shape[0]
    np.equal(x.T, algebra.TRUE, out=bits[0, :, :m])
    np.equal(x.T, algebra.FALSE, out=bits[1, :, :m])
    bits[:, :, m:] = False
    words = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)  # (2, d, words)
    planes = np.ascontiguousarray(words.transpose(0, 2, 1))
    return planes[0], planes[1]


def _gate_layer(true, false, s, t, coeffs, buffers):
    """Planes of one layer from its parents' planes (see module doc),
    written into the layer's workspace `buffers`.

    The planes are word-major, (words, neurons), so each neuron's masks
    broadcast along the contiguous axis. h[p, y] collects the terms of
    plane p that carry basis element y of parent b.
    """
    g_true, g_false, h, tmp, out = buffers
    one, c_true, c_false = coeffs
    true.take(s, axis=1, out=g_true, mode="clip")
    false.take(s, axis=1, out=g_false, mode="clip")
    np.bitwise_and(g_true, c_true, out=h)
    h ^= np.bitwise_and(g_false, c_false, out=tmp)
    h ^= one
    true.take(t, axis=1, out=g_true, mode="clip")
    false.take(t, axis=1, out=g_false, mode="clip")
    np.bitwise_and(g_true, h[:, 1], out=out)
    out ^= np.bitwise_and(g_false, h[:, 2], out=h[:, 2])
    out ^= h[:, 0]
    return out[0], out[1]


def _spread(true: np.ndarray, false: np.ndarray, index, lanes):
    """A layer's (words, w) TRUE and FALSE planes as (words, 8, w) uint64,
    written into `lanes` through the byte indices `index`: lane i of
    [r, b, j] is neuron j's bit for row 64 r + 8 b + i, so a sum over
    up to 255 neurons counts their set bits per row."""
    words, w = true.shape
    for plane, out in zip((true, false), lanes):
        np.copyto(index, plane.view(np.uint8).reshape(words, w, 8).transpose(0, 2, 1))
        _BYTE_LANES.take(index, out=out, mode="clip")
    return lanes


def _tally(t_lanes: np.ndarray, f_lanes: np.ndarray, k: int, tally: np.ndarray):
    """Per row and class, the TRUE minus the FALSE and the TRUE plus the
    FALSE output trits, as exact float64 integers, returned as two
    (64 words, k) row arrays of the (3, words, 8, 8, k) buffer `tally`,
    whose third part is scratch. The lane sums of a class's neurons run
    in parts that cannot overflow; every cast is a copy, as a ufunc that
    casts allocates buffers of its own."""
    words, _, w = t_lanes.shape
    diff, total, part = tally
    diff[...] = 0
    total[...] = 0
    for lo in range(0, w // k, _LANE_MAX):
        for lanes, into_diff in ((t_lanes, np.add), (f_lanes, np.subtract)):
            counts = lanes.reshape(words, 8, k, w // k)[..., lo:lo + _LANE_MAX].sum(axis=-1)
            np.copyto(part, counts.view(np.uint8).reshape(words, 8, k, 8).transpose(0, 1, 3, 2))
            total += part
            into_diff(diff, part, out=diff)
    return diff.reshape(-1, k), total.reshape(-1, k)


def _rank(scores, preds, margins, top, low) -> None:
    """Argmax (lowest index on ties) and top-minus-second score of each
    row, in one pass over the k score columns; `margins` holds the
    running second score, `top` the first and `low` their minimum."""
    np.copyto(top, scores[:, 0])
    preds[...] = 0
    margins[...] = -np.inf
    for c in range(1, scores.shape[1]):
        col = scores[:, c]
        np.copyto(preds, c, where=col > top)
        np.maximum(margins, np.minimum(top, col, out=low), out=margins)
        np.maximum(top, col, out=top)
    np.subtract(top, margins, out=margins)


def _trits(x: np.ndarray) -> np.ndarray:
    """Rows of circuit inputs as integers, or the engine's ValueError."""
    return algebra.exact_ints(x, -1, 1, "circuit inputs must be trits in {-1, 0, +1}")


def _run_chunk(circuit: Circuit, x, ws: _Workspace, first, scores, preds, margins) -> None:
    """Evaluate one chunk of rows in `ws` and write their results: the
    output trits into `first` if it is 2-D, else each row's count of
    UNKNOWN output trits; the scores, predictions and margins."""
    m, k = x.shape[0], circuit.groupsum.k
    bits, layers, index, lanes, tally, (top, low) = ws.views(-(-m // 64))
    true, false = _pack(_trits(x), bits)
    for (_, s, t), coeffs, buffers in zip(circuit.conn.live, circuit.coeffs, layers):
        true, false = _gate_layer(true, false, s, t, coeffs, buffers)
    t_lanes, f_lanes = _spread(true, false, index, lanes)  # rows past m are padding
    sums, known = _tally(t_lanes, f_lanes, k, tally)
    np.divide(sums[:m], circuit.groupsum.tau, out=scores)
    _rank(scores, preds, margins, top[:m], low[:m])
    words, _, w = t_lanes.shape
    if first.ndim == 1:
        np.subtract(w, known[:m].sum(axis=1), out=first, casting="unsafe")
        return
    trits = np.subtract(t_lanes.view(np.int8), f_lanes.view(np.int8),
                        out=index.view(np.int8).reshape(words, 8, 8 * w))
    by_row = trits.reshape(words, 8, w, 8).transpose(0, 1, 3, 2)  # (words, 8, 8, w)
    whole = m // 64
    first[:64 * whole].reshape(whole, 8, 8, w)[...] = by_row[:whole]
    first[64 * whole:] = by_row[whole:].reshape(-1, w)[:m - 64 * whole]


def _evaluate_rows(circuit: Circuit, x: np.ndarray, results) -> None:
    """Run every row of the 2-D batch `x`, writing its rows of `results`.

    Chunks of rows go round-robin to up to `_workers()` workers: the
    calling thread and the threads of an executor that is joined before
    this returns. A batch of one chunk runs inline. Each worker has its
    own `_Workspace`, and all share only the read-only circuit and
    inputs and the disjoint rows of the results they write.
    """
    n = x.shape[0]
    workers, chunk = _workers(), _CHUNK_ROWS
    firsts = range(0, min(n, workers * chunk), chunk)  # each worker's first row
    # allocated before any worker starts and kept until all are done, so
    # the working memory does not depend on how the workers interleave
    spaces = [_Workspace(circuit, min(chunk, n)) for _ in firsts]
    stop = threading.Event()

    def work(first: int, ws: _Workspace) -> None:
        bufsize = np.setbufsize(_UFUNC_BUFSIZE)  # this thread's, restored below
        try:
            for lo in range(first, n, workers * chunk):
                if stop.is_set():
                    break
                rows = slice(lo, lo + chunk)
                _run_chunk(circuit, x[rows], ws, *(r[rows] for r in results))
        except BaseException:
            stop.set()  # the other workers end after their current chunk
            raise
        finally:
            np.setbufsize(bufsize)

    if len(firsts) <= 1:
        if n:
            work(0, spaces[0])
        return
    with ThreadPoolExecutor(len(firsts) - 1) as pool:
        futures = [pool.submit(work, first, ws) for first, ws in zip(firsts[1:], spaces[1:])]
        work(0, spaces[0])
    for future in futures:
        future.result()


def _results(circuit: Circuit, n: int, outputs: bool):
    """Empty per-row results of n rows: the (n, w) output trits, or an
    (n,) count of UNKNOWN output trits; the scores, predictions, margins."""
    return (np.empty((n, circuit.widths[-1]), dtype=np.int8) if outputs
            else np.empty(n, dtype=np.intp),
            np.empty((n, circuit.groupsum.k)), np.empty(n, dtype=np.intp), np.empty(n))


def _keys(x: np.ndarray, place: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each trit row's base-3 key, sum over j of (x[j] + 1) 3^(d-1-j), in
    [0, 3^d), written into `out` after the engine's trit check; `place`
    holds the powers 3^(d-1-j) as intp, and the product is taken in intp
    whatever the input dtype, so the keys are exact integers."""
    np.matmul(_trits(x), place, out=out, dtype=np.intp)
    out += (3 ** x.shape[1] - 1) // 2  # the key of the all-UNKNOWN row
    return out


class _RowsRun:
    """The results of the trit rows a circuit has run on the distinct-row
    path. For each `outputs` mode: the four per-row results (`_results`)
    of up to 3^d rows, in the order they ran, allocated on the mode's
    first use, and each base-3 key's slot in them, -1 until its row runs.
    A row's results depend on its trits alone, so a held row never
    changes. Runs hold `lock`, so no row runs twice in one mode for one
    circuit."""

    def __init__(self):
        self.lock = threading.Lock()
        self.modes = {}  # outputs -> (results, slot of each key)

    def __reduce__(self):
        return _RowsRun, ()  # a copy or a pickle of a circuit holds no rows

    def results(self, circuit: Circuit, x, seen, holder, outputs: bool):
        """The mode's results and each key's slot in them, after running
        the row x[holder[key]] of each key in `seen` that has no slot yet,
        into the slots after those held."""
        with self.lock:
            if outputs not in self.modes:
                size = len(seen)
                self.modes[outputs] = (_results(circuit, size, outputs),
                                       np.full(size, -1, dtype=np.intp))
            tables, slot = self.modes[outputs]
            new = np.flatnonzero(seen & (slot < 0))
            if len(new):
                held = np.count_nonzero(slot >= 0)
                rows = slice(held, held + len(new))
                _evaluate_rows(circuit, x.take(holder[new], axis=0),
                               [table[rows] for table in tables])
                slot[new] = np.arange(rows.start, rows.stop)
        return tables, slot


def _evaluate_distinct(circuit: Circuit, x: np.ndarray, results) -> None:
    """`_evaluate_rows` with each distinct row of `x` run once, and only
    if no earlier call on the circuit in this mode ran it.

    A first pass over the blocks checks every row, marks its key and
    parks it in the row's prediction, noting a row that holds each key.
    The rows of the keys the circuit's `rows_run` lacks then run through
    `_evaluate_rows` into it, and a second pass over the blocks gathers
    every row's results from its key's. A row's results depend on its
    trits alone, so they are those of running every row.
    """
    n, d = x.shape
    preds = results[2]
    place = 3 ** np.arange(d - 1, -1, -1, dtype=np.intp)
    blocks = [slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]
    seen = np.zeros(3**d, dtype=bool)
    holder = np.empty(3**d, dtype=np.intp)  # a row of `x` with each key that occurs
    for block in blocks:
        here = _keys(x[block], place, preds[block])
        seen[here] = True
        holder[here] = np.arange(block.start, block.stop)
    tables, slot = circuit.rows_run.results(circuit, x, seen, holder, results[0].ndim == 2)
    at = np.empty(min(n, BLOCK_ROWS), dtype=np.intp)  # one block's rows in the tables
    for block in blocks:
        here = slot.take(preds[block], out=at[:block.stop - block.start], mode="clip")
        for table, result in zip(tables, results):
            table.take(here, axis=0, out=result[block], mode="clip")


def eval_circuit(circuit: Circuit, x, *, outputs: bool = True):
    """Run trit inputs through the circuit, bit-sliced in row chunks.

    Returns (outputs, scores, predictions, margins): the output-layer
    trits, GroupSum scores, argmax class (lowest index on ties) and the
    top-minus-second score margin. Accepts one vector or a batch. With
    `outputs=False` the trits are counted, not kept: the first result
    holds each row's number of UNKNOWN output trits, and no array of the
    outputs' size is built.

    When all 3^d trit rows of the circuit's d inputs fit in the batch and
    in one block, each distinct row runs once, unless an earlier call on
    the circuit in the same mode ran it, and every row's results are
    gathered by its key (`_evaluate_distinct`); otherwise every row runs
    (`_evaluate_rows`).
    """
    x, single = circuit.input_batch(np.asarray(x))
    n, d = x.shape
    results = _results(circuit, n, outputs)
    if d < 32 and 3**d <= min(n, BLOCK_ROWS):  # no block holds 3^32 rows: skip the power
        _evaluate_distinct(circuit, x, results)
    else:
        _evaluate_rows(circuit, x, results)
    if single:
        first, scores, preds, margins = results
        return first[0], scores[0], int(preds[0]), float(margins[0])
    return results


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
    counts, _, circ_pred, _ = eval_circuit(
        circuit, ARCHS[circuit.arch].trit_inputs(x_enc), outputs=False)
    soft_acc = float((soft_pred == y).mean())
    circ_acc = float((circ_pred == y).mean())
    return GapReport(
        soft_accuracy=soft_acc,
        circuit_accuracy=circ_acc,
        gap_pp=100.0 * (soft_acc - circ_acc),
        hardening_error=hardening_error(net),
        unknown_fraction=int(counts.sum()) / (len(y) * circuit.widths[-1]),
        n_samples=int(x_enc.shape[0]),
    )


def file_sha256(path) -> str:
    """Hex digest of a file's bytes, for provenance fields."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
