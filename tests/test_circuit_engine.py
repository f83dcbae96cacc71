"""The bit-sliced circuit engine against the table-lookup evaluator it replaced."""

import ast
import copy
import dataclasses
import pathlib
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.circuit as cc
import tritnet.network as nw


def lookup_eval(circuit, x):
    """Table-lookup evaluator: the engine `eval_circuit` had before bit-slicing.

    Every layer gathers each neuron's table entry at index
    3 * (a + 1) + (b + 1) over (N, w) int64 intermediates.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != circuit.input_dim:
        raise ValueError(f"expected {circuit.input_dim} inputs, got {x.shape[1]}")
    xi = x.astype(np.int64)
    if x.size and (np.any(xi != x) or xi.min() < -1 or xi.max() > 1):
        raise ValueError("circuit inputs must be trits in {-1, 0, +1}")
    h = xi
    for (s, t), tbl in zip(circuit.conn.layers, map(al.decode_tables, circuit.gate_ids)):
        idx = 3 * (h[:, s] + 1) + (h[:, t] + 1)
        h = tbl[np.arange(tbl.shape[0])[None, :], idx]
    outputs = h
    k, tau = circuit.groupsum.k, circuit.groupsum.tau
    group = circuit.widths[-1] // k
    scores = outputs.reshape(-1, k, group).sum(axis=2) / tau
    preds = scores.argmax(axis=1)
    top2 = -np.partition(-scores, 1, axis=1)[:, :2] if k >= 2 else None
    margins = top2[:, 0] - top2[:, 1]
    if single:
        return outputs[0], scores[0], int(preds[0]), float(margins[0])
    return outputs, scores, preds, margins


def random_circuit(input_dim, widths, seed, k=2, tau=3.0):
    """Uniform random wiring and gates drawn from all 3^9 tables."""
    rng = np.random.default_rng(seed)
    layers, prev = [], input_dim
    for w in widths:
        layers.append((rng.integers(0, prev, size=w), rng.integers(0, prev, size=w)))
        prev = w
    conn = nw.ConnectivityMap(seed=seed, input_dim=input_dim, widths=tuple(widths),
                              layers=tuple(layers))
    gate_ids = [rng.integers(0, 3**9, size=w) for w in widths]
    return cc.Circuit(arch="ternary",
                      conn=conn, gate_ids=gate_ids, groupsum=nw.GroupSumConfig(k, tau))


def assert_same(circuit, x):
    got = cc.eval_circuit(circuit, x)
    want = lookup_eval(circuit, x)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
        else:
            assert g == w


def assert_counted(circuit, x):
    """The counted results equal `eval_circuit`'s, with each row's UNKNOWN
    output trits counted instead of kept."""
    outputs, *want = cc.eval_circuit(circuit, x)
    counts, *got = cc.eval_circuit(circuit, x, outputs=False)
    assert np.asarray(counts).dtype == np.intp
    assert np.array_equal(counts, np.count_nonzero(outputs == 0, axis=-1))
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.array_equal(g, w)


def all_trit_rows(d):
    grids = np.meshgrid(*[np.array([-1, 0, 1])] * d, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.mark.parametrize("d", range(1, 8))
def test_every_input_of_small_circuits(d):
    circ = random_circuit(d, (7, 9, 6), seed=d, k=3)
    x = all_trit_rows(d)
    assert x.shape == (3**d, d)
    assert_same(circ, x)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 512])
def test_random_trits_across_layer_widths(width):
    circ = random_circuit(5, (width, width, 2 * width), seed=width)
    x = np.random.default_rng(width).integers(-1, 2, size=(300, 5))
    assert_same(circ, x)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, cc._CHUNK_ROWS - 1, cc._CHUNK_ROWS,
                               cc._CHUNK_ROWS + 1, cc.BLOCK_ROWS - 1,
                               cc.BLOCK_ROWS, cc.BLOCK_ROWS + 1])
def test_row_counts_around_word_and_block_edges(n):
    circ = random_circuit(6, (16, 12, 8), seed=n)
    x = np.random.default_rng(n).integers(-1, 2, size=(n, 6))
    assert_same(circ, x)


@pytest.mark.parametrize("widths", [(512, 8), (256, 256, 4), (64, 2), (9, 9, 9, 2)])
def test_circuits_with_mostly_dead_neurons(widths):
    circ = random_circuit(5, widths, seed=sum(widths), k=2)
    n_live = sum(len(keep) for keep, _, _ in circ.conn.live)
    assert n_live < sum(widths)
    x = np.random.default_rng(len(widths)).integers(-1, 2, size=(700, 5))
    assert_same(circ, x)
    assert_same(circ, all_trit_rows(5))


def test_dead_neurons_gates_do_not_reach_the_outputs():
    circ = random_circuit(5, (512, 8), seed=17)
    x = all_trit_rows(5)
    want = cc.eval_circuit(circ, x)
    keep = circ.conn.live[0][0]
    ids = np.random.default_rng(18).integers(0, 3**9, size=512)
    ids[keep] = circ.gate_ids[0][keep]
    other = cc.Circuit(arch=circ.arch, conn=circ.conn,
                       gate_ids=[ids, circ.gate_ids[1]], groupsum=circ.groupsum)
    assert (ids != circ.gate_ids[0]).sum() > 400
    for g, w in zip(cc.eval_circuit(other, x), want):
        assert np.array_equal(g, w)


def test_every_gate_on_every_trit_pair():
    # one layer holding all 3^9 gates, plus a pad neuron to split into
    # k=2 groups; input row g is grid point g, so outputs[g] = tables[:, g]
    ids = np.append(np.arange(al.N_GATES), 0)
    w = len(ids)
    conn = nw.ConnectivityMap(seed=0, input_dim=2, widths=(w,),
                              layers=((np.zeros(w, dtype=np.int64),
                                       np.ones(w, dtype=np.int64)),))
    circ = cc.Circuit(arch="ternary", conn=conn, gate_ids=[ids],
                      groupsum=nw.GroupSumConfig(2, 1.0))
    x = all_trit_rows(2)
    assert [tuple(row) for row in x] == list(al.GRID_POINTS)
    outputs, *_ = cc.eval_circuit(circ, x)
    assert np.array_equal(outputs, al.decode_tables(ids).T)
    assert_same(circ, x)


def test_trained_shape_circuit_and_float_inputs():
    net = nw.init_network((64, 64, 20), 6, 4, nw.GroupSumConfig(4, 2.5))
    circ = cc.harden_network(net)
    x = np.random.default_rng(5).integers(-1, 2, size=(3 * cc.BLOCK_ROWS + 7, 6))
    assert_same(circ, x)
    assert_same(circ, x.astype(float))
    assert_same(circ, x.astype(np.int8))


def test_single_vector_path():
    circ = random_circuit(4, (10, 6), seed=11, k=3)
    for row in all_trit_rows(4):
        assert_same(circ, row)
        assert_counted(circ, row)


def test_binary_embedded_circuit_on_corner_inputs():
    net = nw.init_network((32, 32, 10), 5, 12, nw.GroupSumConfig(2, 4.0), arch="binary")
    circ = cc.harden_binary(net)
    bits = np.random.default_rng(13).integers(0, 2, size=(500, 5))
    x = 2 * bits - 1
    assert_same(circ, x)
    outputs, _, _, _ = cc.eval_circuit(circ, x)
    assert not (outputs == 0).any()  # Boolean gates on Boolean inputs


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 0.0, 1.0]]),
    np.array([[2, 0, 1]]),
    np.array([[np.nan, 0.0, 1.0]]),
    np.array([[0, 1]]),
    np.array([0, 1, 1, 0]),
    np.array([[2, 0, 1]], dtype=np.int8),
    np.array([[0, -2, 1]], dtype=np.int8),
    np.array([[0, 1, -128]], dtype=np.int8),
    np.array([[1, 255, 0]], dtype=np.uint8),
    np.array([[0, 0, 2**40]], dtype=np.int64),
    np.array([[0, 0, np.inf]]),
])
def test_rejects_what_the_lookup_rejected(bad):
    circ = random_circuit(3, (4, 4), seed=14)
    with pytest.raises(ValueError) as want, np.errstate(invalid="ignore"):
        lookup_eval(circ, bad)
    with pytest.raises(ValueError) as got, np.errstate(invalid="ignore"):
        cc.eval_circuit(circ, bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape", [(), (5, 3, 1)])
def test_rejects_inputs_that_are_not_a_vector_or_a_batch(shape):
    # the lookup raised IndexError on a scalar and returned scores of
    # the wrong shape for a 3-D array
    circ = random_circuit(3, (4, 4), seed=14)
    with pytest.raises(ValueError, match="2-D batch"):
        cc.eval_circuit(circ, np.zeros(shape, dtype=int))


def test_rejects_a_non_trit_in_a_later_block():
    circ = random_circuit(3, (4, 4), seed=15)
    x = np.zeros((cc.BLOCK_ROWS + 1, 3), dtype=np.int64)
    x[-1, 2] = 2
    with pytest.raises(ValueError, match="trits"):
        cc.eval_circuit(circ, x)


@pytest.mark.parametrize("dtype, bad", [
    (np.int8, 2), (np.int8, -2), (np.int8, -128), (np.int16, 2), (np.int16, -2),
    (np.uint8, 2), (np.uint8, 255), (np.int64, -2),
    (np.float64, 2.0), (np.float64, -2.0), (np.float64, 0.5),
])
def test_rejects_a_non_trit_of_any_dtype_in_a_later_block(dtype, bad):
    circ = random_circuit(3, (4, 4), seed=15)
    x = np.zeros((2 * cc.BLOCK_ROWS + 1, 3), dtype=dtype)
    x[-1, 2] = bad
    with pytest.raises(ValueError) as got:
        cc.eval_circuit(circ, x)
    assert str(got.value) == "circuit inputs must be trits in {-1, 0, +1}"


@pytest.mark.parametrize("dtype, low", [
    (np.int8, -1), (np.int16, -1), (np.int32, -1), (np.int64, -1), (np.float64, -1),
    (np.uint8, 0), (np.uint64, 0), (bool, 0),
])
def test_every_dtype_gives_the_same_results(dtype, low):
    circ = random_circuit(6, (40, 30, 8), seed=19, k=4)
    x = np.random.default_rng(19).integers(low, 2, size=(cc.BLOCK_ROWS + 70, 6))
    want = cc.eval_circuit(circ, x)
    for g, w in zip(cc.eval_circuit(circ, x.astype(dtype)), want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert_same(circ, x.astype(dtype))
    assert_same(circ, x[5].astype(dtype))


def test_ranking_on_ties_and_many_classes():
    # k = 9 classes of one neuron each: every score is -1, 0 or +1 over
    # tau, so most rows hold ties for the top and for the second place
    circ = random_circuit(4, (30, 9), seed=21, k=9, tau=0.7)
    x = all_trit_rows(4)
    _, scores, preds, margins = cc.eval_circuit(circ, x)
    top = scores.max(axis=1)
    assert (margins == 0).any() and (margins > 0).any()
    assert np.array_equal(preds, [row.tolist().index(t) for row, t in zip(scores, top)])
    assert_same(circ, x)


def _peak_beyond_results(circ, n, outputs=True):
    # on a fresh copy of the circuit, which has run no rows yet
    circ = dataclasses.replace(circ)
    x = np.random.default_rng(n).integers(-1, 2, size=(n, circ.input_dim))
    tracemalloc.start()
    try:
        results = cc.eval_circuit(circ, x, outputs=outputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(r.nbytes for r in results)


# The tests below that take an input width d cover both engine paths:
# at the smaller width a batch of at least 3^d rows runs each distinct
# row once; at 9, 3^9 > BLOCK_ROWS, so every row runs.

@pytest.mark.parametrize("d", [6, 9])
def test_working_memory_does_not_grow_with_rows(d):
    circ = random_circuit(d, (256, 256, 64), seed=16)
    one = _peak_beyond_results(circ, cc.BLOCK_ROWS)
    four = _peak_beyond_results(circ, 4 * cc.BLOCK_ROWS)
    # below one (rows, widest layer) int64 array, of which the lookup
    # built several per layer
    assert one < 8 * cc.BLOCK_ROWS * 256
    assert four <= one * 1.1


@pytest.mark.parametrize("d", [6, 9])
def test_working_memory_stays_fixed_across_runs(d):
    # each worker's workspace is allocated once per call, so the peak
    # does not depend on how the chunks of one or four blocks interleave
    circ = random_circuit(d, (256, 256, 64), seed=16)
    for _ in range(10):
        one = _peak_beyond_results(circ, cc.BLOCK_ROWS)
        four = _peak_beyond_results(circ, 4 * cc.BLOCK_ROWS)
        assert four <= one * 1.1


def _row_counts():
    chunk = cc._CHUNK_ROWS
    return [0, 1, chunk - 1, chunk, chunk + 1, cc.BLOCK_ROWS - 1, cc.BLOCK_ROWS + 1,
            3 * cc.BLOCK_ROWS + 7]


@pytest.mark.parametrize("d", [6, 9])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", range(8))
def test_chunk_edges_at_any_worker_count(monkeypatch, workers, case, d):
    monkeypatch.setattr(cc, "_WORKERS", workers)
    n = _row_counts()[case]
    circ = random_circuit(d, (40, 30, 12), seed=case, k=3)
    x = np.random.default_rng(case).integers(-1, 2, size=(n, d))
    assert_same(circ, x)
    assert_counted(circ, x)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5, 64])
def test_one_worker_per_cpu_up_to_the_chunks_of_a_block(monkeypatch, cpus):
    monkeypatch.setattr(cc, "_WORKERS", cpus)
    assert cc._workers() == min(cpus, cc.BLOCK_ROWS // cc._CHUNK_ROWS)
    assert cc._CHUNK_ROWS % 64 == 0 and cc._workers() * cc._CHUNK_ROWS <= cc.BLOCK_ROWS


def test_group_sums_wider_than_a_byte_lane():
    # 300 neurons a class: the lane sums must carry past 255
    circ = random_circuit(5, (64, 600), seed=22, k=2, tau=7.0)
    x = np.vstack([all_trit_rows(5)] * 3)
    assert_same(circ, x)
    assert_counted(circ, x)
    ones = cc.Circuit(arch="ternary", conn=circ.conn, groupsum=circ.groupsum,
                      gate_ids=[circ.gate_ids[0], np.full(600, al.N_GATES - 1)])
    outputs, scores, _, _ = cc.eval_circuit(ones, x)
    assert (outputs == 1).all() and (scores == 300 / 7.0).all()


def assert_bad_last_trit_raises_and_joins(monkeypatch, workers, outputs, d):
    if workers:
        monkeypatch.setattr(cc, "_WORKERS", workers)
    circ = random_circuit(d, (16, 8), seed=23)
    x = np.zeros((5 * cc.BLOCK_ROWS + 3, d), dtype=np.int8)
    x[-1, 0] = 2
    before = threading.active_count()
    with pytest.raises(ValueError) as got:
        cc.eval_circuit(circ, x, outputs=outputs)
    assert str(got.value) == "circuit inputs must be trits in {-1, 0, +1}"
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("outputs", [True, False])
def test_a_bad_trit_in_the_last_chunk_raises_and_joins_every_worker(monkeypatch, workers, outputs):
    assert_bad_last_trit_raises_and_joins(monkeypatch, workers, outputs, d=3)


@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("outputs", [True, False])
def test_a_bad_trit_in_the_last_chunk_raises_and_joins_every_worker_when_every_row_runs(
        monkeypatch, workers, outputs):
    assert_bad_last_trit_raises_and_joins(monkeypatch, workers, outputs, d=9)


@pytest.mark.parametrize("d", [5, 9])
def test_concurrent_callers_get_their_own_results(monkeypatch, d):
    monkeypatch.setattr(cc, "_WORKERS", 3)
    circuits = [random_circuit(d, (48, 24, 6), seed=30, k=3),
                random_circuit(d, (20, 20, 8), seed=31, k=2)]
    inputs = [np.random.default_rng(s).integers(-1, 2, size=(2 * cc.BLOCK_ROWS + 65, d))
              for s in (32, 33)]
    wants = [lookup_eval(c, x) for c, x in zip(circuits, inputs)]
    gots = [[], []]

    def caller(i):
        for _ in range(4):
            gots[i].append(cc.eval_circuit(circuits[i], inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(gots, wants):
        assert len(got) == 4
        for results in got:
            for g, w in zip(results, want):
                assert np.array_equal(g, w)


# Each distinct row once: at most 3^d <= BLOCK_ROWS rows run, whatever the batch.

def arch_circuit(arch, d, seed):
    """A ternary circuit of random gates, or a hardened binary network."""
    if arch == "ternary":
        return random_circuit(d, (40, 30, 12), seed=seed, k=3)
    net = nw.init_network((40, 30, 12), d, seed, nw.GroupSumConfig(3, 2.0), arch="binary")
    return cc.harden_network(net)


def every_key_first(d, n, seed):
    """n trit rows, shuffled: each of the 3^d rows once while n allows,
    then rows drawn at random."""
    rng = np.random.default_rng(seed)
    every = all_trit_rows(d)
    x = np.concatenate([every[:n], every[rng.integers(0, 3**d, size=max(0, n - 3**d))]])
    return x[rng.permutation(n)]


@pytest.mark.parametrize("arch", ["ternary", "binary"])
@pytest.mark.parametrize("d", [2, 6, 8])
@pytest.mark.parametrize("edge", ["3^d-1", "3^d", "3^d+1", "block-1", "block+1",
                                  "4 blocks+3"])
def test_distinct_rows_give_the_results_of_every_row(arch, d, edge):
    n = {"3^d-1": 3**d - 1, "3^d": 3**d, "3^d+1": 3**d + 1, "block-1": cc.BLOCK_ROWS - 1,
         "block+1": cc.BLOCK_ROWS + 1, "4 blocks+3": 4 * cc.BLOCK_ROWS + 3}[edge]
    circ = arch_circuit(arch, d, seed=d)
    x = every_key_first(d, n, seed=n)
    assert_same(circ, x)
    assert_counted(circ, x)
    # slices of fewer than 3^d rows run every row
    step = 3**d - 1
    parts = zip(*(cc.eval_circuit(circ, x[lo:lo + step]) for lo in range(0, n, step)))
    want = [np.concatenate(part) for part in parts]
    for g, w in zip(cc.eval_circuit(circ, x), want):
        assert np.array_equal(g, w)
    counts, *got = cc.eval_circuit(circ, x, outputs=False)
    assert np.array_equal(counts, np.count_nonzero(want[0] == 0, axis=1))
    for g, w in zip(got, want[1:]):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("d, n, distinct", [(6, 1000, True), (6, 728, False),
                                            (9, 10**5, False)])
@pytest.mark.parametrize("outputs", [True, False])
def test_which_rows_run(monkeypatch, d, n, distinct, outputs):
    # each distinct row runs once, and a second call on the same circuit
    # runs none of them; without the distinct path every row runs on
    # every call
    circ = random_circuit(d, (16, 8), seed=d)
    x = np.random.default_rng(n).integers(-1, 2, size=(n, d))
    ran, real = [], cc._run_chunk

    def spy(circuit, rows, *args):
        ran.append(np.array(rows))
        return real(circuit, rows, *args)

    monkeypatch.setattr(cc, "_run_chunk", spy)
    rows, counts = np.unique(x, axis=0, return_counts=True)
    for call in range(2):
        ran.clear()
        cc.eval_circuit(circ, x, outputs=outputs)
        if distinct and call:
            assert not ran
            continue
        got = np.concatenate(ran)
        if distinct:
            assert len(rows) < n and len(got) == len(rows)
            assert np.array_equal(np.unique(got, axis=0), rows)
        else:
            got_rows, got_counts = np.unique(got, axis=0, return_counts=True)
            assert np.array_equal(got_rows, rows) and np.array_equal(got_counts, counts)


@pytest.mark.parametrize("outputs", [True, False])
def test_a_later_call_runs_only_rows_no_earlier_call_ran(monkeypatch, outputs):
    d = 6
    circ = random_circuit(d, (16, 8), seed=d)
    every = all_trit_rows(d)  # in key order
    ran, real = [], cc._run_chunk

    def spy(circuit, rows, *args):
        ran.append(np.array(rows))
        return real(circuit, rows, *args)

    monkeypatch.setattr(cc, "_run_chunk", spy)
    rng = np.random.default_rng(7)
    done = np.zeros(3**d, dtype=bool)
    for lo, hi in [(0, 400), (200, 729), (0, 729)]:
        keys = rng.integers(lo, hi, size=3**d)
        ran.clear()
        cc.eval_circuit(circ, every[keys], outputs=outputs)
        new = np.setdiff1d(keys, np.flatnonzero(done))
        got = np.concatenate(ran) if ran else np.empty((0, d), dtype=int)
        assert len(got) == len(new) and np.array_equal(np.unique(got, axis=0), every[new])
        done[keys] = True
    # the other mode has its own table, so its first call runs its rows
    ran.clear()
    cc.eval_circuit(circ, every, outputs=not outputs)
    assert sum(map(len, ran)) == 3**d


@pytest.mark.parametrize("arch", ["ternary", "binary"])
@pytest.mark.parametrize("d", [2, 6, 8])
def test_rows_run_hold_the_results_of_every_row(arch, d):
    # calls in both modes on batches that share some rows with earlier
    # calls each give the results of running every row, and leave every
    # row's results at its key
    circ = arch_circuit(arch, d, seed=d)
    every = all_trit_rows(d)  # in key order
    want = cc._results(circ, 3**d, True)
    cc._evaluate_rows(circ, every, want)
    assert all(np.array_equal(w, e) for w, e in zip(want, lookup_eval(circ, every)))
    wants = {True: want, False: (np.count_nonzero(want[0] == 0, axis=1), *want[1:])}
    rng = np.random.default_rng(d)
    for outputs, lo, hi in [(True, 0, 3**d // 2), (False, 0, 3**d // 2),
                            (True, 3**d // 3, 3**d), (False, 0, 3**d), (True, 0, 3**d)]:
        keys = rng.integers(lo, hi, size=3**d + 5)
        if hi - lo == 3**d:  # every row
            keys[:3**d] = rng.permutation(3**d)
        got = cc.eval_circuit(circ, every[keys], outputs=outputs)
        for g, w in zip(got, wants[outputs], strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w[keys])
    assert circ.rows_run is circ.rows_run
    for outputs, (tables, slot) in circ.rows_run.modes.items():
        assert np.array_equal(np.sort(slot), np.arange(3**d))
        for t, w in zip(tables, wants[outputs], strict=True):
            assert np.array_equal(t[slot], w)


def test_a_copied_or_pickled_circuit_holds_no_rows():
    circ = random_circuit(5, (16, 8), seed=5)
    x = all_trit_rows(5)
    want = cc.eval_circuit(circ, x)
    for other in (copy.deepcopy(circ), pickle.loads(pickle.dumps(circ))):
        assert not other.rows_run.modes
        assert all(np.array_equal(g, w) for g, w in zip(cc.eval_circuit(other, x), want))
    assert circ.rows_run.modes


@pytest.mark.parametrize("outputs", [True, False])
def test_threads_sharing_a_circuit_run_each_row_once(monkeypatch, outputs):
    monkeypatch.setattr(cc, "_WORKERS", 2)
    d = 5
    circ = random_circuit(d, (48, 24, 6), seed=30, k=3)
    every = all_trit_rows(d)
    inputs = [every[np.random.default_rng(s).integers(0, 3**d, size=3**d + 9)]
              for s in range(4)]
    wants = [lookup_eval(circ, x) for x in inputs]
    ran, real = [], cc._run_chunk

    def spy(circuit, rows, *args):
        ran.append(np.array(rows))
        return real(circuit, rows, *args)

    monkeypatch.setattr(cc, "_run_chunk", spy)
    gots = [None] * len(inputs)

    def caller(i):
        gots[i] = cc.eval_circuit(circ, inputs[i], outputs=outputs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    got = np.concatenate(ran)
    assert len(got) == len(np.unique(got, axis=0)) == len(np.unique(np.concatenate(inputs), axis=0))
    for results, want in zip(gots, wants):
        if not outputs:
            want = (np.count_nonzero(want[0] == 0, axis=1), *want[1:])
        assert all(np.array_equal(g, w) for g, w in zip(results, want))


@pytest.mark.parametrize("d", range(1, 9))
def test_keys_are_exact_integers(d):
    # the key of row r of all_trit_rows is r, in exact integers that
    # raise no floating-point warning
    rows = all_trit_rows(d)
    place = 3 ** np.arange(d - 1, -1, -1, dtype=np.intp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (rows, rows.astype(np.int8), rows.astype(float)):
            keys = cc._keys(x, place, np.empty(3**d, dtype=np.intp))
            assert np.array_equal(keys, np.arange(3**d))


@pytest.mark.parametrize("outputs", [True, False])
def test_every_row_is_keyed_once(monkeypatch, outputs):
    n = 4 * cc.BLOCK_ROWS + 3
    circ = random_circuit(6, (16, 8), seed=6)
    x = np.random.default_rng(n).integers(-1, 2, size=(n, 6))
    keyed, ran = [], []
    real_keys, real_chunk = cc._keys, cc._run_chunk

    def keys(rows, *args):
        keyed.append(len(rows))
        return real_keys(rows, *args)

    def chunk(circuit, rows, *args):
        ran.append(np.array(rows))
        return real_chunk(circuit, rows, *args)

    monkeypatch.setattr(cc, "_keys", keys)
    monkeypatch.setattr(cc, "_run_chunk", chunk)
    cc.eval_circuit(circ, x, outputs=outputs)
    assert sum(keyed) == n
    got = np.concatenate(ran)
    assert len(got) == len(np.unique(got, axis=0)) == 3**6
    assert np.array_equal(np.unique(got, axis=0), np.unique(x, axis=0))


def test_no_program_path_keeps_the_output_trits():
    # every call in the package counts the output trits; only callers
    # outside it, such as the tests and the benchmark, keep them
    calls = []
    for path in sorted(pathlib.Path(cc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "eval_circuit" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                kept = [kw for kw in node.keywords if kw.arg == "outputs"]
                calls.append((path.name, node.lineno, [ast.dump(kw.value) for kw in kept]))
    assert len(calls) >= 4
    assert all(kept == [ast.dump(ast.Constant(False))] for _, _, kept in calls), calls


@pytest.mark.parametrize("d", [2, 6, 8])
@pytest.mark.parametrize("workers", [None, 3])
@pytest.mark.parametrize("outputs", [True, False])
def test_a_bad_trit_in_the_last_block_raises_before_any_row_runs(monkeypatch, d, workers,
                                                                 outputs):
    if workers:
        monkeypatch.setattr(cc, "_WORKERS", workers)
    circ = random_circuit(d, (16, 8), seed=24)
    x = np.resize(all_trit_rows(d).astype(np.int8), (4 * cc.BLOCK_ROWS + 3, d))
    x[-1, -1] = 2
    ran = []
    monkeypatch.setattr(cc, "_run_chunk", lambda *args: ran.append(args))
    before = threading.active_count()
    with pytest.raises(ValueError) as got:
        cc.eval_circuit(circ, x, outputs=outputs)
    assert str(got.value) == "circuit inputs must be trits in {-1, 0, +1}"
    assert threading.active_count() == before and not ran


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("outputs", [True, False])
def test_distinct_rows_working_memory_does_not_grow_with_rows(monkeypatch, d, outputs):
    # two workers, so that 8192 and 32768 random rows of 8 trits, about
    # 4700 and 6500 distinct ones, run in as many workspaces
    monkeypatch.setattr(cc, "_WORKERS", 2)
    circ = random_circuit(d, (256, 256, 64), seed=16)
    one = _peak_beyond_results(circ, cc.BLOCK_ROWS, outputs)
    four = _peak_beyond_results(circ, 4 * cc.BLOCK_ROWS, outputs)
    assert four <= one * 1.1
