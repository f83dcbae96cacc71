"""The bit-sliced circuit engine against the table-lookup evaluator it replaced."""

import tracemalloc

import numpy as np
import pytest

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
    for (s, t), tbl in zip(circuit.conn.layers, circuit.tables):
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
    return cc.Circuit(input_dim=input_dim, widths=tuple(widths), conn=conn,
                      gate_ids=gate_ids, groupsum=nw.GroupSumConfig(k, tau))


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


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, cc.BLOCK_ROWS - 1,
                               cc.BLOCK_ROWS, cc.BLOCK_ROWS + 1])
def test_row_counts_around_word_and_block_edges(n):
    circ = random_circuit(6, (16, 12, 8), seed=n)
    x = np.random.default_rng(n).integers(-1, 2, size=(n, 6))
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


def _peak_beyond_results(circ, n):
    x = np.random.default_rng(n).integers(-1, 2, size=(n, circ.input_dim))
    tracemalloc.start()
    try:
        results = cc.eval_circuit(circ, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(r.nbytes for r in results)


def test_working_memory_does_not_grow_with_rows():
    circ = random_circuit(6, (256, 256, 64), seed=16)
    one = _peak_beyond_results(circ, cc.BLOCK_ROWS)
    four = _peak_beyond_results(circ, 4 * cc.BLOCK_ROWS)
    # below one (rows, widest layer) int64 array, of which the lookup
    # built several per layer
    assert one < 8 * cc.BLOCK_ROWS * 256
    assert four <= one * 1.1
