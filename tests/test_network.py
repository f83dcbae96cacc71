"""Network construction, soft forward passes and the group-sum head."""

import tracemalloc

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.network as nw

GS = nw.GroupSumConfig(k=2, tau=10.0)

# with coefficients ~ N(0, 0.45^2) and trit inputs drawn uniformly the
# neuron output has variance 0.45^2 * 49/9 = 1.1025 (second moments of
# the nine monomials sum to 49/9)
ANALYTIC_INIT_VAR = 1.1025


def tiny_net(seed=0, widths=(6, 4), input_dim=5):
    return nw.init_network(widths, input_dim, seed, GS)


def test_groupsum_config_validation():
    with pytest.raises(ValueError):
        nw.GroupSumConfig(k=1, tau=10.0)
    with pytest.raises(ValueError):
        nw.GroupSumConfig(k=2, tau=0.0)


def test_connectivity_shapes_and_ranges():
    conn = nw.sample_connectivity((8, 6, 4), input_dim=10, seed=3)
    assert len(conn.layers) == 3
    fan_in = 10
    for (s, t), width in zip(conn.layers, (8, 6, 4)):
        assert s.shape == t.shape == (width,)
        assert s.min() >= 0 and s.max() < fan_in
        assert t.min() >= 0 and t.max() < fan_in
        fan_in = width


def test_connectivity_refuses_layers_that_do_not_fit_its_shape():
    s, t = nw.sample_connectivity((4, 2), 3, 0).layers
    short = ((s[0][:3], s[1][:3]), t)  # the first layer 3 neurons long
    with pytest.raises(ValueError, match=r"layer 0: parent array of shape \(3,\), expected \(4,\)"):
        nw.ConnectivityMap(seed=0, input_dim=3, widths=(4, 2), layers=short)
    with pytest.raises(ValueError, match="1 layers of parents for 2 widths"):
        nw.ConnectivityMap(seed=0, input_dim=3, widths=(4, 2), layers=(s,))
    for bad in (4, -1):  # layer 1 reads the 4 neurons of layer 0
        wide = (s, (np.array([0, bad]), t[1]))
        with pytest.raises(ValueError, match=r"layer 1: parent indices must lie in \[0, 4\)"):
            nw.ConnectivityMap(seed=0, input_dim=3, widths=(4, 2), layers=wide)


def test_network_refuses_params_that_do_not_fit_its_shape():
    conn = nw.sample_connectivity((4, 2), 3, 0)
    for params in ([np.zeros((4, 9))], [np.zeros((4, 9)), np.zeros((3, 9))],
                   [np.zeros((4, 9)), np.zeros((2, 16))]):
        with pytest.raises(ValueError, match="params shapes .* do not fit widths"):
            nw.Network(arch="ternary", conn=conn, groupsum=GS, params=params)
    nw.Network(arch="binary", conn=conn, groupsum=GS,
               params=[np.zeros((4, 16)), np.zeros((2, 16))])


def test_connectivity_is_deterministic():
    a = nw.sample_connectivity((16, 8), 12, seed=9)
    b = nw.sample_connectivity((16, 8), 12, seed=9)
    c = nw.sample_connectivity((16, 8), 12, seed=10)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la[0], lb[0]) and np.array_equal(la[1], lb[1])
    assert any(not np.array_equal(la[0], lc[0])
               for la, lc in zip(a.layers, c.layers))


def test_init_network_shapes_and_seed():
    net = tiny_net(seed=4)
    assert [w.shape for w in net.params] == [(6, 9), (4, 9)]
    assert net.n_neurons == 10
    again = tiny_net(seed=4)
    for w1, w2 in zip(net.params, again.params):
        assert np.array_equal(w1, w2)
    # connectivity inside init matches the standalone sampler
    conn = nw.sample_connectivity((6, 4), 5, seed=4)
    for (s1, t1), (s2, t2) in zip(net.conn.layers, conn.layers):
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)


def test_init_network_refuses_fractional_widths():
    with pytest.raises(ValueError, match=r"widths\[0\] must be an integer, got 2.5"):
        nw.init_network((2.5, 4), 5, 0)


def test_init_std_and_output_variance():
    net = nw.init_network((4000,), 10, 0, nw.GroupSumConfig(2, 10.0))
    w = net.params[0]
    assert w.std() == pytest.approx(nw.INIT_STD, rel=0.05)
    assert abs(w.mean()) < 0.02
    # empirical neuron variance on uniform random trits
    rng = np.random.default_rng(1)
    x = rng.integers(-1, 2, size=(500, 10)).astype(float)
    u = al.eval_poly_many(w, x[:, net.conn.layers[0][0]],
                          x[:, net.conn.layers[0][1]])
    assert float(u.var()) == pytest.approx(ANALYTIC_INIT_VAR, rel=0.05)


def test_output_width_must_divide_into_classes():
    with pytest.raises(ValueError):
        nw.init_network((8, 5), 4, 0, nw.GroupSumConfig(2, 10.0))


def test_group_sum_contiguous_blocks():
    cfg = nw.GroupSumConfig(k=3, tau=2.0)
    h = np.arange(12, dtype=float)[None, :]
    scores = nw.group_sum(h, cfg)
    # blocks [0..3], [4..7], [8..11] summed and divided by tau
    assert np.allclose(scores, [[6 / 2, 22 / 2, 38 / 2]])


def test_forward_rejects_out_of_range_inputs():
    net = tiny_net()
    bad = np.zeros(5)
    bad[0] = 1.001
    with pytest.raises(ValueError):
        nw.forward_soft(net, bad)
    # tiny float slop below the tolerance is let through
    ok = np.zeros(5)
    ok[0] = 1.0 + 1e-10
    nw.forward_soft(net, ok)


@pytest.mark.parametrize("x", [0.5, np.zeros((2, 3, 5))], ids=["0-d", "3-d"])
def test_forward_rejects_inputs_that_are_not_a_vector_or_a_batch(x):
    net = tiny_net()
    for forward in (nw.forward_soft, nw.soft_scores):
        with pytest.raises(ValueError, match="expected one input vector or a 2-D batch"):
            forward(net, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arch", ["ternary", "binary"])
def test_forward_rejects_non_finite_inputs(arch, bad):
    net = nw.init_network((4,), 3, 0, GS, arch=arch)
    x = np.full((2, 3), 0.5)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        nw.forward_soft(net, x)


def test_forward_clips_activations():
    net = tiny_net(seed=2)
    net.params[0][:] = 0.0
    net.params[0][:, 0] = 5.0  # constant 5 before the clip
    acts, _ = nw.forward_soft(net, np.zeros(5))
    assert np.allclose(acts[0], 1.0)


def test_forward_single_matches_batch():
    # groups of 32 outputs: numpy's own sum would add a lone row pairwise
    # and the rows of a batch in order
    rng = np.random.default_rng(0)
    for arch in ("ternary", "binary"):
        net = nw.init_network((48, 64), 5, 5, GS, arch=arch)
        lo, hi = nw.ARCHS[arch].domain
        x = rng.uniform(lo, hi, size=(7, 5))
        acts_b, scores_b = nw.forward_soft(net, x)
        for i in range(7):
            acts_s, scores_s = nw.forward_soft(net, x[i])
            assert np.array_equal(scores_s, scores_b[i])
            for a_s, a_b in zip(acts_s, acts_b):
                assert np.array_equal(a_s, a_b[i])


def test_exact_gate_network_computes_its_tables():
    # build a 1-layer net whose neurons are exact Kleene gates and
    # check the soft forward reproduces the discrete tables
    net = nw.init_network((4,), 2, 7, nw.GroupSumConfig(2, 1.0))
    names = ["and", "or", "xor", "implies"]
    for j, name in enumerate(names):
        net.params[0][j] = al.VANDERMONDE_INV @ al.NAMED_GATES[name]
    s, t = net.conn.layers[0]
    for point in al.GRID_POINTS:
        acts, _ = nw.forward_soft(net, np.array(point, dtype=float))
        for j, name in enumerate(names):
            want = al.NAMED_GATES[name][al.grid_index(point[s[j]], point[t[j]])]
            assert acts[0][j] == want


def test_boolean_relaxations_match_tables_on_corners():
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for k in range(16):
        table = tuple(nw.BOOLEAN_TABLES[k])
        for (a, b), want in zip(corners, table):
            got = nw.binary_gate_relaxation(k, np.array(a), np.array(b))
            assert float(got) == pytest.approx(float(want), abs=1e-15)


def test_boolean_gate_tables_frozen():
    assert tuple(nw.BOOLEAN_TABLES[0]) == (0, 0, 0, 0)
    assert tuple(nw.BOOLEAN_TABLES[1]) == (0, 0, 0, 1)   # AND
    assert tuple(nw.BOOLEAN_TABLES[6]) == (0, 1, 1, 0)   # XOR
    assert tuple(nw.BOOLEAN_TABLES[7]) == (0, 1, 1, 1)   # OR
    assert tuple(nw.BOOLEAN_TABLES[14]) == (1, 1, 1, 0)  # NAND
    assert tuple(nw.BOOLEAN_TABLES[15]) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        nw.binary_gate_relaxation(16, 0.0, 0.0)


def corner_sampled_gate_table(k):
    """The relaxation chain sampled at the four corners, rounded to bits:
    the oracle of `BOOLEAN_TABLES`."""
    out = []
    for a, b in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        v = float(nw.binary_gate_relaxation(k, np.float64(a), np.float64(b)))
        out.append(int(round(v)))
    return tuple(out)


def consensus_embedding(gate):
    """The former per-gate consensus loop: each grid point's entry from
    the set of outputs over its Boolean completions."""
    bits = corner_sampled_gate_table(gate)
    entries = np.zeros(9, dtype=np.int8)
    for g, (a, b) in enumerate(al.GRID_POINTS):
        a_opts = (0, 1) if a == 0 else ((a + 1) // 2,)
        b_opts = (0, 1) if b == 0 else ((b + 1) // 2,)
        outs = {bits[2 * ai + bi] for ai in a_opts for bi in b_opts}
        entries[g] = 0 if len(outs) > 1 else 2 * outs.pop() - 1
    return entries


@pytest.mark.parametrize("k", range(16))
def test_gate_table_and_embedding_equal_the_chain_oracles(k):
    assert tuple(nw.BOOLEAN_TABLES[k]) == corner_sampled_gate_table(k)
    assert nw.BOOLEAN_EMBEDDINGS.dtype == np.int8
    assert np.array_equal(nw.BOOLEAN_EMBEDDINGS[k], consensus_embedding(k))


def bilinear_gate(k, a, b):
    """GATE_BILINEAR[k] . (1, a, b, ab)."""
    return nw.GATE_BILINEAR[k] @ np.stack([np.ones_like(a), a, b, a * b])


@pytest.mark.parametrize("k", range(16))
def test_relaxation_chain_is_the_bilinear_table(k):
    a, b = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
    assert np.array_equal(nw.binary_gate_relaxation(k, a, b), bilinear_gate(k, a, b))
    a, b = np.random.default_rng(k).uniform(0.0, 1.0, size=(2, 10**4))
    np.testing.assert_allclose(nw.binary_gate_relaxation(k, a, b), bilinear_gate(k, a, b),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [-1, 16, 100])
def test_gate_index_out_of_range(k):
    with pytest.raises(ValueError, match="out of range"):
        nw.binary_gate_relaxation(k, 0.5, 0.5)


def test_relaxations_stay_in_unit_interval():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, size=200)
    b = rng.uniform(0, 1, size=200)
    for k in range(16):
        out = nw.binary_gate_relaxation(k, a, b)
        assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12


def test_softmax_is_stable_and_normalized():
    z = np.array([[1000.0, 1001.0, 999.0], [-5.0, 0.0, 5.0]])
    p = nw.softmax(z)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert p[0].argmax() == 1


def test_forward_binary_blend_matches_manual():
    net = nw.init_network((3, 2), 4, 11, nw.GroupSumConfig(2, 1.0), arch="binary")
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(5, 4))
    acts, scores = nw.forward_binary(net, x)
    h = x
    for (s, t), logit in zip(net.conn.layers, net.params):
        p = nw.softmax(logit)
        manual = np.zeros((5, len(s)))
        for j in range(len(s)):
            for k in range(16):
                manual[:, j] += p[j, k] * nw.binary_gate_relaxation(
                    k, h[:, s[j]], h[:, t[j]])
        h = manual
    assert np.allclose(acts[-1], h, atol=1e-12)
    assert np.allclose(scores, nw.group_sum(h, net.groupsum), atol=1e-12)


def test_forward_binary_rejects_out_of_range():
    net = nw.init_network((4,), 3, 0, nw.GroupSumConfig(2, 1.0), arch="binary")
    with pytest.raises(ValueError):
        nw.forward_binary(net, np.array([0.5, -0.2, 0.5]))


ARCH_NAMES = sorted(nw.ARCHS)
BLOCK = nw.SOFT_BLOCK_ROWS


def block_net(arch):
    """Groups of 32 outputs and some dead neurons, which `soft_scores` skips."""
    return nw.init_network((96, 96, 64), 6, 3, arch=arch)


def domain_rows(arch, rows, seed=0):
    lo, hi = nw.ARCHS[arch].domain
    return np.random.default_rng(seed).uniform(lo, hi, size=(rows, 6))


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_soft_scores_equal_the_full_pass(arch, rows):
    net = block_net(arch)
    assert sum(len(keep) for keep, _, _ in net.conn.live) < net.n_neurons
    x = domain_rows(arch, rows, seed=rows)
    got = nw.soft_scores(net, x)
    _, want = nw.forward_soft(net, x)
    assert got.shape == want.shape == (rows, 2)
    assert np.array_equal(got, want)
    if rows:
        assert np.array_equal(nw.soft_scores(net, x[-1]), nw.forward_soft(net, x[-1])[1])


def _soft_peak_beyond_scores(net, rows):
    x = domain_rows(net.arch, rows, seed=rows)
    tracemalloc.start()
    try:
        scores = nw.soft_scores(net, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - scores.nbytes


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_soft_scores_working_memory_does_not_grow_with_rows(arch):
    net = nw.init_network((256, 256, 64), 6, 16, arch=arch)
    net.conn.live  # cached on first use, outside the measurement
    one = _soft_peak_beyond_scores(net, BLOCK)
    four = _soft_peak_beyond_scores(net, 4 * BLOCK)
    # below two layers of one block's 16 relaxations and parent values
    assert one < 2 * 18 * 8 * BLOCK * 256
    assert four <= one * 1.1


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_soft_scores_check_every_row_before_the_first_block(arch, monkeypatch):
    net = block_net(arch)
    x = domain_rows(arch, 2 * BLOCK + 1)
    x[-1, 3] = np.nan
    with pytest.raises(ValueError, match="finite") as full:
        nw.forward_soft(net, x)
    monkeypatch.setattr(nw, "_layers", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(ValueError, match="finite") as blocked:
        nw.soft_scores(net, x)
    assert str(blocked.value) == str(full.value)
