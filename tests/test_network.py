"""Network construction, soft forward passes and the group-sum head."""

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
    net = tiny_net(seed=5)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(7, 5))
    acts_b, scores_b = nw.forward_soft(net, x)
    for i in range(7):
        acts_s, scores_s = nw.forward_soft(net, x[i])
        assert np.allclose(scores_s, scores_b[i], atol=1e-15)
        for a_s, a_b in zip(acts_s, acts_b):
            assert np.allclose(a_s, a_b[i], atol=1e-15)


def test_exact_gate_network_computes_its_tables():
    # build a 1-layer net whose neurons are exact Kleene gates and
    # check the soft forward reproduces the discrete tables
    net = nw.init_network((4,), 2, 7, nw.GroupSumConfig(2, 1.0))
    names = ["and", "or", "xor", "implies"]
    for j, name in enumerate(names):
        net.params[0][j] = al.coeffs_of_table(al.NAMED_GATES[name].as_array())
    s, t = net.conn.layers[0]
    for point in al.GRID_POINTS:
        acts, _ = nw.forward_soft(net, np.array(point, dtype=float))
        for j, name in enumerate(names):
            want = al.NAMED_GATES[name].value(point[s[j]], point[t[j]])
            assert acts[0][j] == want


def test_boolean_relaxations_match_tables_on_corners():
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for k in range(16):
        table = nw.boolean_gate_table(k)
        for (a, b), want in zip(corners, table):
            got = nw.binary_gate_relaxation(k, np.array(a), np.array(b))
            assert float(got) == pytest.approx(float(want), abs=1e-15)


def test_boolean_gate_tables_frozen():
    assert nw.boolean_gate_table(0) == (0, 0, 0, 0)
    assert nw.boolean_gate_table(1) == (0, 0, 0, 1)   # AND
    assert nw.boolean_gate_table(6) == (0, 1, 1, 0)   # XOR
    assert nw.boolean_gate_table(7) == (0, 1, 1, 1)   # OR
    assert nw.boolean_gate_table(14) == (1, 1, 1, 0)  # NAND
    assert nw.boolean_gate_table(15) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        nw.binary_gate_relaxation(16, 0.0, 0.0)


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
