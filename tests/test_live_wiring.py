"""Neurons without a path to the output, and the passes that skip them.

`ConnectivityMap.live` is checked against a forward-search oracle on
random wirings. The training passes of both architectures run only its
neurons; with `live` patched to keep every neuron they run the
computation that kept them all, which is the oracle every result here
must equal exactly.
"""

import numpy as np
import pytest

import tritnet.network as nw
import tritnet.training as tr


def reaches_output(conn):
    """Per layer, a bool mask of the neurons from which some chain of
    children reaches the output layer, found by a search per neuron."""
    children = [[[] for _ in range(w)] for w in conn.widths]
    for l in range(1, len(conn.widths)):
        s, t = conn.layers[l]
        for c in range(conn.widths[l]):
            children[l - 1][s[c]].append(c)
            children[l - 1][t[c]].append(c)
    last = len(conn.widths) - 1
    masks = []
    for l, w in enumerate(conn.widths):
        mask = np.zeros(w, dtype=bool)
        for j in range(w):
            frontier, depth = {j}, l
            while frontier and depth < last:
                frontier = {c for n in frontier for c in children[depth][n]}
                depth += 1
            mask[j] = bool(frontier)
        masks.append(mask)
    return masks


@pytest.mark.parametrize("seed", range(40))
def test_live_matches_a_search_from_every_neuron(seed):
    rng = np.random.default_rng(seed)
    widths = tuple(int(w) for w in rng.integers(1, 24, size=rng.integers(1, 5)))
    conn = nw.sample_connectivity(widths, int(rng.integers(2, 7)), seed)
    live = conn.live
    assert live is conn.live  # computed once
    prev = np.arange(conn.input_dim)
    for (keep, s, t), (s_raw, t_raw), mask in zip(live, conn.layers, reaches_output(conn)):
        assert np.array_equal(keep, np.flatnonzero(mask))
        # parents renumbered into the previous layer's kept neurons
        assert np.array_equal(prev[s], s_raw[keep])
        assert np.array_equal(prev[t], t_raw[keep])
        prev = keep
    assert np.array_equal(live[-1][0], np.arange(widths[-1]))


def test_output_layer_alone_keeps_raw_input_indices():
    conn = nw.sample_connectivity((6,), 3, seed=2)
    ((keep, s, t),) = conn.live
    assert np.array_equal(keep, np.arange(6))
    assert np.array_equal(s, conn.layers[0][0])
    assert np.array_equal(t, conn.layers[0][1])


def _duplicate_parents_net(arch):
    """Every body neuron reads one parent twice, and several outputs share
    parents; neurons 0, 2 and 5 of the body are dead."""
    widths = (6, 4)
    layers = (
        (np.array([0, 1, 2, 3, 4, 0]), np.array([0, 1, 2, 3, 4, 0])),
        (np.array([1, 1, 3, 4]), np.array([3, 1, 3, 1])),
    )
    conn = nw.ConnectivityMap(seed=0, input_dim=5, widths=widths, layers=layers)
    spec = nw.ARCHS[arch]
    params = [np.random.default_rng(1).normal(0.0, spec.init_std, size=(w, spec.n_params))
              for w in widths]
    return nw.Network(arch=arch, conn=conn,
                      params=params, groupsum=nw.GroupSumConfig(2, 3.0))


NETS = {
    "many-dead": lambda arch: nw.init_network(
        (64, 64, 4), 6, 3, nw.GroupSumConfig(2, 2.0), arch=arch),
    "deep": lambda arch: nw.init_network(
        (32, 32, 32, 6), 4, 8, nw.GroupSumConfig(3, 1.5), arch=arch),
    "single-layer": lambda arch: nw.init_network(
        (8,), 6, 5, nw.GroupSumConfig(2, 4.0), arch=arch),
    "duplicate-parents": _duplicate_parents_net,
}

#: (arch, net name) pairs; ternary cases keep the bare net name as their id.
CASES = [pytest.param(arch, name, id=name if arch == "ternary" else f"{arch}-{name}")
         for arch in nw.ARCHS for name in NETS]


def _batch(arch, net, batch, seed):
    """Inputs drawn from the architecture's domain, the first half rounded
    to grid rows, with random labels."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(*nw.ARCHS[arch].domain, size=(batch, net.input_dim))
    x[: batch // 2] = np.round(x[: batch // 2])
    return x, rng.integers(0, net.groupsum.k, size=batch)


def test_duplicate_parents_net_has_the_dead_neurons_it_claims():
    keep, s, t = _duplicate_parents_net("ternary").conn.live[0]
    assert np.array_equal(keep, [1, 3, 4])


def _passes(net, x, y, lam, cfg):
    loss, grads = tr.backward(net, x, y, lam, cfg)
    _, scores = tr._forward(net, x)
    return (loss, tr.backward(net, x, y, lam, cfg)[0], scores,
            tr._soft_accuracy(net, x, y), *grads)


@pytest.mark.parametrize("arch,name", CASES)
@pytest.mark.parametrize("batch", [1, 7, 100])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("beta", [0.0, 0.01])
@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_skipping_dead_neurons_changes_no_bit(monkeypatch, arch, name, batch, lam, beta,
                                              loss):
    net = NETS[name](arch)
    x, y = _batch(arch, net, batch, batch)
    cfg = tr.TrainConfig(steps=10, beta=beta, loss=loss)
    got = _passes(net, x, y, lam, cfg)
    monkeypatch.setattr(nw.ConnectivityMap, "live", nw.ConnectivityMap.all_neurons)
    want = _passes(net, x, y, lam, cfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


@pytest.mark.parametrize("arch,name", CASES)
def test_dead_neurons_have_zero_task_gradient(arch, name):
    net = NETS[name](arch)
    x, y = _batch(arch, net, 50, 4)
    _, grads = tr.backward(net, x, y, 0.0, tr.TrainConfig(steps=1))
    n_dead = 0
    for g, (keep, _, _) in zip(grads, net.conn.live):
        dead = np.setdiff1d(np.arange(len(g)), keep)
        n_dead += len(dead)
        assert (g[dead] == 0.0).all()
        assert (g[keep] != 0.0).any(axis=1).sum() > 0
    if name in ("many-dead", "duplicate-parents"):
        assert n_dead > 0


def test_commitment_term_still_moves_dead_neurons():
    net = NETS["many-dead"]("ternary")
    keep = net.conn.live[0][0]
    dead = np.setdiff1d(np.arange(64), keep)
    x = np.zeros((3, 6))
    _, grads = tr.backward(net, x, np.array([0, 1, 0]), 0.5, tr.TrainConfig(steps=1))
    assert (grads[0][dead] != 0.0).any(axis=1).all()


@pytest.mark.parametrize("arch", nw.ARCHS)
@pytest.mark.parametrize("width", [16, 270, 512])
def test_local_gradient_of_a_column_subset_is_those_columns(arch, width):
    """Skipping dead neurons is exact only if each column's local gradient
    is the same to the bit whichever other columns run beside it: here
    `width` of a 512-wide layer's columns, batch 100."""
    rng = np.random.default_rng(width)
    spec = nw.ARCHS[arch]
    h = rng.uniform(*spec.domain, size=(100, 512))  # the parent layer
    s, t = rng.integers(0, 512, size=(2, 512))
    w = rng.normal(0.0, spec.init_std, size=(512, spec.n_params))
    gh = rng.normal(size=(100, 512))

    def local_grads(keep):
        # gathered parents, as the forward pass makes them; a C-ordered
        # upstream gradient, as the scatter to parents makes it
        a, b = h[:, s[keep]], h[:, t[keep]]
        _, ctx = spec.layer(w[keep], a, b)
        return spec.local_grads(w[keep], a, b, ctx, gh[:, keep].copy(), True)

    keep = np.sort(rng.choice(512, size=width, replace=False))
    gw, ga, gb = local_grads(np.arange(512))
    sub_gw, sub_ga, sub_gb = local_grads(keep)
    assert np.array_equal(sub_gw, gw[keep])
    assert np.array_equal(sub_ga, ga[:, keep])
    assert np.array_equal(sub_gb, gb[:, keep])


@pytest.mark.parametrize("arch", ["ternary", "binary"])
def test_soft_scores_of_the_live_neurons_equal_all_neurons(arch):
    net = nw.init_network((512, 512, 512, 200), 6, 7, arch=arch)
    lo, hi = nw.ARCHS[arch].domain
    rng = np.random.default_rng(8)
    n_live = sum(len(keep) for keep, _, _ in net.conn.live)
    assert n_live < net.n_neurons
    for rows in (1, 7, 100, 500, 2000):
        x = rng.uniform(lo, hi, size=(rows, 6))
        x[: rows // 2] = np.round(x[: rows // 2])  # grid rows too
        y = rng.integers(0, 2, size=rows)
        acts, want = nw.forward_soft(net, x)
        live_acts, got = nw.forward_soft(net, x, net.conn.live)
        assert got.shape == want.shape and np.array_equal(got, want)
        for h, h_all, (keep, _, _) in zip(live_acts, acts, net.conn.live):
            assert np.array_equal(h, h_all[:, keep])
        assert tr._soft_accuracy(net, x, y) == float((want.argmax(axis=1) == y).mean())
    _, one = nw.forward_soft(net, x[0], net.conn.live)
    assert np.array_equal(one, nw.forward_soft(net, x[0])[1])


def test_soft_accuracy_checks_its_inputs():
    net = nw.init_network((8, 4), 3, 1)
    with pytest.raises(ValueError, match="finite"):
        tr._soft_accuracy(net, np.full((2, 3), 1.5), np.zeros(2, dtype=int))
