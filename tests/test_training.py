"""Losses, analytic gradients, Adam and the training loop."""

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.network as nw
import tritnet.training as tr
from test_algebra import eval_poly

GS = nw.GroupSumConfig(k=2, tau=10.0)


def small_net(seed=0, widths=(6, 4), input_dim=5):
    return nw.init_network(widths, input_dim, seed, GS)


def make_batch(net, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(-1, 2, size=(n, net.input_dim)).astype(float)
    y = rng.integers(0, net.groupsum.k, size=n)
    return x, y


def nudge_off_breakpoints(net, margin=1e-3):
    """Shrink coefficients until no table value sits near +-0.5.

    The commitment loss is non-smooth there, so finite-difference
    checks need weights strictly inside a smooth cell.
    """
    for _ in range(200):
        bad = False
        for w in net.params:
            t = w @ al.VANDERMONDE.T
            if np.min(np.abs(np.abs(t) - 0.5)) < margin:
                bad = True
        if not bad:
            return net
        for w in net.params:
            w *= 0.995
    raise AssertionError("could not move weights off the breakpoints")


# ------------------------------------------------------------- config

def test_config_validation():
    tr.TrainConfig(steps=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=1, batch_size=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=1, gamma=0.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=1, lambda_max=-0.1)
    with pytest.raises(ValueError):
        tr.TrainConfig(steps=1, loss="hinge")
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite"):
            tr.TrainConfig(steps=1, lr=lr)
    with pytest.raises(ValueError, match="eval_every"):
        tr.TrainConfig(steps=1, eval_every=0)


def test_lambda_schedule():
    cfg = tr.TrainConfig(steps=100, lambda_max=0.4, gamma=2.0)
    assert tr.lambda_schedule(0, cfg) == 0.0
    assert tr.lambda_schedule(50, cfg) == pytest.approx(0.4 * 0.25)
    assert tr.lambda_schedule(100, cfg) == pytest.approx(0.4)
    assert tr.lambda_schedule(1000, cfg) == pytest.approx(0.4)  # clamped
    cfg3 = tr.TrainConfig(steps=100, lambda_max=1.0, gamma=3.0)
    assert tr.lambda_schedule(50, cfg3) == pytest.approx(0.125)
    assert tr.lambda_schedule(0, tr.TrainConfig(steps=0)) == 0.0


# ------------------------------------------------------------- losses

def test_mse_loss_matches_explicit_loop():
    scores = np.array([[0.2, 0.9], [1.1, -0.3], [0.0, 0.0]])
    y = np.array([1, 0, 0])
    total = 0.0
    for i in range(3):
        onehot = [0.0, 0.0]
        onehot[y[i]] = 1.0
        total += sum((scores[i, j] - onehot[j]) ** 2 for j in range(2)) / 2
    assert tr.task_loss(scores, y, "mse") == pytest.approx(total / 3, rel=1e-12)


def test_ce_loss_matches_explicit_loop():
    scores = np.array([[2.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
    y = np.array([0, 2])
    total = 0.0
    for i in range(2):
        p = np.exp(scores[i]) / np.exp(scores[i]).sum()
        total += -np.log(p[y[i]])
    assert tr.task_loss(scores, y, "ce") == pytest.approx(total / 2, rel=1e-12)


def test_ce_loss_is_stable_for_huge_scores():
    scores = np.array([[1000.0, -1000.0]])
    assert np.isfinite(tr.task_loss(scores, np.array([0]), "ce"))
    assert tr.task_loss(scores, np.array([0]), "ce") == pytest.approx(0.0, abs=1e-12)


def test_task_loss_validates_targets():
    with pytest.raises(ValueError):
        tr.task_loss(np.zeros((2, 2)), np.array([0, 2]), "mse")
    with pytest.raises(ValueError):
        tr.task_loss(np.zeros((2, 2)), np.array([0]), "mse")


@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_task_loss_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, size=4)
    grad = tr.task_loss_grad(scores, y, kind)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            sp = scores.copy()
            sp[i, j] += h
            sm = scores.copy()
            sm[i, j] -= h
            fd = (tr.task_loss(sp, y, kind) - tr.task_loss(sm, y, kind)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# -------------------------------------------------------- commitment

def test_nearest_lattice_left_derivative_convention():
    t = np.array([-2.0, -0.75, -0.5, -0.49, -0.25, 0.0, 0.49, 0.5, 0.51, 2.0])
    want = np.array([-1, -1, -1, 0, 0, 0, 0, 0, 1, 1], dtype=float)
    assert np.array_equal(tr._lattice_nearest_left(t), want)


def test_commitment_loss_matches_brute_force():
    net = small_net(seed=1)
    total = 0.0
    count = 0
    for w in net.params:
        for row in w:
            for a, b in al.GRID_POINTS:
                v = eval_poly(row, float(a), float(b))
                total += min((v - q) ** 2 for q in (-1.0, 0.0, 1.0))
            count += 1
    assert tr.commitment_loss(net) == pytest.approx(total / (9 * count),
                                                    rel=1e-12)


def test_commitment_zero_iff_exact_gates():
    net = small_net(seed=2, widths=(4,), input_dim=3)
    rng = np.random.default_rng(3)
    for j in range(4):
        net.params[0][j] = al.VANDERMONDE_INV @ rng.integers(-1, 2, size=9)
    assert tr.commitment_loss(net) == 0.0
    net.params[0][0, 0] += 0.2
    assert tr.commitment_loss(net) > 0.0


def test_commitment_grads_match_finite_differences():
    net = nudge_off_breakpoints(small_net(seed=4))
    grads = tr.commitment_grads(net)
    h = 1e-6
    for l, w in enumerate(net.params):
        for (j, c) in [(0, 0), (1, 4), (2, 8), (3, 5)]:
            if j >= w.shape[0]:
                continue
            w[j, c] += h
            up = tr.commitment_loss(net)
            w[j, c] -= 2 * h
            dn = tr.commitment_loss(net)
            w[j, c] += h
            fd = (up - dn) / (2 * h)
            assert grads[l][j, c] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_commitment_loss_squares_the_distance_to_the_nearest_trit():
    # the min-of-three distance the loss used before it shared the
    # gradient's residue, as the bit-for-bit oracle, ties included
    net = small_net(seed=5, widths=(40,), input_dim=4)
    rng = np.random.default_rng(6)
    ties = np.array([0.5, -0.5, 1.5, -1.5, 0.0, 1.0, -1.0, 2.5, -2.5])
    tables = np.concatenate([rng.normal(0.0, 1.5, size=(31, 9)), ties[None].repeat(9, 0)])
    net.params[0][:] = tables @ al.VANDERMONDE_INV.T
    tbl = net.params[0] @ al.VANDERMONDE.T
    assert set(ties) <= set(tbl.ravel())
    d = np.minimum(np.abs(tbl + 1.0), np.minimum(np.abs(tbl), np.abs(tbl - 1.0)))
    assert tr.commitment_loss(net) == float((d * d).sum()) / (9.0 * net.n_neurons)


def test_hardening_identity():
    # the rounding error of the hardened circuit equals the commitment
    # loss exactly, because both measure the same squared distances
    from tritnet.circuit import hardening_error
    for seed in range(20):
        net = small_net(seed=seed, widths=(8, 6, 4), input_dim=6)
        assert hardening_error(net) == tr.commitment_loss(net)


# ----------------------------------------------------------- sparsity

def test_fourier_l1_grads_match_finite_differences():
    net = small_net(seed=5)
    grads = tr.fourier_l1_grads(net)
    h = 1e-7
    for l, w in enumerate(net.params):
        for (j, c) in [(0, 1), (1, 3), (2, 7)]:
            w[j, c] += h
            up = tr.fourier_l1_loss(net)
            w[j, c] -= 2 * h
            dn = tr.fourier_l1_loss(net)
            w[j, c] += h
            fd = (up - dn) / (2 * h)
            assert grads[l][j, c] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_total_loss_composition():
    net = small_net(seed=6)
    x, y = make_batch(net, 16, seed=1)
    cfg = tr.TrainConfig(steps=1, loss="mse", beta=0.03)
    lam = 0.2
    _, scores = nw.forward_soft(net, x)
    want = (tr.task_loss(scores, y, "mse") + lam * tr.commitment_loss(net)
            + 0.03 * tr.fourier_l1_loss(net))
    assert tr.backward(net, x, y, lam, cfg)[0] == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------ full backward

@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_backward_matches_finite_differences(kind):
    net = nudge_off_breakpoints(small_net(seed=7, widths=(6, 4), input_dim=5))
    x, y = make_batch(net, 8, seed=2)
    cfg = tr.TrainConfig(steps=1, loss=kind, beta=0.0)
    lam = 0.05
    loss, grads = tr.backward(net, x, y, lam, cfg)
    assert loss == pytest.approx(tr.backward(net, x, y, lam, cfg)[0], rel=1e-12)
    rng = np.random.default_rng(3)
    h = 1e-5
    checked = 0
    for l, w in enumerate(net.params):
        for _ in range(6):
            j = int(rng.integers(0, w.shape[0]))
            c = int(rng.integers(0, 9))
            w[j, c] += h
            up = tr.backward(net, x, y, lam, cfg)[0]
            w[j, c] -= 2 * h
            dn = tr.backward(net, x, y, lam, cfg)[0]
            w[j, c] += h
            fd = (up - dn) / (2 * h)
            if abs(fd) < 1e-10 and abs(grads[l][j, c]) < 1e-10:
                continue  # both zero: clipped or inactive path
            assert grads[l][j, c] == pytest.approx(fd, rel=1e-3, abs=1e-7)
            checked += 1
    assert checked >= 6


def test_backward_binary_matches_finite_differences():
    net = nw.init_network((5, 4), 6, 8, GS, arch="binary")
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(8, 6)).astype(float)
    y = rng.integers(0, 2, size=8)
    cfg = tr.TrainConfig(steps=1, loss="ce")
    loss, grads = tr.backward(net, x, y, 0.0, cfg)

    def loss_at():
        _, scores = nw.forward_binary(net, x)
        return tr.task_loss(scores, y, "ce")

    assert loss == pytest.approx(loss_at(), rel=1e-12)
    h = 1e-5
    for l, logit in enumerate(net.params):
        for _ in range(5):
            j = int(rng.integers(0, logit.shape[0]))
            k = int(rng.integers(0, 16))
            logit[j, k] += h
            up = loss_at()
            logit[j, k] -= 2 * h
            dn = loss_at()
            logit[j, k] += h
            fd = (up - dn) / (2 * h)
            assert grads[l][j, k] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_clip_subgradient_is_zero_outside_the_band():
    # saturate one neuron far above 1: its coefficient gradient from
    # the task loss must vanish
    net = small_net(seed=9, widths=(2,), input_dim=2)
    net.params[0][:] = 0.0
    net.params[0][0, 0] = 7.0   # constant, clipped to 1
    net.params[0][1, 0] = 0.3
    x = np.array([[1.0, -1.0]])
    y = np.array([0])
    cfg = tr.TrainConfig(steps=1, loss="mse")
    _, grads = tr.backward(net, x, y, 0.0, cfg)
    assert np.allclose(grads[0][0], 0.0)
    assert not np.allclose(grads[0][1], 0.0)


# ----------------------------------------------------------------- adam

def test_adam_single_step_reference():
    p = [np.array([1.0, -2.0])]
    g = [np.array([0.5, -0.1])]
    state = tr.AdamState.init(p)
    tr.adam_step(p, g, state, lr=0.1)
    # closed form for t=1: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
    want = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -0.1]) * (
        np.abs([0.5, -0.1]) / (np.abs([0.5, -0.1]) + 1e-8))
    assert np.allclose(p[0], want, atol=1e-12)
    assert state.t == 1


def test_adam_two_steps_match_reference_formulas():
    rng = np.random.default_rng(5)
    p = [rng.normal(size=(3, 2))]
    p_ref = [p[0].copy()]
    g1 = [rng.normal(size=(3, 2))]
    g2 = [rng.normal(size=(3, 2))]
    state = tr.AdamState.init(p)
    tr.adam_step(p, g1, state, lr=0.05)
    tr.adam_step(p, g2, state, lr=0.05)

    m = np.zeros((3, 2))
    v = np.zeros((3, 2))
    ref = p_ref[0]
    for t, g in ((1, g1[0]), (2, g2[0])):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        ref = ref - 0.05 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(p[0], ref, atol=1e-12)


# ------------------------------------------------------------ training

def test_train_zero_steps_returns_untouched_net():
    net = small_net(seed=10)
    before = [w.copy() for w in net.params]
    x, y = make_batch(net, 20, seed=6)
    out, history = tr.train(net, (x, y), tr.TrainConfig(steps=0))
    assert out is net
    assert history == []
    for w0, w1 in zip(before, net.params):
        assert np.array_equal(w0, w1)


def test_train_history_contract():
    net = small_net(seed=11)
    x, y = make_batch(net, 50, seed=7)
    cfg = tr.TrainConfig(steps=7, batch_size=10, eval_every=3)
    _, history = tr.train(net, (x, y), cfg, eval_data=(x, y))
    assert [row["step"] for row in history] == list(range(7))
    for row in history:
        assert np.isfinite(row["loss"])
        assert "lambda" in row and "commit_loss" in row
    # evaluation lands every 3 steps and on the final step
    has_acc = [i for i, row in enumerate(history) if "train_acc" in row]
    assert has_acc == [2, 5, 6]
    assert all("eval_acc" in history[i] for i in has_acc)


def test_train_is_deterministic():
    x, y = make_batch(small_net(), 40, seed=8)
    runs = []
    for _ in range(2):
        net = small_net(seed=12)
        net, history = tr.train(net, (x, y), tr.TrainConfig(steps=5, seed=3))
        runs.append(([w.copy() for w in net.params], history))
    for w1, w2 in zip(runs[0][0], runs[1][0]):
        assert np.array_equal(w1, w2)
    assert runs[0][1] == runs[1][1]


def test_train_decreases_loss_on_learnable_data():
    net = small_net(seed=13, widths=(16, 8), input_dim=4)
    rng = np.random.default_rng(9)
    x = rng.integers(-1, 2, size=(200, 4)).astype(float)
    y = (x[:, 0] > 0).astype(int)
    cfg = tr.TrainConfig(steps=300, batch_size=50, lr=0.02, seed=1)
    _, history = tr.train(net, (x, y), cfg)
    first = np.mean([row["loss"] for row in history[:10]])
    last = np.mean([row["loss"] for row in history[-10:]])
    assert last < first
    assert history[-1]["train_acc"] > 0.9


def test_train_binary_baseline_runs():
    net = nw.init_network((12, 4), 4, 14, GS, arch="binary")
    rng = np.random.default_rng(10)
    x = rng.integers(0, 2, size=(100, 4)).astype(float)
    y = x[:, 1].astype(int)
    cfg = tr.TrainConfig(steps=120, batch_size=25, lr=0.05, loss="ce", seed=2)
    _, history = tr.train(net, (x, y), cfg)
    assert history[-1]["train_acc"] > 0.9
    assert "lambda" not in history[0]


def test_train_raises_on_numerical_failure():
    net = small_net(seed=15)
    net.params[0][0, 0] = np.nan
    x, y = make_batch(net, 10, seed=11)
    with pytest.raises(tr.NumericalFailure) as info:
        tr.train(net, (x, y), tr.TrainConfig(steps=3))
    assert info.value.step == 0
    assert "step 0" in str(info.value)


def test_train_rejects_bad_data():
    net = small_net(seed=16)
    x, y = make_batch(net, 10, seed=12)
    with pytest.raises(ValueError):
        tr.train(net, (x[:0], y[:0]), tr.TrainConfig(steps=1))
    with pytest.raises(ValueError):
        tr.train(net, (x, y[:-1]), tr.TrainConfig(steps=1))
    # Inputs that do not fit the net are refused before step 0 runs.
    before = [p.copy() for p in net.params]
    far = x.copy()
    far[3, 1] = 7.0
    for bad, match in [((x[:, :3], y), "expected 5 inputs, got 3"),
                       ((x[:, None, :], y), "2-D batch"),
                       ((far, y), "must be finite and lie in")]:
        with pytest.raises(ValueError, match=match):
            tr.train(net, bad, tr.TrainConfig(steps=3, eval_every=3))
    with pytest.raises(ValueError, match="must be finite and lie in"):
        tr.train(net, (x, y), tr.TrainConfig(steps=3, eval_every=3),
                 eval_data=(far, y))
    for labels in (1, 9, 11):
        with pytest.raises(ValueError, match=f"^{labels} labels for 10 rows$"):
            tr.train(net, (x, y), tr.TrainConfig(steps=3, eval_every=3),
                     eval_data=(x, np.resize(y, labels)))
    assert all(np.array_equal(a, b) for a, b in zip(net.params, before))
