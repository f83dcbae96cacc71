"""The ternary training kernels against the einsum/Horner code they replaced.

The kernels compute the same expressions in the same order, only with
fewer temporaries, so every comparison here is exact.
"""

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.network as nw
import tritnet.training as tr


def horner_eval_poly_many(coeffs, a, b):
    """Nested Horner evaluation in one expression per group."""
    w = coeffs.T
    c0 = (w[5] * b + w[2]) * b + w[0]
    c1 = (w[7] * b + w[3]) * b + w[1]
    c2 = (w[8] * b + w[6]) * b + w[4]
    return c0 + a * (c1 + a * c2)


def horner_poly_input_grads(coeffs, a, b):
    """(dp/da, dp/db), each written as one expression."""
    w = coeffs.T
    da = (w[7] * b + w[3]) * b + w[1] + 2.0 * a * ((w[8] * b + w[6]) * b + w[4])
    db = (w[6] * a + w[3]) * a + w[2] + 2.0 * b * ((w[8] * a + w[7]) * a + w[5])
    return da, db


def einsum_polynomial_grads(w, a, b, u, gh, parents):
    """Coefficient gradient as one einsum over the stacked (B, w, 9) monomials."""
    gu = gh * ((u >= -1.0) & (u <= 1.0))
    m = np.stack(
        [np.ones_like(a), a, b, a * b, a * a, b * b,
         a * a * b, a * b * b, a * a * b * b],
        axis=2,
    )
    gw = np.einsum("nw,nwk->wk", gu, m)
    if not parents:
        return gw, None, None
    da, db = horner_poly_input_grads(w, a, b)
    return gw, gu * da, gu * db


def layer_inputs(batch, width, seed):
    """Parent values gathered from a previous layer as the forward pass
    does (numpy returns such gathers F-ordered), a C-ordered upstream
    gradient, and pre-clip values with entries exactly at +-1 and
    outside [-1, 1]."""
    rng = np.random.default_rng(seed)
    prev = width + 3
    h = rng.uniform(-1.0, 1.0, size=(batch, prev))
    h[:, 0] = 1.0
    h[:, 1] = -1.0
    s = rng.integers(0, prev, size=width)
    t = rng.integers(0, prev, size=width)
    a, b = h[:, s], h[:, t]
    w = rng.normal(0.0, nw.INIT_STD, size=(width, 9))
    u = horner_eval_poly_many(w, a, b)
    special = np.array([1.0, -1.0, 1.5, -2.0, np.nextafter(1.0, 2.0)])
    u.flat[::3] = np.resize(special, (u.size + 2) // 3)
    gh = rng.normal(size=(batch, width))
    return w, a, b, u, gh


SHAPES = [(batch, width) for batch in (1, 7, 100, 2000) for width in (1, 9, 512)]


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, e in zip(got, want):
        if e is None:
            assert g is None
            continue
        assert g.shape == e.shape and g.dtype == e.dtype
        assert np.array_equal(g, e)


@pytest.mark.parametrize("batch,width", SHAPES)
def test_eval_poly_many_matches_horner(batch, width):
    w, a, b, _, _ = layer_inputs(batch, width, seed=batch + width)
    assert_identical([al.eval_poly_many(w, a, b)], [horner_eval_poly_many(w, a, b)])


@pytest.mark.parametrize("batch,width", SHAPES)
def test_poly_input_grads_match_horner(batch, width):
    w, a, b, _, _ = layer_inputs(batch, width, seed=batch + width)
    assert_identical(al.poly_input_grads(w, a, b), horner_poly_input_grads(w, a, b))


@pytest.mark.parametrize("parents", [True, False])
@pytest.mark.parametrize("batch,width", SHAPES)
def test_polynomial_grads_match_einsum(batch, width, parents):
    args = layer_inputs(batch, width, seed=batch * width)
    assert_identical(tr._polynomial_grads(*args, parents),
                     einsum_polynomial_grads(*args, parents))


def test_full_backward_matches_einsum_kernels(monkeypatch):
    net = nw.init_network((512, 512, 512, 200), 6, seed=3,
                          groupsum=nw.GroupSumConfig(k=2, tau=10.0))
    rng = np.random.default_rng(4)
    x = rng.integers(-1, 2, size=(100, 6)).astype(float)
    y = rng.integers(0, 2, size=100)
    cfg = tr.TrainConfig(steps=10, beta=0.01)
    loss, grads = tr.backward(net, x, y, 0.05, cfg)
    monkeypatch.setattr(al, "eval_poly_many", horner_eval_poly_many)
    monkeypatch.setitem(tr._LOCAL_GRADS, "ternary", einsum_polynomial_grads)
    want_loss, want_grads = tr.backward(net, x, y, 0.05, cfg)
    assert loss == want_loss
    assert len(grads) == len(want_grads) == 4
    for g, e in zip(grads, want_grads):
        assert g.shape == e.shape
        assert np.array_equal(g, e)
