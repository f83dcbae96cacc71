"""The training kernels against the code they replaced: the ternary
kernels against einsum/Horner code, the binary layer against the blend
that recomputed every relaxation in the backward pass, and the batch sums
of both local gradients against a loop that adds the rows in order.

The kernels compute the same expressions in the same order, only with
fewer temporaries or fewer calls, so every comparison here is exact.
"""

import dataclasses

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


def gather(h, s, t, order):
    """Parent values of a previous layer: C-ordered as the forward pass's
    `take` returns them, or F-ordered as the fancy index `h[:, s]` does."""
    if order == "C":
        return h.take(s, axis=1), h.take(t, axis=1)
    return h[:, s], h[:, t]


def layer_inputs(batch, width, seed, order="C"):
    """Parent values gathered from a previous layer in the given order, a
    C-ordered upstream gradient, and pre-clip values with entries exactly
    at +-1 and outside [-1, 1]."""
    rng = np.random.default_rng(seed)
    prev = width + 3
    h = rng.uniform(-1.0, 1.0, size=(batch, prev))
    h[:, 0] = 1.0
    h[:, 1] = -1.0
    s = rng.integers(0, prev, size=width)
    t = rng.integers(0, prev, size=width)
    a, b = gather(h, s, t, order)
    w = rng.normal(0.0, nw.INIT_STD, size=(width, 9))
    u = horner_eval_poly_many(w, a, b)
    special = np.array([1.0, -1.0, 1.5, -2.0, np.nextafter(1.0, 2.0)])
    u.flat[::3] = np.resize(special, (u.size + 2) // 3)
    gh = rng.normal(size=(batch, width))
    return w, a, b, u, gh


#: (batch, width, gather order); the F-ordered cases keep their plain ids.
SHAPES = [pytest.param(batch, width, order,
                       id=f"{batch}-{width}" + ("-C" if order == "C" else ""))
          for order in "FC" for batch in (1, 7, 100, 2000) for width in (1, 9, 512)]


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, e in zip(got, want):
        if e is None:
            assert g is None
            continue
        assert g.shape == e.shape and g.dtype == e.dtype
        assert np.array_equal(g, e)


@pytest.mark.parametrize("batch,width,order", SHAPES)
def test_eval_poly_many_matches_horner(batch, width, order):
    w, a, b, _, _ = layer_inputs(batch, width, seed=batch + width, order=order)
    assert_identical([al.eval_poly_many(w, a, b)], [horner_eval_poly_many(w, a, b)])


@pytest.mark.parametrize("batch,width,order", SHAPES)
def test_poly_input_grads_match_horner(batch, width, order):
    w, a, b, _, _ = layer_inputs(batch, width, seed=batch + width, order=order)
    assert_identical(al.poly_input_grads(w, a, b), horner_poly_input_grads(w, a, b))


@pytest.mark.parametrize("parents", [True, False])
@pytest.mark.parametrize("batch,width,order", SHAPES)
def test_polynomial_grads_match_einsum(batch, width, order, parents):
    args = layer_inputs(batch, width, seed=batch * width, order=order)
    assert_identical(nw._polynomial_grads(*args, parents),
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
    monkeypatch.setitem(nw.ARCHS, "ternary", dataclasses.replace(
        nw.ARCHS["ternary"], local_grads=einsum_polynomial_grads))
    want_loss, want_grads = tr.backward(net, x, y, 0.05, cfg)
    assert loss == want_loss
    assert len(grads) == len(want_grads) == 4
    for g, e in zip(grads, want_grads):
        assert g.shape == e.shape
        assert np.array_equal(g, e)


def row_loop_batch_sums(g, factors):
    """`network._batch_sums` as a loop over the batch rows, in order."""
    out = np.zeros((len(factors), g.shape[1]))
    for row, f in zip(out, factors):
        for r in range(g.shape[0]):
            row += g[r] if f is None else g[r] * f[r]
    return out


def spread(rng, shape, order):
    """Values over 16 decades, so that any other summation order (pairwise,
    unrolled accumulators, reversed) rounds differently."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    return np.asarray(x, order=order)


def batch_sum_factors(kind, a, b):
    """The factor lists the two local gradients pass to `_batch_sums`."""
    if kind == "monomials":
        return [None, a, b, a * b, a * a, b * b, a * a * b, a * b * b, a * a * b * b]
    return [nw.binary_gate_relaxation(k, a, b) for k in range(16)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", [1, 2, 3, 512])
@pytest.mark.parametrize("batch", [1, 9, 100, 2000])
@pytest.mark.parametrize("kind", ["monomials", "relaxations"])
def test_batch_sums_add_rows_in_order(kind, batch, width, order):
    rng = np.random.default_rng(batch * 1000 + width)
    g = spread(rng, (batch, width), order)
    if kind == "monomials":
        a, b = spread(rng, (batch, width), order), spread(rng, (batch, width), order)
    else:
        a, b = (np.asarray(rng.uniform(0.0, 1.0, (batch, width)), order=order)
                for _ in range(2))
    factors = batch_sum_factors(kind, a, b)
    got = nw._batch_sums(g, factors)
    want = row_loop_batch_sums(g, factors)
    assert got.shape == want.shape and np.array_equal(got, want)
    if batch >= 100:  # the values tell the batch orders apart
        reversed_rows = row_loop_batch_sums(g[::-1], [f if f is None else f[::-1]
                                                      for f in factors])
        assert not np.array_equal(got, reversed_rows)


def strided_blend_layer(logit, a, b):
    """The binary layer weighting each relaxation by a strided column of p."""
    p = nw.softmax(logit)
    out = np.zeros_like(a)
    for k in range(16):
        out += p[:, k] * nw.binary_gate_relaxation(k, a, b)
    return out


def recomputed_blend_grads(logit, a, b, ctx, gh, parents):
    """`_blend_grads` calling `binary_gate_relaxation` again inside
    row-by-row batch sums, instead of reading the relaxations the forward
    pass kept."""
    p, _ = ctx
    relaxations = [nw.binary_gate_relaxation(k, a, b) for k in range(16)]
    gp = row_loop_batch_sums(gh, relaxations).T.copy()
    inner = (gp * p).sum(axis=1, keepdims=True)
    gw = p * (gp - inner)
    if not parents:
        return gw, None, None
    q = p @ nw.GATE_BILINEAR
    return gw, gh * (q[:, 1] + q[:, 3] * b), gh * (q[:, 2] + q[:, 3] * a)


def binary_layer_inputs(batch, width, seed):
    """Logits, C-ordered parent values in [0, 1] with exact corners, and
    an upstream gradient."""
    rng = np.random.default_rng(seed)
    prev = width + 3
    h = rng.uniform(0.0, 1.0, size=(batch, prev))
    h[:, 0] = 1.0
    h[:, 1] = 0.0
    s = rng.integers(0, prev, size=width)
    t = rng.integers(0, prev, size=width)
    a, b = gather(h, s, t, "C")
    logit = rng.normal(0.0, 1.0, size=(width, 16))
    return logit, a, b, rng.normal(size=(batch, width))


BINARY_SHAPES = [(batch, width) for batch in (1, 7, 100) for width in (1, 16, 512)]


@pytest.mark.parametrize("parents", [True, False])
@pytest.mark.parametrize("batch,width", BINARY_SHAPES)
def test_blend_grads_from_the_context_match_recomputed_relaxations(batch, width, parents):
    logit, a, b, gh = binary_layer_inputs(batch, width, seed=batch * width)
    out, ctx = nw._blend_layer(logit, a, b)
    assert_identical([out], [strided_blend_layer(logit, a, b)])
    assert_identical(nw._blend_grads(logit, a, b, ctx, gh, parents),
                     recomputed_blend_grads(logit, a, b, ctx, gh, parents))


def test_full_binary_backward_matches_recomputed_relaxations(monkeypatch):
    net = nw.init_network((512, 512, 512, 200), 6, seed=3, arch="binary")
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(100, 6)).astype(float)
    y = rng.integers(0, 2, size=100)
    cfg = tr.TrainConfig(steps=10)
    loss, grads = tr.backward(net, x, y, 0.0, cfg)
    monkeypatch.setitem(nw.ARCHS, "binary", dataclasses.replace(
        nw.ARCHS["binary"], local_grads=recomputed_blend_grads))
    want_loss, want_grads = tr.backward(net, x, y, 0.0, cfg)
    assert loss == want_loss
    for g, e in zip(grads, want_grads):
        assert np.array_equal(g, e)
