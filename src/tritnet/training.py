"""Losses, analytic gradients and the minibatch training loop.

The total objective where the architecture has a lattice (ternary) is

    L = L_task + lambda(t) * R_commit + beta * R_sparse,

where L_task is measured on GroupSum scores (mean squared error against
a one-hot target, or softmax cross-entropy; by default the network's
`ArchSpec.loss`), R_commit is the mean squared distance of every
neuron's truth-table values from the trit lattice, and R_sparse is the
mean L1 norm of every neuron's orthogonal-basis spectrum. The
commitment weight follows the ramp lambda(t) = lambda_max * (t / T)^gamma,
evaluated at every step, so early training explores freely and late
training is pushed onto the lattice.

Gradients are computed in closed form (reverse mode through the layers)
rather than by an autodiff framework. The conventions at the kinks:
clip'(x) is 1 on the closed interval [-1, 1] and 0 outside, the squared
lattice distance uses its left derivative at the breakpoints +-0.5, and
sign(0) = 0 in the L1 term.

Every architecture trains through this loop and backward pass; its
`network.ArchSpec` gives the local gradient of its layer op
(`local_grads`) and whether the lattice terms apply (`lattice`: the
binary baseline has none, so the task loss alone drives it). A local
gradient reads the context its layer op kept in the forward pass: the
pre-clip values of a ternary layer, the softmax weights and the 16
relaxations of a binary one, so no relaxation is evaluated twice a step.

The task terms and the accuracies of both architectures run only the
neurons with a path to the output, bit-identical to running them all
(the rest get zero task gradient); the regularizers see every neuron.
The accuracies score through `network.soft_scores`, SOFT_BLOCK_ROWS rows
at a time; GroupSum sums each group in index order, so the blocks leave
every score bit as the whole batch would give it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, fourier
from .network import (ARCHS, Network, _checked_inputs, _layers, group_sum, soft_scores,
                      softmax)

#: Rows of the training set that eval-point history rows score
#: train_acc on: the first TRAIN_ACC_ROWS, so the cost of an eval point
#: does not grow with the dataset.
TRAIN_ACC_ROWS = 2000


class NumericalFailure(RuntimeError):
    """A loss or gradient stopped being finite; training aborts hard.

    Carries the step index at which the failure was detected.
    """

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    steps: int = 5000
    batch_size: int = 100
    lr: float = 0.01
    lambda_max: float = 0.1
    gamma: float = 2.0
    beta: float = 0.0
    loss: str | None = None  # None picks the network's (`ArchSpec.loss`)
    seed: int = 0
    eval_every: int = 500

    def __post_init__(self):
        if algebra.exact_int(self.seed, "seed") < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if algebra.exact_int(self.steps, "steps") < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if algebra.exact_int(self.batch_size, "batch_size") < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if algebra.exact_int(self.eval_every, "eval_every") < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0 <= self.lambda_max < np.inf:
            raise ValueError(f"lambda_max must be >= 0 and finite, "
                             f"got {self.lambda_max}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be > 0 and finite, got {self.gamma}")
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        if self.loss not in (None, "mse", "ce"):
            raise ValueError(f"loss must be 'mse' or 'ce', got {self.loss!r}")


def lambda_schedule(t: float, cfg: TrainConfig) -> float:
    """Commitment weight at step t of cfg.steps, the power ramp."""
    if cfg.steps == 0:
        return 0.0
    frac = min(max(t / cfg.steps, 0.0), 1.0)
    return cfg.lambda_max * frac**cfg.gamma


def task_loss(scores: np.ndarray, targets: np.ndarray, kind: str) -> float:
    """Classification loss on GroupSum scores.

    mse: mean over the batch of the mean over classes of the squared
    difference between the raw score vector and the one-hot target.
    ce: mean softmax cross-entropy.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    targets = np.atleast_1d(np.asarray(targets))
    n, k = scores.shape
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"target out of range [0, {k - 1}]")
    if kind == "mse":
        onehot = np.zeros_like(scores)
        onehot[np.arange(n), targets] = 1.0
        return float(((scores - onehot) ** 2).mean())
    if kind == "ce":
        shifted = scores - scores.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        return float((logz - shifted[np.arange(n), targets]).mean())
    raise ValueError(f"unknown loss kind {kind!r}")


def task_loss_grad(scores: np.ndarray, targets: np.ndarray, kind: str) -> np.ndarray:
    """dL_task/dscores for a batch, matching `task_loss` exactly."""
    n, k = scores.shape
    onehot = np.zeros_like(scores)
    onehot[np.arange(n), targets] = 1.0
    if kind == "mse":
        return 2.0 * (scores - onehot) / (n * k)
    if kind == "ce":
        return (softmax(scores) - onehot) / n
    raise ValueError(f"unknown loss kind {kind!r}")


def _lattice_nearest_left(t: np.ndarray) -> np.ndarray:
    """Nearest trit as used by the distance gradient.

    Continuous from the left: exactly at +-0.5 the lower lattice cell
    wins, which realizes the left derivative of the squared distance.
    """
    return np.clip(np.ceil(t - 0.5), -1.0, 1.0)


def commitment_loss(net: Network) -> float:
    """Mean squared lattice distance of all truth-table values.

    Per neuron this is (1/9) * sum_g dist(t_g, {-1,0,+1})^2 with t the
    polynomial's values on the input grid; the result is averaged over
    all neurons of the network; dist is the residue `commitment_grads`
    differentiates (at the ties +-0.5 either trit gives the same square).
    """
    total = 0.0
    for w in net.params:
        tbl = w @ algebra.VANDERMONDE.T
        d = tbl - _lattice_nearest_left(tbl)
        total += float((d * d).sum())
    return total / (9.0 * net.n_neurons)


def commitment_grads(net: Network) -> list[np.ndarray]:
    """Gradient of `commitment_loss` with respect to the coefficients."""
    scale = 1.0 / (9.0 * net.n_neurons)
    grads = []
    for w in net.params:
        tbl = w @ algebra.VANDERMONDE.T
        g = 2.0 * (tbl - _lattice_nearest_left(tbl))
        grads.append(scale * (g @ algebra.VANDERMONDE))
    return grads


def fourier_l1_loss(net: Network) -> float:
    """Mean L1 spectrum mass per neuron, the sparsity regularizer."""
    total = 0.0
    for w in net.params:
        total += float(np.abs(w @ fourier.MONOMIAL_TO_FOURIER.T).sum())
    return total / net.n_neurons


def fourier_l1_grads(net: Network) -> list[np.ndarray]:
    """Subgradient of `fourier_l1_loss`, with sign(0) = 0."""
    scale = 1.0 / net.n_neurons
    grads = []
    for w in net.params:
        s = np.sign(w @ fourier.MONOMIAL_TO_FOURIER.T)
        grads.append(scale * (s @ fourier.MONOMIAL_TO_FOURIER))
    return grads


def _forward(net: Network, x: np.ndarray):
    """Class scores of a batch plus each live layer's (w, a, b, h, context)."""
    cache = list(_layers(net, x, net.conn.live))
    return cache, group_sum(cache[-1][3], net.groupsum)


def _scatter_to_parents(gh_shape, s, t, ga, gb):
    """Accumulate parent-value gradients back onto the previous layer."""
    n, prev = gh_shape
    base = np.arange(n)[:, None] * prev
    flat = np.concatenate([(base + s).ravel(), (base + t).ravel()])
    vals = np.concatenate([ga.ravel(), gb.ravel()])
    return np.bincount(flat, weights=vals, minlength=n * prev).reshape(n, prev)


def backward(net: Network, x, y, lam: float, cfg: TrainConfig):
    """Analytic gradient of the total loss. Returns (loss, grads).

    grads is a list of per-layer arrays shaped like net.params. The task
    loss is cfg.loss, or the architecture's own if that is None. The
    commitment and sparsity terms apply only where the architecture has
    a lattice, so `lam` and cfg.beta leave the binary baseline be.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y))
    spec = ARCHS[net.arch]
    kind = cfg.loss or spec.loss
    cache, scores = _forward(net, x)
    loss = task_loss(scores, y, kind)

    k, tau = net.groupsum.k, net.groupsum.tau
    gscores = task_loss_grad(scores, y, kind)
    group = net.widths[-1] // k
    gh = np.repeat(gscores, group, axis=1) / tau

    grads = [np.zeros_like(w) for w in net.params]
    for l, (keep, s, t) in reversed(list(enumerate(net.conn.live))):
        w, a, b, _, ctx = cache[l]
        grads[l][keep], ga, gb = spec.local_grads(w, a, b, ctx, gh, l > 0)
        if l > 0:
            gh = _scatter_to_parents((x.shape[0], len(cache[l - 1][0])), s, t, ga, gb)

    if spec.lattice and lam != 0.0:
        loss += lam * commitment_loss(net)
        for g, cg in zip(grads, commitment_grads(net)):
            g += lam * cg
    if spec.lattice and cfg.beta != 0.0:
        loss += cfg.beta * fourier_l1_loss(net)
        for g, fg in zip(grads, fourier_l1_grads(net)):
            g += cfg.beta * fg
    return loss, grads


# Kept under its former name, which the benchmark's tracer reports.
backward_binary = backward


@dataclass
class AdamState:
    """First and second moment accumulators plus the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update, applied to params in place."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
    return params, state


def _soft_accuracy(net, x, y) -> float:
    return float((soft_scores(net, x).argmax(axis=1) == y).mean())


def train(net, data, cfg: TrainConfig, eval_data=None):
    """Minibatch training loop. Returns (net, history).

    `data` is an (x, y) pair of encoded inputs and integer labels;
    `eval_data`, if given, is a held-out pair scored every
    cfg.eval_every steps. Both get the soft passes' checks (width, shape,
    finite values in the arch's domain) and a label count check before step 0.
    `net` is updated in place and also returned.
    History is a list of per-step dicts; rows that carry evaluation
    metrics gain train_acc/eval_acc keys. train_acc is scored on the
    first TRAIN_ACC_ROWS training rows only, eval_acc on all of
    `eval_data`. Rows of an architecture with a lattice also carry the
    commitment weight lambda and the commitment loss. With cfg.steps ==
    0 the network is returned untouched with an empty history.

    Any non-finite loss or parameter aborts with NumericalFailure.
    """
    x, y = data
    x, _ = _checked_inputs(net, x)
    y = np.atleast_1d(np.asarray(y))
    if eval_data is not None:
        eval_data = (_checked_inputs(net, eval_data[0])[0],
                     np.atleast_1d(np.asarray(eval_data[1])))
        if len(eval_data[1]) != len(eval_data[0]):
            raise ValueError(f"{len(eval_data[1])} labels for {len(eval_data[0])} rows")
    if x.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} inputs but {y.shape[0]} labels")
    lattice = ARCHS[net.arch].lattice
    state = AdamState.init(net.params)
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    n = x.shape[0]
    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        xb, yb = x[idx], y[idx]
        lam = lambda_schedule(step, cfg) if lattice else 0.0
        loss, grads = backward(net, xb, yb, lam, cfg)
        if not np.isfinite(loss):
            raise NumericalFailure(step, f"loss became {loss!r}")
        adam_step(net.params, grads, state, cfg.lr)
        if not all(np.isfinite(p).all() for p in net.params):
            raise NumericalFailure(step, "parameters became non-finite")
        row = {"step": step, "loss": loss}
        if lattice:
            row["lambda"] = lam
            row["commit_loss"] = commitment_loss(net)
        due = (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1
        if due:
            row["train_acc"] = _soft_accuracy(net, x[:TRAIN_ACC_ROWS],
                                              y[:TRAIN_ACC_ROWS])
            if eval_data is not None:
                row["eval_acc"] = _soft_accuracy(net, eval_data[0], eval_data[1])
        history.append(row)
    return net, history
