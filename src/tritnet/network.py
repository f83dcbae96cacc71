"""Soft networks of two-input gates with randomly wired layers.

One network type and one layer loop serve both architectures; the
architecture is only the neuron. The ternary network gives every
neuron 9 polynomial coefficients, and its layer op is

    h = clip(p_w(a, b)),    clip(x) = max(-1, min(1, x)),

which is exact on trit inputs whenever the coefficients interpolate a
truth table, so a fully committed network already behaves like the
discrete circuit it will be hardened into. The binary baseline gives
every neuron 16 logits and blends the standard real-valued relaxations
of the 16 two-input Boolean gates with softmax weights; its inputs and
activations live in [0, 1]. `ARCHS` holds, per architecture, all that
differs in a network and its circuit (`ArchSpec`): the parameter count,
init scale, input domain, layer op and its local gradient, hardening
rule, whether the lattice terms apply, default loss, the gate vocabulary
of its circuits and the map from encoded inputs to circuit trits; only
the encoder (`data.encode`) and the sweeps of `analysis` name one too.
Boolean gate k's truth table is the 4 bits of k; `GATE_BILINEAR` and the
gates' ternary embeddings follow from those tables.

A network and its hardened circuit are one frozen `Model`: the arch
(checked by `arch_spec`), the wiring and the GroupSum head. Only the
wiring holds the shape and seed; `Model.input_dim`, `widths` and `seed`
read them from it, and `Model.input_batch` checks the shape of an input
batch against it. A `Network` adds its parameters, a `circuit.Circuit`
its gate ids.

Class scores come from a GroupSum head: the output layer is cut into k
contiguous equal groups and each group is summed in index order and
divided by the temperature tau. The random wiring leaves some neurons
with no path to the output; `ConnectivityMap.live` lists the others, the
only ones the training passes, the soft scores and the circuit engine run.

The layer loop gathers parent values with `take`, so every array of a
pass is row-major (C-ordered). Each layer op returns its activation and
a context for the backward pass: the pre-clip values of a ternary layer,
the softmax weights and the 16 relaxations of a binary one, so the
backward pass computes none of them again. Both local gradients sum over
the batch in `_batch_sums`, one einsum multiply-reduce per factor that,
on row-major operands, adds the rows in order at every width; a 1-wide
layer goes through a zero-padded 2-wide copy, as einsum would sum a lone
column with unrolled accumulators. So a neuron's gradient bits do not
depend on which other neurons run. `soft_scores` runs the live
neurons SOFT_BLOCK_ROWS rows at a time and keeps only the scores, so its
working memory does not grow with the rows; every layer op and GroupSum
act on each row on its own, so its scores equal `forward_soft`'s to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import algebra

#: Standard deviation of the coefficient init; gives the soft neuron
#: output unit variance (up to a small factor) on uniform trit inputs.
INIT_STD = 0.45

#: Tolerance when validating that forward inputs sit inside the domain.
INPUT_SLACK = 1e-9

#: Rows `soft_scores` runs at a time. A binary layer keeps its 16
#: relaxations, 16 x 256 x 512 floats (16 MB) at a 512-wide layer.
SOFT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GroupSumConfig:
    """Class-score head: k contiguous groups, summed and divided by tau."""

    k: int
    tau: float

    def __post_init__(self):
        if algebra.exact_int(self.k, "k") < 2:
            raise ValueError(f"GroupSum needs k >= 2 classes, got k={self.k}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"GroupSum needs tau > 0 and finite, got tau={self.tau}")


@dataclass(frozen=True)
class ConnectivityMap:
    """Fixed random wiring: parent indices (s, t) for every neuron.

    layers[l] is a pair of int arrays of length widths[l] indexing into
    the previous layer (the input vector for l = 0); construction refuses
    any other layers, as the file reader does. Regenerating with
    the same widths, input_dim and seed reproduces the map bit-exactly.
    """

    seed: int
    input_dim: int
    widths: tuple[int, ...]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if len(self.layers) != len(self.widths):
            raise ValueError(f"{len(self.layers)} layers of parents for "
                             f"{len(self.widths)} widths {self.widths}")
        prev = self.input_dim
        for l, (w, parents) in enumerate(zip(self.widths, self.layers)):
            for p in parents:
                if np.shape(p) != (w,):
                    raise ValueError(f"layer {l}: parent array of shape {np.shape(p)}, "
                                     f"expected ({w},)")
                if not (p.min() >= 0 and p.max() < prev):
                    raise ValueError(f"layer {l}: parent indices must lie in "
                                     f"[0, {prev}), got [{p.min()}, {p.max()}]")
            prev = w

    @cached_property
    def live(self) -> tuple:
        """Per layer (keep, s, t): the sorted indices of the neurons with a
        path to the output, the only ones that can change a score, and
        their parents renumbered into the previous layer's kept neurons
        (raw input indices in layer 0). Cached, as the map is frozen."""
        keeps = [np.arange(self.widths[-1])]
        for s, t in self.layers[:0:-1]:
            keeps.insert(0, np.union1d(s[keeps[0]], t[keeps[0]]))
        prevs = [np.arange(self.input_dim), *keeps[:-1]]
        return tuple((keep, *np.searchsorted(prev, (s[keep], t[keep])))
                     for keep, prev, (s, t) in zip(keeps, prevs, self.layers))

    @property
    def all_neurons(self) -> tuple:
        """The wiring in the form of `live` that keeps every neuron."""
        return tuple((slice(None), s, t) for s, t in self.layers)


def _draw_connectivity(widths, input_dim: int, seed: int):
    """The wiring of a checked shape, drawn from a stream seeded with
    `seed`, and that stream, positioned for any draw that follows."""
    widths = tuple(algebra.exact_int(w, f"widths[{i}]") for i, w in enumerate(widths))
    if len(widths) == 0:
        raise ValueError("network needs at least one layer")
    if any(w < 1 for w in widths):
        raise ValueError(f"zero-width layer in {widths}")
    if input_dim < 2:
        raise ValueError(f"need at least 2 inputs, got input_dim={input_dim}")
    rng = np.random.default_rng(seed)
    layers, prev = [], input_dim
    for w in widths:
        layers.append((rng.integers(0, prev, size=w), rng.integers(0, prev, size=w)))
        prev = w
    return ConnectivityMap(seed=seed, input_dim=input_dim, widths=widths,
                           layers=tuple(layers)), rng


def sample_connectivity(widths, input_dim: int, seed: int) -> ConnectivityMap:
    """Draw a fresh wiring. Both parents are uniform over the previous
    layer, drawn independently per neuron, so duplicate parents and
    unused neurons are allowed by design."""
    return _draw_connectivity(widths, input_dim, seed)[0]


@dataclass(frozen=True)
class Model:
    """What a soft network and the circuit hardened from it share: the
    neuron (`arch`, see `ARCHS`), the wiring and the GroupSum head. The
    shape and seed are the wiring's own, read through properties."""

    arch: str
    conn: ConnectivityMap
    groupsum: GroupSumConfig

    input_dim = property(lambda self: self.conn.input_dim)
    widths = property(lambda self: self.conn.widths)
    seed = property(lambda self: self.conn.seed)
    n_neurons = property(lambda self: sum(self.conn.widths))

    def __post_init__(self):
        arch_spec(self.arch)

    def _check_layers(self, name: str, arrays, tail=()):
        """Refuse `arrays` unless it holds one array of shape
        (widths[l], *tail) per layer l."""
        shapes = [np.shape(a) for a in arrays]
        want = [(w, *tail) for w in self.widths]
        if shapes != want:
            raise ValueError(f"{name} shapes {shapes} do not fit widths "
                             f"{self.widths}: expected {want}")

    def input_batch(self, x: np.ndarray):
        """The array `x` as a 2-D batch of input rows, in its own dtype,
        and whether it was one input vector; a ValueError unless it has
        1 or 2 dimensions and `input_dim` columns."""
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(f"expected one input vector or a 2-D batch, "
                             f"got shape {x.shape}")
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} inputs, got {x.shape[1]}")
        return x, single


@dataclass(frozen=True)
class Network(Model):
    """Layered soft gate network: a `Model` with per-layer parameters,
    which training updates in place; no field is ever reassigned."""

    params: list[np.ndarray]  # per layer, shape (widths[l], n_params)

    def __post_init__(self):
        super().__post_init__()
        self._check_layers("params", self.params, (ARCHS[self.arch].n_params,))


def init_network(widths, input_dim: int, seed: int,
                 groupsum: GroupSumConfig | None = None,
                 arch: str = "ternary") -> Network:
    """Fresh network: random wiring, then N(0, init_std^2) parameters.

    The wiring is drawn first from the seeded stream, so it coincides
    with `sample_connectivity(widths, input_dim, seed)`.
    """
    spec = arch_spec(arch)
    groupsum = groupsum or GroupSumConfig(k=2, tau=10.0)
    conn, rng = _draw_connectivity(widths, input_dim, seed)
    if conn.widths[-1] % groupsum.k != 0:
        raise ValueError(f"output width {conn.widths[-1]} not divisible by k={groupsum.k}")
    params = [rng.normal(0.0, spec.init_std, size=(w, spec.n_params))
              for w in conn.widths]
    return Network(arch=arch, conn=conn, groupsum=groupsum, params=params)


def group_sum(h: np.ndarray, cfg: GroupSumConfig) -> np.ndarray:
    """Scores from output activations: contiguous group sums over tau.

    Each group is summed in index order, as a running sum, so a row's
    scores do not depend on the layout of `h` or on the rows scored with
    it (numpy's sum turns pairwise along a contiguous axis). The scores
    are F-ordered, the layout the task loss reduces them in.
    """
    n = h.shape[-1]
    if n % cfg.k != 0:
        raise ValueError(f"output width {n} not divisible by k={cfg.k}")
    grouped = h.reshape(h.shape[:-1] + (cfg.k, n // cfg.k))
    return np.asfortranarray(np.cumsum(grouped, axis=-1)[..., -1] / cfg.tau)


def _layers(net: Network, x: np.ndarray, wiring=None):
    """Unchecked batch core of the soft forward pass, over the neurons
    `wiring` keeps (a `ConnectivityMap.live` or, by default, `.all_neurons`).

    Yields, layer by layer, their parameters w, parent values (a, b),
    activation h and the context the layer op keeps for the backward pass.
    The gathers are C-ordered copies, as is every array the layers make.
    """
    layer = ARCHS[net.arch].layer
    h = x
    for (keep, s, t), w in zip(wiring or net.conn.all_neurons, net.params):
        w, a, b = w[keep], h.take(s, axis=1), h.take(t, axis=1)
        h, ctx = layer(w, a, b)
        yield w, a, b, h, ctx


def _checked_inputs(net: Network, x):
    """`x` as a float batch and whether it was one input vector, after
    checking that it is finite and inside the architecture's domain."""
    x, single = net.input_batch(np.asarray(x, dtype=float))
    lo, hi = ARCHS[net.arch].domain
    # NaN fails this check too: every comparison with NaN is false.
    if x.size and not (x.min() >= lo - INPUT_SLACK and x.max() <= hi + INPUT_SLACK):
        raise ValueError(f"network inputs must be finite and lie in [{lo}, {hi}], "
                         f"got range [{x.min():.6g}, {x.max():.6g}]")
    return x, single


def forward_soft(net: Network, x, wiring=None):
    """Soft forward pass. Returns (per-layer activations, class scores).

    `x` is one input vector or a batch (rows), finite and inside the
    architecture's input domain. Activations exclude the input; the
    last entry is the output layer feeding GroupSum. Given a `wiring`
    (`ConnectivityMap.live`), only the neurons it keeps run and return
    activations; every layer op acts on each neuron's column on its own,
    so the scores stay the same to the bit.
    """
    x, single = _checked_inputs(net, x)
    activations = [h for *_, h, _ in _layers(net, x, wiring)]
    scores = group_sum(activations[-1], net.groupsum)
    if single:
        return [a[0] for a in activations], scores[0]
    return activations, scores


def soft_scores(net: Network, x) -> np.ndarray:
    """The class scores of `forward_soft`, to the bit, from the live
    neurons run SOFT_BLOCK_ROWS rows at a time, so memory stays one block
    of activations and contexts whatever the number of rows. The whole of
    `x` is checked before the first block runs."""
    x, single = _checked_inputs(net, x)
    scores = np.empty((x.shape[0], net.groupsum.k), order="F")
    for lo in range(0, x.shape[0], SOFT_BLOCK_ROWS):
        for *_, h, _ in _layers(net, x[lo:lo + SOFT_BLOCK_ROWS], net.conn.live):
            pass  # only the output layer's activations feed the scores
        scores[lo:lo + SOFT_BLOCK_ROWS] = group_sum(h, net.groupsum)
    return scores[0] if single else scores


# Kept under its former name, which the benchmark's tracer reports.
forward_binary = forward_soft


def binary_gate_relaxation(k: int, a, b):
    """Real-valued relaxation of Boolean gate k on [0, 1] inputs.

    Index order is the usual 16-gate enumeration: 0 is constant false,
    1 is AND, ..., 15 is constant true. Gate k is GATE_BILINEAR[k] . (1, a,
    b, ab) up to rounding; no one order of that sum rounds as all 16 do.
    """
    if k == 0:
        return np.zeros(np.broadcast(a, b).shape)
    if k == 1:
        return a * b
    if k == 2:
        return a - a * b
    if k == 3:
        return a * np.ones_like(b)
    if k == 4:
        return b - a * b
    if k == 5:
        return b * np.ones_like(a)
    if k == 6:
        return a + b - 2 * a * b
    if k == 7:
        return a + b - a * b
    if k == 8:
        return 1 - (a + b - a * b)
    if k == 9:
        return 1 - (a + b - 2 * a * b)
    if k == 10:
        return 1 - b * np.ones_like(a)
    if k == 11:
        return 1 - b + a * b
    if k == 12:
        return 1 - a * np.ones_like(b)
    if k == 13:
        return 1 - a + a * b
    if k == 14:
        return 1 - a * b
    if k == 15:
        return np.ones(np.broadcast(a, b).shape)
    raise ValueError(f"gate index {k} out of range [0, 15]")


def softmax(z: np.ndarray) -> np.ndarray:
    """Rowwise softmax along the last axis, shift-stabilized."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


#: (16, 4) truth tables of the Boolean gates: gate k's table is the 4 bits
#: of k, high bit first, at the corners (a, b) = (0,0), (0,1), (1,0), (1,1).
BOOLEAN_TABLES = np.arange(16)[:, None] >> np.arange(3, -1, -1) & 1

#: Bilinear coefficients of each relaxed Boolean gate, g_k(a, b) = c0 + c1 a
#: + c2 b + c3 ab in `binary_gate_relaxation`'s order, by inclusion-exclusion:
#: c0 = t00, c1 = t10 - t00, c2 = t01 - t00, c3 = t11 - t10 - t01 + t00.
GATE_BILINEAR = (BOOLEAN_TABLES @ np.array(
    [[1, -1, -1, 1], [0, 0, 1, -1], [0, 1, 0, -1], [0, 0, 0, 1]])).astype(float)

#: Ternary embeddings of the Boolean gates, int8 tables in grid order: a
#: grid point takes the consensus of the gate's outputs over its Boolean
#: completions (UNKNOWN stands for 0 and 1), or UNKNOWN if they disagree.
#: Row (a, b) of kron(W, W) is the mean over those completions, and the
#: mean of the outputs as +-1 is +-1 exactly when they agree.
_W = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])  # trits -1, 0, +1 over bits 0, 1
BOOLEAN_EMBEDDINGS = np.trunc((2 * BOOLEAN_TABLES - 1) @ np.kron(_W, _W).T).astype(np.int8)


def _batch_sums(g, factors):
    """(len(factors), width) array: row i holds the batch sums of
    g * factors[i], or of g alone where factors[i] is None, each added
    row by row in batch order, the order `out += g[r] * f[r]` gives.

    Each sum is one einsum multiply-reduce over row-major (batch, width)
    operands, with no product temporaries. numpy's iterator then keeps the
    width axis inner and adds the rows in order, rounding each product and
    then each sum: einsum's loops are built for numpy's baseline instruction
    set, which has no fused multiply-add on x86-64 (X86_V2); the oracle
    tests guard any other build. So a column's bits do not depend on how
    many columns there are, which skipping dead neurons changes. Operands
    in another layout are copied to row-major first, as their rows would
    otherwise be the inner axis. A 1-wide operand is summed as the first
    column of a zero-padded 2-wide copy: einsum drops a width-1 axis and
    would sum the batch with unrolled accumulators, out of order.
    """
    width = g.shape[1]
    g = _two_wide_rows(g)
    factors = [f if f is None else _two_wide_rows(f) for f in factors]
    out = np.empty((len(factors), g.shape[1]))
    for row, f in zip(out, factors):
        if f is None:
            np.einsum("bw->w", g, out=row)
        else:
            np.einsum("bw,bw->w", g, f, out=row)
    return out[:, :width]


def _two_wide_rows(x):
    """`x` as a row-major array, zero-padded to 2 columns if it has 1."""
    if x.shape[1] > 1:
        return np.ascontiguousarray(x)
    padded = np.zeros((x.shape[0], 2))
    padded[:, :1] = x
    return padded


def _polynomial_layer(w, a, b):
    """Ternary neuron: the clipped polynomial; keeps the pre-clip value."""
    u = algebra.eval_poly_many(w, a, b)
    return np.clip(u, -1.0, 1.0), u


def _polynomial_grads(w, a, b, u, gh, parents: bool):
    """Local gradient of the clipped polynomial: the coefficient gradient
    and, if `parents`, the gradients at the two parent values.

    Coefficient k's gradient is the batch sum of gu * m_k over the
    monomials m_k of `algebra.monomials`, built from shared products.
    """
    gu = gh * ((u >= -1.0) & (u <= 1.0))
    ab = a * b
    aa = a * a
    aab = aa * b
    monomials = (None, a, b, ab, aa, b * b, aab, ab * b, aab * b)  # None: 1
    gw = _batch_sums(gu, monomials).T
    if not parents:
        return gw, None, None
    da, db = algebra.poly_input_grads(w, a, b)
    return gw, gu * da, gu * db


def _blend_layer(logit, a, b):
    """Binary neuron: softmax blend of the 16 relaxations; keeps the
    weights and the relaxations."""
    p = softmax(logit)
    relaxations = [binary_gate_relaxation(k, a, b) for k in range(16)]
    out = np.zeros_like(a)
    for pk, g in zip(p.T.copy(), relaxations):
        out += pk * g
    return out, (p, relaxations)


def _blend_grads(logit, a, b, ctx, gh, parents: bool):
    """Local gradient of the softmax gate blend, like `_polynomial_grads`;
    `ctx` holds the weights and relaxations of the forward pass."""
    p, relaxations = ctx
    # dL/dp_k per neuron, C-ordered as the row sums below need, then the softmax Jacobian
    gp = _batch_sums(gh, relaxations).T.copy()
    inner = (gp * p).sum(axis=1, keepdims=True)
    gw = p * (gp - inner)
    if not parents:
        return gw, None, None
    q = p @ GATE_BILINEAR  # blended bilinear coefficients
    return gw, gh * (q[:, 1] + q[:, 3] * b), gh * (q[:, 2] + q[:, 3] * a)


def _rounded_tables(w):
    """Ternary hardening: the truth tables rounded to trits."""
    return algebra.round_table(w @ algebra.VANDERMONDE.T)


def _argmax_gate_tables(logit):
    """Binary hardening: the embedding of the argmax gate (lowest index)."""
    return BOOLEAN_EMBEDDINGS[logit.argmax(axis=1)]


def _bits_as_corners(x):
    """Encoded bits 0 and 1 as the trit corners -1 and +1; any other value
    is an error, none is truncated."""
    bits = algebra.exact_ints(np.asarray(x), 0, 1,
                              "binary circuit inputs must be bits in {0, 1}")
    return 2 * bits.astype(np.int8, copy=False) - 1


@dataclass(frozen=True)
class ArchSpec:
    """Everything an architecture decides, from its neuron to its circuit."""

    n_params: int  # parameters per neuron
    init_std: float  # standard deviation of the parameter init
    domain: tuple[float, float]  # range of inputs and activations
    layer: Callable  # (params, a, b) -> (activation, context)
    local_grads: Callable  # (params, a, b, context, gh, parents) -> (gw, ga, gb)
    harden: Callable  # one layer's (w, n_params) params -> hardened (w, 9) tables
    lattice: bool  # whether commitment, sparsity and hardening error apply
    loss: str  # the task loss a recipe picks by default
    vocab: np.ndarray  # the gate ids its circuits may hold
    trit_inputs: Callable  # encoded inputs -> circuit trits


ARCHS = {
    "ternary": ArchSpec(9, INIT_STD, (-1.0, 1.0), _polynomial_layer, _polynomial_grads,
                        _rounded_tables, True, "mse", np.arange(algebra.N_GATES),
                        np.asarray),
    "binary": ArchSpec(16, 1.0, (0.0, 1.0), _blend_layer, _blend_grads,
                       _argmax_gate_tables, False, "ce",
                       algebra.encode_tables(BOOLEAN_EMBEDDINGS), _bits_as_corners),
}


def arch_spec(name: str) -> ArchSpec:
    """The `ArchSpec` of architecture `name`; a ValueError names the known ones."""
    if name not in ARCHS:
        raise ValueError(f"arch must be one of {sorted(ARCHS)}, got {name!r}")
    return ARCHS[name]
