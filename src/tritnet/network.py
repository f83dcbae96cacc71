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
activations live in [0, 1]. `ARCHS` holds all that differs here: the
parameter count, the init scale, the input domain and the layer op.

Class scores come from a GroupSum head: the output layer is cut into k
contiguous equal groups and each group is summed and divided by the
temperature tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra

#: Standard deviation of the coefficient init; gives the soft neuron
#: output unit variance (up to a small factor) on uniform trit inputs.
INIT_STD = 0.45

#: Tolerance when validating that forward inputs sit inside the domain.
INPUT_SLACK = 1e-9


@dataclass(frozen=True)
class GroupSumConfig:
    """Class-score head: k contiguous groups, summed and divided by tau."""

    k: int
    tau: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"GroupSum needs k >= 2 classes, got k={self.k}")
        if not self.tau > 0:
            raise ValueError(f"GroupSum needs tau > 0, got tau={self.tau}")


@dataclass(frozen=True)
class ConnectivityMap:
    """Fixed random wiring: parent indices (s, t) for every neuron.

    layers[l] is a pair of int arrays of length widths[l] indexing into
    the previous layer (the input vector for l = 0). Regenerating with
    the same widths, input_dim and seed reproduces the map bit-exactly.
    """

    seed: int
    input_dim: int
    widths: tuple[int, ...]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


def _draw_connectivity(rng, input_dim, widths):
    layers = []
    prev = input_dim
    for w in widths:
        s = rng.integers(0, prev, size=w)
        t = rng.integers(0, prev, size=w)
        layers.append((s, t))
        prev = w
    return tuple(layers)


def sample_connectivity(widths, input_dim: int, seed: int) -> ConnectivityMap:
    """Draw a fresh wiring. Both parents are uniform over the previous
    layer, drawn independently per neuron, so duplicate parents and
    unused neurons are allowed by design."""
    widths = tuple(int(w) for w in widths)
    _validate_shape(widths, input_dim)
    rng = np.random.default_rng(seed)
    return ConnectivityMap(
        seed=seed,
        input_dim=input_dim,
        widths=widths,
        layers=_draw_connectivity(rng, input_dim, widths),
    )


def _validate_shape(widths, input_dim):
    if len(widths) == 0:
        raise ValueError("network needs at least one layer")
    if any(w < 1 for w in widths):
        raise ValueError(f"zero-width layer in {widths}")
    if input_dim < 2:
        raise ValueError(f"need at least 2 inputs, got input_dim={input_dim}")


@dataclass
class Network:
    """Layered soft gate network; `arch` names its neuron (see `ARCHS`)."""

    arch: str
    input_dim: int
    widths: tuple[int, ...]
    conn: ConnectivityMap
    params: list[np.ndarray]  # per layer, shape (widths[l], n_params)
    groupsum: GroupSumConfig
    seed: int

    @property
    def n_neurons(self) -> int:
        return sum(self.widths)


def init_network(widths, input_dim: int, seed: int,
                 groupsum: GroupSumConfig | None = None,
                 arch: str = "ternary") -> Network:
    """Fresh network: random wiring, then N(0, init_std^2) parameters.

    The wiring is drawn first from the seeded stream, so it coincides
    with `sample_connectivity(widths, input_dim, seed)`.
    """
    if arch not in ARCHS:
        raise ValueError(f"arch must be one of {sorted(ARCHS)}, got {arch!r}")
    spec = ARCHS[arch]
    widths = tuple(int(w) for w in widths)
    _validate_shape(widths, input_dim)
    groupsum = groupsum or GroupSumConfig(k=2, tau=10.0)
    if widths[-1] % groupsum.k != 0:
        raise ValueError(
            f"output width {widths[-1]} not divisible by k={groupsum.k}"
        )
    rng = np.random.default_rng(seed)
    layers = _draw_connectivity(rng, input_dim, widths)
    conn = ConnectivityMap(seed=seed, input_dim=input_dim, widths=widths,
                           layers=layers)
    params = [rng.normal(0.0, spec.init_std, size=(w, spec.n_params))
              for w in widths]
    return Network(arch=arch, input_dim=input_dim, widths=widths, conn=conn,
                   params=params, groupsum=groupsum, seed=seed)


def group_sum(h: np.ndarray, cfg: GroupSumConfig) -> np.ndarray:
    """Scores from output activations: contiguous group sums over tau."""
    n = h.shape[-1]
    if n % cfg.k != 0:
        raise ValueError(f"output width {n} not divisible by k={cfg.k}")
    grouped = h.reshape(h.shape[:-1] + (cfg.k, n // cfg.k))
    return grouped.sum(axis=-1) / cfg.tau


def _layers(net: Network, x: np.ndarray):
    """Unchecked batch core of the soft forward pass.

    Yields, layer by layer, the parent values (a, b), the activation h
    and the context the layer op keeps for the backward pass.
    """
    layer = ARCHS[net.arch].layer
    h = x
    for (s, t), w in zip(net.conn.layers, net.params):
        a, b = h[:, s], h[:, t]
        h, ctx = layer(w, a, b)
        yield a, b, h, ctx


def forward_soft(net: Network, x):
    """Soft forward pass. Returns (per-layer activations, class scores).

    `x` is one input vector or a batch (rows), finite and inside the
    architecture's input domain. Activations exclude the input; the
    last entry is the output layer feeding GroupSum.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got {x.shape[1]}")
    lo, hi = ARCHS[net.arch].domain
    # NaN fails this check too: every comparison with NaN is false.
    if x.size and not (x.min() >= lo - INPUT_SLACK and x.max() <= hi + INPUT_SLACK):
        raise ValueError(f"network inputs must be finite and lie in [{lo}, {hi}], "
                         f"got range [{x.min():.6g}, {x.max():.6g}]")
    activations = [h for _, _, h, _ in _layers(net, x)]
    scores = group_sum(activations[-1], net.groupsum)
    if single:
        return [a[0] for a in activations], scores[0]
    return activations, scores


# Kept under its former name, which the benchmark's tracer reports.
forward_binary = forward_soft


def binary_gate_relaxation(k: int, a, b):
    """Real-valued relaxation of Boolean gate k on [0, 1] inputs.

    Index order is the usual 16-gate enumeration: 0 is constant false,
    1 is AND, ..., 15 is constant true.
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


def boolean_gate_table(k: int) -> tuple[int, ...]:
    """Boolean truth table of gate k on the four corner inputs.

    Entries are bits ordered by (a, b) in ((0,0), (0,1), (1,0), (1,1)).
    """
    out = []
    for a, b in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        v = float(binary_gate_relaxation(k, np.float64(a), np.float64(b)))
        out.append(int(round(v)))
    return tuple(out)


def _polynomial_layer(w, a, b):
    """Ternary neuron: the clipped polynomial; keeps the pre-clip value."""
    u = algebra.eval_poly_many(w, a, b)
    return np.clip(u, -1.0, 1.0), u


def _blend_layer(logit, a, b):
    """Binary neuron: softmax blend of the 16 relaxations; keeps the weights."""
    p = softmax(logit)
    out = np.zeros_like(a)
    for k in range(16):
        out += p[:, k] * binary_gate_relaxation(k, a, b)
    return out, p


@dataclass(frozen=True)
class ArchSpec:
    """What the network stage of an architecture makes of its neuron."""

    n_params: int  # parameters per neuron
    init_std: float  # standard deviation of the parameter init
    domain: tuple[float, float]  # range of inputs and activations
    layer: Callable  # (params, a, b) -> (activation, context)


ARCHS = {
    "ternary": ArchSpec(9, INIT_STD, (-1.0, 1.0), _polynomial_layer),
    "binary": ArchSpec(16, 1.0, (0.0, 1.0), _blend_layer),
}

