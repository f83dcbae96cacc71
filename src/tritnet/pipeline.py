"""End-to-end run plumbing shared by the CLI, sweeps and tests.

A RunRecipe bundles every knob of one training run: architecture,
widths, encoder settings and optimizer hyperparameters. The defaults
follow the desk-scale recipe used throughout the experiments: a three
layer body of width 512, a 200-neuron output layer under GroupSum(k=2,
tau=10), 3 thresholds per feature at full dead-zone width, and 5,000
Adam steps on batches of 100. Mean squared error drives the ternary
network, softmax cross-entropy the binary baseline.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import circuit as circ_mod
from . import data as data_mod
from . import network as net_mod
from . import training as train_mod

DEFAULT_BODY = (512, 512, 512)
DEFAULT_OUTPUT = 200


@dataclass(frozen=True)
class RunRecipe:
    """All knobs of one training run."""

    arch: str = "ternary"
    body_widths: tuple[int, ...] = DEFAULT_BODY
    output_neurons: int = DEFAULT_OUTPUT
    k: int = 2
    tau: float = 10.0
    thresholds: int = 3  # K, thresholds per feature (resolution K + 1)
    delta: float = 1.0
    steps: int = 5000
    batch_size: int = 100
    lr: float = 0.01
    lambda_max: float = 0.1
    gamma: float = 2.0
    beta: float = 0.0
    loss: str | None = None  # None picks mse (ternary) or ce (binary)
    seed: int = 0
    eval_every: int = 500

    def __post_init__(self):
        if self.arch not in ("ternary", "binary"):
            raise ValueError(f"arch must be ternary or binary, got {self.arch!r}")

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(self.body_widths) + (self.output_neurons,)

    def effective_loss(self) -> str:
        if self.loss is not None:
            return self.loss
        return "mse" if self.arch == "ternary" else "ce"

    def train_config(self) -> train_mod.TrainConfig:
        return train_mod.TrainConfig(
            steps=self.steps,
            batch_size=self.batch_size,
            lr=self.lr,
            lambda_max=self.lambda_max,
            gamma=self.gamma,
            beta=self.beta,
            loss=self.effective_loss(),
            seed=self.seed + 1,  # distinct stream from the init draw
            eval_every=self.eval_every,
        )

    def describe(self) -> dict:
        d = asdict(self)
        d["body_widths"] = list(self.body_widths)
        d["resolution"] = self.thresholds + 1
        d["loss"] = self.effective_loss()
        return d


@dataclass
class RunResult:
    """Everything produced by one end-to-end run."""

    recipe: RunRecipe
    net: object
    circuit: circ_mod.Circuit
    encoder: data_mod.EncoderConfig
    history: list[dict]
    gap: circ_mod.GapReport
    x_test_enc: object
    y_test: object
    timings: dict = field(default_factory=dict)


def encode_for(recipe: RunRecipe, train_ds: data_mod.Dataset,
               test_ds: data_mod.Dataset):
    """Fit the encoder on the train split and encode both splits."""
    enc = data_mod.fit_encoder(train_ds.features, recipe.thresholds,
                               recipe.delta, mode=recipe.arch)
    return enc, data_mod.encode(train_ds.features, enc), \
        data_mod.encode(test_ds.features, enc)


def run_pipeline(train_ds: data_mod.Dataset, test_ds: data_mod.Dataset,
                 recipe: RunRecipe) -> RunResult:
    """Encode, train, harden and report one run."""
    enc, x_train, x_test = encode_for(recipe, train_ds, test_ds)
    net = net_mod.init_network(recipe.widths, enc.encoded_dim, recipe.seed,
                               net_mod.GroupSumConfig(k=recipe.k, tau=recipe.tau),
                               arch=recipe.arch)
    cfg = recipe.train_config()
    t0 = time.perf_counter()
    net, history = train_mod.train(
        net, (x_train, train_ds.labels), cfg,
        eval_data=(x_test, test_ds.labels),
    )
    t1 = time.perf_counter()
    circuit = circ_mod.harden_network(net)
    gap = circ_mod.gap_report(net, circuit, x_test, test_ds.labels)
    t2 = time.perf_counter()
    timings = {
        "train_seconds": t1 - t0,
        "steps_per_second": recipe.steps / (t1 - t0) if t1 > t0 else 0.0,
        "harden_eval_seconds": t2 - t1,
    }
    return RunResult(recipe=recipe, net=net, circuit=circuit, encoder=enc,
                     history=history, gap=gap, x_test_enc=x_test,
                     y_test=test_ds.labels, timings=timings)


def vary(recipe: RunRecipe, **changes) -> RunRecipe:
    """A copy of the recipe with some fields replaced."""
    return replace(recipe, **changes)


def _bench_arch(arch: str, widths, input_dim: int, batch: int, steps: int,
                warmup: int, seed: int) -> list[float]:
    """Wall seconds of `steps` training steps (backward plus Adam) after
    `warmup` untimed ones, for `tritnet bench`: the default recipe on
    random inputs from the arch's domain, at a mid-schedule lambda."""
    rng = np.random.default_rng(seed)
    n = max(batch * 4, 256)
    y = rng.integers(0, 2, size=n)
    net = net_mod.init_network(widths, input_dim, seed,
                               net_mod.GroupSumConfig(2, 10.0), arch=arch)
    lo, hi = net_mod.ARCHS[arch].domain
    x = rng.integers(int(lo), int(hi) + 1, size=(n, input_dim)).astype(float)
    cfg = RunRecipe(arch=arch, steps=1, batch_size=batch).train_config()
    lam = cfg.lambda_max / 4.0
    state = train_mod.AdamState.init(net.params)
    times = []
    for i in range(warmup + steps):
        idx = rng.integers(0, n, size=batch)
        t0 = time.perf_counter()
        _, grads = train_mod.backward(net, x[idx], y[idx], lam, cfg)
        train_mod.adam_step(net.params, grads, state, cfg.lr)
        t1 = time.perf_counter()
        if i >= warmup:
            times.append(t1 - t0)
    return times
